"""Lazy package facades (PEP 562).

A package ``__init__`` that re-exports names from its submodules by
importing them makes every user of *any* submodule pay for *all* of them:
``import repro.sim.pfc`` (90 lines) used to load the engine, the switch and
the routing code on the way in.  :func:`lazy_exports` keeps the facade --
``from repro.sim import Simulator``, ``dir(repro.sim)``, ``__all__`` -- and
moves each import to the first access of the name::

    from repro._lazy import lazy_exports

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "Simulator": "repro.sim.engine",
        "scenarios": "repro.experiments.scenarios",   # a submodule itself
    })
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the module named ``package``.

    ``exports`` maps each public name to the module that defines it; a name
    mapped to ``<package>.<name>`` is that submodule.  A resolved name is
    stored on the package, so ``__getattr__`` runs once per name.
    """
    namespace: Dict[str, Any] = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module = import_module(target)
        value = module if target == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__, list(exports)
