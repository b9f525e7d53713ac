"""Name -> builder registries that make every experiment component pluggable.

Topologies, workloads, transports, congestion-control schemes and scenarios
are all looked up by name in a :class:`Registry` instead of being dispatched
through closed ``if/elif`` chains.  Third-party code registers a
new component with a decorator and never has to touch the engine::

    from repro.topology import register_topology

    @register_topology("ring", max_hop_count=4, switch_radix=4)
    def build_ring(sim, config, switch_config):
        ...

Names are plain strings; lookups fold case and resolve aliases, and
:meth:`Registry.canonical_name` gives the one spelling a config stores.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, List, Optional, Sequence, TypeVar, Union

T = TypeVar("T")

__all__ = [
    "DuplicateNameError",
    "Registry",
    "UnknownNameError",
    "normalize_name",
]


class UnknownNameError(KeyError, ValueError):
    """Lookup of a name nothing has registered.

    The message lists every valid name so a typo is a one-glance fix.
    ``str(err)`` returns the plain message (``KeyError`` would repr it).
    Subclasses both :class:`KeyError` (mapping semantics) and
    :class:`ValueError` (what the pre-registry factories raised), so
    existing ``except`` clauses keep catching it.
    """

    def __init__(self, kind: str, name: str, valid: Sequence[str]) -> None:
        message = (
            f"unknown {kind} {name!r}; registered {kind}s: {', '.join(valid) or '(none)'}"
        )
        super().__init__(message)
        self.kind = kind
        self.name = name
        self.valid = list(valid)

    def __str__(self) -> str:  # KeyError.__str__ would quote the message
        return self.args[0]


class DuplicateNameError(ValueError):
    """Registration under a name (or alias) that is already taken."""


def normalize_name(name: str) -> str:
    """Canonical registry key: the name, lower-cased.

    Anything but a string is refused rather than stringified, so a stray
    object used as a component name fails at the lookup, not as a silently
    different fingerprint.
    """
    if not isinstance(name, str):
        raise TypeError(f"component names must be strings, got {name!r}")
    return name.lower()


class Registry(Generic[T]):
    """An ordered name -> object mapping with decorator registration.

    Parameters
    ----------
    kind:
        Human-readable component kind (``"topology"``, ``"transport"`` ...),
        used in error messages.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        obj: Optional[T] = None,
        *,
        aliases: Sequence[str] = (),
        replace: bool = False,
    ) -> Union[T, Callable[[T], T]]:
        """Register ``obj`` under ``name`` (plus optional ``aliases``).

        With ``obj`` omitted, returns a decorator::

            @REGISTRY.register("fat_tree")
            def build(...): ...

        Re-registering a taken name raises :class:`DuplicateNameError`
        unless ``replace=True`` (tests and interactive notebooks swap
        components in place; libraries should pick fresh names).
        """
        if obj is None:
            def decorator(decorated: T) -> T:
                self.register(name, decorated, aliases=aliases, replace=replace)
                return decorated
            return decorator

        key = normalize_name(name)
        alias_keys = [normalize_name(alias) for alias in aliases]
        for candidate in (key, *alias_keys):
            if not replace and (candidate in self._entries or candidate in self._aliases):
                raise DuplicateNameError(
                    f"{self.kind} {candidate!r} is already registered; "
                    f"pass replace=True to override it"
                )
        # A replaced name must become canonical: drop any stale alias entry
        # that would otherwise keep redirecting lookups to the old target.
        self._aliases.pop(key, None)
        self._entries[key] = obj
        for alias_key in alias_keys:
            self._aliases[alias_key] = key
        return obj

    def unregister(self, name: str) -> None:
        """Remove ``name`` and any aliases pointing at it (test cleanup)."""
        key = normalize_name(name)
        key = self._aliases.get(key, key)
        self._entries.pop(key, None)
        self._aliases = {a: t for a, t in self._aliases.items() if t != key}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> T:
        """The object registered under ``name`` (or an alias of it).

        Raises :class:`UnknownNameError` -- whose message lists every valid
        name -- when nothing matches.
        """
        key = normalize_name(name)
        key = self._aliases.get(key, key)
        try:
            return self._entries[key]
        except KeyError:
            raise UnknownNameError(self.kind, key, self.names()) from None

    def canonical_name(self, name: str) -> str:
        """The canonical spelling of ``name``: aliases resolve to the name
        they target; unregistered names pass through normalized.  Lets
        callers store one spelling per component, so alias spellings never
        split fingerprints or aggregation cells."""
        key = normalize_name(name)
        return self._aliases.get(key, key)

    def names(self) -> List[str]:
        """Canonical registered names, in registration order (no aliases)."""
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def __contains__(self, name: object) -> bool:
        try:
            key = normalize_name(name)  # type: ignore[arg-type]
        except TypeError:
            return False
        return key in self._entries or key in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.names()})"
