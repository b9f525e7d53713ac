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

Built-ins are *declared*: a registry is created knowing the names it ships
with, their aliases and the module whose import registers each one (its
*provider*).  Everything that only needs names -- canonicalising a config,
listing, membership, the "did you mean" of an :class:`UnknownNameError` --
answers from the declaration and imports nothing; :meth:`Registry.get`
imports the provider the first time the object itself is wanted::

    TOPOLOGIES = Registry(
        "topology",
        builtins={"inter_dc_fattree": "repro.topology.fattree"},  # name -> provider
        aliases={"inter_dc_fat_tree": "inter_dc_fattree"},        # alias -> name
    )

    # in repro/topology/fattree.py, the registration every component makes:
    @register_topology("inter_dc_fattree", aliases=("inter_dc_fat_tree",), ...)
    def build_inter_dc_fattree(sim, config, switch_config): ...

A registration under a declared name from any other module is a duplicate,
and a provider whose registration disagrees with its declaration (a missing
name, other aliases) fails on import, so the two cannot drift apart.
"""

from __future__ import annotations

from importlib import import_module
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

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


#: What a declared name maps to until its provider has registered it.
_DECLARED: Any = object()


class Registry(Generic[T]):
    """An ordered name -> object mapping with decorator registration.

    Parameters
    ----------
    kind:
        Human-readable component kind (``"topology"``, ``"transport"`` ...),
        used in error messages.
    builtins:
        Declared built-ins, ``canonical name -> provider module``, in the
        order :meth:`names` lists them.  The provider's own registration
        fills the declared slot; until then the name is known (``in``,
        :meth:`names`, :meth:`canonical_name`) but its object is not loaded.
    aliases:
        ``alias -> canonical name`` for the declared built-ins.
    """

    def __init__(
        self,
        kind: str,
        builtins: Optional[Mapping[str, str]] = None,
        aliases: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.kind = kind
        self._providers: Dict[str, str] = dict(builtins or {})
        self._entries: Dict[str, T] = dict.fromkeys(self._providers, _DECLARED)
        self._aliases: Dict[str, str] = dict(aliases or {})

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
        provider: Optional[str] = None,
    ) -> Union[T, Callable[[T], T]]:
        """Register ``obj`` under ``name`` (plus optional ``aliases``).

        With ``obj`` omitted, returns a decorator::

            @REGISTRY.register("fat_tree")
            def build(...): ...

        Re-registering a taken name raises :class:`DuplicateNameError`
        unless ``replace=True`` (tests and interactive notebooks swap
        components in place; libraries should pick fresh names).  A declared
        built-in is taken from the start: only a registration from its
        provider module (``provider``, by default the module that defines
        ``obj``) fills it, and ``replace=True`` from anywhere else loads the
        built-in first and then replaces it, exactly as if it had been
        registered eagerly.
        """
        if obj is None:
            def decorator(decorated: T) -> T:
                self.register(
                    name, decorated, aliases=aliases, replace=replace, provider=provider
                )
                return decorated
            return decorator

        key = normalize_name(name)
        alias_keys = [normalize_name(alias) for alias in aliases]
        filling = self._entries.get(key) is _DECLARED
        if filling and self._providers[key] != (provider or getattr(obj, "__module__", None)):
            if replace:
                self._load(key)
            filling = False
        if filling:
            # A declaration answers for the provider before it is imported,
            # so the two must say the same thing.
            declared = sorted(a for a, target in self._aliases.items() if target == key)
            if sorted(alias_keys) != declared:
                raise ValueError(
                    f"{self.kind} {key!r} is declared with aliases {declared} but "
                    f"{self._providers[key]} registers it with {sorted(alias_keys)}"
                )
        elif not replace:
            for candidate in (key, *alias_keys):
                if candidate in self._entries or candidate in self._aliases:
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
        """Remove ``name``, any aliases pointing at it and, for a built-in,
        its declaration (test cleanup)."""
        key = normalize_name(name)
        key = self._aliases.get(key, key)
        self._entries.pop(key, None)
        self._providers.pop(key, None)
        self._aliases = {a: t for a, t in self._aliases.items() if t != key}

    # ------------------------------------------------------------------
    # Declared built-ins
    # ------------------------------------------------------------------
    def _load(self, key: str) -> T:
        """Import the provider of the declared name ``key``; its
        registration fills the slot."""
        provider = self._providers[key]
        import_module(provider)
        obj = self._entries[key]
        if obj is _DECLARED:
            raise ImportError(
                f"{provider} is declared as the provider of {self.kind} {key!r} "
                f"but importing it did not register that name",
                name=provider,
            )
        return obj

    def load_builtins(self) -> None:
        """Import every provider not loaded yet.  The module that simulates
        calls this up front, so no cell pays for an import."""
        for key, obj in list(self._entries.items()):
            if obj is _DECLARED:
                self._load(key)

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
            obj = self._entries[key]
        except KeyError:
            raise UnknownNameError(self.kind, key, self.names()) from None
        if obj is _DECLARED:
            obj = self._load(key)
        return obj

    def canonical_name(self, name: str) -> str:
        """The canonical spelling of ``name``: aliases resolve to the name
        they target; unregistered names pass through normalized.  Lets
        callers store one spelling per component, so alias spellings never
        split fingerprints or aggregation cells."""
        key = normalize_name(name)
        return self._aliases.get(key, key)

    def require(self, name: str) -> str:
        """:meth:`canonical_name`, for a name that must exist: raises
        :class:`UnknownNameError` unless ``name`` is registered or declared.
        Like every name-only query it imports no provider."""
        key = self.canonical_name(name)
        if key not in self._entries:
            raise UnknownNameError(self.kind, key, self.names())
        return key

    def names(self) -> List[str]:
        """Canonical names, declared built-ins first, then in registration
        order (no aliases)."""
        return list(self._entries)

    def items(self):
        self.load_builtins()
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
