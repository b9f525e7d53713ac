"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a data-only description of one paper figure/table
(or any user experiment): a set of baseline config fields, an ordered mapping
of *variants* (the schemes being compared -- the figure legend / table
columns), an optional ordered mapping of *rows* (a swept parameter -- the
table rows), seed replicas, and an aggregation policy.  Everything in a spec
is JSON-safe, so specs round-trip through ``to_dict``/``from_dict`` and can
be shipped to other processes or machines as the unit of sweep work.

Cells are built as ``defaults < row < variant < call overrides`` (rightmost
wins).

A spec may also carry the paper's *claims* about its cells: each
:class:`Claim` is one comparison (``left <relation> factor * right`` on one
metric) together with the :class:`ClaimRun` it was measured on, so "run X
to check claim Y" is data on the spec.  ``benchmarks/test_claims.py`` sweeps
every claim run and checks every claim.

Specs register themselves in the :data:`SCENARIOS` registry; resolve one
with :func:`scenario` (or :func:`repro.api.load_scenario`)::

    from repro.experiments.spec import scenario

    rows = scenario("fig8").sweep(seeds=3, workers=4).rows
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.config import ExperimentConfig
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.sweep import SweepResult

__all__ = [
    "SCENARIOS",
    "Claim",
    "ClaimRun",
    "ScenarioSpec",
    "auto_cell_name",
    "register_scenario",
    "replica_label",
    "scenario",
]


def auto_cell_name(transport: str, congestion_control: str, pfc_enabled: bool) -> str:
    """The auto-derived name of a flat scenario's cell,
    ``{transport}-{cc}-{pfc|nopfc}`` (names group aggregation cells)."""
    return f"{transport}-{congestion_control}-{'pfc' if pfc_enabled else 'nopfc'}"


def replica_label(label: str, seed: int) -> str:
    """The label of one seed replica of a cell (``"<label> [seed=N]"``);
    a claim's row-field metric averages a cell's replicas by this exact
    format."""
    return f"{label} [seed={seed}]"


class ClaimRun(NamedTuple):
    """The run a claim was measured on: ``rows`` replace the spec's own
    (:meth:`ScenarioSpec.with_rows`; ``None`` keeps them), ``overrides``
    apply to every cell, and ``seeds`` is the replica axis."""

    rows: Optional[Dict[str, Dict[str, Any]]]
    overrides: Dict[str, Any]
    seeds: Tuple[int, ...]


#: ``left <relation> factor * right``, by relation.
_RELATIONS = {
    "<": lambda left, bound: left < bound,
    "<=": lambda left, bound: left <= bound,
    "==": lambda left, bound: left == bound,
    ">=": lambda left, bound: left >= bound,
    ">": lambda left, bound: left > bound,
}


class Claim(NamedTuple):
    """One comparison the paper makes, as ``left <relation> factor * right``.

    ``metric`` is a column of an aggregate record
    (:func:`~repro.experiments.sweep.aggregate_rows`: ``avg_slowdown_mean``,
    ``fct_p99_s``, ``pause_frames_total`` ...) or a
    :class:`~repro.experiments.results.ResultRow` field, averaged over the
    cell's replicas (``incast_rct_s``).  ``left`` is a cell label of the
    run; ``right`` is a cell label or a constant.  ``paper`` is the paper's
    own finding and ``figure`` where it is stated, both transcribed
    (unverified offline); ``run`` is the run the bound was set on.
    """

    metric: str
    left: str
    relation: str
    factor: float
    right: Union[str, float]
    paper: str
    figure: str
    run: ClaimRun

    def holds(self, left: float, right: float) -> bool:
        """Whether the operands ``left`` and ``right`` satisfy the claim."""
        return _RELATIONS[self.relation](left, self.factor * right)

    def to_dict(self) -> Dict[str, Any]:
        return {**self._asdict(), "run": _json_safe(self.run._asdict())}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Claim":
        run = data["run"]
        return cls(**{**data, "run": ClaimRun(**{**run, "seeds": tuple(run["seeds"])})})


#: Valid override keys: every ExperimentConfig field (including ``name``).
_CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))

_PLACEHOLDER = re.compile(r"\{([^{}]+)\}")


#: Types ``_json_safe`` returns as they are, before its slower checks.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_safe(value: Any) -> Any:
    """Normalize an override value to plain JSON types (nested dataclasses
    to dicts, tuples to lists), so a spec serializes identically however its
    overrides were spelled."""
    if type(value) in _SCALARS:
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return _json_safe(asdict(value))
    if isinstance(value, Mapping):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _check_override_keys(where: str, overrides: Mapping[str, Any]) -> None:
    unknown = sorted(set(overrides) - _CONFIG_FIELDS)
    if unknown:
        raise ValueError(
            f"{where}: unknown ExperimentConfig field(s) {unknown}; "
            f"valid fields: {sorted(_CONFIG_FIELDS)}"
        )


def _flatten(mapping: Mapping[str, Any], prefix: str = "") -> Dict[str, Any]:
    flat: Dict[str, Any] = {}
    for key, value in mapping.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(_flatten(value, f"{dotted}."))
        else:
            flat[dotted] = value
    return flat


def _render(template: str, mapping: Mapping[str, Any]) -> str:
    """Fill ``{key}`` placeholders (dotted keys reach into nested dicts)."""

    def substitute(match: "re.Match[str]") -> str:
        key = match.group(1)
        if key not in mapping:
            raise KeyError(
                f"template {template!r} references unknown key {key!r}; "
                f"available: {sorted(mapping)}"
            )
        return str(mapping[key])

    return _PLACEHOLDER.sub(substitute, template)


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative, JSON-round-trippable experiment scenario.

    Attributes
    ----------
    name:
        Registry name (``"fig8"``, ``"table3"`` ...).
    description:
        One-line human description (shown by ``python -m repro list``).
    defaults:
        Config fields shared by every cell (on top of
        :class:`ExperimentConfig` defaults).
    variants:
        Ordered ``label -> config overrides`` for the compared schemes.
    rows:
        Optional ordered ``label -> config overrides`` for a swept parameter
        (appendix-table rows, incast fan-in ...).  ``None`` means a flat
        scenario.
    cell_label:
        Template for flat cell labels when ``rows`` is set.  Defaults to
        ``"{row}|{variant}"``;
        Figure 9 uses ``"{variant} {row}"``.
    name_template:
        Template for each cell's ``config.name``.  ``None`` derives the
        default: ``{transport}-{cc}-{pfc|nopfc}`` for flat
        scenarios, ``{scenario}|{row}|{variant}`` for row scenarios (unique
        per cell, so seed replicas aggregate per cell by ``name``).
    seeds:
        Default seed replicas for :meth:`replicated` / :meth:`sweep`.
    aggregate_by:
        :class:`~repro.experiments.results.ResultRow` fields that define an
        aggregation cell for :func:`~repro.experiments.sweep.aggregate_rows`.
    claims:
        The paper's claims about this scenario, each with the run it was
        measured on (see :class:`Claim`).  They change no cell.
    """

    name: str
    description: str = ""
    defaults: Dict[str, Any] = field(default_factory=dict)
    variants: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    rows: Optional[Dict[str, Dict[str, Any]]] = None
    cell_label: Optional[str] = None
    name_template: Optional[str] = None
    seeds: Optional[Tuple[int, ...]] = None
    aggregate_by: Tuple[str, ...] = ("name",)
    claims: Tuple[Claim, ...] = ()

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError(f"scenario {self.name!r} declares no variants")
        object.__setattr__(self, "defaults", _json_safe(self.defaults))
        object.__setattr__(
            self, "variants", {label: _json_safe(ov) for label, ov in self.variants.items()}
        )
        if self.rows is not None:
            object.__setattr__(
                self, "rows", {label: _json_safe(ov) for label, ov in self.rows.items()}
            )
        if self.seeds is not None:
            object.__setattr__(self, "seeds", tuple(int(seed) for seed in self.seeds))
        object.__setattr__(self, "aggregate_by", tuple(self.aggregate_by))
        _check_override_keys(f"scenario {self.name!r} defaults", self.defaults)
        for label, overrides in self.variants.items():
            _check_override_keys(f"scenario {self.name!r} variant {label!r}", overrides)
        for label, overrides in (self.rows or {}).items():
            _check_override_keys(f"scenario {self.name!r} row {label!r}", overrides)
        object.__setattr__(self, "claims", tuple(self.claims))
        for claim in self.claims:
            if claim.relation not in _RELATIONS:
                raise ValueError(f"scenario {self.name!r}: claim relation "
                                 f"{claim.relation!r} is not one of {sorted(_RELATIONS)}")
            _check_override_keys(f"scenario {self.name!r} claim run", claim.run.overrides)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def row_labels(self) -> Tuple[str, ...]:
        return tuple(self.rows or {})

    def shape(self) -> str:
        """The one-line shape summary (``"3 variants x 4 rows, seeds [...]"``).

        Shared by ``python -m repro list`` and the results service's
        ``GET /scenarios`` catalog (via :func:`repro.serve.catalog_entries`),
        so the two descriptions cannot drift.
        """
        shape = f"{len(self.variants)} variants"
        if self.rows:
            shape += f" x {len(self.rows)} rows"
        if self.seeds:
            shape += f", seeds {list(self.seeds)}"
        return shape

    @property
    def effective_cell_label(self) -> str:
        if self.cell_label is not None:
            return self.cell_label
        return "{variant}" if self.rows is None else "{row}|{variant}"

    # ------------------------------------------------------------------
    # Derived specs
    # ------------------------------------------------------------------
    def with_rows(self, rows: Mapping[str, Mapping[str, Any]]) -> "ScenarioSpec":
        """A copy sweeping different rows (custom utilizations, fan-ins ...)."""
        return replace(self, rows={label: dict(ov) for label, ov in rows.items()})

    def claim_runs(self) -> List[Tuple[ClaimRun, List[Claim]]]:
        """Every distinct run of :attr:`claims` with the claims measured on
        it, in declaration order."""
        runs: List[Tuple[ClaimRun, List[Claim]]] = []
        for claim in self.claims:
            for run, claims in runs:
                if run == claim.run:
                    claims.append(claim)
                    break
            else:
                runs.append((claim.run, [claim]))
        return runs

    def for_run(self, run: ClaimRun) -> "ScenarioSpec":
        """This spec with ``run``'s rows (the cells ``run`` sweeps, before
        its overrides and seeds)."""
        return self if run.rows is None else self.with_rows(run.rows)

    # ------------------------------------------------------------------
    # Config construction
    # ------------------------------------------------------------------
    def _build_cell(
        self, row_label: Optional[str], variant_label: str, call_overrides: Mapping[str, Any]
    ) -> Tuple[str, ExperimentConfig, bool]:
        """One cell: ``(label, config, name_was_auto_derived)``."""
        merged: Dict[str, Any] = dict(self.defaults)
        if row_label is not None:
            merged.update(self.rows[row_label])
        merged.update(self.variants[variant_label])
        merged.update(call_overrides)
        explicit_name = merged.pop("name", None)

        mapping = _flatten(_json_safe(merged))
        mapping["scenario"] = self.name
        mapping["variant"] = variant_label
        mapping["row"] = row_label if row_label is not None else ""
        mapping["pfc"] = "pfc" if merged.get("pfc_enabled", True) else "nopfc"

        label = _render(self.effective_cell_label, mapping)
        auto_named = False
        if explicit_name is not None:
            name = explicit_name
        elif self.name_template is not None:
            name = _render(self.name_template, mapping)
        elif self.rows is None:
            name = auto_cell_name(
                mapping.get("transport", "irn"),
                mapping.get("congestion_control", "none"),
                merged.get("pfc_enabled", True),
            )
            auto_named = True
        else:
            name = f"{self.name}|{mapping['row']}|{variant_label}"
        return label, ExperimentConfig(name=name, **merged), auto_named

    def _expand(
        self, call_overrides: Mapping[str, Any]
    ) -> List[Tuple[Optional[str], str, str, ExperimentConfig]]:
        """Every cell as ``(row_label, variant_label, label, config)``,
        rows outer / variants inner, with unique labels and unique names.

        The auto-derived flat name encodes only transport/cc/pfc; when two
        variants differ in some other field (e.g. fig12's overheads flag)
        the colliding names gain a ``|variant`` suffix so seed replicas of
        *different* cells never silently aggregate together (names group
        aggregation cells; labels are already checked for uniqueness).
        """
        _check_override_keys(f"scenario {self.name!r} overrides", call_overrides)
        cells: List[Tuple[Optional[str], str, str, ExperimentConfig, bool]] = []
        seen_labels: set = set()
        for row_label in (self.row_labels() or (None,)):
            for variant_label in self.variants:
                label, config, auto = self._build_cell(row_label, variant_label, call_overrides)
                if label in seen_labels:
                    raise ValueError(f"scenario {self.name!r}: duplicate cell label {label!r}")
                seen_labels.add(label)
                cells.append((row_label, variant_label, label, config, auto))
        name_counts = Counter(cell[3].name for cell in cells)
        expanded = []
        for row_label, variant_label, label, config, auto in cells:
            if auto and name_counts[config.name] > 1:
                config = config.with_overrides(name=f"{config.name}|{variant_label}")
            expanded.append((row_label, variant_label, label, config))
        return expanded

    def configs(self, **overrides: Any) -> Dict[str, ExperimentConfig]:
        """Flat ``label -> ExperimentConfig`` for every cell (rows outer,
        variants inner).  ``overrides`` apply to every cell and win over the
        spec's own layers."""
        return {label: config for _, _, label, config in self._expand(overrides)}

    def tables(self, **overrides: Any) -> Dict[str, Dict[str, ExperimentConfig]]:
        """Nested ``row -> variant -> config`` (the appendix-table shape)."""
        if self.rows is None:
            raise ValueError(f"scenario {self.name!r} has no rows; use .configs()")
        table: Dict[str, Dict[str, ExperimentConfig]] = {}
        for row_label, variant_label, _, config in self._expand(overrides):
            table.setdefault(row_label, {})[variant_label] = config
        return table

    def _resolve_seeds(
        self, seeds: Optional[Union[int, Sequence[int]]]
    ) -> Optional[Tuple[int, ...]]:
        if seeds is None:
            return self.seeds
        if isinstance(seeds, int):
            return tuple(range(1, seeds + 1))
        return tuple(int(seed) for seed in seeds)

    def replicated(
        self, seeds: Optional[Union[int, Sequence[int]]] = None, **overrides: Any
    ) -> Dict[str, ExperimentConfig]:
        """:meth:`configs` expanded over a seed axis.

        ``seeds`` may be a sequence, an int ``N`` (meaning seeds ``1..N``)
        or ``None`` (the spec's own ``seeds``; no expansion when unset).
        Labels gain a `` [seed=N]`` suffix; cell names are untouched, so
        replicas of one cell share a ``name`` and aggregate together.

        An explicit ``seed=...`` override disables the spec's *default*
        axis (the caller pinned one seed; silently replacing it with the
        axis seeds would run everything except what was asked for).  An
        explicit ``seeds=`` argument still wins over a ``seed`` override.
        """
        if seeds is None and "seed" in overrides:
            return self.configs(**overrides)
        resolved = self._resolve_seeds(seeds)
        base = self.configs(**overrides)
        if not resolved:
            return base
        if len(set(resolved)) < len(resolved):
            # Replicas of one seed share a label: the mapping would keep one.
            raise ValueError(f"scenario {self.name!r}: duplicate seeds {list(resolved)}")
        return {
            replica_label(label, seed): config.with_overrides(seed=seed)
            for label, config in base.items()
            for seed in resolved
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def sweep(
        self,
        *,
        seeds: Optional[Union[int, Sequence[int]]] = None,
        workers: Optional[int] = None,
        cache: Optional[Any] = None,
        backend: Optional[Any] = None,
        progress: Optional[Any] = None,
        **overrides: Any,
    ) -> "SweepResult":
        """Run every cell (x seed replicas) through
        :func:`~repro.experiments.sweep.run_sweep` and return its
        :class:`~repro.experiments.sweep.SweepResult`.

        ``backend`` is ``None`` (run locally, per ``workers``) or a
        :class:`~repro.experiments.queue.QueueBackend` that shards cells
        across worker machines; ``progress`` observes every completed row
        with streaming partial aggregates, grouped by this spec's
        ``aggregate_by`` policy.

        Registrations are process-local: if this spec references components
        registered in the current script (not an importable module), pass
        ``workers=1`` -- parallel worker processes re-import a clean
        registry and, on spawn-based platforms (macOS/Windows), would fail
        each cell with an unknown-name error.  (``REPRO_PLUGINS`` lifts
        this for importable modules, including queue-backend workers on
        other machines.)
        """
        from repro.experiments.sweep import run_sweep

        return run_sweep(
            self.replicated(seeds=seeds, **overrides),
            workers=workers,
            cache=cache,
            backend=backend,
            progress=progress,
            progress_by=self.aggregate_by,
        )

    def aggregate(self, result: Any) -> Any:
        """Fold a :class:`SweepResult` (or iterable of rows) per the spec's
        ``aggregate_by`` policy."""
        from repro.experiments.sweep import aggregate_rows

        rows = result.rows.values() if hasattr(result, "rows") else result
        return aggregate_rows(rows, by=self.aggregate_by)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict (inverse of :meth:`from_dict`)."""
        payload = asdict(self)
        payload["seeds"] = list(self.seeds) if self.seeds is not None else None
        payload["aggregate_by"] = list(self.aggregate_by)
        payload["claims"] = [claim.to_dict() for claim in self.claims]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys rejected)."""
        payload = dict(data)
        if payload.get("seeds") is not None:
            payload["seeds"] = tuple(payload["seeds"])
        if payload.get("aggregate_by") is not None:
            payload["aggregate_by"] = tuple(payload["aggregate_by"])
        payload["claims"] = tuple(Claim.from_dict(claim) for claim in payload.get("claims", ()))
        return cls(**payload)


# ---------------------------------------------------------------------------
# The scenario registry
# ---------------------------------------------------------------------------

SCENARIOS: Registry[ScenarioSpec] = Registry("scenario")


def register_scenario(spec: ScenarioSpec, *, replace: bool = False) -> ScenarioSpec:
    """Add ``spec`` to :data:`SCENARIOS` under its own name."""
    # The paper presets always come first in the catalog, whatever registers
    # before the first lookup (a no-op while the presets themselves load).
    import repro.experiments.scenarios  # noqa: F401

    SCENARIOS.register(spec.name, spec, replace=replace)
    return spec


def scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name (loading the paper presets)."""
    # The paper presets register themselves on import; pulling the module in
    # here keeps `scenario("fig1")` working from a cold interpreter.
    import repro.experiments.scenarios  # noqa: F401

    return SCENARIOS.get(name)
