"""Streaming (partial-result) aggregation over :class:`ResultRow` records.

The sweep layer's :func:`~repro.experiments.sweep.aggregate_rows` folds seed
replicas into per-cell records *after* every cell has finished.  A work-queue
sweep cannot wait: rows land one part-file at a time, possibly from several
worker machines, and the caller wants to watch the pooled tails converge
while the sweep is still running.

:class:`PartialAggregator` is the incremental engine both paths share.  Rows
are absorbed one at a time; per cell it keeps the replica scalars, the summed
fabric counters and one *merged* :class:`~repro.metrics.sketch.QuantileDigest`
per distribution (FCT, single-packet latency, and -- when runs collect them
-- queue depth and PFC pause durations).  Because digest merges are
commutative and associative, ``snapshot()`` after N rows reports the *true
pooled* percentiles over every flow of every row absorbed so far -- not a
mean of per-row tails -- and the final snapshot is exactly what
``aggregate_rows`` computes over the complete row set.  ``aggregate_rows``
is in fact implemented as "absorb everything, then snapshot", so the two can
never drift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.sketch import QuantileDigest
from repro.metrics.stats import ci95_half_width, mean, percentile, stderr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.results import ResultRow

__all__ = ["PartialAggregator", "rows_in_batch_order"]

#: Metrics averaged (and tail-summarized) across seed replicas per cell.
MEAN_P99_METRICS = ("avg_slowdown", "avg_fct_s", "tail_fct_s")

#: Counters summed across seed replicas per cell.
SUMMED_COUNTERS = (
    "packets_dropped",
    "pause_frames",
    "retransmissions",
    "timeouts",
    "deadlock_events",
)

#: Digest-backed pooled-distribution columns, one entry per ``ResultRow``
#: digest field: ``(row_field, column_prefix, unit_suffix, percentile labels,
#: count_column, sum_column)``.  ``count_column``/``sum_column`` are emitted
#: only when non-``None`` (the merged digest's sample count / running sum).
DIGEST_COLUMNS: Tuple[Tuple[str, str, str, Tuple[Tuple[float, str], ...],
                            Optional[str], Optional[str]], ...] = (
    ("fct_digest", "fct", "s",
     ((0.50, "p50"), (0.99, "p99"), (0.999, "p999")), None, None),
    ("single_packet_digest", "single_packet", "s",
     ((0.90, "p90"), (0.99, "p99"), (0.999, "p999")), "single_packet_flows", None),
    # §4.4 congestion-spreading observability (collected when
    # ``ExperimentConfig.fabric_digests`` is set): per-switch input-port
    # occupancy sampled at every enqueue, and the duration of every PFC
    # pause episode any output port served.
    ("queue_depth_digest", "queue_depth", "bytes",
     ((0.50, "p50"), (0.99, "p99"), (0.999, "p999")), None, None),
    ("pfc_pause_digest", "pfc_pause", "s",
     ((0.50, "p50"), (0.99, "p99"), (0.999, "p999")),
     "pfc_pause_events", "pfc_pause_total_s"),
    # Fault-injection recovery observables (collected when the config
    # carries a non-empty ``fault_plan``): per-time-bin goodput over the
    # whole run, and per-flow total stall seconds.
    ("goodput_digest", "goodput", "bps",
     ((0.50, "p50"), (0.99, "p99")), None, None),
    ("stall_digest", "flow_stall", "s",
     ((0.50, "p50"), (0.99, "p99")), None, "flow_stall_total_s"),
    # c-latency ratios (collected when ``ExperimentConfig.c_latency_ratios``
    # is set): per-flow FCT over the path's speed-of-light propagation
    # bound -- the propagation-dominated fabrics' headline tail metric.
    ("c_latency_digest", "c_latency", "ratio",
     ((0.50, "p50"), (0.99, "p99"), (0.999, "p999")), None, None),
)

#: Counters summed per cell only when some absorbed row was fault-enabled
#: (mirrors ``min_time_to_deadlock_s``: fault-free cells keep their
#: pre-fault-injection record shape).
FAULT_COUNTERS = ("fault_injected_drops", "retransmissions_during_fault")


class _CellState:
    """Running aggregate of every row absorbed for one parameter cell."""

    __slots__ = ("key", "replicas", "seeds", "metric_values", "drop_rates",
                 "counters", "num_flows_total", "digests", "time_to_deadlock_s",
                 "faults_seen", "fault_counters", "recovery_times")

    def __init__(self, key: Tuple[Any, ...]) -> None:
        self.key = key
        self.replicas = 0
        self.seeds: List[int] = []
        #: metric -> replica values, in absorption order (the same order the
        #: batch aggregator would have summed them in).
        self.metric_values: Dict[str, List[float]] = {m: [] for m in MEAN_P99_METRICS}
        self.drop_rates: List[float] = []
        self.counters: Dict[str, int] = {c: 0 for c in SUMMED_COUNTERS}
        self.num_flows_total = 0
        #: Earliest first-deadlock time across replicas (None until one fires).
        self.time_to_deadlock_s: Optional[float] = None
        #: row digest field -> merged digest over every absorbed row.
        self.digests: Dict[str, Optional[QuantileDigest]] = {
            spec[0]: None for spec in DIGEST_COLUMNS
        }
        #: True once any absorbed row was fault-enabled; gates the fault
        #: columns so fault-free cells keep their record shape.
        self.faults_seen = False
        self.fault_counters: Dict[str, int] = {c: 0 for c in FAULT_COUNTERS}
        #: Replica ``recovery_time_s`` values that were not ``None``.
        self.recovery_times: List[float] = []

    def absorb(self, row: "ResultRow") -> None:
        self.replicas += 1
        self.seeds.append(row.seed)
        for metric in MEAN_P99_METRICS:
            self.metric_values[metric].append(getattr(row, metric))
        self.drop_rates.append(row.drop_rate)
        for counter in SUMMED_COUNTERS:
            self.counters[counter] += getattr(row, counter, 0)
        self.num_flows_total += row.num_flows
        ttd = getattr(row, "time_to_deadlock_s", None)
        if ttd is not None and (
            self.time_to_deadlock_s is None or ttd < self.time_to_deadlock_s
        ):
            self.time_to_deadlock_s = ttd
        if getattr(row, "faults_enabled", False):
            self.faults_seen = True
            for counter in FAULT_COUNTERS:
                self.fault_counters[counter] += getattr(row, counter, 0)
            recovery = getattr(row, "recovery_time_s", None)
            if recovery is not None:
                self.recovery_times.append(recovery)
        for field, *_ in DIGEST_COLUMNS:
            payload = getattr(row, field, None)
            if payload is None:
                continue
            digest = QuantileDigest.from_dict(payload)
            merged = self.digests[field]
            self.digests[field] = digest if merged is None else merged.merge(digest)

    def record(self, by: Sequence[str]) -> Dict[str, Any]:
        record: Dict[str, Any] = dict(zip(by, self.key))
        record["replicas"] = self.replicas
        record["seeds"] = sorted(self.seeds)
        for metric in MEAN_P99_METRICS:
            values = self.metric_values[metric]
            record[f"{metric}_mean"] = mean(values)
            record[f"{metric}_p99"] = percentile(values, 0.99)
            record[f"{metric}_stderr"] = stderr(values)
            record[f"{metric}_ci95"] = ci95_half_width(values)
        record["drop_rate_mean"] = mean(self.drop_rates)
        for counter in SUMMED_COUNTERS:
            record[f"{counter}_total"] = self.counters[counter]
        record["num_flows_total"] = self.num_flows_total
        if self.time_to_deadlock_s is not None:
            # Earliest wedge across replicas -- only emitted when one fired,
            # so deadlock-free cells keep their pre-detector record shape.
            record["min_time_to_deadlock_s"] = self.time_to_deadlock_s
        if self.faults_seen:
            for counter in FAULT_COUNTERS:
                record[f"{counter}_total"] = self.fault_counters[counter]
            record["recovered_replicas"] = len(self.recovery_times)
            if self.recovery_times:
                record["recovery_time_s_mean"] = mean(self.recovery_times)
                record["recovery_time_s_max"] = max(self.recovery_times)
        for field, prefix, unit, fractions, count_col, sum_col in DIGEST_COLUMNS:
            digest = self.digests[field]
            if digest is None or not digest.count:
                continue
            if count_col is not None:
                record[count_col] = digest.count
            for fraction, label in fractions:
                record[f"{prefix}_{label}_{unit}"] = digest.percentile(fraction)
            if sum_col is not None:
                record[sum_col] = digest.sum
        return record


class PartialAggregator:
    """Incrementally folds rows into per-cell aggregate records.

    Rows sharing the ``by`` fields form one cell.  Absorbing a row merges
    its digests into the cell's; :meth:`add` then also renders the updated
    cell's record (its percentiles read the merged digests), which
    :meth:`add_all` leaves to the one :meth:`snapshot` after it.
    :meth:`snapshot` renders the current per-cell records in first-seen cell
    order -- the exact shape (and, over the full row set, the exact values)
    of :func:`~repro.experiments.sweep.aggregate_rows`.
    """

    def __init__(self, by: Sequence[str] = ("transport", "congestion_control", "pfc_enabled")) -> None:
        # Validated lazily against ResultRow to keep this module importable
        # without the experiments package.
        from repro.experiments.results import ResultRow

        self.by = tuple(by)
        invalid = [name for name in self.by if name not in ResultRow.__dataclass_fields__]
        if invalid:
            raise ValueError(f"unknown ResultRow field(s) in 'by': {sorted(invalid)}")
        self._cells: Dict[Tuple[Any, ...], _CellState] = {}

    def key(self, row: "ResultRow") -> Tuple[Any, ...]:
        """The cell ``row`` belongs to: its values of the ``by`` fields."""
        return tuple(getattr(row, name) for name in self.by)

    def _absorb(self, row: "ResultRow") -> _CellState:
        key = self.key(row)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _CellState(key)
        cell.absorb(row)
        return cell

    def add(self, row: "ResultRow") -> Dict[str, Any]:
        """Absorb one row; returns the *updated* cell's current record."""
        return self._absorb(row).record(self.by)

    def add_all(self, rows: Iterable["ResultRow"]) -> "PartialAggregator":
        """Absorb every row, rendering no record (see :meth:`snapshot`)."""
        for row in rows:
            self._absorb(row)
        return self

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every cell's current aggregate record, in first-seen order."""
        return [cell.record(self.by) for cell in self._cells.values()]


def rows_in_batch_order(
    rows: Iterable["ResultRow"],
    cell_name_order: Optional[Sequence[str]] = None,
) -> List["ResultRow"]:
    """Rows sorted into the canonical batch-aggregation absorption order.

    Digest merges are order-independent, but the scalar statistics
    (``mean``/``stderr`` float summation) and the snapshot's cell ordering
    are not: a batch sweep absorbs rows cell-by-cell in scenario order with
    seeds ascending.  Rows gathered in *arrival* order -- queue part-files
    landing from concurrent workers, cache files in label order -- must be
    re-sorted into that canonical order for the final aggregate to be
    bit-identical to the serial batch result.  This is the one definition
    the results service and its follow streams share.

    ``cell_name_order`` pins the cell ordering (a scenario's cells in spec
    order); names not listed sort after the listed ones, alphabetically.
    Within a cell, rows order by seed then label.
    """
    order = {name: index for index, name in enumerate(cell_name_order or ())}
    unknown = len(order)
    return sorted(
        rows,
        key=lambda row: (order.get(row.name, unknown), row.name, row.seed, row.label),
    )

