"""Paper-style report rendering from results, rows and warm sweep caches.

One place for the table/CDF formatting that ``benchmarks/conftest.py`` and
the ``examples/`` scripts used to each reimplement.  Every formatter returns
a string (callers print it) and reads :class:`~repro.experiments.results.ResultRow`
records -- ``.summary``, ``.drop_rate``, ``.pause_frames``,
``.retransmissions`` -- whether cached or fresh from ``run_experiment``
(whose :class:`~repro.experiments.runner.ExperimentResult` is a row).

Because :class:`ResultRow` round-trips through the sweep cache with its
quantile digests intact, a full report (headline tables *and* Figure 8-style
tail CDFs) can be regenerated from a warm cache without re-simulating::

    python -m repro.metrics.report .sweep-cache/quickstart --cdf

(imports of the experiments package happen lazily inside the cache helpers,
so importing :mod:`repro.metrics` never drags in the simulator stack, and the
digest sketch is imported only where a payload is decoded).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.results import ResultRow
    from repro.metrics.sketch import QuantileDigest

__all__ = [
    "format_metric_table",
    "format_ratio_table",
    "format_aggregate_table",
    "format_incast_table",
    "format_tail_cdf",
    "format_single_packet_cdfs",
    "label_rows",
    "load_cached_rows",
    "render_cache_report",
    "render_rows_report",
    "main",
]

#: Tail-CDF sources: a digest or its serialized payload.
CdfSource = Union["QuantileDigest", Dict[str, Any]]


def format_metric_table(title: str, results: "Mapping[str, ResultRow]") -> str:
    """The paper's three headline metrics per scheme, plus fabric counters."""
    lines = [f"=== {title} ===",
             f"{'scheme':<34} {'avg slowdown':>13} {'avg FCT (ms)':>13} {'99% FCT (ms)':>13} "
             f"{'drop %':>7} {'pauses':>7} {'rtx':>7}"]
    for label, result in results.items():
        summary = result.summary
        lines.append(
            f"{label:<34} {summary.avg_slowdown:>13.2f} {summary.avg_fct * 1e3:>13.4f} "
            f"{summary.tail_fct * 1e3:>13.4f} {result.drop_rate * 100:>7.2f} "
            f"{result.pause_frames:>7d} {result.retransmissions:>7d}"
        )
    return "\n".join(lines)


def format_ratio_table(title: str, rows: "Mapping[str, Mapping[str, ResultRow]]") -> str:
    """Appendix-style rows: IRN absolute values plus the two ratios."""
    lines = [f"=== {title} ===",
             f"{'row':<22} {'metric':<14} {'IRN':>10} {'IRN/IRN+PFC':>13} {'IRN/RoCE+PFC':>13}"]
    for row_label, schemes in rows.items():
        irn = schemes["IRN"].summary
        irn_pfc = schemes["IRN+PFC"].summary
        roce_pfc = schemes["RoCE+PFC"].summary
        metrics = [
            ("avg slowdown", irn.avg_slowdown, irn_pfc.avg_slowdown, roce_pfc.avg_slowdown),
            ("avg FCT", irn.avg_fct, irn_pfc.avg_fct, roce_pfc.avg_fct),
            ("99% FCT", irn.tail_fct, irn_pfc.tail_fct, roce_pfc.tail_fct),
        ]
        for name, value, versus_pfc, versus_roce in metrics:
            ratio_pfc = value / versus_pfc if versus_pfc else float("nan")
            ratio_roce = value / versus_roce if versus_roce else float("nan")
            lines.append(
                f"{row_label:<22} {name:<14} {value:>10.4f} {ratio_pfc:>13.3f} {ratio_roce:>13.3f}"
            )
    return "\n".join(lines)


def format_aggregate_table(
    records: Sequence[Mapping[str, Any]],
    label_keys: Optional[Sequence[str]] = None,
) -> str:
    """Render :func:`~repro.experiments.sweep.aggregate_rows` output.

    One line per parameter cell: the grouping columns, replica count, the
    headline means with their t-based 95% confidence half-widths (``+-``
    columns, 0 when the cell has a single replica), and -- when the rows
    carried digests -- the pooled p99/p99.9 FCT over every flow of every
    replica.
    """
    lines = [
        f"{'cell':<40} {'reps':>4} {'avg slowdown':>13} {'+-95%':>8} "
        f"{'avg FCT (ms)':>13} {'+-95%':>8} "
        f"{'p99 FCT (ms)':>13} {'p99.9 (ms)':>11} {'flows':>7}"
    ]
    computed = {"replicas", "seeds", "single_packet_flows"}
    computed_suffixes = ("_mean", "_p99", "_total", "_s", "_stderr", "_ci95")
    for record in records:
        keys = label_keys
        if keys is None:
            # The grouping columns are whatever aggregate_rows put first that
            # is not a derived statistic.
            keys = [
                key for key in record
                if key not in computed
                and not any(key.endswith(suffix) for suffix in computed_suffixes)
            ]
        label = ", ".join(f"{key}={record[key]}" for key in keys)
        pooled_p99 = record.get("fct_p99_s")
        pooled_p999 = record.get("fct_p999_s")
        lines.append(
            f"{label:<40} {record['replicas']:>4d} {record['avg_slowdown_mean']:>13.2f} "
            f"{record.get('avg_slowdown_ci95', 0.0):>8.2f} "
            f"{record['avg_fct_s_mean'] * 1e3:>13.4f} "
            f"{record.get('avg_fct_s_ci95', 0.0) * 1e3:>8.4f} "
            f"{pooled_p99 * 1e3 if pooled_p99 is not None else float('nan'):>13.4f} "
            f"{pooled_p999 * 1e3 if pooled_p999 is not None else float('nan'):>11.4f} "
            f"{record.get('num_flows_total', 0):>7d}"
        )
    return "\n".join(lines)


def format_incast_table(title: str, results: "Mapping[str, ResultRow]") -> str:
    """Incast request completion time plus background-traffic impact."""
    lines = [f"=== {title} ===",
             f"{'scheme':<36} {'incast RCT (ms)':>16} {'bg avg slowdown':>16} "
             f"{'drops':>7} {'pauses':>7}"]
    for label, result in results.items():
        rct = result.incast_rct_s
        background = result.background_summary
        lines.append(
            f"{label:<36} {rct * 1e3 if rct is not None else float('nan'):>16.3f} "
            f"{background.avg_slowdown if background is not None else float('nan'):>16.2f} "
            f"{result.packets_dropped:>7d} {result.pause_frames:>7d}"
        )
    return "\n".join(lines)


def format_tail_cdf(
    source: CdfSource,
    title: str = "tail CDF",
    start_fraction: float = 0.90,
    points: int = 12,
    width: int = 40,
    unit: str = "ms",
    unit_scale: float = 1e3,
) -> str:
    """A Figure 8-style text plot of the latency tail.

    ``source`` is a :class:`QuantileDigest` or its ``to_dict()`` payload
    (as stored on a :class:`ResultRow`).  Each line shows a cumulative
    fraction, the latency at that fraction, and a bar scaled to the largest
    latency -- the tail's shape at a glance.
    """
    if isinstance(source, dict):
        from repro.metrics.sketch import QuantileDigest

        source = QuantileDigest.from_dict(source)
    cdf = source.tail_cdf(start_fraction, points)
    top = max(value for value, _ in cdf) or 1.0
    lines = [f"=== {title} ===", f"{'fraction':>9} {f'latency ({unit})':>14}"]
    for value, fraction in cdf:
        bar = "#" * max(1, round(width * value / top))
        lines.append(f"{fraction:>9.4f} {value * unit_scale:>14.4f}  {bar}")
    return "\n".join(lines)


def format_single_packet_cdfs(rows: "Mapping[str, ResultRow]") -> List[str]:
    """One :func:`format_tail_cdf` block per row that completed
    single-packet messages, titled by its label and message count -- what
    ``--cdf`` prints after the tables."""
    blocks = []
    for label, row in rows.items():
        digest = row.single_packet_distribution
        if digest is None or not digest.count:
            continue
        blocks.append(format_tail_cdf(
            digest, title=f"{label}: single-packet latency tail ({digest.count} msgs)"
        ))
    return blocks


# ---------------------------------------------------------------------------
# Reporting from a warm sweep cache (no simulation)
# ---------------------------------------------------------------------------

def load_cached_rows(directory: str, code_aware: bool = True) -> "Dict[str, ResultRow]":
    """Every valid row in a sweep cache directory, keyed by label.

    Rows written by a different schema version or simulator source tree are
    skipped (they would re-run on the next sweep anyway); pass
    ``code_aware=False`` to keep other-version rows (archived result dirs).
    Distinct configs that were cached under the same scenario label (e.g. the
    same preset run at two flow counts) are all kept, disambiguated by a
    config-fingerprint suffix rather than silently collapsed.
    """
    from pathlib import Path

    from repro.experiments.sweep import ResultCache

    # Reporting is read-only: never create the directory (ResultCache would),
    # so a mistyped path fails visibly instead of leaving an empty dir.
    if not Path(directory).is_dir():
        return {}
    # ``rows()`` is already in label order.
    return label_rows(ResultCache(directory, code_aware=code_aware).rows())


def label_rows(rows: "Sequence[ResultRow]") -> "Dict[str, ResultRow]":
    """``rows``, given in label order, keyed by label; a label shared by
    distinct configs gets a config-fingerprint suffix on each of its rows.
    The key set and order of :func:`load_cached_rows`."""
    from collections import Counter

    label_counts = Counter(row.label for row in rows)
    return {
        row.label if label_counts[row.label] == 1 else f"{row.label} [{row.fingerprint[:8]}]": row
        for row in rows
    }


def render_rows_report(
    rows: "Mapping[str, ResultRow]", directory: str, cdf: bool = False
) -> str:
    """The offline cache report body for ``rows``, as one string.

    This is the single renderer behind both ``python -m repro.metrics.report``
    and the ``?format=text`` read path of ``repro serve`` -- one code path,
    so the two outputs are byte-identical over the same rows.  ``directory``
    appears verbatim in the title (the CLI passes the path it was given).
    """
    parts = [format_metric_table(f"cached rows in {directory}", rows)]
    if cdf:
        parts.extend(format_single_packet_cdfs(rows))
    return "\n\n".join(parts)


def render_cache_report(directory: str, cdf: bool = False) -> Optional[str]:
    """The full text report for a warm cache directory (``None`` when the
    directory holds no usable rows)."""
    rows = load_cached_rows(directory)
    if not rows:
        return None
    return render_rows_report(rows, directory, cdf=cdf)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: render the report for a warm cache directory.

    Usage: ``python -m repro.metrics.report CACHE_DIR [--cdf]``
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="Render paper-style tables (and tail CDFs) from a sweep cache "
        "directory, without re-running any simulation."
    )
    parser.add_argument("cache_dir", help="sweep cache directory (ResultRow JSON files)")
    parser.add_argument(
        "--cdf", action="store_true",
        help="also plot the single-packet latency tail CDF of each cached row",
    )
    args = parser.parse_args(argv)

    report = render_cache_report(args.cache_dir, cdf=args.cdf)
    if report is None:
        print(f"no usable cached rows in {args.cache_dir} "
              "(empty, stale schema, or written by different simulator code)")
        return 1
    print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
