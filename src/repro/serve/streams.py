"""Live-follow streams: watch a queue-backed sweep converge, over HTTP.

``GET /scenarios/<name>/follow`` lists the work queue's ``parts/`` on every
poll -- the part file is the queue's completion signal -- reads each part
it has not seen yet, and emits one SSE event per completed task: the row's
identity plus its cell's *current* pooled aggregate record.  A dashboard --
or plain ``curl`` -- watches the confidence intervals tighten as worker
machines drain the spool.  A part that is listed but does not read yet
(stale code, or not readable on this host yet) is tried again on the next
poll.

Each poll lists the pending cells (tasks and leases) before it lists the
parts: a part is written before its lease or task goes, so a cell missing
from the pending list has its part in that poll's listing, and a pending
cell whose part is listed is complete too (its worker died between writing
the part and dropping the lease).  Once every pending cell's part is
listed, the listing holds every part; a listed part that does not read is
read once more.  The stream then re-aggregates every
collected row in canonical batch order
(:func:`~repro.metrics.partial.rows_in_batch_order`) and emits a ``done``
event whose records are bit-identical to the serial batch aggregate over
the same rows -- the same guarantee the ``/aggregate`` endpoint makes.
Pass ``expect`` (the sweep's cell count) to hold ``done`` until that many
rows arrived.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.experiments.spec import ScenarioSpec
from repro.metrics.partial import PartialAggregator, rows_in_batch_order

__all__ = ["follow_scenario"]


def follow_scenario(
    service,
    spec: ScenarioSpec,
    poll_interval_s: float = 0.2,
    timeout_s: Optional[float] = None,
    expect: int = 0,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Yield ``(event, payload)`` pairs following the queue for one scenario.

    Events, in order: one ``listening`` hello; an ``update`` per completed
    task belonging to the scenario (its cell's running aggregate, rows in
    *arrival* order -- a converging estimate); finally either ``done`` (the
    spool drained; final records re-aggregated in canonical batch order),
    ``timeout``, or ``closed`` (the ``should_stop`` callable turned true --
    a gracefully shutting-down server drains its follow streams this way,
    each with a final well-formed event instead of a severed socket).
    ``expect`` > 0 refuses to declare ``done`` before that many rows
    arrived, which closes the startup race where a follower attaches before
    the coordinator has spooled any tasks.
    """
    queue = service.queue
    if queue is None:
        raise ValueError("follow_scenario needs a service with a work queue")
    names: Tuple[str, ...] = service.cell_names(spec)
    wanted: Set[str] = set(names)
    running = PartialAggregator(spec.aggregate_by)
    rows: List[Any] = []
    seen: Set[str] = set()
    started = time.monotonic()

    yield "listening", {
        "scenario": spec.name,
        "queue": str(queue.directory),
        "aggregate_by": list(spec.aggregate_by),
        "poll_interval_s": poll_interval_s,
        "expect": expect,
    }

    def absorb(fingerprints: List[str]) -> List[Tuple[str, Dict[str, Any]]]:
        events: List[Tuple[str, Dict[str, Any]]] = []
        for fingerprint in fingerprints:
            if fingerprint in seen:
                continue
            row = queue.part_row(fingerprint)
            if row is None:
                continue  # stale code, or not readable here yet: next poll
            seen.add(fingerprint)
            if row.name not in wanted:
                continue
            rows.append(row)
            record = running.add(row)
            events.append(("update", {
                "completed": len(rows),
                "fingerprint": fingerprint,
                "label": row.label,
                "cell": record,
            }))
        return events

    while True:
        # Pending listed before the parts: a part is written before its
        # lease or task goes, so once every pending cell's part is listed
        # (a lease can outlive its worker), this listing holds every part.
        pending = queue.pending()
        listed = queue.parts.fingerprints()
        drained = pending.issubset(listed)
        counts = queue.counts()
        for event in absorb(listed):
            yield event
        if drained:
            # One more pass before ``done``: a listed part that did not
            # read (not readable on this host yet) is read once more.
            for event in absorb(listed):
                yield event
        if drained and len(rows) >= expect:
            final = (
                PartialAggregator(spec.aggregate_by)
                .add_all(rows_in_batch_order(rows, names))
                .snapshot()
            )
            yield "done", {
                "completed": len(rows),
                "failed": counts["failed"],
                "records": final,
            }
            return
        if timeout_s is not None and time.monotonic() - started > timeout_s:
            yield "timeout", {
                "completed": len(rows),
                "spool": counts,
                "partial": running.snapshot(),
            }
            return
        if should_stop is not None and should_stop():
            yield "closed", {
                "completed": len(rows),
                "spool": counts,
                "partial": running.snapshot(),
            }
            return
        time.sleep(poll_interval_s)
