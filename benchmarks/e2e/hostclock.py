"""Host-speed probe, normalised timing and the span recorder.

The sandbox this benchmark runs in switches between a fast and a ~1.6x
slower mode every few seconds (a noisy neighbour, not this process: CPU
time tracks wall time).  Raw wall-clock medians therefore differ by tens of
percent between two runs of the *same* commit.  Every end-to-end time is
instead scaled by a probe: a fixed pure-Python kernel timed right before
and right after the operation, on the same CPU.  The reported time is

    raw_seconds * REFERENCE_PROBE_S / mean(probe_before, probe_after)

i.e. seconds on a reference host where the kernel takes exactly
``REFERENCE_PROBE_S``.  The probe lives in this file, so no change under
``src/`` can move it; a slower simulator still shows as a slower number.
The traced pass reports the factor itself (``host.slowdown_x``) so raw
times can be recovered.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Kernel duration on the reference host (this sandbox in its fast mode).
REFERENCE_PROBE_S = 2.0e-3
#: A probe older than this is repeated before it brackets an operation, so
#: sub-millisecond operations share one probe per ~25 ms block instead of
#: paying 2 ms each.
PROBE_STALE_S = 25e-3


def _kernel() -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(20000):
        table[i & 255] = i
        total += table.get((i * 7) & 255, 0)
    return total


class HostClock:
    """Times operations and scales each by the host's concurrent speed."""

    def __init__(self) -> None:
        _kernel()  # first execution pays for code-object warm-up
        self.factors: List[float] = []
        self._probe_s = 0.0
        self._probed_at = 0.0
        self._probe()
        self._first_probe_s = self._probe_s

    def _probe(self) -> None:
        start = time.perf_counter()
        _kernel()
        self._probed_at = time.perf_counter()
        self._probe_s = self._probed_at - start

    def _fresh_probe(self) -> float:
        if time.perf_counter() - self._probed_at > PROBE_STALE_S:
            self._probe()
        return self._probe_s

    def measure(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, float, float]:
        """Run ``fn(*args)``; return ``(result, raw seconds, host factor)``.
        ``raw / factor`` is the duration in reference seconds."""
        before = self._fresh_probe()
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        factor = (before + self._fresh_probe()) / 2.0 / REFERENCE_PROBE_S
        self.factors.append(factor)
        return result, raw, factor

    def since(self, started_at: float) -> List[float]:
        """``[raw seconds, host factor]`` of the interval from ``started_at``
        (a ``time.time()`` taken before this process existed) to now: set-up,
        bracketed by this clock's first probe and one taken now."""
        raw = time.time() - started_at
        self._probe()
        return [raw, (self._first_probe_s + self._probe_s) / 2.0 / REFERENCE_PROBE_S]


class Spans:
    """In-memory span log: ``(name, start, end, parent index)`` records.

    Spans are taken by the benchmark's own files around public calls into
    each layer; they are written out once, when the traced run ends.
    """

    def __init__(self) -> None:
        self.records: List[List[Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent: Optional[int] = self._open[-1] if self._open else None
        index = len(self.records)
        self.records.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.records[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        return [end - start for span, start, end, _ in self.records
                if span == name and end is not None]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_s", "end_s", "parent")
        path.write_text(json.dumps(
            [dict(zip(keys, record)) for record in self.records], indent=0))
