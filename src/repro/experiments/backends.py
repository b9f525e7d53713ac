"""Pluggable sweep execution backends.

:func:`~repro.experiments.sweep.run_sweep` decides *what* to run (expand
cells, serve cache hits); an :class:`ExecutionBackend` decides *how* the
remaining cells execute.  Three ship with the harness, registered in
:data:`EXECUTION_BACKENDS`:

``serial``
    Run every cell in-process, in order.  Deterministic and debugger-friendly
    (what ``workers=1`` always selected).

``process``
    Fan cells out over a local :class:`~concurrent.futures.ProcessPoolExecutor`
    (what ``workers=N`` always selected), falling back to ``serial`` when
    process pools are unavailable (sandboxes) or die mid-sweep.

``queue``
    Drain a durable on-disk work queue (:mod:`repro.experiments.queue`) that
    any number of worker processes -- on this machine or others sharing the
    directory -- lease tasks from.  Survives crashes and resumes from the
    part-files already written.

Every backend reports each finished :class:`ResultRow` through a single
``on_result`` callback as it lands, so the caller can cache rows and stream
partial aggregates (:class:`SweepProgress`) without waiting for the sweep to
finish.  Third-party backends (SLURM submitters, cloud batch APIs ...)
register the same way every other component does::

    from repro.experiments.backends import ExecutionBackend, register_execution_backend

    @register_execution_backend("slurm")
    class SlurmBackend(ExecutionBackend):
        def execute(self, pending, on_result): ...
"""

from __future__ import annotations

import os
import warnings
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ResultRow
from repro.metrics.partial import PartialAggregator
from repro.registry import Registry

__all__ = [
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "SweepProgress",
    "register_execution_backend",
    "resolve_backend",
]

#: Upper bound on auto-selected worker processes (per-cell runs are seconds
#: long, so more workers than this mostly adds fork/teardown overhead).
MAX_AUTO_WORKERS = 8

#: One unit of sweep work: ``(label, config)``.
Cell = Tuple[str, ExperimentConfig]

#: Callback invoked once per finished row, as it lands.
OnResult = Callable[[ResultRow], None]


class SweepProgress:
    """Live view of a running sweep: completed rows + streaming aggregates.

    The sweep layer feeds every row (cache hits up front, then backend
    results as they land) into :meth:`add`; observers handed to
    ``run_sweep(progress=...)`` receive ``(progress, row)`` after each
    backend row and can read converging pooled aggregates off
    :meth:`aggregate` long before the sweep finishes.
    """

    def __init__(self, total: int, by: Sequence[str] = ("name",)) -> None:
        self.total = total
        self.rows: Dict[str, ResultRow] = {}
        self.by = tuple(by)
        self._partial = PartialAggregator(self.by)
        #: The partial aggregate record of the most recently updated cell
        #: (what :meth:`add` returned) -- observers print this instead of
        #: rescanning the full :meth:`aggregate` snapshot per row.
        self.last_update: Optional[Dict[str, Any]] = None

    @property
    def completed(self) -> int:
        return len(self.rows)

    @property
    def remaining(self) -> int:
        return self.total - len(self.rows)

    @property
    def done(self) -> bool:
        return len(self.rows) >= self.total

    def add(self, row: ResultRow) -> Dict[str, Any]:
        """Absorb one finished row; returns its cell's updated partial
        aggregate record (true pooled digests over the rows seen so far)."""
        self.rows[row.label] = row
        self.last_update = self._partial.add(row)
        return self.last_update

    def aggregate(self) -> List[Dict[str, Any]]:
        """Partial per-cell aggregates over every row absorbed so far."""
        return self._partial.snapshot()


class ExecutionBackend:
    """How a set of pending sweep cells gets executed.

    Subclasses implement :meth:`execute`; it must call ``on_result(row)``
    once per finished cell, as each finishes (not batched at the end), so
    completed work is cached/streamed even if a later cell fails, and return
    the number of workers that participated (1 for serial execution).
    """

    #: Registry name (set by :func:`register_execution_backend`).
    name: str = "?"

    def execute(self, pending: List[Cell], on_result: OnResult) -> int:
        raise NotImplementedError


#: ``queue`` is declared here and provided by the queue module, which this
#: module must not import (the queue machinery imports the sweep layer, and
#: a sweep that never spools should not pay for it): naming it loads it.
EXECUTION_BACKENDS: Registry[Callable[..., ExecutionBackend]] = Registry(
    "execution backend",
    builtins={
        "serial": "repro.experiments.backends",
        "process": "repro.experiments.backends",
        "queue": "repro.experiments.queue",
    },
)


def register_execution_backend(name: str, *, replace: bool = False):
    """Class decorator: register an :class:`ExecutionBackend` factory."""

    def decorator(factory: Callable[..., ExecutionBackend]):
        EXECUTION_BACKENDS.register(name, factory, replace=replace)
        if isinstance(factory, type) and issubclass(factory, ExecutionBackend):
            factory.name = name
        return factory

    return decorator


@register_execution_backend("serial")
class SerialBackend(ExecutionBackend):
    """Run every cell in-process, in submission order."""

    def __init__(self, workers: Optional[int] = None) -> None:
        # ``workers`` accepted (and ignored) so every backend constructs
        # uniformly from run_sweep's arguments.
        del workers

    def execute(self, pending: List[Cell], on_result: OnResult) -> int:
        from repro.experiments.sweep import _run_cell

        for item in pending:
            on_result(_run_cell(item))
        return 1


@register_execution_backend("process")
class ProcessBackend(ExecutionBackend):
    """Fan cells out over a local process pool (serial fallback built in)."""

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers

    def pick_workers(self, num_pending: int) -> int:
        workers = self.workers
        if workers is None:
            workers = min(os.cpu_count() or 1, MAX_AUTO_WORKERS)
        return max(1, min(workers, num_pending))

    def execute(self, pending: List[Cell], on_result: OnResult) -> int:
        from repro.experiments.sweep import _run_cell

        workers_used = self.pick_workers(len(pending))
        done: set = set()

        def store(row: ResultRow) -> None:
            done.add(row.label)
            on_result(row)

        def fall_back_to_serial(exc: BaseException) -> None:
            # Fork/spawn denied (sandboxes) or workers died.  Any real
            # per-cell error will resurface from the serial run.
            nonlocal workers_used
            warnings.warn(
                f"process pool unavailable ({exc!r}); falling back to serial sweep",
                RuntimeWarning,
                stacklevel=4,
            )
            workers_used = 1

        if pending and workers_used > 1:
            # Imported here: only a sweep with cells left to fan out pays
            # for the pool machinery and ``multiprocessing`` behind it.
            from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

            # The try blocks cover only pool machinery: store() runs outside
            # them so a cache-write failure propagates as itself instead of
            # being misread as a broken pool.
            try:
                pool = ProcessPoolExecutor(max_workers=workers_used)
            except OSError as exc:
                fall_back_to_serial(exc)
            else:
                with pool:
                    # pool.map yields in submission order; consume lazily so
                    # every completed cell is stored (and cached) even if a
                    # later one fails.
                    completed = pool.map(_run_cell, pending, chunksize=1)
                    while True:
                        try:
                            row = next(completed)
                        except StopIteration:
                            break
                        except (OSError, BrokenExecutor) as exc:
                            fall_back_to_serial(exc)
                            break
                        store(row)
        if pending and workers_used <= 1:
            for item in pending:
                if item[0] not in done:
                    store(_run_cell(item))
        return workers_used


def resolve_backend(
    backend: Union[str, ExecutionBackend, None],
    workers: Optional[int] = None,
) -> ExecutionBackend:
    """Normalize ``run_sweep``'s backend argument to an instance.

    ``None`` preserves the historical behavior: ``workers <= 1`` selects the
    deterministic ``serial`` backend, anything else the local ``process``
    pool.  A string resolves through :data:`EXECUTION_BACKENDS` and is
    constructed with ``workers=`` (the ``queue`` backend additionally needs a
    queue directory, so it must be constructed explicitly or through the
    CLI's ``--queue-dir``).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        backend = "serial" if (workers is not None and workers <= 1) else "process"
    factory = EXECUTION_BACKENDS.get(backend)
    return factory(workers=workers)
