"""Parallel experiment sweeps with on-disk result caching.

Reproducing one figure of the paper means running many independent
simulations (transports x congestion-control schemes x seeds).  This module
turns that embarrassingly parallel work into one call:

1. a :class:`~repro.experiments.spec.ScenarioSpec` declares the cells:
   its ``configs()`` / ``replicated()`` return the ``label -> config``
   mapping that is the only input :func:`run_sweep` takes;
2. :func:`run_sweep` runs the uncached cells: in order when ``workers <=
   1``, otherwise on a local process pool (with a serial fallback when
   pools are unavailable), or -- given ``backend=QueueBackend(dir)`` --
   through the durable work queue (:mod:`repro.experiments.queue`) whose
   tasks any number of worker machines drain;
3. completed cells are flattened to picklable :class:`ResultRow` records and,
   when a :class:`ResultCache` is given, stored on disk keyed by
   ``ExperimentConfig.fingerprint()`` so repeated invocations only run the
   cells that changed;
4. :func:`aggregate_rows` folds seed replicas into per-cell mean/p99 rows the
   benchmark suite can assert against.

Worked example::

    from repro.experiments.spec import ScenarioSpec
    from repro.experiments.sweep import ResultCache, run_sweep

    spec = ScenarioSpec(
        name="irn-vs-roce",
        defaults={"num_flows": 100},
        variants={
            f"{transport} pfc={pfc}": {"transport": transport, "pfc_enabled": pfc}
            for transport in ("irn", "roce")
            for pfc in (False, True)
        },
        seeds=(1, 2, 3),
        aggregate_by=("transport", "pfc_enabled"),
    )
    sweep = run_sweep(spec.replicated(), cache=ResultCache(".sweep-cache"))
    table = spec.aggregate(sweep)

Cache entries are invalidated automatically when simulator code changes:
every stored row carries a fingerprint of the installed ``repro`` source
tree (see :func:`code_fingerprint`) alongside the schema version, and rows
written by a different source tree read as misses.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import re
import threading
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ResultRow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.queue import QueueBackend

#: Upper bound on auto-selected worker processes (per-cell runs are seconds
#: long, so more workers than this mostly adds fork/teardown overhead).
MAX_AUTO_WORKERS = 8

#: One unit of sweep work: ``(label, config)``.
Cell = Tuple[str, ExperimentConfig]

#: Callback invoked once per finished row, as it lands.
OnResult = Callable[[ResultRow], None]

#: Bumped whenever the ``ResultRow`` schema or run semantics change in a way
#: that invalidates previously cached rows.  (3: rows no longer carry a
#: slowdown digest, and every config field but ``name`` is fingerprinted.)
CACHE_SCHEMA_VERSION = 3


def _write_json_atomic(path: Path, payload: Dict[str, Any]) -> None:
    """Write ``payload`` to ``path`` through a temp file and a rename, so a
    concurrent reader sees the old file or the new one, never half of one.
    The temp name is the writer's own (process and thread), so two writers
    of one path never share a temp file, and a write that is interrupted
    removes it."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the installed ``repro`` source tree (paths + contents).

    Mixed into every cache entry so rows computed by one version of the
    simulator stop being served once any file under ``src/repro`` changes --
    the ROADMAP's code-aware invalidation.  Computed once per process
    (hashing the ~100-file tree takes single-digit milliseconds).
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro

        _CODE_FINGERPRINT = _source_digest(os.path.dirname(os.path.realpath(repro.__file__)))
    return _CODE_FINGERPRINT


def _source_digest(root: str) -> str:
    """SHA-256 over every ``*.py`` file under ``root``: each contributes its
    path relative to ``root``, NUL, its bytes, NUL, in the order of
    ``sorted(Path(root).rglob("*.py"))``."""
    digest = hashlib.sha256()
    for relative, path in _python_sources(root):
        digest.update(relative.encode("utf-8"))
        digest.update(b"\x00")
        with open(path, "rb") as source:
            digest.update(source.read())
        digest.update(b"\x00")
    return digest.hexdigest()


def _python_sources(directory: str, relative: str = "") -> Iterator[Tuple[str, str]]:
    """``(relative path, path)`` of each ``*.py`` file under ``directory``,
    depth first with names sorted at every level.  That is the order of
    sorted ``Path`` objects, which compare by path parts, not by string:
    ``a/b.py`` comes before ``a-b.py``.  Like ``rglob``, the walk does not
    descend into symlinked directories."""
    with os.scandir(directory) as scan:
        entries = sorted(scan, key=lambda entry: entry.name)
    for entry in entries:
        name = os.path.join(relative, entry.name)
        if entry.is_dir(follow_symlinks=False):
            yield from _python_sources(entry.path, name)
        elif entry.name.endswith(".py"):
            yield name, entry.path


class CacheEntry(NamedTuple):
    """One parsed cache (or queue-part) file, staleness visible to callers.

    :meth:`ResultCache.get` conflates every failure mode into a miss because
    the sweep layer only asks "can I skip this simulation?".  The results
    service (:mod:`repro.serve`) needs to *distinguish* rows written by a
    different source tree (serve an HTTP 409, not a silent 404) from rows
    that are genuinely absent or corrupt, so :meth:`ResultCache.scan` /
    :meth:`ResultCache.load_entry` expose this richer view.  A
    ``NamedTuple``, not a frozen dataclass: every CLI start imports this
    module, and the class costs a tenth as much to build.
    """

    fingerprint: str
    path: Path
    #: Schema version recorded in the file (``None`` when unreadable).
    schema: Optional[int]
    #: Code fingerprint of the source tree that wrote the row.
    code: Optional[str]
    #: The parsed row -- present even when ``code`` is stale, ``None`` only
    #: when the file is corrupt or from an incompatible schema version.
    row: Optional[ResultRow]

    @property
    def stale_code(self) -> bool:
        """The row parsed but was produced by a different source tree."""
        return self.row is not None and self.code != code_fingerprint()

    def row_if_current(self, code_aware: bool) -> Optional[ResultRow]:
        """The row a reader may use as a result: ``None`` when it did not
        parse, or -- for a ``code_aware`` reader -- when a different source
        tree wrote it."""
        return None if code_aware and self.stale_code else self.row


_FINGERPRINT = re.compile(r"[0-9a-f]{64}")


def is_fingerprint(text: Any) -> bool:
    """True for the output format of :meth:`ExperimentConfig.fingerprint`
    (64 lower-case hex digits) and nothing else."""
    return isinstance(text, str) and _FINGERPRINT.fullmatch(text) is not None


#: One cache file's :meth:`ResultCache.signature` record: ``(filename,
#: mtime_ns, size, ctime_ns)``.  It moves whenever the file is written,
#: replaced or touched.
FileKey = Tuple[str, int, int, int]


class ResultCache:
    """On-disk store of :class:`ResultRow` records keyed by config fingerprint.

    Each row lives in its own JSON file, so concurrent sweeps sharing a cache
    directory never corrupt each other: writes go through a temp file and an
    atomic rename.

    Entries are *code-aware*: every file records the :func:`code_fingerprint`
    of the source tree that produced it, and entries from a different tree
    (or an older :data:`CACHE_SCHEMA_VERSION`) read as misses, so editing the
    simulator can never serve stale rows.  Pass ``code_aware=False`` to keep
    serving rows across code changes (e.g. archived result directories).
    """

    def __init__(self, directory: Union[str, Path], code_aware: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.code_aware = code_aware

    def path_for(self, fingerprint: str) -> Path:
        """The file of ``fingerprint``.  Anything but a config fingerprint
        is refused: the name may have come in over HTTP, and a separator or
        ``..`` in it would name a file outside the cache directory."""
        if not is_fingerprint(fingerprint):
            raise ValueError(f"not a config fingerprint: {fingerprint!r}")
        return self.directory / f"{fingerprint}.json"

    def get(self, config: ExperimentConfig) -> Optional[ResultRow]:
        """The cached row for ``config``, or ``None`` (corrupt files = miss)."""
        entry = self._read_entry(self.path_for(config.fingerprint()))
        return entry.row_if_current(self.code_aware)

    # ------------------------------------------------------------------
    # Indexing / iteration (the read-path surface of ``repro serve``)
    # ------------------------------------------------------------------
    def load_entry(self, fingerprint: str) -> Optional[CacheEntry]:
        """The parsed :class:`CacheEntry` for ``fingerprint``, or ``None``
        when no such file exists.  Unlike :meth:`get`, a stale-code entry is
        *returned* (with ``stale_code`` set) rather than hidden.  A string
        that is not a fingerprint names no entry."""
        try:
            path = self.path_for(fingerprint)
        except ValueError:
            return None
        if not path.exists():
            return None
        return self._read_entry(path)

    def scan(self) -> Iterator[CacheEntry]:
        """Every cache file as a :class:`CacheEntry`, in fingerprint order.

        Stale-code and corrupt entries are included (``stale_code`` /
        ``row is None``), so callers can count and report them instead of
        silently skipping -- the results service turns stale entries into
        HTTP 409s rather than pretending they do not exist.
        """
        for fingerprint in self.fingerprints():
            yield self._read_entry(self.directory / f"{fingerprint}.json")

    def fingerprints(self) -> List[str]:
        """The fingerprint of every entry, sorted: one directory listing,
        no file read.  Only a file named ``<fingerprint>.json`` is an entry
        (:meth:`load_entry` names no other), and :meth:`scan`,
        :meth:`clear` and ``len()`` all go by this listing, so a stray
        ``README.json`` is never read, counted or deleted."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        return sorted(
            name[:-5] for name in names if name.endswith(".json") and is_fingerprint(name[:-5])
        )

    def signature(self) -> Tuple[FileKey, ...]:
        """A cheap stat-based fingerprint of the cache contents.

        Sorted ``(filename, mtime_ns, size, ctime_ns)`` records (see
        :meth:`file_key`): any row added, replaced or removed changes the
        signature without reading a single file body.  ``ctime_ns`` catches
        a replacement that keeps the size and restores the mtime (``cp
        -p``, ``rsync -t``, ``tar x``): ``utime`` can set the mtime, never
        the ctime.  The results service re-stats this per request to decide
        whether its in-process warm aggregates are still valid.
        """
        entries = []
        try:
            with os.scandir(self.directory) as it:
                for dirent in it:
                    name = dirent.name
                    if name.endswith(".json"):
                        try:
                            stat = dirent.stat()
                        except FileNotFoundError:
                            continue  # deleted mid-scan
                        # Built in line: this runs per file on every request.
                        entries.append((name, stat.st_mtime_ns, stat.st_size, stat.st_ctime_ns))
        except FileNotFoundError:
            pass
        return tuple(sorted(entries))

    def file_key(self, fingerprint: str) -> Optional[FileKey]:
        """The :meth:`signature` record of ``fingerprint``'s file alone (one
        ``stat``), or ``None`` when there is no such file."""
        path = self.path_for(fingerprint)
        try:
            stat = os.stat(path)
        except FileNotFoundError:
            return None
        return (path.name, stat.st_mtime_ns, stat.st_size, stat.st_ctime_ns)

    def _read_entry(self, path: Path) -> CacheEntry:
        """Parse one ``{schema, code, row}`` file (the only reader of the
        envelope :meth:`put` writes); a missing or corrupt file parses to an
        entry without a row."""
        fingerprint = path.stem
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            payload = None
        if not isinstance(payload, dict):
            return CacheEntry(fingerprint, path, schema=None, code=None, row=None)
        schema = payload.get("schema")
        code = payload.get("code")
        row: Optional[ResultRow] = None
        if schema == CACHE_SCHEMA_VERSION:
            try:
                row = ResultRow.from_dict(payload["row"])
            except (KeyError, TypeError, ValueError):
                row = None
        return CacheEntry(fingerprint, path, schema=schema, code=code, row=row)

    def put(self, row: ResultRow) -> None:
        """Store ``row`` under its fingerprint (atomic rename)."""
        _write_json_atomic(
            self.path_for(row.fingerprint),
            {
                "schema": CACHE_SCHEMA_VERSION,
                "code": code_fingerprint(),
                "row": row.to_dict(),
            },
        )

    def rows(self) -> List[ResultRow]:
        """Every valid cached row, sorted by label (reporting without
        re-simulating; stale/corrupt entries are skipped)."""
        loaded = (entry.row_if_current(self.code_aware) for entry in self.scan())
        return sorted((row for row in loaded if row is not None), key=lambda row: row.label)

    def clear(self) -> int:
        """Delete every cached row; returns how many were removed."""
        fingerprints = self.fingerprints()
        for fingerprint in fingerprints:
            self.path_for(fingerprint).unlink(missing_ok=True)
        return len(fingerprints)

    def __len__(self) -> int:
        return len(self.fingerprints())


#: Environment variable naming plugin modules to import before running cells.
PLUGINS_ENV_VAR = "REPRO_PLUGINS"

_PLUGINS_IMPORTED: Optional[str] = None


def import_plugins(spec: Optional[str] = None) -> List[str]:
    """Import the comma-separated modules named in ``REPRO_PLUGINS``.

    Registrations made in a script are process-local: a parallel sweep's
    worker processes re-import a clean registry, so custom components used
    to require ``workers=1``.  Naming the registering module(s) in the
    ``REPRO_PLUGINS`` environment variable lifts that: every worker (and
    the coordinating process) imports them before running cells, so
    registered components resolve everywhere.  The modules must be
    importable in the workers (on ``PYTHONPATH``) and must register
    **idempotently** -- the coordinator may import them alongside the
    ``__main__`` script that already ran the registrations (guard with
    ``if "name" not in REGISTRY.names():`` or pass ``replace=True``).

    ``spec`` overrides the environment (used by tests).  Returns the list
    of module names imported.  Memoized per value, so calling this once
    per cell costs a string comparison after the first import.
    """
    global _PLUGINS_IMPORTED
    value = os.environ.get(PLUGINS_ENV_VAR, "") if spec is None else spec
    if value == _PLUGINS_IMPORTED:
        return []
    names = [name.strip() for name in value.split(",") if name.strip()]
    for name in names:
        importlib.import_module(name)
    _PLUGINS_IMPORTED = value
    return names


def _run_cell(item: Tuple[str, ExperimentConfig]) -> ResultRow:
    """Worker entry point: run one cell, return only the flat row.

    Module-level (not a closure) so it pickles under every multiprocessing
    start method; the collector and flows ``run_experiment`` keeps never
    leave the worker process.
    """
    # Plugin modules first: under "spawn" this worker has a clean registry
    # and custom components must be re-registered before the config resolves.
    import_plugins()
    # Imported here so workers under "spawn" pay the import cost once, and so
    # this module does not import the runner (and the whole sim stack) just
    # to expand grids or read caches.
    from repro.experiments.runner import run_experiment

    label, config = item
    return run_experiment(config).to_row(label)


@dataclass
class SweepResult:
    """Outcome of one :func:`run_sweep` call.

    ``rows`` preserves the input cell order regardless of which worker
    finished first, so iteration order is deterministic.
    """

    rows: Dict[str, ResultRow]
    cache_hits: int
    cache_misses: int
    #: Worker processes used (1 == the serial fallback).
    workers_used: int

    @property
    def runs_executed(self) -> int:
        """Simulations executed by this invocation (0 == fully cached)."""
        return self.cache_misses

    def __getitem__(self, label: str) -> ResultRow:
        return self.rows[label]

    def __len__(self) -> int:
        return len(self.rows)


class SweepProgress:
    """Live view of a running sweep: completed rows + streaming aggregates.

    :func:`run_sweep` feeds every row (cache hits up front, then executed
    cells as they land) into :meth:`add`; observers handed to
    ``run_sweep(progress=...)`` receive ``(progress, row)`` after each
    executed row and can read converging pooled aggregates off
    :meth:`aggregate` long before the sweep finishes.
    """

    def __init__(self, total: int, by: Sequence[str] = ("name",)) -> None:
        self.total = total
        self.rows: Dict[str, ResultRow] = {}
        self.by = tuple(by)
        # Imported where rows are aggregated: a sweep nobody watches, and a
        # single-seed report, never load the aggregator or the digest sketch.
        from repro.metrics.partial import PartialAggregator

        self._partial = PartialAggregator(self.by)
        #: The partial aggregate record of the most recently updated cell
        #: (what :meth:`add` returned) -- observers print this instead of
        #: rescanning the full :meth:`aggregate` snapshot per row.
        self.last_update: Optional[Dict[str, Any]] = None

    @property
    def completed(self) -> int:
        return len(self.rows)

    def add(self, row: ResultRow) -> Dict[str, Any]:
        """Absorb one finished row; returns its cell's updated partial
        aggregate record (true pooled digests over the rows seen so far)."""
        self.rows[row.label] = row
        self.last_update = self._partial.add(row)
        return self.last_update

    def aggregate(self) -> List[Dict[str, Any]]:
        """Partial per-cell aggregates over every row absorbed so far."""
        return self._partial.snapshot()


def _rebind_row(row: ResultRow, label: str, name: str) -> ResultRow:
    """Serve a stored row under the *requesting* cell's identity fields.

    ``label`` and ``name`` are deliberately excluded from the config
    fingerprint, so a row computed (and cached, or written as a queue part)
    by one sweep may be served to a fingerprint-identical cell of another
    scenario that uses different ones.  ``name`` groups aggregation cells:
    serving a foreign stale name would split or merge aggregates.
    """
    if row.label == label and row.name == name:
        return row
    return ResultRow.from_dict({**row.to_dict(), "label": label, "name": name})


def _execute_locally(pending: List[Cell], workers: Optional[int], store: OnResult) -> int:
    """Run ``pending`` in this process, in order, when ``workers <= 1``;
    otherwise on a process pool.  Returns the worker processes used.

    A pool that cannot be created (fork denied in a sandbox) or breaks
    mid-sweep warns once, and the cells it has not stored run serially --
    each exactly once.  Any real per-cell error resurfaces from that run.
    """
    if workers is None:
        workers = min(os.cpu_count() or 1, MAX_AUTO_WORKERS)
    workers = max(1, min(workers, len(pending)))
    done: set = set()
    if workers > 1:
        # Imported here: only a sweep with cells left to fan out pays for
        # the pool machinery and ``multiprocessing`` behind it.
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        # The try blocks cover only pool machinery: store() runs outside
        # them so a cache-write failure propagates as itself instead of
        # being misread as a broken pool.
        broken: Optional[BaseException] = None
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except OSError as exc:
            broken = exc
        else:
            with pool:
                # pool.map yields in submission order; consume lazily so
                # every completed cell is stored (and cached) even if a
                # later one fails.
                completed = pool.map(_run_cell, pending, chunksize=1)
                while broken is None:
                    try:
                        row = next(completed)
                    except StopIteration:
                        return workers
                    except (OSError, BrokenExecutor) as exc:
                        broken = exc
                    else:
                        done.add(row.label)
                        store(row)
        warnings.warn(
            f"process pool unavailable ({broken!r}); falling back to serial sweep",
            RuntimeWarning,
            stacklevel=3,
        )
    for label, config in pending:
        if label not in done:
            store(_run_cell((label, config)))
    return 1


def run_sweep(
    configs: Mapping[str, ExperimentConfig],
    *,
    workers: Optional[int] = None,
    cache: Optional[Union[ResultCache, str, Path]] = None,
    backend: Optional["QueueBackend"] = None,
    progress: Optional[Callable[[SweepProgress, ResultRow], None]] = None,
    progress_by: Sequence[str] = ("name",),
) -> SweepResult:
    """Run every uncached cell of a sweep, reusing cached rows.

    Parameters
    ----------
    configs:
        A mapping of label to config: what :meth:`ScenarioSpec.configs()
        <repro.experiments.spec.ScenarioSpec.configs>` and ``.replicated()``
        return.  Anything else raises :class:`TypeError`.
    workers:
        Local worker process count.  ``None`` picks the CPU count (bounded
        by ``MAX_AUTO_WORKERS``) capped at the number of uncached cells;
        ``<= 1`` runs the cells in this process, in order.  Parallel and
        serial execution produce bit-identical rows (each cell is an
        independent, seeded simulation).
    cache:
        A :class:`ResultCache` (or a directory path for one).  Cells whose
        config fingerprint is present are served from disk without running;
        freshly computed rows are written back.  ``None`` disables caching.
    backend:
        ``None`` runs the uncached cells locally, per ``workers``.  Anything
        else is an object whose ``execute(pending, on_result)`` runs the
        ``(label, config)`` cells, calls ``on_result(row)`` once per cell as
        it finishes, and returns the number of workers that took part --
        in the tree, a :class:`~repro.experiments.queue.QueueBackend`, which
        any number of ``python -m repro worker`` processes help drain.
    progress:
        Optional observer called as ``progress(state, row)`` after every
        executed row, with ``state`` a :class:`SweepProgress` carrying all
        completed rows and streaming partial aggregates (grouped by
        ``progress_by``).  This is how ``--follow`` watches pooled tails
        converge while a queue sweep is still running.
    """
    if isinstance(backend, str):
        raise TypeError(
            f"backend={backend!r}: a sweep runs locally (backend=None, sized by "
            "workers) or through an object with execute(pending, on_result), "
            "such as QueueBackend(queue_dir); names are not accepted"
        )
    if not isinstance(configs, Mapping):
        raise TypeError(
            f"configs={type(configs).__name__}: a sweep takes a label -> "
            "ExperimentConfig mapping, such as ScenarioSpec.configs() or "
            ".replicated()"
        )
    cells: List[Cell] = list(configs.items())
    label_counts = Counter(label for label, _ in cells)
    duplicates = [label for label, count in label_counts.items() if count > 1]
    if duplicates:
        raise ValueError(f"duplicate sweep labels: {sorted(duplicates)}")

    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)

    rows: Dict[str, Optional[ResultRow]] = {label: None for label, _ in cells}
    # The streaming tracker does real per-row aggregation work (digest
    # merges, partial records); only pay for it when someone is watching.
    tracker = SweepProgress(total=len(cells), by=progress_by) if progress is not None else None
    pending: List[Cell] = []
    cache_hits = 0
    for label, config in cells:
        cached = cache.get(config) if cache is not None else None
        if cached is not None:
            row = _rebind_row(cached, label, config.name)
            rows[label] = row
            if tracker is not None:
                tracker.add(row)
            cache_hits += 1
        else:
            pending.append((label, config))

    def _store(row: ResultRow) -> None:
        # Called as each cell completes, so one failing (or interrupted) cell
        # never discards finished sibling work: everything stored so far is
        # already on disk and a retry resumes from there.
        rows[row.label] = row
        if cache is not None:
            cache.put(row)
        if tracker is not None:
            tracker.add(row)
            progress(tracker, row)

    if not pending:
        workers_used = 1
    elif backend is None:
        workers_used = _execute_locally(pending, workers, _store)
    else:
        workers_used = backend.execute(pending, _store)

    return SweepResult(
        rows={label: row for label, row in rows.items() if row is not None},
        cache_hits=cache_hits,
        cache_misses=len(pending),
        workers_used=workers_used,
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def aggregate_rows(
    rows: Iterable[ResultRow],
    by: Sequence[str] = ("transport", "congestion_control", "pfc_enabled"),
) -> List[Dict[str, Any]]:
    """Fold seed replicas into one tidy record per parameter cell.

    Rows sharing the ``by`` fields form one cell.  Each output record holds
    the ``by`` columns, the replica count and seed list, ``<metric>_mean`` /
    ``<metric>_p99`` for the three headline metrics -- plus
    ``<metric>_stderr`` (standard error of the mean over replicas) and
    ``<metric>_ci95`` (the t-based 95% confidence half-width, 0.0 with a
    single replica) -- ``drop_rate_mean`` and summed fabric counters: plain
    scalars throughout, so records compare directly in tests.

    When the member rows carry quantile digests, those digests are *merged*
    across replicas and the record additionally reports true pooled-
    distribution percentiles -- ``fct_p50_s`` / ``fct_p99_s`` / ``fct_p999_s``
    over every flow of every replica (not a mean of per-replica tails, which
    understates the tail), ``num_flows_total``, and, when single-packet
    messages completed, ``single_packet_p90_s`` / ``_p99_s`` / ``_p999_s``
    with ``single_packet_flows``.  Runs collected with
    ``fabric_digests=True`` additionally pool §4.4 congestion-spreading
    distributions: ``queue_depth_p50/p99/p999_bytes`` (per-switch input-port
    occupancy at enqueue) and ``pfc_pause_p50/p99/p999_s`` with
    ``pfc_pause_events`` / ``pfc_pause_total_s`` (PFC pause episode
    durations).

    This is the batch entry point of :class:`repro.metrics.partial.
    PartialAggregator` -- the same reduction the work-queue backend applies
    incrementally as part-files land -- so a streamed aggregate and a
    post-hoc one over the same rows are identical.
    """
    from repro.metrics.partial import PartialAggregator

    return PartialAggregator(by).add_all(rows).snapshot()
