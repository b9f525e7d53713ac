"""Always-warm HTTP results service over a sweep cache (``repro serve``).

Every figure/table the paper grid produces becomes *a URL*: a long-lived
:class:`~socketserver.ThreadingTCPServer` process (stdlib only, zero new
dependencies) exposes the warm :class:`~repro.experiments.sweep.ResultCache`
and :class:`~repro.metrics.partial.PartialAggregator` over JSON, so the
read path is a stat of the cache plus a stored body -- never a simulation.
Start it with::

    python -m repro serve .sweep-cache/fig1 [--queue-dir DIR --port N]

Endpoints (all one-line JSON -- pipe through ``python -m json.tool`` to
read it; ``?format=text`` re-renders through the exact
:mod:`repro.metrics.report` / catalog formatters the offline CLIs use, so
the text bodies are byte-identical to their command-line counterparts):

=====================================  ====================================
``GET /``                              service index (endpoints, dirs, code)
``GET /scenarios``                     the scenario catalog (same metadata
                                       as ``python -m repro list``)
``GET /scenarios/<name>/aggregate``    pooled per-cell aggregate records
                                       (CI columns, merged-digest tails)
``GET /scenarios/<name>/cdf``          tail-CDF points from the stored
                                       quantile digests
``GET /scenarios/<name>/follow``       SSE stream of the work queue's part
                                       files as they land (needs
                                       ``--queue-dir``)
``GET /cells/<fingerprint>``           one raw ``ResultRow``
=====================================  ====================================

Consistency contract
--------------------

* **Zero simulation.**  The service never imports (let alone calls)
  :func:`~repro.experiments.runner.run_experiment` or the engine
  (``tests/test_import_graph.py`` holds it to that); every byte served
  comes from cache files and in-process aggregation.
* **Code-aware invalidation.**  Rows record the source-tree fingerprint
  that produced them.  A row written by a *different* tree is never served
  as current: ``/cells`` answers **409 Conflict**, aggregates exclude such
  rows (reporting a ``stale_rows`` count) and answer 409 outright when
  nothing fresh remains.  ``--any-code`` opts out (archived result dirs).
* **Warm bodies.**  One store per cache state -- the cheap stat-based
  :meth:`~repro.experiments.sweep.ResultCache.signature` plus the code
  fingerprint, re-taken on every request -- holds the state's scan of the
  cache, the aggregate records, and the encoded bodies of ``/aggregate``
  (JSON and every text form) and ``/cdf`` (text, and JSON at the default
  tail).  A warm request is a stat and a dict lookup.  A row landing in the
  cache -- e.g. from a worker machine writing through the shared directory
  -- moves the state, and the next request starts an empty store, without
  the server watching anything.  Error answers and non-default ``/cdf``
  tails are never stored, so the store is bounded by scenarios x forms.
  Across states, each file is parsed once per version (its signature
  record), so a moved state reads only the files that moved; a
  ``/cells`` body is encoded once per file version, and the ``/scenarios``
  bodies once per set of registered specs.  Each aggregation cell's record
  and JSON are kept under its member rows (file versions), and each row's
  default-tail ``/cdf`` cell under its label and row, so a moved state
  aggregates and encodes only the cells whose files moved; the
  ``/aggregate`` and ``/cdf`` bodies are joined from those pieces, byte
  for byte what ``json.dumps`` gives for the whole.
* **Connections.**  Handler threads are reused, but a connection that
  finds none idle gets a new one: nothing queues behind a busy thread.
* **One read, one write.**  The handler reads the request head off the
  socket into one buffer (at most 64 KiB and 100 header lines, ended by a
  blank line) and answers with one ``sendall`` of the status line, the
  headers and the body; ``/follow`` sends each event with one more.  Only
  an HTTP/1.x ``GET`` is served: anything else gets the JSON error body
  (400 malformed, 414 or 431 over a cap, 501 another method, 505 another
  version).  :data:`SOCKET_TIMEOUT_S` bounds every read and write, so a
  client that stalls frees its thread.
* **Bit-identical parity.**  Aggregate records equal the offline batch
  ``spec.aggregate(spec.sweep(...))`` output bit for bit: cached rows are
  re-sorted into the canonical batch absorption order
  (:func:`~repro.metrics.partial.rows_in_batch_order`) before aggregation.
"""

from __future__ import annotations

import json
import math
import signal
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from pathlib import Path
from queue import SimpleQueue
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Hashable, List, NamedTuple, Optional, Tuple, Union,
)
from urllib.parse import parse_qs, unquote, urlsplit

from repro.experiments.spec import ScenarioSpec
from repro.experiments.sweep import (
    CacheEntry, FileKey, ResultCache, code_fingerprint, is_fingerprint,
)
from repro.metrics.partial import PartialAggregator, rows_in_batch_order
from repro.metrics.report import format_single_packet_cdfs, label_rows, render_rows_report
from repro.registry import UnknownNameError
from repro.serve import DEFAULT_PORT
from repro.serve.catalog import catalog_entries, format_catalog, registered_scenarios

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.queue import TaskQueue
    from repro.experiments.results import ResultRow
    from repro.metrics.sketch import QuantileDigest

__all__ = [
    "DEFAULT_PORT",
    "ResultsServer",
    "ResultsService",
    "ServiceError",
    "make_server",
]

#: The ``/cdf`` tail by default: from the 90th percentile, 12 points.
CDF_START = 0.90
CDF_POINTS = 12
#: Most tail-CDF points one ``/cdf`` request may ask for (the body and the
#: request thread's time both grow linearly with it).
MAX_CDF_POINTS = 1000

JSON_TYPE = "application/json; charset=utf-8"
TEXT_TYPE = "text/plain; charset=utf-8"


class ServiceError(Exception):
    """An HTTP-mappable service failure (status + JSON payload)."""

    def __init__(self, status: int, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.status = status
        self.payload: Dict[str, Any] = {"error": message, **extra}


def _json_body(payload: Any) -> bytes:
    # No ``indent``: only the one-line form runs on ``json``'s C encoder.
    return (json.dumps(payload) + "\n").encode("utf-8")


def _text_body(text: str) -> bytes:
    # Trailing newline matches the CLIs' final ``print`` byte for byte.
    return (text + "\n").encode("utf-8")


def _joined_body(envelope: Dict[str, Any], field: str, items: List[str]) -> bytes:
    """``_json_body({**envelope, field: [...]})`` from the list's items
    already encoded: ``json.dumps`` writes a list as its items' own
    encodings joined by ``", "``, so the bytes are the same.  ``envelope``
    is not empty and has no ``field``, which goes last."""
    head = json.dumps(envelope)[:-1]
    return f'{head}, "{field}": [{", ".join(items)}]}}\n'.encode("utf-8")


#: What one cache state's store holds under a key: the state's cache
#: signature under ``"signature"``, and anything built from that state (see
#: :meth:`ResultsService._view`).
Store = Dict[Hashable, Any]


def _memo(store: Store, key: Hashable, build: Callable[[], Any]) -> Tuple[Any, bool]:
    """``(value, warm)``: ``store[key]``, or ``build()`` stored under it.
    A build that raises stores nothing, so no error answer is ever warm."""
    if key in store:
        return store[key], True
    return store.setdefault(key, build()), False


class _Version:
    """One version of one cache file: the :meth:`ResultCache.signature`
    record it was read under, its one parse and, once a request asked for
    it, its ``/cells`` body."""

    __slots__ = ("key", "entry", "body")

    def __init__(self, key: FileKey, entry: CacheEntry) -> None:
        self.key = key
        self.entry = entry
        self.body: Optional[bytes] = None


class _Scan(NamedTuple):
    """Every cache file parsed once, for everything built under one state."""

    #: Rows a reader may serve as current, in fingerprint order.
    current: List["ResultRow"]
    #: Rows written by a different source tree (code-aware services only).
    stale: List["ResultRow"]
    #: ``current`` keyed and ordered as the report CLI's loader keys them.
    labelled: Dict[str, "ResultRow"]


class _Aggregate(NamedTuple):
    """One scenario's ``/aggregate`` answer under one cache state."""

    #: Every field but ``records``, saying ``"warm": false``.
    envelope: Dict[str, Any]
    records: List[Dict[str, Any]]
    #: ``json.dumps`` of each record.
    encoded: List[str]


class _CellRecord(NamedTuple):
    """One aggregation cell's record and its JSON, under the ``by`` fields
    and the member rows, in canonical batch order, it was built from.  A
    row is the one parse of its file version, so the rows name the
    versions the record read."""

    by: Tuple[str, ...]
    rows: Tuple["ResultRow", ...]
    record: Dict[str, Any]
    encoded: str


class _CdfCell(NamedTuple):
    """One row's default-tail ``/cdf`` cell as JSON, under its label (the
    key it is stored by) and the row it was built from."""

    row: "ResultRow"
    encoded: str


def _same_rows(built: Tuple["ResultRow", ...], rows: List["ResultRow"]) -> bool:
    return len(built) == len(rows) and all(a is b for a, b in zip(built, rows))


def _cdf_cell(
    label: str, row: "ResultRow", digest: "QuantileDigest", start_fraction: float, points: int
) -> Dict[str, Any]:
    """One row's entry in a ``/cdf`` body."""
    return {
        "label": label,
        "name": row.name,
        "fingerprint": row.fingerprint,
        "count": digest.count,
        "points": [
            [value, fraction] for value, fraction in digest.tail_cdf(start_fraction, points)
        ],
    }


class ResultsService:
    """The HTTP-agnostic read model: catalog, aggregates, CDFs, raw cells.

    All public methods are thread-safe (the server serves connections on
    several threads at once).  The shared mutable state is the warm store,
    swapped under a lock, and memos whose entries are each written by one
    assignment and checked against their key on every read, so a lost
    update costs a rebuild, never a stale answer.  Raises
    :class:`ServiceError` for every client-visible failure so the
    transport layer maps it to a status uniformly.  The
    ``*_body`` methods answer the HTTP routes with encoded bytes.  For
    in-process callers, :meth:`aggregate` returns the stored records and
    :meth:`aggregate_text` / :meth:`cdf` / :meth:`cell` / :meth:`catalog`
    decode their bodies.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        queue_dir: Optional[Union[str, Path]] = None,
        code_aware: bool = True,
    ) -> None:
        #: Kept as the *given* string: it appears verbatim in text-report
        #: titles, which must match the offline CLI invoked with the same
        #: path argument byte for byte.
        self.cache_dir = str(cache_dir)
        self.code_aware = code_aware
        self.cache = ResultCache(cache_dir, code_aware=code_aware)
        #: Feeds ``/follow`` alone; every other route reads ``cache_dir``
        #: (a queue sweep's rows are served from ``<queue-dir>/parts``).
        self.queue: Optional[TaskQueue] = None
        if queue_dir is not None:
            from repro.experiments.queue import TaskQueue

            self.queue = TaskQueue(queue_dir)
        self._lock = threading.Lock()
        #: The warm store: the cache state, ``(cache signature, code
        #: fingerprint)``, and what was built under it -- the one scan,
        #: aggregate records, encoded bodies.  Rows are never mutated, so
        #: requests share them (and the digests each row rebuilds once).
        self._state: Optional[Tuple[Any, str]] = None
        self._store: Store = {}
        #: File name -> its :class:`_Version`, across cache states: a file
        #: is read again only once its signature record moved.  Each scan
        #: replaces it with the versions its signature lists.
        self._files: Dict[str, _Version] = {}
        #: ``spec.name -> {cell key: _CellRecord}`` and ``spec.name ->
        #: {label: _CdfCell}``, across cache states: a moved state builds
        #: only the aggregation cells and ``/cdf`` cells whose rows moved.
        #: Each ``/aggregate`` or default ``/cdf`` build replaces its
        #: scenario's dict with the entries it used.
        self._cell_records: Dict[str, Dict[Tuple[Any, ...], _CellRecord]] = {}
        self._cdf_cells: Dict[str, Dict[str, _CdfCell]] = {}
        #: ``spec.name -> (spec, cell names)``; a re-registered spec is a
        #: new object, so it expands again.
        self._cell_names: Dict[str, Tuple[ScenarioSpec, Tuple[str, ...]]] = {}
        #: The ``/scenarios`` bodies by form (text or not), under the
        #: ``(name, id(spec))`` list of the registry they were built from.
        #: The specs are kept beside it, so no id is reused while it is a key.
        self._catalog: Tuple[
            List[Tuple[str, int]], List[Tuple[str, ScenarioSpec]], Dict[bool, bytes]
        ] = ([], [], {})

    def _view(self) -> Store:
        """The store of the cache's current state.

        A moved state starts a new, empty store instead of clearing the old
        one, so a build still running for the old state cannot write into
        it.  The state is taken *before* anything is built from it: a row
        landing mid-build moves the state, and the next request rebuilds.
        """
        state = (self.cache.signature(), code_fingerprint())
        with self._lock:
            if state != self._state:
                self._state, self._store = state, {"signature": state[0]}
            return self._store

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def index(self) -> Dict[str, Any]:
        return {
            "service": "repro serve",
            "cache_dir": self.cache_dir,
            "queue_dir": str(self.queue.directory) if self.queue else None,
            "code": code_fingerprint(),
            "endpoints": [
                "/healthz",
                "/scenarios",
                "/scenarios/<name>/aggregate",
                "/scenarios/<name>/cdf",
                "/scenarios/<name>/follow",
                "/cells/<fingerprint>",
            ],
        }

    def catalog(self) -> List[Dict[str, Any]]:
        return json.loads(self.catalog_body())["scenarios"]

    def catalog_body(self, text: bool = False) -> bytes:
        """The ``/scenarios`` body (``text``: the ``repro list`` form),
        encoded once per set of registered specs."""
        scenarios = registered_scenarios()
        key = [(name, id(spec)) for name, spec in scenarios]
        memo = self._catalog
        if memo[0] != key:
            memo = self._catalog = (key, scenarios, {})
        bodies = memo[2]
        if text not in bodies:
            entries = catalog_entries(scenarios)
            bodies[text] = (
                _text_body(format_catalog(entries)) if text
                else _json_body({"scenarios": entries, "count": len(entries)})
            )
        return bodies[text]

    def spec(self, name: str) -> ScenarioSpec:
        from repro.experiments.spec import scenario

        try:
            return scenario(name)
        except UnknownNameError as exc:
            raise ServiceError(404, str(exc)) from exc

    def cell_names(self, spec: ScenarioSpec) -> Tuple[str, ...]:
        """The scenario's aggregation-cell names, in spec order (expanded
        once per spec object)."""
        known = self._cell_names.get(spec.name)
        if known is None or known[0] is not spec:
            names: List[str] = []
            for config in spec.configs().values():
                if config.name not in names:
                    names.append(config.name)
            known = self._cell_names[spec.name] = (spec, tuple(names))
        return known[1]

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def _version(self, key: FileKey) -> Optional[_Version]:
        """The parse of the file version ``key`` records: the memo's, or
        read now (``None`` when the file is gone or names no entry)."""
        name = key[0]
        version = self._files.get(name)
        if version is None or version.key != key:
            entry = self.cache.load_entry(name[: -len(".json")])
            if entry is None:
                return None
            version = self._files[name] = _Version(key, entry)
        return version

    def _scan(self, store: Store) -> _Scan:
        """The state's one parse of the cache, behind every aggregate,
        report and CDF built under it: only the files whose signature
        record moved since the memo saw them are read."""

        def build() -> _Scan:
            versions: Dict[str, _Version] = {}
            for key in store["signature"]:
                version = self._version(key)
                if version is not None:
                    versions[key[0]] = version
            self._files = versions
            current, stale = [], []
            for version in versions.values():
                entry = version.entry
                if entry.row is not None:
                    stale_code = self.code_aware and entry.stale_code
                    (stale if stale_code else current).append(entry.row)
            by_label = sorted(current, key=lambda row: row.label)  # as ``cache.rows()``
            return _Scan(current, stale, label_rows(by_label))

        return _memo(store, "scan", build)[0]

    def _scenario_rows(
        self, store: Store, names: Tuple[str, ...]
    ) -> Tuple[List["ResultRow"], int]:
        """``(fresh_rows, stale_count)`` for the scenario's cached rows."""
        scan = self._scan(store)
        wanted = set(names)
        fresh = [row for row in scan.current if row.name in wanted]
        return fresh, sum(row.name in wanted for row in scan.stale)

    def _report_rows(self, store: Store, spec: ScenarioSpec) -> Dict[str, "ResultRow"]:
        """Label -> row for the scenario, keyed as the *report CLI's* loader
        keys them (same ordering, same duplicate-label disambiguation), so
        the text rendering over these rows matches the CLI byte for byte."""
        wanted = set(self.cell_names(spec))
        return {
            label: row for label, row in self._scan(store).labelled.items()
            if row.name in wanted
        }

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    # Every stored key names the scenario by ``spec.name``, never by the
    # URL segment: lookups ignore case, so keying by the segment would
    # store one copy per spelling.
    def _aggregate(self, store: Store, spec: ScenarioSpec) -> Tuple[_Aggregate, bool]:
        """``(aggregate, warm)`` for the scenario under the store's state."""
        name = spec.name

        def build() -> _Aggregate:
            names = self.cell_names(spec)
            fresh, stale = self._scenario_rows(store, names)
            if not fresh:
                if stale:
                    raise ServiceError(
                        409,
                        f"every cached row for scenario {name!r} was written by a "
                        "different simulator version; re-run the sweep to refresh "
                        "(or serve with --any-code)",
                        stale_rows=stale,
                        code=code_fingerprint(),
                    )
                raise ServiceError(
                    404,
                    f"no cached rows for scenario {name!r} in {self.cache_dir}",
                    hint=f"warm the cache with: python -m repro run {name} "
                         f"--cache {self.cache_dir}",
                )
            cells = self._cells(spec, rows_in_batch_order(fresh, names))
            envelope = {
                "scenario": spec.name,
                "aggregate_by": list(spec.aggregate_by),
                "replica_rows": len(fresh),
                "stale_rows": stale,
                "code": code_fingerprint(),
                "warm": False,
            }
            return _Aggregate(
                envelope, [cell.record for cell in cells], [cell.encoded for cell in cells]
            )

        return _memo(store, ("aggregate", name), build)

    def _cells(self, spec: ScenarioSpec, ordered: List["ResultRow"]) -> List[_CellRecord]:
        """The aggregation cells of ``ordered`` (canonical batch order), in
        first-seen order: a cell whose ``by`` fields and member rows are the
        ones its stored record was built from keeps that record, any other
        is absorbed and encoded now."""
        by = tuple(spec.aggregate_by)
        cell_key = PartialAggregator(by).key
        members: Dict[Tuple[Any, ...], List["ResultRow"]] = {}
        for row in ordered:
            members.setdefault(cell_key(row), []).append(row)
        known = self._cell_records.get(spec.name, {})
        cells: Dict[Tuple[Any, ...], _CellRecord] = {}
        for key, rows in members.items():
            cell = known.get(key)
            if cell is None or cell.by != by or not _same_rows(cell.rows, rows):
                # A cell's record reads only its own rows, in their order.
                (record,) = PartialAggregator(by).add_all(rows).snapshot()
                cell = _CellRecord(by, tuple(rows), record, json.dumps(record))
            cells[key] = cell
        self._cell_records[spec.name] = cells
        return list(cells.values())

    def aggregate(self, name: str) -> Dict[str, Any]:
        """The scenario's pooled per-cell aggregate records (warm-reused).

        Bit-identical to ``spec.aggregate(spec.sweep(...))`` over the same
        rows: fresh cached rows are absorbed in canonical batch order.
        """
        aggregate, warm = self._aggregate(self._view(), self.spec(name))
        return {**aggregate.envelope, "warm": warm, "records": aggregate.records}

    def aggregate_body(self, name: str) -> bytes:
        """:meth:`aggregate` as a JSON body, joined once per cache state
        from the records' stored encodings.

        A miss joins both envelopes: this answer's, and the stored
        ``"warm": true`` one that every later request in the state gets.
        """
        spec, store = self.spec(name), self._view()
        key = ("body", "aggregate", spec.name)
        if key in store:
            return store[key]
        aggregate, warm = self._aggregate(store, spec)
        envelope, encoded = aggregate.envelope, aggregate.encoded
        stored = store.setdefault(
            key, _joined_body({**envelope, "warm": True}, "records", encoded)
        )
        return stored if warm else _joined_body(envelope, "records", encoded)

    def aggregate_text(self, name: str, cdf: bool = False) -> str:
        """The offline-report rendering of the scenario's cached rows.

        Byte-identical to ``python -m repro.metrics.report <cache-dir>``
        (plus ``--cdf``) whenever the cache holds exactly this scenario's
        rows -- same row keys, same renderer, same title string.
        """
        return self.aggregate_text_body(name, cdf).decode("utf-8")[:-1]

    def aggregate_text_body(self, name: str, cdf: bool = False) -> bytes:
        """:meth:`aggregate_text` as a body, encoded once per cache state."""
        spec, store = self.spec(name), self._view()

        def render() -> bytes:
            self._aggregate(store, spec)  # enforce 404/409 semantics + warm the records
            rows = self._report_rows(store, spec)
            return _text_body(render_rows_report(rows, self.cache_dir, cdf=cdf))

        return _memo(store, ("body", "aggregate_text", spec.name, cdf), render)[0]

    # ------------------------------------------------------------------
    # Tail CDFs
    # ------------------------------------------------------------------
    def _cdf_rows(self, store: Store, spec: ScenarioSpec):
        name = spec.name
        rows = self._report_rows(store, spec)
        plottable = [
            (label, row, row.single_packet_distribution)
            for label, row in rows.items()
        ]
        plottable = [
            (label, row, digest)
            for label, row, digest in plottable
            if digest is not None and digest.count
        ]
        if not plottable:
            fresh, stale = self._scenario_rows(store, self.cell_names(spec))
            if not fresh and stale:
                raise ServiceError(
                    409,
                    f"every cached row for scenario {name!r} was written by a "
                    "different simulator version",
                    stale_rows=stale,
                )
            raise ServiceError(
                404,
                f"no single-packet latency digests cached for scenario {name!r}",
            )
        return plottable

    def cdf(
        self, name: str, start_fraction: float = CDF_START, points: int = CDF_POINTS
    ) -> Dict[str, Any]:
        """Tail-CDF points per cached row, from the stored quantile digests."""
        return json.loads(self.cdf_body(name, start_fraction, points))

    def cdf_body(
        self, name: str, start_fraction: float = CDF_START, points: int = CDF_POINTS
    ) -> bytes:
        """:meth:`cdf` as a JSON body.  Only the default tail's is stored,
        so no choice of ``?start=`` / ``?points=`` grows the store; it is
        joined from each row's cell, encoded once per label and row."""
        spec, store = self.spec(name), self._view()
        if (start_fraction, points) != (CDF_START, CDF_POINTS):
            return _json_body({
                "scenario": spec.name,
                "start_fraction": start_fraction,
                "points": points,
                "cells": [
                    _cdf_cell(*plottable, start_fraction, points)
                    for plottable in self._cdf_rows(store, spec)
                ],
            })

        def render() -> bytes:
            known = self._cdf_cells.get(spec.name, {})
            cells: Dict[str, _CdfCell] = {}
            for label, row, digest in self._cdf_rows(store, spec):
                built = known.get(label)
                if built is None or built.row is not row:
                    cell = _cdf_cell(label, row, digest, CDF_START, CDF_POINTS)
                    built = _CdfCell(row, json.dumps(cell))
                cells[label] = built
            self._cdf_cells[spec.name] = cells
            envelope = {"scenario": spec.name, "start_fraction": CDF_START, "points": CDF_POINTS}
            return _joined_body(envelope, "cells", [built.encoded for built in cells.values()])

        return _memo(store, ("body", "cdf", spec.name), render)[0]

    def cdf_text_body(self, name: str) -> bytes:
        """The CLI's ``--cdf`` plot blocks (and only those), one per row,
        as a body encoded once per cache state."""
        spec, store = self.spec(name), self._view()

        def render() -> bytes:
            self._cdf_rows(store, spec)  # enforce 404/409 semantics
            rows = self._report_rows(store, spec)
            return _text_body("\n\n".join(format_single_packet_cdfs(rows)))

        return _memo(store, ("body", "cdf_text", spec.name), render)[0]

    # ------------------------------------------------------------------
    # Raw cells
    # ------------------------------------------------------------------
    def cell(self, fingerprint: str) -> Dict[str, Any]:
        """One raw :class:`ResultRow` by config fingerprint (409 on stale)."""
        return json.loads(self.cell_body(fingerprint))

    def cell_body(self, fingerprint: str) -> bytes:
        """:meth:`cell` as a JSON body.  A cache file's is encoded once per
        file version; whether its code is current is asked on every call."""
        if not is_fingerprint(fingerprint):
            # The path segment arrives percent-decoded: ``..%2F..%2Fx``
            # must never be joined onto the cache directory.
            raise ServiceError(404, f"{fingerprint!r} is not a config fingerprint")
        key = self.cache.file_key(fingerprint)
        version = self._version(key) if key is not None else None
        if version is None or version.entry.row is None:
            raise ServiceError(404, f"no cached row for fingerprint {fingerprint!r}")
        self._refuse_stale(version.entry)
        if version.body is None:
            entry = version.entry
            version.body = _json_body({
                "fingerprint": entry.fingerprint,
                "source": "cache",
                "code": entry.code,
                "row": entry.row.to_dict(),
            })
        return version.body

    def _refuse_stale(self, entry: CacheEntry) -> None:
        if self.code_aware and entry.stale_code:
            raise ServiceError(
                409,
                f"row {entry.fingerprint!r} was written by a different simulator "
                "version and cannot be served as current",
                fingerprint=entry.fingerprint,
                row_code=entry.code,
                serving_code=code_fingerprint(),
            )


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------

#: Bounds every read and write on a client connection, and the arrival of
#: the whole request head: a client that sends nothing, stops mid-head or
#: stops reading frees its handler thread.
SOCKET_TIMEOUT_S = 10.0
#: The request head -- its request line and header lines, through the last
#: one's newline -- holds at most this many bytes and header lines.
MAX_HEAD_BYTES = 64 * 1024
MAX_HEADER_LINES = 100

_SERVER_HEADER = f"Server: repro-serve/1.0 Python/{sys.version.split()[0]}\r\n"
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (None, "Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
#: Access-log lines escape control characters and backslashes, as the
#: stdlib's do, so a request line cannot forge a log line.
_LOG_ESCAPES = str.maketrans({
    **{code: f"\\x{code:02x}" for code in (*range(0x20), *range(0x7F, 0xA0))},
    ord("\\"): "\\\\",
})


def _http_date(timestamp: Optional[float] = None) -> str:
    """``timestamp`` (default: now) as ``email.utils.formatdate(usegmt=True)``
    writes it, with the same English day and month names."""
    t = time.gmtime(timestamp)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon]} {t.tm_year:04d} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


class ResultsRequestHandler(socketserver.BaseRequestHandler):
    """Reads one request head off the socket, routes a ``GET`` onto the
    :class:`ResultsService` owned by the server and answers with one write.

    The head is read into one buffer up to its blank line (CRLF or LF):
    at most :data:`MAX_HEAD_BYTES` and :data:`MAX_HEADER_LINES` header
    lines, all of it within :data:`SOCKET_TIMEOUT_S`.  Every request but
    an HTTP/1.x ``GET`` is answered with the service's JSON error body:
    400 for a malformed line or header, 414 for a request line over the
    cap, 431 for a head or header count over it, 501 for another method
    and 505 for another HTTP version.  Headers are checked for form and
    otherwise ignored; the answer is HTTP/1.0 and the connection closes.
    """

    #: The request line as received, for the access log.
    requestline = ""

    @property
    def service(self) -> ResultsService:
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        self.request.settimeout(SOCKET_TIMEOUT_S)

    def handle(self) -> None:
        try:
            try:
                request = self._read_request()
                if request is not None:
                    self._route(*request)
            except ServiceError as exc:
                self._send_json(exc.status, exc.payload)
            except (BrokenPipeError, ConnectionResetError, TimeoutError):
                raise  # the client's fault, not the service's: no 500
            except Exception as exc:  # pragma: no cover - defensive 500
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        except TimeoutError as exc:
            self.log_message("Request timed out: %r", exc)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-request or mid-response

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """The stdlib's access-log line on stderr, unless ``--quiet``."""
        if self.server.quiet:  # type: ignore[attr-defined]
            return
        now = time.localtime()
        sys.stderr.write(
            f"{self.client_address[0]} - - [{now.tm_mday:02d}/{_MONTHS[now.tm_mon]}/"
            f"{now.tm_year:04d} {now.tm_hour:02d}:{now.tm_min:02d}:{now.tm_sec:02d}] "
            f"{(format % args).translate(_LOG_ESCAPES)}\n"
        )

    # -- requests -------------------------------------------------------
    def _read_head(self) -> Optional[bytes]:
        """The request head up to its blank line, which it leaves out;
        ``None`` when the client closed without sending a byte."""
        sock = self.request
        deadline = time.monotonic() + SOCKET_TIMEOUT_S
        received = b""
        while True:
            chunk = sock.recv(MAX_HEAD_BYTES)
            if not chunk:
                if received:
                    raise ServiceError(400, "the request head ended before its blank line")
                return None
            # A blank line may straddle two reads: search from the last
            # line end already received.
            search = max(len(received) - 2, 0)
            received += chunk
            end = min((at for at in (received.find(b"\n\n", search),
                                     received.find(b"\n\r\n", search)) if at >= 0),
                      default=MAX_HEAD_BYTES)
            if end < MAX_HEAD_BYTES:
                if sock.gettimeout() != SOCKET_TIMEOUT_S:
                    sock.settimeout(SOCKET_TIMEOUT_S)  # for the answer's write
                return received[:end]
            if len(received) > MAX_HEAD_BYTES:
                if received.find(b"\n", 0, MAX_HEAD_BYTES) < 0:
                    raise ServiceError(414, f"the request line is over {MAX_HEAD_BYTES} bytes")
                raise ServiceError(431, f"the request head is over {MAX_HEAD_BYTES} bytes")
            # The whole head, not each read, must arrive in time.
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("the request head took too long")
            sock.settimeout(left)

    def _read_request(self) -> Optional[Tuple[List[str], Dict[str, str]]]:
        """The path segments and query parameters of the ``GET`` read off
        the socket (``None`` when the client sent nothing)."""
        head = self._read_head()
        if head is None:
            return None
        line, *headers = head.split(b"\n")
        self.requestline = line.rstrip(b"\r").decode("iso-8859-1")
        words = self.requestline.split()
        if len(words) != 3:
            raise ServiceError(400, f"bad request line {self.requestline!r}")
        method, target, version = words
        major, dot, minor = version[len("HTTP/"):].partition(".")
        if not (version.startswith("HTTP/") and dot and major.isdecimal()
                and minor.isdecimal() and len(major) <= 10 and len(minor) <= 10):
            raise ServiceError(400, f"bad HTTP version {version!r}")
        if int(major) != 1:
            raise ServiceError(505, f"{version} is not served; send HTTP/1.0 or HTTP/1.1")
        if len(headers) > MAX_HEADER_LINES:
            raise ServiceError(431, f"more than {MAX_HEADER_LINES} header lines")
        for header in headers:
            name, colon, _ = header.partition(b":")
            if not colon or name.split() != [name]:
                raise ServiceError(400, f"bad header line {header.decode('iso-8859-1')!r}")
        if method != "GET":
            raise ServiceError(501, f"method {method!r} is not served; the service answers GET")
        if target.startswith("//"):
            target = "/" + target.lstrip("/")
        parsed = urlsplit(target)
        segments = [unquote(part) for part in parsed.path.split("/") if part]
        params = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
        return segments, params

    # -- responses ------------------------------------------------------
    def _send(self, status: int, headers: str, body: bytes = b"") -> None:
        """One write: the status line, ``Server``, ``Date``, ``headers``
        (CRLF-ended lines), the blank line and ``body``."""
        self.log_message('"%s" %s %s', self.requestline, status, "-")
        self.request.sendall(
            f"HTTP/1.0 {status} {_REASONS[status]}\r\n{_SERVER_HEADER}"
            f"Date: {_http_date()}\r\n{headers}\r\n".encode("latin-1") + body
        )

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self._send(
            status, f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n", body
        )

    def _send_json(self, status: int, payload: Any) -> None:
        self._send_body(status, _json_body(payload), JSON_TYPE)

    # -- routing --------------------------------------------------------
    def _route(self, segments: List[str], params: Dict[str, str]) -> None:
        text = params.get("format") == "text"
        if not segments:
            self._send_json(200, self.service.index())
        elif segments == ["healthz"]:
            # Liveness/readiness probe: cheap, no cache access.  A server
            # draining toward shutdown still answers (in-flight requests
            # are finished gracefully) but reports it, so orchestrators
            # can stop routing new traffic at it.
            self._send_json(200, {
                "status": "ok",
                "shutting_down": getattr(
                    self.server, "shutting_down", threading.Event()
                ).is_set(),
            })
        elif segments == ["scenarios"]:
            self._send_body(
                200, self.service.catalog_body(text), TEXT_TYPE if text else JSON_TYPE
            )
        elif len(segments) == 3 and segments[0] == "scenarios":
            self._route_scenario(segments[1], segments[2], params, text)
        elif len(segments) == 2 and segments[0] == "cells":
            self._send_body(200, self.service.cell_body(segments[1]), JSON_TYPE)
        else:
            raise ServiceError(
                404,
                f"unknown path {'/' + '/'.join(segments)!r}",
                endpoints=self.service.index()["endpoints"],
            )

    def _route_scenario(
        self, name: str, endpoint: str, params: Dict[str, str], text: bool
    ) -> None:
        if endpoint == "aggregate":
            if text:
                body = self.service.aggregate_text_body(name, cdf=_flag(params, "cdf"))
                self._send_body(200, body, TEXT_TYPE)
            else:
                self._send_body(200, self.service.aggregate_body(name), JSON_TYPE)
        elif endpoint == "cdf":
            if text:
                self._send_body(200, self.service.cdf_text_body(name), TEXT_TYPE)
            else:
                self._send_body(200, self.service.cdf_body(
                    name,
                    start_fraction=_number(
                        params, "start", CDF_START, lambda v: 0 <= v < 1,
                        "a number in [0, 1)",
                    ),
                    points=int(_number(
                        params, "points", CDF_POINTS,
                        lambda v: v.is_integer() and 2 <= v <= MAX_CDF_POINTS,
                        f"an integer from 2 to {MAX_CDF_POINTS}",
                    )),
                ), JSON_TYPE)
        elif endpoint == "follow":
            self._stream_follow(name, params)
        else:
            raise ServiceError(
                404,
                f"unknown scenario endpoint {endpoint!r}",
                valid=["aggregate", "cdf", "follow"],
            )

    def _stream_follow(self, name: str, params: Dict[str, str]) -> None:
        from repro.serve.streams import follow_scenario

        if self.service.queue is None:
            raise ServiceError(
                409,
                "live follow needs a work queue: start the server with "
                "--queue-dir pointing at the sweep's queue directory",
            )
        spec = self.service.spec(name)
        shutting_down = getattr(self.server, "shutting_down", None)
        events = follow_scenario(
            self.service,
            spec,
            poll_interval_s=_number(params, "poll", 0.2, lambda v: v > 0, "positive"),
            timeout_s=_number(
                params, "timeout", 0, lambda v: v >= 0, "zero (no timeout) or positive"
            ) or None,
            expect=int(_number(
                params, "expect", 0, lambda v: v.is_integer() and v >= 0,
                "a non-negative integer",
            )),
            # A shutdown request drains the stream with a final ``closed``
            # event instead of severing the socket mid-stream.
            should_stop=shutting_down.is_set if shutting_down is not None else None,
        )
        self._send(200, "Content-Type: text/event-stream; charset=utf-8\r\n"
                        "Cache-Control: no-cache\r\n")
        # A follower that disconnects or stops reading ends the stream (see
        # ``handle``); the queue drains regardless.
        for event, payload in events:
            chunk = f"event: {event}\ndata: {json.dumps(payload)}\n\n"
            self.request.sendall(chunk.encode("utf-8"))


def _flag(params: Dict[str, str], key: str) -> bool:
    return params.get(key, "").lower() in {"1", "true", "yes", "on"}


def _number(
    params: Dict[str, str],
    key: str,
    default: float,
    valid: Callable[[float], bool],
    expected: str,
) -> float:
    """The query parameter ``key`` as a finite number that satisfies
    ``valid``; anything else answers 400 with the offending ``key=value``."""
    raw = params.get(key)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and valid(value)):
        raise ServiceError(400, f"query parameter {key}={raw!r} must be {expected}")
    return value


class ResultsServer(socketserver.ThreadingTCPServer):
    """A threading TCP server owning one :class:`ResultsService`, whose
    connections :class:`ResultsRequestHandler` serves.

    Handler threads are reused: a connection goes to a thread idle since
    its last one, or to a new thread when none is idle, so no connection
    ever waits behind a busy one (a ``/follow`` stream or a stalled client
    holds only its own thread, and a stalled one only until
    :data:`SOCKET_TIMEOUT_S`).  Handler threads are daemons;
    :meth:`server_close` also releases the idle ones.

    Shuts down gracefully: :meth:`request_shutdown` (also wired to
    SIGTERM/SIGINT by :func:`run_from_args`) flips the ``shutting_down``
    event -- which open ``/follow`` streams watch, closing with a final
    ``closed`` SSE event -- then stops the accept loop.  In-flight request
    threads finish their responses; only then does ``serve_forever``
    return.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: ResultsService,
        quiet: bool = False,
    ) -> None:
        self.service = service
        self.quiet = quiet
        self.shutting_down = threading.Event()
        #: The inboxes of the handler threads waiting for a connection;
        #: ``None`` in an inbox ends its thread.
        self._idle: List[SimpleQueue] = []
        self._idle_lock = threading.Lock()
        self._closed = False
        super().__init__(address, ResultsRequestHandler)

    def process_request(self, request: Any, client_address: Any) -> None:
        """Hand the connection to the most recently idle handler thread,
        or start a new one as :class:`~socketserver.ThreadingMixIn` does."""
        with self._idle_lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is None:
            super().process_request(request, client_address)
        else:
            inbox.put((request, client_address))

    def process_request_thread(self, request: Any, client_address: Any) -> None:
        """A handler thread: serve its first connection, then each one it
        is handed while idle, until the server closes.

        It goes idle *before* closing the connection it served, so a client
        that saw the close and connects again finds it idle; a connection
        handed over meanwhile waits only for that close.
        """
        inbox: SimpleQueue = SimpleQueue()
        job: Optional[Tuple[Any, Any]] = (request, client_address)
        while job is not None:
            request, client_address = job
            try:
                try:
                    self.finish_request(request, client_address)
                except Exception:
                    self.handle_error(request, client_address)
                with self._idle_lock:
                    idle = not self._closed
                    if idle:
                        self._idle.append(inbox)
            finally:
                self.shutdown_request(request)
            job = inbox.get() if idle else None

    def server_close(self) -> None:
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)
        super().server_close()

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown; safe to call from any thread (signal
        handlers and request threads included -- ``shutdown()`` blocks
        until the accept loop exits, so it must not run on the serving
        thread itself)."""
        if self.shutting_down.is_set():
            return
        self.shutting_down.set()
        threading.Thread(target=self.shutdown, name="serve-shutdown", daemon=True).start()


def make_server(
    cache_dir: Union[str, Path],
    queue_dir: Optional[Union[str, Path]] = None,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    code_aware: bool = True,
    quiet: bool = False,
) -> ResultsServer:
    """Bind (but do not start) a results server; ``port=0`` = ephemeral."""
    service = ResultsService(cache_dir, queue_dir=queue_dir, code_aware=code_aware)
    return ResultsServer((host, port), service, quiet=quiet)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_from_args(args) -> int:
    """Start serving from parsed :func:`repro.serve.add_serve_arguments`
    arguments."""
    server = make_server(
        args.cache_dir,
        queue_dir=args.queue_dir,
        host=args.host,
        port=args.port,
        code_aware=not args.any_code,
        quiet=args.quiet,
    )
    host, port = server.server_address[:2]
    queue_note = f" queue={args.queue_dir}" if args.queue_dir else ""
    print(
        f"repro serve: cache={args.cache_dir}{queue_note} "
        f"listening on http://{host}:{port}",
        flush=True,
    )
    try:
        signal.signal(signal.SIGTERM, lambda *_: server.request_shutdown())
        signal.signal(signal.SIGINT, lambda *_: server.request_shutdown())
    except ValueError:  # pragma: no cover - not the main thread
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    print("repro serve: shut down cleanly", flush=True)
    return 0

