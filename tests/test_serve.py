"""Results-service tests: endpoint schemas, byte-for-byte text parity with
the offline CLIs, warm bodies and their invalidation, the zero-simulation
guarantee, stale-code 409s, concurrent readers, reused handler threads, and
live follow streams over a real multi-worker queue drain."""

import hashlib
import json
import os
import re
import shutil
import socket
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.queue import TaskQueue, run_worker
from repro.experiments.spec import ScenarioSpec, register_scenario
from repro.experiments.sweep import ResultCache, aggregate_rows, run_sweep
import repro.experiments.sweep as sweep_module
from repro.serve import (
    ResultsService,
    ServiceError,
    catalog_entries,
    format_catalog,
    make_server,
)
import repro.serve.server as server_module
from repro.serve.streams import follow_scenario

#: Star-topology defaults that simulate in a few milliseconds per cell.
#: Flows fit one MTU so every flow lands in the single-packet latency
#: digest the /cdf endpoint serves.
TINY_DEFAULTS = {
    "topology": "star",
    "num_hosts": 4,
    "workload": "fixed",
    "fixed_size_bytes": 800,
    "num_flows": 6,
    "max_sim_time_s": 1.0,
}

SPEC = register_scenario(
    ScenarioSpec(
        name="serve_tiny",
        description="two-cell smoke scenario for the results service",
        defaults=TINY_DEFAULTS,
        variants={
            "A": {"name": "tiny-a"},
            "B": {"name": "tiny-b", "num_flows": 8},
        },
        seeds=(1, 2),
    ),
    replace=True,
)


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A warm cache for serve_tiny plus its serial batch sweep result."""
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    sweep = SPEC.sweep(workers=1, cache=str(cache_dir))
    return str(cache_dir), sweep


@pytest.fixture()
def server(warm):
    cache_dir, _ = warm
    srv = make_server(cache_dir, port=0, quiet=True)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    yield srv
    srv.shutdown()
    srv.server_close()


def get(srv, path):
    """``(status, body bytes)`` for a GET against the test server."""
    port = srv.server_address[1]
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def get_json(srv, path):
    status, body = get(srv, path)
    return status, json.loads(body)


class TestCatalog:
    def test_http_catalog_is_the_shared_entries(self, server):
        status, payload = get_json(server, "/scenarios")
        assert status == 200
        assert payload["scenarios"] == catalog_entries()
        assert payload["count"] == len(payload["scenarios"])
        ours = [e for e in payload["scenarios"] if e["name"] == "serve_tiny"]
        assert ours and ours[0]["shape"] == "2 variants, seeds [1, 2]"
        assert ours[0]["variants"] == ["A", "B"]
        assert ours[0]["cells"] == 2

    def test_text_catalog_matches_cli_list_byte_for_byte(self, server, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["list"]) == 0
        cli_output = capsys.readouterr().out
        status, body = get(server, "/scenarios?format=text")
        assert status == 200
        assert body.decode() == cli_output
        assert body.decode() == format_catalog(catalog_entries()) + "\n"

    def test_index_lists_endpoints(self, server, warm):
        status, payload = get_json(server, "/")
        assert status == 200
        assert payload["cache_dir"] == warm[0]
        assert "/scenarios/<name>/aggregate" in payload["endpoints"]


class TestAggregate:
    def test_records_equal_offline_batch_aggregate(self, server, warm):
        _, sweep = warm
        status, payload = get_json(server, "/scenarios/serve_tiny/aggregate")
        assert status == 200
        batch = aggregate_rows(list(sweep.rows.values()), by=SPEC.aggregate_by)
        # Bit-for-bit: floats survive the JSON round trip exactly.
        assert payload["records"] == batch
        assert payload["replica_rows"] == len(sweep.rows)
        assert payload["stale_rows"] == 0
        assert payload["aggregate_by"] == list(SPEC.aggregate_by)

    def test_warm_reuse_and_stat_invalidation(self, server, warm):
        cache_dir, _ = warm
        _, first = get_json(server, "/scenarios/serve_tiny/aggregate")
        assert first["warm"] is False
        _, second = get_json(server, "/scenarios/serve_tiny/aggregate")
        assert second["warm"] is True
        assert second["records"] == first["records"]
        # Any mtime change in the cache dir invalidates the warm copy.
        victim = next(entry.path for entry in ResultCache(cache_dir).scan())
        stat = victim.stat()
        os.utime(victim, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        _, third = get_json(server, "/scenarios/serve_tiny/aggregate")
        assert third["warm"] is False
        assert third["records"] == first["records"]

    def test_unknown_scenario_404(self, server):
        status, payload = get_json(server, "/scenarios/nope/aggregate")
        assert status == 404
        assert "nope" in payload["error"]

    def test_empty_cache_404_with_hint(self, tmp_path):
        service = ResultsService(str(tmp_path / "empty"))
        with pytest.raises(ServiceError) as err:
            service.aggregate("serve_tiny")
        assert err.value.status == 404
        assert "repro run" in err.value.payload["hint"]

    def test_unknown_path_404_lists_endpoints(self, server):
        status, payload = get_json(server, "/bogus/path")
        assert status == 404
        assert "/scenarios" in payload["endpoints"]


class TestTextParity:
    @pytest.mark.parametrize("query,flags", [
        ("?format=text", []),
        ("?format=text&cdf=1", ["--cdf"]),
    ])
    def test_aggregate_text_is_report_cli_byte_for_byte(
        self, server, warm, capsys, query, flags
    ):
        from repro.metrics.report import main as report_main

        cache_dir, _ = warm
        assert report_main([cache_dir, *flags]) == 0
        cli_output = capsys.readouterr().out
        status, body = get(server, f"/scenarios/serve_tiny/aggregate{query}")
        assert status == 200
        assert body.decode() == cli_output


    def test_a_file_not_named_by_a_fingerprint_is_no_entry(self, private, capsys):
        """The service reads entries by name, so the report CLI skips a copy
        of a row under another name too: both render the same bytes."""
        from repro.metrics.report import main as report_main

        service, cache = private
        before = bodies(service)
        victim = cache.path_for(cache.rows()[0].fingerprint)
        victim.with_name("copy.json").write_bytes(victim.read_bytes())
        fresh = ResultsService(service.cache_dir)
        assert bodies(fresh) == before
        capsys.readouterr()
        assert report_main([service.cache_dir]) == 0
        assert capsys.readouterr().out.encode() == before[1]


class TestZeroSimulation:
    def test_read_path_never_runs_an_experiment(self, server, monkeypatch):
        import repro.experiments.runner as runner_mod

        def tripwire(*args, **kwargs):  # pragma: no cover - must not fire
            raise AssertionError("serve read path invoked run_experiment")

        monkeypatch.setattr(runner_mod, "run_experiment", tripwire)
        for path in (
            "/scenarios",
            "/scenarios/serve_tiny/aggregate",
            "/scenarios/serve_tiny/aggregate?format=text",
            "/scenarios/serve_tiny/cdf",
        ):
            status, _ = get(server, path)
            assert status == 200, path


class TestStaleCode:
    def test_all_stale_rows_answer_409(self, server, monkeypatch):
        get_json(server, "/scenarios/serve_tiny/aggregate")  # warm first
        monkeypatch.setattr(
            "repro.experiments.sweep._CODE_FINGERPRINT", "pretend-code-changed"
        )
        status, payload = get_json(server, "/scenarios/serve_tiny/aggregate")
        assert status == 409
        assert payload["stale_rows"] == 4
        assert "different simulator version" in payload["error"]

    def test_stale_cell_answers_409(self, server, warm, monkeypatch):
        _, sweep = warm
        fingerprint = next(iter(sweep.rows.values())).fingerprint
        status, payload = get_json(server, f"/cells/{fingerprint}")
        assert status == 200
        monkeypatch.setattr(
            "repro.experiments.sweep._CODE_FINGERPRINT", "pretend-code-changed"
        )
        status, payload = get_json(server, f"/cells/{fingerprint}")
        assert status == 409
        assert payload["serving_code"] == "pretend-code-changed"

    def test_any_code_service_keeps_serving(self, warm, monkeypatch):
        cache_dir, sweep = warm
        service = ResultsService(cache_dir, code_aware=False)
        monkeypatch.setattr(
            "repro.experiments.sweep._CODE_FINGERPRINT", "pretend-code-changed"
        )
        payload = service.aggregate("serve_tiny")
        assert payload["replica_rows"] == len(sweep.rows)


class TestCells:
    def test_cell_round_trips_the_row(self, server, warm):
        _, sweep = warm
        row = next(iter(sweep.rows.values()))
        status, payload = get_json(server, f"/cells/{row.fingerprint}")
        assert status == 200
        assert payload["source"] == "cache"
        assert payload["row"] == json.loads(json.dumps(row.to_dict()))

    def test_unknown_fingerprint_404(self, server):
        status, payload = get_json(server, "/cells/deadbeef")
        assert status == 404

    def test_only_a_fingerprint_names_a_cell(self, server, warm):
        """Path segments are percent-decoded after splitting, so an encoded
        separator reaches the handler: it must never reach the filesystem."""
        cache_dir, sweep = warm
        fingerprint = next(iter(sweep.rows.values())).fingerprint
        entry = os.path.join(cache_dir, f"{fingerprint}.json")
        outside = os.path.join(os.path.dirname(cache_dir), "outside")
        os.makedirs(outside, exist_ok=True)
        with open(entry) as src, open(os.path.join(outside, "secret.json"), "w") as dst:
            dst.write(src.read())        # a perfectly servable row, one level up

        for name in (
            "..%2Foutside%2Fsecret",     # encoded separators
            "%2E%2E%2Foutside%2Fsecret",
            f"..%2F{os.path.basename(cache_dir)}%2F{fingerprint}",
            fingerprint.upper(),
            fingerprint[:-1],            # short
            fingerprint + "0",           # over-long
            fingerprint + "%0A",
        ):
            status, payload = get_json(server, f"/cells/{name}")
            assert status == 404, name
            assert "row" not in payload
        assert get_json(server, f"/cells/{fingerprint}")[0] == 200


class TestCdf:
    def test_cdf_points_come_from_the_stored_digests(self, server, warm):
        _, sweep = warm
        status, payload = get_json(server, "/scenarios/serve_tiny/cdf")
        assert status == 200
        assert payload["scenario"] == "serve_tiny"
        assert len(payload["cells"]) == len(sweep.rows)
        for cell in payload["cells"]:
            assert cell["count"] > 0
            assert len(cell["points"]) == 12
            fractions = [fraction for _, fraction in cell["points"]]
            assert fractions == sorted(fractions)

    def test_cdf_text_is_the_cli_plot_blocks(self, server):
        status, body = get(server, "/scenarios/serve_tiny/cdf?format=text")
        assert status == 200
        assert body.decode().startswith("=== ")
        assert "single-packet latency tail" in body.decode()


@pytest.fixture()
def private(warm, tmp_path):
    """A service over a private copy of the warm cache, and that cache."""
    import shutil

    cache_dir = str(tmp_path / "cache")
    shutil.copytree(warm[0], cache_dir)
    return ResultsService(cache_dir), ResultCache(cache_dir)


@pytest.fixture()
def reads(monkeypatch):
    """Names of the row files parsed (every reader goes through
    ``_read_entry``)."""
    parsed = []
    read_entry = ResultCache._read_entry

    def counting(self, path):
        parsed.append(path.name)
        return read_entry(self, path)

    monkeypatch.setattr(ResultCache, "_read_entry", counting)
    return parsed


@pytest.fixture()
def private_server(private):
    """A running server over the ``private`` cache copy."""
    srv = make_server(private[0].cache_dir, port=0, quiet=True)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    yield srv
    srv.shutdown()
    srv.server_close()


def rewrite_row(cache, row, avg_slowdown=98.75):
    """Rewrite ``row`` in ``cache`` with its ``avg_slowdown`` set to
    ``avg_slowdown``."""
    cache.put(type(row).from_dict({**row.to_dict(), "avg_slowdown": avg_slowdown}))


def replace_keeping_mtime(cache, row):
    """Replace ``row``'s file, last written by ``rewrite_row(cache, row,
    11.25)``, by one of the same size and restore its mtime, as ``cp -p``,
    ``rsync -t`` and ``tar x`` do: only its ctime moves."""
    path = cache.path_for(row.fingerprint)
    stat = path.stat()
    # File timestamps advance at the kernel's clock tick: let one pass, so
    # the replacement cannot share the first file's ctime.
    time.sleep(0.05)
    rewrite_row(cache, row)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    replaced = path.stat()
    assert (replaced.st_size, replaced.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)


#: Every stored body form: ``(method, args)`` on :class:`ResultsService`.
BODY_FORMS = [
    ("aggregate_body", ()),
    ("aggregate_text_body", (False,)),
    ("aggregate_text_body", (True,)),
    ("cdf_body", ()),
    ("cdf_text_body", ()),
]


def bodies(service, name="serve_tiny"):
    return [getattr(service, method)(name, *args) for method, args in BODY_FORMS]


def stored_bodies(service):
    return [key for key in service._store if key[0] == "body"]


class TestWarmBodies:
    """One store per cache state holds the encoded bodies: a warm request
    is byte-identical to a fresh build, any move of the state rebuilds,
    and nothing but a successful default-form body is ever stored."""

    def test_warm_body_is_byte_identical_to_a_fresh_one(self, private, reads):
        service, cache = private
        cold = bodies(service)
        del reads[:]
        warm = bodies(service)
        assert reads == []
        assert len(stored_bodies(service)) == len(BODY_FORMS)
        fresh = bodies(ResultsService(service.cache_dir))
        assert b'"warm": false' in cold[0] and b'"warm": false' in fresh[0]
        assert warm[0] == fresh[0].replace(b'"warm": false', b'"warm": true')
        assert warm[1:] == fresh[1:] == cold[1:]
        assert json.loads(warm[0])["records"] == service.aggregate("serve_tiny")["records"]

    @pytest.mark.parametrize("move", ["utime", "put", "code"])
    def test_a_moved_state_rebuilds_every_body(self, private, reads, monkeypatch, move):
        service, cache = private
        # --any-code, so a code change rebuilds 200s instead of answering 409.
        service = ResultsService(service.cache_dir, code_aware=False)
        before = bodies(service)
        victim = cache.rows()[0]
        if move == "utime":
            path = cache.path_for(victim.fingerprint)
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        elif move == "put":
            rewrite_row(cache, victim)
        else:
            monkeypatch.setattr(
                "repro.experiments.sweep._CODE_FINGERPRINT", "pretend-code-changed"
            )
        del reads[:]
        after = bodies(service)
        # Only the file whose stat moved is read again, once for every form.
        victim_file = cache.path_for(victim.fingerprint).name
        assert reads == ([] if move == "code" else [victim_file])
        assert json.loads(after[0])["warm"] is False
        assert after == bodies(ResultsService(service.cache_dir, code_aware=False))
        if move == "put":
            assert b"98.75" in after[1] and b"98.75" not in before[1]
        if move == "code":
            assert json.loads(after[0])["code"] == "pretend-code-changed"

    def test_a_replacement_keeping_size_and_mtime_is_not_served_stale(self, private):
        service, cache = private
        victim = cache.rows()[0]
        rewrite_row(cache, victim, 11.25)
        before = service.aggregate("serve_tiny")["records"]
        replace_keeping_mtime(cache, victim)
        after = service.aggregate("serve_tiny")["records"]
        assert after != before
        assert after == ResultsService(service.cache_dir).aggregate("serve_tiny")["records"]

    def test_error_answers_are_never_stored(self, private_server, monkeypatch):
        srv = private_server
        for path, status in [
            ("/scenarios/nope/aggregate", 404),
            ("/scenarios/nope/cdf", 404),
            ("/scenarios/fig1/aggregate?format=text", 404),  # no rows cached
            ("/scenarios/fig1/cdf?format=text", 404),
            ("/scenarios/serve_tiny/cdf?points=1", 400),
            ("/scenarios/serve_tiny/cdf?start=abc", 400),
        ]:
            for _ in range(2):
                assert get(srv, path)[0] == status, path
        assert stored_bodies(srv.service) == []
        monkeypatch.setattr(
            "repro.experiments.sweep._CODE_FINGERPRINT", "pretend-code-changed"
        )
        for query in ("", "?format=text", "?format=text&cdf=1"):
            for _ in range(2):
                assert get(srv, f"/scenarios/serve_tiny/aggregate{query}")[0] == 409
        assert get(srv, "/scenarios/serve_tiny/cdf")[0] == 409
        assert stored_bodies(srv.service) == []
        assert not any(key[0] == "aggregate" for key in srv.service._store)

    def test_row_written_during_a_build_shows_on_the_next_request(
        self, private, monkeypatch
    ):
        service, cache = private
        read_entry = ResultCache._read_entry
        rewritten = []

        def racing(self, path):
            entry = read_entry(self, path)
            if not rewritten:  # after the build read the old row
                rewritten.append(entry.row)
                rewrite_row(cache, entry.row)
            return entry

        monkeypatch.setattr(ResultCache, "_read_entry", racing)
        first = service.aggregate_text_body("serve_tiny")
        assert rewritten and b"98.75" not in first
        assert b"98.75" in service.aggregate_text_body("serve_tiny")

    def test_every_spelling_of_a_name_shares_one_body(self, private_server):
        """Scenario lookups ignore case: the store keys the canonical name,
        so no spelling of it a client sends adds a body."""
        srv = private_server
        service = srv.service
        canonical = bodies(service)
        size = len(service._store)
        for name in ("SERVE_TINY", "Serve_Tiny", "serve_TINY"):
            assert bodies(service, name) == [
                body.replace(b'"warm": false', b'"warm": true') for body in canonical
            ]
            for query in ("", "?format=text", "?format=text&cdf=1"):
                assert get(srv, f"/scenarios/{name}/aggregate{query}")[0] == 200
            for query in ("", "?format=text"):
                assert get(srv, f"/scenarios/{name}/cdf{query}")[0] == 200
        assert len(service._store) == size
        assert len(stored_bodies(service)) == len(BODY_FORMS)

    def test_non_default_cdf_tails_are_not_stored(self, private_server):
        srv = private_server
        assert get(srv, "/scenarios/serve_tiny/cdf")[0] == 200
        size = len(srv.service._store)
        for index in range(50):
            start = 0.5 + index / 100
            status, payload = get_json(srv, f"/scenarios/serve_tiny/cdf?start={start}")
            assert status == 200 and payload["start_fraction"] == start
        assert len(srv.service._store) == size


def cell_answer(service, fingerprint):
    """``(status, body or error payload)`` of ``/cells/<fingerprint>``."""
    try:
        return 200, service.cell_body(fingerprint)
    except ServiceError as err:
        return err.status, err.payload


class TestCellBodies:
    """A cache file's ``/cells`` body is encoded once per file version: after
    any move of the file or of the code the next answer is a fresh
    service's, and a warm one reads no file.  ``/cells`` and ``/aggregate``
    read one directory, so they agree on which rows exist."""

    @pytest.mark.parametrize("move,status", [
        ("put", 200), ("utime", 200), ("keep-mtime", 200), ("delete", 404),
        ("code", 409), ("any-code", 200), ("queue-part-only", 404),
    ])
    def test_a_moved_cell_answers_as_a_fresh_service(
        self, private, tmp_path, monkeypatch, move, status
    ):
        cache = private[1]
        options = {"queue_dir": str(tmp_path / "q"), "code_aware": move != "any-code"}
        service = ResultsService(private[0].cache_dir, **options)
        victim = cache.rows()[0]
        path = cache.path_for(victim.fingerprint)
        rewrite_row(cache, victim, 11.25)
        before = cell_answer(service, victim.fingerprint)
        assert before[0] == 200 and b"11.25" in before[1]
        if move == "put":
            rewrite_row(cache, victim)
        elif move == "utime":
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        elif move == "keep-mtime":
            replace_keeping_mtime(cache, victim)
        elif move == "delete":
            path.unlink()
        elif move in ("code", "any-code"):
            monkeypatch.setattr(
                "repro.experiments.sweep._CODE_FINGERPRINT", "pretend-code-changed"
            )
        else:
            rewrite_row(service.queue.parts, victim)
            path.unlink()
        after = cell_answer(service, victim.fingerprint)
        fresh = ResultsService(service.cache_dir, **options)
        assert after == cell_answer(fresh, victim.fingerprint)
        assert after[0] == status
        if move in ("put", "keep-mtime"):
            assert b"98.75" in after[1]
        if status != 409:
            replicas = sum(
                record["replicas"]
                for record in service.aggregate("serve_tiny")["records"]
            )
            stored = [entry.fingerprint for entry in cache.scan()]
            served = [fp for fp in stored if cell_answer(service, fp)[0] == 200]
            assert replicas == len(served) == len(stored)
            assert (victim.fingerprint in served) is (status == 200)

    def test_a_warm_cell_reads_no_file(self, private, reads):
        service, cache = private
        fingerprint = cache.rows()[0].fingerprint
        service.aggregate("serve_tiny")  # the scan parses every file once
        del reads[:]
        first = service.cell_body(fingerprint)
        assert service.cell_body(fingerprint) == first
        assert reads == []
        assert service.cell(fingerprint)["row"] == json.loads(first)["row"]


#: Every body a state move must leave as a fresh service's: ``(method,
#: args)`` on :class:`ResultsService`; ``/aggregate`` twice, for its warm
#: envelope.
INCREMENTAL_FORMS = [
    ("aggregate_body", ()),
    ("aggregate_body", ()),
    ("aggregate_text_body", (False,)),
    ("aggregate_text_body", (True,)),
    ("cdf_body", ()),
    ("cdf_body", (0.5, 7)),
    ("cdf_text_body", ()),
]

#: ``avg_slowdown`` values of one length: a rewrite among them keeps the
#: file's size.
SAME_LENGTH_SLOWDOWNS = (11.25, 98.75, 42.25, 77.75)

#: A write to the cache, and a draw that picks its row and values.
CACHE_STEP = st.tuples(
    st.sampled_from(["new", "rewrite", "delete", "keep-mtime", "stale", "duplicate-label"]),
    st.integers(0, 2**16),
)


def served(service, fingerprints):
    """Every scenario body and every ``/cells`` answer, errors as
    ``(status, payload)``."""
    answers = []
    for method, args in INCREMENTAL_FORMS:
        try:
            answers.append(getattr(service, method)("serve_tiny", *args))
        except ServiceError as err:
            answers.append((err.status, err.payload))
    return answers + [cell_answer(service, fp) for fp in fingerprints]


class TestIncrementalRebuild:
    """A service kept across cache writes keeps each aggregation cell's
    record and each row's ``/cdf`` cell across states: after any sequence
    of writes, every body it serves is a fresh service's, byte for byte."""

    @staticmethod
    def write(cache, row, code=None, keep_mtime=False):
        """Store ``row``, written by ``code`` (default: this tree); with
        ``keep_mtime`` the file's mtime is set back, as ``cp -p`` does.
        The cache is read by its files' stat records, whose timestamps
        move at the kernel's clock tick: a write that left the record as
        it was is made again once a tick has passed."""
        path = cache.path_for(row.fingerprint)
        before = path.stat() if path.exists() else None
        while True:
            if code is None:
                cache.put(row)
            else:
                saved = sweep_module._CODE_FINGERPRINT
                sweep_module._CODE_FINGERPRINT = code
                try:
                    cache.put(row)
                finally:
                    sweep_module._CODE_FINGERPRINT = saved
            if keep_mtime and before is not None:
                os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            if before is None or cache.file_key(row.fingerprint) != (
                path.name, before.st_mtime_ns, before.st_size, before.st_ctime_ns
            ):
                return
            time.sleep(0.005)

    def apply(self, cache, step, draw, originals, counter):
        """One cache write; returns the fingerprint it wrote, if any.  A
        ``stale`` step adds a row on an even draw and makes a row stale on
        an odd one."""
        rows = cache.rows() or originals
        row = rows[draw % len(rows)]
        payload = row.to_dict()
        if step in ("new", "duplicate-label") or (step == "stale" and draw % 2 == 0):
            fingerprint = hashlib.sha256(f"row-{counter}".encode()).hexdigest()
            payload.update(fingerprint=fingerprint, seed=draw % 5)
            if step != "duplicate-label":
                payload["label"] = f"{row.label} new-{counter}"
        if step == "delete" and cache.rows():
            cache.path_for(row.fingerprint).unlink()
            return None
        if step in ("rewrite", "new"):
            scale = 1.0 + draw % 7 / 8
            digest = dict(payload["single_packet_digest"])
            digest.update(
                exact=[value * scale for value in digest["exact"]],
                min=digest["min"] * scale, max=digest["max"] * scale,
                sum=digest["sum"] * scale,
            )
            payload["single_packet_digest"] = digest
        payload["avg_slowdown"] = SAME_LENGTH_SLOWDOWNS[draw % len(SAME_LENGTH_SLOWDOWNS)]
        self.write(
            cache, type(row).from_dict(payload),
            code="another-tree" if step == "stale" else None,
            keep_mtime=step == "keep-mtime",
        )
        return payload["fingerprint"]

    @settings(max_examples=25, deadline=None)
    @given(steps=st.lists(CACHE_STEP, min_size=1, max_size=8))
    def test_every_body_after_every_write_is_a_fresh_services(self, warm, steps):
        with tempfile.TemporaryDirectory() as scratch:
            cache_dir = os.path.join(scratch, "cache")
            shutil.copytree(warm[0], cache_dir)
            cache = ResultCache(cache_dir)
            originals = cache.rows()
            fingerprints = [row.fingerprint for row in originals]
            service = ResultsService(cache_dir)
            served(service, fingerprints)
            for counter, (step, draw) in enumerate(steps):
                added = self.apply(cache, step, draw, originals, counter)
                if added is not None and added not in fingerprints:
                    fingerprints.append(added)
                assert served(service, fingerprints) == served(
                    ResultsService(cache_dir), fingerprints
                ), steps[: counter + 1]

    def test_readers_racing_writes_settle_on_a_fresh_services_bodies(self, private):
        """Readers on several threads rebuild the kept cells while rows are
        rewritten under them; once the writes stop, every body is a fresh
        service's.  A lost update to the cell memos would leave one stale."""
        service, cache = private
        rows = cache.rows()
        done = threading.Event()
        errors = []

        def read():
            try:
                while not done.is_set():
                    served(service, [])
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=read) for _ in range(4)]
            for reader in readers:
                reader.start()
            for index in range(40):
                row = rows[index % len(rows)]
                self.write(cache, type(row).from_dict({
                    **row.to_dict(),
                    "avg_slowdown": SAME_LENGTH_SLOWDOWNS[index % len(SAME_LENGTH_SLOWDOWNS)],
                }))
            done.set()
            for reader in readers:
                reader.join(timeout=30)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(reader.is_alive() for reader in readers)
        fresh = ResultsService(service.cache_dir)
        for reader in (service, fresh):  # both warm: ``/aggregate`` says so
            served(reader, [])
        assert served(service, []) == served(fresh, [])


class TestWarmReportRows:
    """``?format=text`` and ``/cdf`` render from the one scan kept in the
    ``(cache signature, code)`` state's store: an unchanged cache is not
    re-read, a changed one is never served stale."""

    def report_cli(self, cache_dir, capsys, *flags):
        from repro.metrics.report import main as report_main

        capsys.readouterr()
        assert report_main([cache_dir, *flags]) == 0
        return capsys.readouterr().out

    def test_unchanged_cache_is_not_read_again(self, private, reads, capsys):
        service, cache = private
        first = service.aggregate_text("serve_tiny", cdf=True)
        assert len(reads) == len(cache)  # one scan feeds the aggregate and the report
        del reads[:]
        assert service.aggregate_text("serve_tiny", cdf=True) == first
        assert service.aggregate_text("serve_tiny") in first
        assert service.cdf("serve_tiny")["cells"]
        assert service.cdf_text_body("serve_tiny").decode()[:-1] in first
        assert reads == []
        assert first + "\n" == self.report_cli(service.cache_dir, capsys, "--cdf")

    def test_rewritten_and_added_rows_show_in_the_next_request(self, private, capsys):
        service, cache = private
        before_text = service.aggregate_text("serve_tiny")
        before_cdf = service.cdf("serve_tiny")

        rewrite_row(cache, cache.rows()[0])
        rewritten = service.aggregate_text("serve_tiny")
        assert rewritten != before_text and "98.75" in rewritten
        assert rewritten + "\n" == self.report_cli(service.cache_dir, capsys)

        extra = SPEC.sweep(seeds=[3], workers=1, cache=cache)
        assert extra.runs_executed == 2
        after_cdf = service.cdf("serve_tiny")
        assert len(after_cdf["cells"]) == len(before_cdf["cells"]) + 2
        assert {cell["label"] for cell in after_cdf["cells"]} >= set(extra.rows)
        added = service.aggregate_text("serve_tiny", cdf=True)
        assert all(label in added for label in extra.rows)
        assert added + "\n" == self.report_cli(service.cache_dir, capsys, "--cdf")


class TestQueryNumbers:
    """Malformed numbers in a query string are the client's error (400 naming
    the parameter), never a 500 or an unbounded amount of work."""

    @pytest.mark.parametrize("query", [
        "points=1", "points=-4", "points=nan", "points=inf", "points=2000000",
        "points=12.5", "start=5", "start=-3", "start=1", "start=abc",
    ])
    def test_malformed_cdf_numbers_answer_400(self, server, query):
        status, payload = get_json(server, f"/scenarios/serve_tiny/cdf?{query}")
        assert status == 400
        key, value = query.split("=")
        assert f"{key}={value!r}" in payload["error"]

    def test_explicit_defaults_serve_the_default_body(self, server):
        default = get(server, "/scenarios/serve_tiny/cdf")
        assert default[0] == 200
        assert get(server, "/scenarios/serve_tiny/cdf?points=12&start=0.9") == default

    @pytest.mark.parametrize("query", [
        "poll=-1", "poll=0", "poll=inf", "timeout=-1", "expect=nan", "expect=-2",
        "expect=1.5",
    ])
    def test_malformed_follow_numbers_answer_400(self, tmp_path, warm, query):
        srv = make_server(warm[0], queue_dir=str(tmp_path / "q"), port=0, quiet=True)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        try:
            status, payload = get_json(srv, f"/scenarios/serve_tiny/follow?{query}")
        finally:
            srv.shutdown()
            srv.server_close()
        assert status == 400
        key, value = query.split("=")
        assert f"{key}={value!r}" in payload["error"]


class TestConcurrency:
    def test_parallel_readers_agree(self, server):
        results, errors = [], []

        def read():
            try:
                for _ in range(5):
                    status, payload = get_json(
                        server, "/scenarios/serve_tiny/aggregate"
                    )
                    assert status == 200
                    results.append(payload["records"])
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 40
        assert all(records == results[0] for records in results)


class TestConnections:
    """Handler threads are reused, and no connection waits behind a busy
    one."""

    def test_sequential_requests_reuse_handler_threads(self, server, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        address = server.server_address[:2]
        for _ in range(50):
            # Read to the close, which the handler thread makes once it is
            # idle (urllib would stop at Content-Length, before that).
            with socket.create_connection(address, timeout=10) as connection:
                connection.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
                response = b""
                while chunk := connection.recv(65536):
                    response += chunk
            assert response.startswith(b"HTTP/1.0 200 ")
        assert 1 <= len(started) <= 2, started
        server.shutdown()
        server.server_close()  # releases the idle handler threads
        for thread in started:
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_stalled_connections_do_not_hold_up_a_request(self, server):
        port = server.server_address[1]
        stalled = []
        try:
            for _ in range(8):
                stalled.append(socket.create_connection(("127.0.0.1", port), timeout=5))
                # Connections are accepted in order, so this answer means the
                # stalled one holds a handler thread (and the listen backlog,
                # five connections, never fills).
                assert get(server, "/healthz")[0] == 200
            began = time.monotonic()
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=1) as resp:
                assert resp.status == 200
            assert time.monotonic() - began < 1.0
        finally:
            for connection in stalled:
                connection.close()

    def test_concurrent_clients_get_the_batch_answers(self, server, warm):
        cache_dir, _ = warm
        expected = json.loads(json.dumps(SPEC.aggregate(SPEC.sweep(workers=1, cache=cache_dir))))
        fingerprints = [row.fingerprint for row in ResultCache(cache_dir).rows()]
        cells = {fp: ResultsService(cache_dir).cell_body(fp) for fp in fingerprints}
        errors, finished = [], []

        def client(index):
            try:
                for step in range(6):
                    status, payload = get_json(server, "/scenarios/serve_tiny/aggregate")
                    assert status == 200 and payload["records"] == expected
                    fingerprint = fingerprints[(index + step) % len(fingerprints)]
                    assert get(server, f"/cells/{fingerprint}") == (200, cells[fingerprint])
                finished.append(index)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        clients = [threading.Thread(target=client, args=(index,)) for index in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert not errors, errors
        assert sorted(finished) == list(range(16))


def raw_exchange(srv, data=b"", half_close=False):
    """Send ``data`` on a new connection (then ``SHUT_WR`` if
    ``half_close``) and read to the server's close: ``(bytes, seconds)``.

    A server that answers before reading everything may reset the
    connection under a client still sending; the answer is read anyway."""
    began = time.monotonic()
    with socket.create_connection(srv.server_address[:2], timeout=5) as connection:
        try:
            connection.sendall(data)
            if half_close:
                connection.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        response = b""
        try:
            while chunk := connection.recv(65536):
                response += chunk
        except ConnectionResetError:
            pass
    return response, time.monotonic() - began


def split_response(response):
    """``(status line, [(header name, value)], body)`` of one answer."""
    head, _, body = response.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    return status_line, [tuple(line.split(": ", 1)) for line in lines], body


@pytest.fixture()
def short_timeout(monkeypatch):
    """Every socket read and write of the server bounded at half a second."""
    monkeypatch.setattr(server_module, "SOCKET_TIMEOUT_S", 0.5)
    return 0.5


class TestHostileClients:
    """Clients that stall, half-close or send what the service does not
    serve: each is answered or closed in bounded time, and ``/healthz``
    answers meanwhile."""

    def test_silent_and_half_head_clients_are_closed_at_the_timeout(
        self, server, short_timeout
    ):
        address = server.server_address[:2]
        began = time.monotonic()
        silent = socket.create_connection(address, timeout=5)
        half = socket.create_connection(address, timeout=5)
        try:
            half.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            # Both hold a handler thread; a third client is not held up.
            assert get(server, "/healthz")[0] == 200
            assert silent.recv(1024) == b""
            assert half.recv(1024) == b""
            closed_after = time.monotonic() - began
        finally:
            silent.close()
            half.close()
        assert 0.8 * short_timeout <= closed_after < short_timeout + 2.0
        assert get(server, "/healthz")[0] == 200

    def test_a_dripping_head_is_closed_at_the_timeout(self, server, short_timeout):
        """Each byte arrives well within the timeout, but the head as a
        whole must arrive within it too."""
        stop = threading.Event()
        with socket.create_connection(server.server_address[:2], timeout=5) as connection:

            def drip():
                for byte in b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 10:
                    if stop.wait(short_timeout / 5):
                        return
                    try:
                        connection.send(bytes([byte]))
                    except OSError:
                        return

            dripper = threading.Thread(target=drip)
            began = time.monotonic()
            dripper.start()
            try:
                try:
                    assert connection.recv(1024) == b""
                except ConnectionResetError:
                    pass  # a byte landed after the close
                closed_after = time.monotonic() - began
            finally:
                stop.set()
                dripper.join()
        assert 0.8 * short_timeout <= closed_after < short_timeout + 2.0

    def test_a_half_closed_head_is_answered_without_waiting(self, server, short_timeout):
        response, seconds = raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nHost: x\r\n", half_close=True
        )
        status_line, _, body = split_response(response)
        # An answer, not the timeout's silent close.
        assert status_line == "HTTP/1.0 400 Bad Request"
        assert "blank line" in json.loads(body)["error"]
        assert seconds < short_timeout + 2.0

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", "414 Request-URI Too Long"),
        (b"GET / HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n",
         "431 Request Header Fields Too Large"),
        (b"GET / HTTP/1.1\r\n" + (b"X-Pad: " + b"p" * 7_000 + b"\r\n") * 10 + b"\r\n",
         "431 Request Header Fields Too Large"),
        (b"POST /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n", "501 Not Implemented"),
        (b"HEAD /healthz HTTP/1.1\r\n\r\n", "501 Not Implemented"),
        (b"GET /healthz HTTP/2.0\r\n\r\n", "505 HTTP Version Not Supported"),
        (b"GET /healthz\r\n\r\n", "400 Bad Request"),
        (b"GET /healthz HTTP/1.x\r\n\r\n", "400 Bad Request"),
        (b"hello\r\n\r\n", "400 Bad Request"),
        (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", "400 Bad Request"),
        (b"GET /healthz HTTP/1.1\r\nBad Name: x\r\n\r\n", "400 Bad Request"),
    ], ids=["request-line-70k", "101-headers", "head-70k", "post", "head", "http2",
            "no-version", "bad-version", "one-word", "no-colon", "space-in-name"])
    def test_unserved_requests_get_a_json_error(self, server, short_timeout,
                                                request_bytes, status):
        response, seconds = raw_exchange(server, request_bytes)
        status_line, headers, body = split_response(response)
        assert status_line == f"HTTP/1.0 {status}"
        assert [name for name, _ in headers] == [
            "Server", "Date", "Content-Type", "Content-Length"]
        assert dict(headers)["Content-Type"] == "application/json; charset=utf-8"
        assert int(dict(headers)["Content-Length"]) == len(body)
        assert isinstance(json.loads(body)["error"], str)
        assert seconds < short_timeout + 2.0

    def test_a_head_ended_by_bare_newlines_is_served(self, server, short_timeout):
        response, _ = raw_exchange(server, b"GET /healthz HTTP/1.0\nHost: x\n\n")
        assert split_response(response)[0] == "HTTP/1.0 200 OK"


class TestWireFormat:
    """What the transport writes: the status line, the headers today's
    clients get in their order, and the service's bytes as the body."""

    DATE = re.compile(
        r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
        r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} \d\d:\d\d:\d\d GMT"
    )

    def test_each_route_is_one_answer_with_the_service_body(self, server, warm):
        _, sweep = warm
        service = server.service
        fingerprint = next(iter(sweep.rows.values())).fingerprint
        service.aggregate_body("serve_tiny")  # the answer below is the warm body
        expected = {
            "/healthz": (b'{"status": "ok", "shutting_down": false}\n', server_module.JSON_TYPE),
            f"/cells/{fingerprint}": (service.cell_body(fingerprint), server_module.JSON_TYPE),
            "/scenarios/serve_tiny/aggregate": (
                service.aggregate_body("serve_tiny"), server_module.JSON_TYPE),
            "/scenarios/serve_tiny/aggregate?format=text": (
                service.aggregate_text_body("serve_tiny"), server_module.TEXT_TYPE),
        }
        for path, (body, content_type) in expected.items():
            response, _ = raw_exchange(server, f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
            status_line, headers, got = split_response(response)
            assert status_line == "HTTP/1.0 200 OK", path
            assert [name for name, _ in headers] == [
                "Server", "Date", "Content-Type", "Content-Length"], path
            values = dict(headers)
            assert values["Server"] == f"repro-serve/1.0 Python/{sys.version.split()[0]}"
            assert self.DATE.fullmatch(values["Date"]), values["Date"]
            assert values["Content-Type"] == content_type
            assert values["Content-Length"] == str(len(body))
            assert got == body, path

    def test_the_date_header_is_the_email_utils_form(self):
        from email.utils import formatdate

        for timestamp in (0.0, 951_782_400.5, 1_700_000_000.0, time.time()):
            assert server_module._http_date(timestamp) == formatdate(timestamp, usegmt=True)

    def test_the_access_log_line_keeps_the_stdlib_form(self, warm, capsys):
        srv = make_server(warm[0], port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        try:
            raw_exchange(srv, b"GET /healthz HTTP/1.0\r\n\r\n")
            raw_exchange(srv, b"GET /\x01 HTTP/1.0\r\n\r\n")
        finally:
            srv.shutdown()
            srv.server_close()
        lines = capsys.readouterr().err.splitlines()
        stamp = r"127\.0\.0\.1 - - \[\d\d/[A-Z][a-z]{2}/\d{4} \d\d:\d\d:\d\d\] "
        assert re.fullmatch(stamp + r'"GET /healthz HTTP/1\.0" 200 -', lines[0]), lines
        # Control characters are escaped, so a request cannot forge a line.
        assert re.fullmatch(stamp + r'"GET /\\x01 HTTP/1\.0" 404 -', lines[1]), lines


class TestFollow:
    def _spooled_queue(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        configs = SPEC.replicated()
        for label, config in configs.items():
            queue.enqueue(label, config)
        return queue, configs

    def test_stream_converges_to_serial_batch_bit_for_bit(self, tmp_path):
        queue, configs = self._spooled_queue(tmp_path)
        workers = [
            threading.Thread(
                target=run_worker,
                args=(queue,),
                kwargs={"worker_id": f"w{i}", "drain": True, "poll_interval_s": 0.05},
            )
            for i in range(2)
        ]
        for worker in workers:
            worker.start()

        service = ResultsService(
            str(tmp_path / "q" / "parts"), queue_dir=str(tmp_path / "q")
        )
        events = list(follow_scenario(
            service, SPEC, poll_interval_s=0.05, timeout_s=120.0,
            expect=len(configs),
        ))
        for worker in workers:
            worker.join()

        assert events[0][0] == "listening"
        updates = [payload for event, payload in events if event == "update"]
        assert len(updates) == len(configs)
        assert updates[-1]["completed"] == len(configs)
        assert events[-1][0] == "done"
        done = events[-1][1]
        serial = run_sweep(configs, workers=1)
        batch = aggregate_rows(list(serial.rows.values()), by=SPEC.aggregate_by)
        # The streamed final aggregate is bit-identical to the serial batch.
        assert done["records"] == batch
        assert done["completed"] == len(configs)
        assert done["failed"] == 0

    def test_http_sse_stream_over_live_drain(self, tmp_path):
        queue, configs = self._spooled_queue(tmp_path)
        srv = make_server(
            str(tmp_path / "q" / "parts"),
            queue_dir=str(tmp_path / "q"),
            port=0,
            quiet=True,
        )
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        workers = [
            threading.Thread(
                target=run_worker,
                args=(queue,),
                kwargs={"worker_id": f"w{i}", "drain": True, "poll_interval_s": 0.05},
            )
            for i in range(2)
        ]
        for worker in workers:
            worker.start()
        try:
            status, body = get(
                srv,
                f"/scenarios/serve_tiny/follow?poll=0.05&expect={len(configs)}"
                "&timeout=120",
            )
            assert status == 200
            events = []
            for block in body.decode().split("\n\n"):
                if not block.strip():
                    continue
                lines = block.splitlines()
                event = lines[0].removeprefix("event: ")
                payload = json.loads(lines[1].removeprefix("data: "))
                events.append((event, payload))
            kinds = [event for event, _ in events]
            assert kinds[0] == "listening" and kinds[-1] == "done"
            assert kinds.count("update") == len(configs)
            serial = run_sweep(configs, workers=1)
            batch = aggregate_rows(list(serial.rows.values()), by=SPEC.aggregate_by)
            assert events[-1][1]["records"] == batch
        finally:
            for worker in workers:
                worker.join()
            srv.shutdown()
            srv.server_close()

    def test_follow_without_queue_is_409(self, server):
        status, payload = get_json(server, "/scenarios/serve_tiny/follow")
        assert status == 409
        assert "--queue-dir" in payload["error"]


class TestGracefulShutdown:
    def test_healthz_is_cheap_and_ok(self, server):
        status, payload = get_json(server, "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "shutting_down": False}

    def test_healthz_listed_in_index(self, server):
        _, payload = get_json(server, "/")
        assert "/healthz" in payload["endpoints"]

    def test_request_shutdown_closes_follow_streams_and_stops(self, tmp_path, warm):
        # An empty spool with expect=1 makes /follow poll indefinitely: the
        # only way the stream below ends is the graceful-shutdown path
        # flushing a final well-formed ``closed`` event before the accept
        # loop exits.
        cache_dir, _ = warm
        TaskQueue(tmp_path / "q")
        srv = make_server(
            cache_dir, queue_dir=str(tmp_path / "q"), port=0, quiet=True
        )
        serve_thread = threading.Thread(target=srv.serve_forever, daemon=True)
        serve_thread.start()
        try:
            port = srv.server_address[1]
            stream = urllib.request.urlopen(
                f"http://127.0.0.1:{port}/scenarios/serve_tiny/follow"
                "?poll=0.05&expect=1"
            )
            hello = b""
            while b"\n\n" not in hello:
                hello += stream.read(1)
            assert b"event: listening" in hello

            srv.request_shutdown()
            rest = stream.read()  # EOF only once the handler finished
            assert b"event: closed" in rest
            assert json.loads(
                rest.decode().rsplit("data: ", 1)[1].split("\n")[0]
            )["completed"] == 0

            serve_thread.join(timeout=10)
            assert not serve_thread.is_alive()
            # Idempotent: a second request is a no-op, not a hang.
            srv.request_shutdown()
        finally:
            srv.server_close()
