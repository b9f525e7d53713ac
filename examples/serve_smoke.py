"""Results-service smoke check: real server process, real worker, exact bytes.

CI runs this to prove the ``repro serve`` recipe end to end on Figure 1:

1. warm a sweep cache (``fig1 --quick``, small flows) -- the one simulation
   phase of the whole script;
2. start a real ``python -m repro serve`` process on an ephemeral port;
3. GET ``/healthz``, ``/scenarios``, ``/scenarios/fig1/aggregate`` and
   ``/scenarios/fig1/cdf`` and sanity-check the JSON shapes (including that
   a second aggregate GET is answered from the warm in-process copy);
4. assert ``?format=text`` is **byte-identical** to the offline
   ``python -m repro.metrics.report`` CLI over the same cache, both when the
   server builds the body and when it answers from the stored one;
5. spool the same cells through a queue directory, start one real
   ``python -m repro worker --drain`` process, stream
   ``/scenarios/fig1/follow`` until ``done``, and assert the streamed final
   aggregate equals the serial batch aggregate bit for bit;
6. rewrite one cached row and assert the next ``?format=text`` body shows
   it and still equals the report CLI byte for byte.

Usage::

    PYTHONPATH=src python examples/serve_smoke.py [work-dir]
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import urllib.request

from repro.api import ResultCache, TaskQueue, aggregate_rows, load_scenario, run_sweep

SCENARIO = "fig1"
FLOWS = 20  # small enough for CI, enough traffic for non-empty digests


def launch(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, **kwargs,
    )


def get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=180) as resp:
        return resp.read()


def report_cli(cache_dir):
    """The offline report's bytes over ``cache_dir`` (the parity reference)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.metrics.report", cache_dir, "--cdf"],
        capture_output=True, env=env, check=True,
    ).stdout


def main() -> int:
    work_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="repro-serve-")
    cache_dir = os.path.join(work_dir, "cache")
    queue_dir = os.path.join(work_dir, "queue")
    failures = []

    print(f"== warm the cache: {SCENARIO} --quick --flows {FLOWS} ==")
    warm = launch(["repro", "run", SCENARIO, "--quick", "--flows", str(FLOWS),
                   "--workers", "1", "--cache", cache_dir])
    warm_out, _ = warm.communicate(timeout=600)
    if warm.returncode != 0:
        print(warm_out)
        print("FAILED: cache warm-up run failed")
        return 1

    spec = load_scenario(SCENARIO)
    configs = spec.replicated(seeds=[1], num_flows=FLOWS)
    for label, config in configs.items():
        TaskQueue(queue_dir).enqueue(label, config)

    print("== start a real `repro serve` process (ephemeral port) ==")
    server = launch(["repro", "serve", cache_dir, "--queue-dir", queue_dir,
                     "--port", "0", "--quiet"])
    banner = server.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    if not match:
        print(f"FAILED: no listen banner, got: {banner!r}")
        server.kill()
        return 1
    port = int(match.group(1))
    print(f"   {banner.strip()}")

    try:
        health = json.loads(get(port, "/healthz"))
        if health != {"status": "ok", "shutting_down": False}:
            failures.append(f"/healthz answered {health}")

        catalog = json.loads(get(port, "/scenarios"))
        if not any(entry["name"] == SCENARIO for entry in catalog["scenarios"]):
            failures.append(f"{SCENARIO} missing from /scenarios catalog")

        aggregate = json.loads(get(port, f"/scenarios/{SCENARIO}/aggregate"))
        if aggregate["replica_rows"] != len(configs):
            failures.append(f"aggregate saw {aggregate['replica_rows']} rows, "
                            f"expected {len(configs)}")
        if len(aggregate["records"]) != 2:
            failures.append(f"expected 2 cells, got {len(aggregate['records'])}")
        rewarmed = json.loads(get(port, f"/scenarios/{SCENARIO}/aggregate"))
        if rewarmed["warm"] is not True:
            failures.append("second aggregate GET was not served warm")
        if rewarmed["records"] != aggregate["records"]:
            failures.append("warm records differ from the freshly built ones")

        cdf = json.loads(get(port, f"/scenarios/{SCENARIO}/cdf"))
        if not cdf["cells"] or any(not cell["points"] for cell in cdf["cells"]):
            failures.append("cdf endpoint returned no tail points")

        print("== text parity: HTTP bytes vs the offline report CLI ==")
        text_path = f"/scenarios/{SCENARIO}/aggregate?format=text&cdf=1"
        offline = report_cli(cache_dir)
        for fetch in ("built", "stored"):
            http_text = get(port, text_path)
            if http_text != offline:
                failures.append(f"{fetch} ?format=text differs from the report CLI bytes")
            else:
                print(f"   {fetch}: byte-identical ({len(http_text)} bytes)")

        print("== /follow over a live 1-worker queue drain ==")
        worker = launch(["repro", "worker", queue_dir, "--drain",
                         "--cache", os.path.join(queue_dir, "cache")])
        stream = get(
            port,
            f"/scenarios/{SCENARIO}/follow?poll=0.1&expect={len(configs)}&timeout=300",
        ).decode()
        worker_out, _ = worker.communicate(timeout=600)
        if worker.returncode != 0:
            print(worker_out)
            failures.append("worker process failed")
        events = []
        for block in stream.split("\n\n"):
            if block.strip():
                lines = block.splitlines()
                events.append((lines[0].removeprefix("event: "),
                               json.loads(lines[1].removeprefix("data: "))))
        kinds = [event for event, _ in events]
        if kinds.count("update") != len(configs):
            failures.append(f"expected {len(configs)} update events, saw {kinds}")
        if not events or events[-1][0] != "done":
            failures.append(f"stream did not end with done: {kinds}")
        else:
            done = events[-1][1]
            serial = run_sweep(configs, workers=1, cache=cache_dir)
            batch = aggregate_rows(list(serial.rows.values()), by=spec.aggregate_by)
            streamed = done["records"]
            if json.loads(json.dumps(batch)) != streamed:
                failures.append(
                    "streamed final aggregate differs from the serial batch:\n"
                    f"  serial:   {batch}\n  streamed: {streamed}")
            else:
                print(f"   done: {done['completed']} rows streamed; final "
                      f"aggregate matches the serial batch bit for bit")

        print("== a rewritten row reaches the next text request ==")
        before = get(port, text_path)
        cache = ResultCache(cache_dir)
        row = cache.rows()[0]
        cache.put(type(row).from_dict({**row.to_dict(),
                                       "avg_slowdown": row.avg_slowdown + 1.0}))
        rewritten = get(port, text_path)
        if rewritten == before:
            failures.append("the rewritten row did not reach the served report")
        elif rewritten != report_cli(cache_dir):
            failures.append("?format=text after a rewrite differs from the report CLI")
        else:
            print("   the served text moved with the row, byte-identical to the CLI")
    finally:
        server.terminate()
        server.wait(timeout=30)

    if failures:
        print("FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("OK: catalog/aggregate/cdf served, text parity byte-exact, "
          "follow stream converged to the serial batch aggregate, "
          "a rewritten row served.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
