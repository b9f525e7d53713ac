"""Smoke test of the end-to-end benchmark (collected by ``pytest benchmarks``).

Runs ``bench.py --smoke`` -- every workload at tiny size, one round, the
untraced and the traced pass -- and checks that exactly the workloads and
metric names ``BENCHMARK.json`` declares come out, each with its declared
unit and a finite value.  No timing is asserted: timings are machine-bound.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DECLARATION = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_declaration_shape():
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DECLARATION["paths"] == ["benchmarks/e2e"]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARATION[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(set(entry) == {"name", "why"} and len(entry["why"]) <= 200
               for entry in DECLARATION["workloads"])
    assert all(set(entry) == {"name", "unit", "better", "bound"} and 0 < entry["bound"] <= 0.25
               for entry in DECLARATION["end_to_end"])
    assert all(set(entry) == {"name", "unit", "better"} for entry in DECLARATION["per_layer"])
    assert any(entry["name"] == "setup_s" and entry["unit"] == "s" and entry["better"] == "lower"
               for entry in DECLARATION["end_to_end"])


def test_smoke_emits_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--smoke", "--json", str(out)],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    runs = json.loads(out.read_text())["runs"]
    assert [(run["workload"], run["trace"]) for run in runs] == [
        (workload["name"], trace) for workload in DECLARATION["workloads"] for trace in (0, 1)]
    for run in runs:
        assert run["correct"], run["failures"]
        declared = DECLARATION["per_layer" if run["trace"] else "end_to_end"]
        assert set(run["metrics"]) == {metric["name"] for metric in declared}
        for metric in declared:
            entry = run["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"])
            if not run["trace"]:
                assert entry["value"] > 0
