"""Tests of the benchmark itself:  python3 -m pytest -q bench"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from run import run  # noqa: E402
from tracing import COUNTS, Tracer  # noqa: E402


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, os.path.join(workloads.BENCH_DIR, "run.py"), "--smoke"],
                          cwd=workloads.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: PASS"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_exact_counts_repeat_between_traced_runs(name):
    first, second = (run(name, seed, 1, trace=True, tiny=True) for seed in (1, 2))
    exact = [k for k in first["metrics"] if k in COUNTS or k.endswith(".calls")]
    assert exact
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}


def test_missing_function_is_absent_not_zero():
    workloads.fresh_import()
    lee_oracle = sys.modules["slicebound.lee_oracle"]
    del lee_oracle._column_echelon
    try:
        tracer = Tracer()
        tracer.install()
        counts = tracer.counts(cases=1, knots=1, tight=0)
    finally:
        workloads.fresh_import()
    assert tracer.absent == ["lee_oracle._column_echelon"]
    assert "lee_oracle._column_echelon.calls" not in counts
    assert "lee_oracle.din_rank" not in counts
    assert counts["lee_oracle.build_slice.calls"] == 0


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(workloads.BENCH_DIR):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(workloads.BENCH_DIR, name), "rb").read())
    spec = os.path.join(workloads.ROOT, "BENCHMARK.json")
    (tmp_path / "BENCHMARK.json").write_bytes(open(spec, "rb").read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bounds-fuzz", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
