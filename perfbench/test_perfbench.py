"""Tests of the benchmark itself: output checks, metric names, tracing of
missing names, and refusal outside a full checkout."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench_core  # noqa: E402
import gjbd.cli  # noqa: E402
from bench_trace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _env():
    # the benchmark imports gjbd from its own checkout only
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          env=_env(), capture_output=True, text=True, timeout=170)


def test_zeroed_column_counts_as_failed(tmp_path, monkeypatch):
    wl = bench_core.WORKLOADS["sweep-small"]
    pool, _ = bench_core.make_pool(wl, 0, tmp_path)
    inst = pool[0]
    sol = bench_core.solve("greedy", inst)
    assert bench_core.check_solution(inst, "greedy", sol) == []

    w = sol.w.copy()
    w[:, 0] = 0.0
    corrupted = replace(sol, w=w)
    assert bench_core.check_solution(inst, "greedy", corrupted)

    monkeypatch.setattr(bench_core, "solve", lambda method, inst: corrupted)
    rec = bench_core.Record()
    bench_core.run_instance(wl, inst, rec, tmp_path)
    assert rec.attempted == len(wl.methods)
    assert rec.failed == rec.attempted
    assert rec.accuracy == {}


def test_consv_cost_above_tolerance_counts_as_failed(tmp_path):
    wl = bench_core.WORKLOADS["sweep-small"]
    pool, _ = bench_core.make_pool(wl, 0, tmp_path)
    inst = pool[0]
    sol = bench_core.solve("consv", inst)
    assert bench_core.check_solution(inst, "consv", sol) == []
    tight = replace(inst, epsilon=np.sqrt(sol.cost) / 2)
    assert sol.cost > 0.0
    assert bench_core.check_solution(tight, "consv", sol)


def test_missing_wrapped_name_is_not_called(monkeypatch):
    monkeypatch.delattr(gjbd.cli, "exact_solve_with_trace")
    tracer = Tracer()
    original = gjbd.cli.equivalence_check
    tracer.install()
    try:
        assert gjbd.cli.equivalence_check is not original
    finally:
        tracer.uninstall()
    assert gjbd.cli.equivalence_check is original
    assert "gjbd.cli.exact_solve_with_trace" in tracer.missing


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json(tmp_path):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", "sweep-small", "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--out", str(tmp_path)])
        assert proc.returncode == 0, proc.stderr
        result = _last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_core.WORKLOADS)


def test_refuses_outside_a_full_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work"))
    proc = _run(["--workload", "sweep-small", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
