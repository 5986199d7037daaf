"""Workloads, output checks and metrics of the gjbd benchmark.

Run it through ``run.py``, which pins BLAS to one thread before numpy is
imported; see README.md in this directory.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import gjbd
import gjbd.cli

from bench_trace import PER_LAYER_UNITS, Tracer, per_layer_metrics

ROOT = Path(__file__).resolve().parents[1]

# largest entry of Bdiag(W^T W) - I that an output check accepts
GRAM_TOL = 1e-8
# set-up runs per measurement; setup_s is their median
SETUP_REPEATS = 3
# a percentile is reported only when this many samples lie beyond it
TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Workload:
    """Instances of one workload: ``cases`` are ``(sizes, m, snr)`` drawn in
    turn, and the pool holds ``pool_size`` of them, generated at set-up."""

    name: str
    cases: tuple
    methods: tuple
    pool_size: int
    score: bool
    check: bool


# README.md gives the reason for each workload
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="sweep-small",
            cases=tuple(
                (sizes, 20, snr)
                for snr in (20.0, 40.0, 60.0, 80.0)
                for sizes in ((3, 3, 3), (1, 2, 3, 4))
            ),
            methods=("greedy", "consv"),
            pool_size=64,
            score=True,
            check=False,
        ),
        Workload(
            name="large-order",
            cases=(((5, 5, 5, 5), 20, 40.0),),
            methods=("greedy", "consv"),
            pool_size=8,
            # PI on an over-split consv answer at n=20 can take seconds and
            # would swamp the solve times this workload is for
            score=False,
            check=False,
        ),
        Workload(
            name="exact-diagnose",
            cases=(((2,) * 8, 4, float("inf")),),
            methods=("exact",),
            pool_size=24,
            score=True,
            check=True,
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_ms_p50": "ms",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Instance:
    index: int
    model: gjbd.ModelInstance
    v_inv: np.ndarray
    epsilon: float
    solver_seed: tuple
    set_path: Path = None


@dataclass
class Record:
    """Timings, failures and first-visit accuracy of one measured loop."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    method_ms: dict = field(default_factory=dict)
    score_ms: list = field(default_factory=list)
    check_ms: list = field(default_factory=list)
    solve_ms: list = field(default_factory=list)
    instance_ms: list = field(default_factory=list)
    accepted_splits: int = 0
    # method -> instance index -> Accuracy, at the first visit
    accuracy: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Accuracy:
    card: int
    n: int
    card_match: bool
    refines: bool
    pi: float


def snr_epsilon(snr, n):
    """The CLI's consv tolerance ``3 n^2 10^(-SNR/20)``."""
    return 3.0 * n * n * 10.0 ** (-snr / 20.0)


def set_document(model, v_inv):
    """Matrix-set file contents in the documented JSON layout."""
    a = model.a
    return {
        "n": a.n,
        "m": a.m,
        "matrices": [mat.flatten().tolist() for mat in a.mats],
        "v_inv": v_inv.flatten().tolist(),
        "p_true": list(model.p_true.sizes),
    }


def result_document(inst, sol, pi):
    """Result file contents in the layout `gjbd solve` writes."""
    return {
        "method": "exact",
        "parameters": {"gamma": 1.2, "mu": None, "epsilon": 0.0,
                       "seed": list(inst.solver_seed)},
        "partition": list(sol.partition.sizes),
        "w": sol.w.flatten().tolist(),
        "cost": sol.cost,
        "no_split": sol.no_split,
        "correct": pi is not None,
        "pi": pi if pi is not None else float("nan"),
    }


def make_pool(wl, seed, workdir):
    """Generate the workload's instances; returns them and the generation
    time per instance in ms."""
    pool = []
    start = time.perf_counter()
    for i in range(wl.pool_size):
        sizes, m, snr = wl.cases[i % len(wl.cases)]
        model = gjbd.generate_model(gjbd.Partition(sizes), m, snr, [seed, i])
        v_inv = model.v_inv()
        set_path = None
        if wl.check:
            set_path = workdir / f"set-{i}.json"
            set_path.write_text(json.dumps(set_document(model, v_inv)))
        pool.append(Instance(i, model, v_inv, snr_epsilon(snr, model.a.n),
                             (seed, i, 1), set_path))
    return pool, (time.perf_counter() - start) * 1e3 / wl.pool_size


def solve(method, inst):
    a = inst.model.a
    if method == "greedy":
        return gjbd.greedy_solve(a, gjbd.SolverConfig(seed=inst.solver_seed))
    if method == "consv":
        return gjbd.conservative_solve(a, gjbd.SolverConfig(epsilon=inst.epsilon))
    return gjbd.exact_solve(a, inst.solver_seed)


def check_solution(inst, method, sol):
    """Output checks of one solve; returns the list of violations."""
    a = inst.model.a
    n = a.n
    if sol.partition.n != n:
        return [f"partition {sol.partition.sizes} does not sum to n={n}"]
    w = np.asarray(sol.w, dtype=float)
    if w.shape != (n, n) or not np.all(np.isfinite(w)):
        return ["W is not a finite n-by-n matrix"]
    problems = []
    gram = w.T @ w
    for sl in sol.partition.slices():
        block = gram[sl, sl]
        if np.max(np.abs(block - np.eye(block.shape[0]))) > GRAM_TOL:
            problems.append("Bdiag(W^T W) differs from I")
            break
    fresh = gjbd.cost_ls(a, sol.partition, w)
    if not np.isclose(sol.cost, fresh, rtol=1e-12, atol=1e-12 * a.total_sq_norm()):
        problems.append(f"reported cost {sol.cost!r} != cost_ls {fresh!r}")
    if method == "consv" and not sol.cost <= inst.epsilon ** 2:
        problems.append(f"consv cost {sol.cost!r} exceeds epsilon^2")
    if method == "exact" and sol.partition.card != inst.model.p_true.card:
        problems.append(f"exact card {sol.partition.card} != truth "
                        f"{inst.model.p_true.card}")
    return problems


def run_check(inst, sol, pi, workdir, span):
    """Write the result file and run `gjbd check --bounds --equivalence` on
    it; returns (check ms, violations)."""
    result_path = workdir / f"result-{inst.index}.json"
    report_path = workdir / f"check-{inst.index}.json"
    with span("bench.write_result"):
        result_path.write_text(json.dumps(result_document(inst, sol, pi)))
    start = time.perf_counter()
    with span("cli.check"):
        code = gjbd.cli.main(["check", str(inst.set_path), "--result", str(result_path),
                              "--bounds", "--equivalence", "--out", str(report_path)])
    elapsed = (time.perf_counter() - start) * 1e3
    if code != 0:
        return elapsed, [f"gjbd check exited {code}"]
    if json.loads(report_path.read_text()).get("all_checks_passed") is not True:
        return elapsed, ["gjbd check report does not pass"]
    return elapsed, []


def _no_span(name):
    return contextlib.nullcontext()


def run_instance(wl, inst, rec, workdir, tracer=None, label=0):
    """One closed-loop step: every method of the workload on one instance,
    with scoring, the diagnostic check and the output checks."""
    span = tracer.span if tracer is not None else _no_span
    start = time.perf_counter()
    solve_ms = 0.0
    for method in wl.methods:
        if tracer is not None:
            tracer.trace_id = f"{label}:{inst.index}:{method}"
        rec.attempted += 1
        problems = []
        try:
            t0 = time.perf_counter()
            with span(f"solvers.{method}"):
                sol = solve(method, inst)
            elapsed = (time.perf_counter() - t0) * 1e3
            rec.method_ms.setdefault(method, []).append(elapsed)
            solve_ms += elapsed
            problems += check_solution(inst, method, sol)
            pi = None
            if wl.score:
                t0 = time.perf_counter()
                with span("analysis.pi"):
                    pi = gjbd.performance_index(inst.v_inv, sol.w, inst.model.p_true,
                                                sol.partition)
                rec.score_ms.append((time.perf_counter() - t0) * 1e3)
            if wl.check:
                elapsed, check_problems = run_check(inst, sol, pi, workdir, span)
                rec.check_ms.append(elapsed)
                problems += check_problems
        except Exception as exc:  # a raised error is a counted failure
            problems.append(f"raised {type(exc).__name__}: {exc}")
        if problems:
            rec.failed += 1
            rec.problems.append({"instance": inst.index, "method": method,
                                 "problems": problems})
            continue
        card = sol.partition.card
        if method == "consv":
            rec.accepted_splits += card - 1
        seen = rec.accuracy.setdefault(method, {})
        if inst.index not in seen:
            # PI is None exactly when the answer does not refine the truth
            seen[inst.index] = Accuracy(card, sol.partition.n,
                                        card == inst.model.p_true.card,
                                        pi is not None, pi)
    if tracer is not None:
        tracer.trace_id = None
    rec.solve_ms.append(solve_ms)
    rec.instance_ms.append((time.perf_counter() - start) * 1e3)


def setup(wl, seed, workdir):
    """Generate the pool and warm up on its first instance; the median of
    several set-ups is reported, the last pool is kept."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool, gen_ms = make_pool(wl, seed, workdir)
        run_instance(wl, pool[0], Record(), workdir)
        times.append(time.perf_counter() - start)
    return pool, statistics.median(times), gen_ms


def _percentiles(values):
    """Sample count, median, and the highest of p99/p90 that has
    TAIL_SAMPLES samples beyond it."""
    out = {"n": len(values), "p50": float(np.median(values))}
    for q in (99, 90):
        if len(values) * (100 - q) >= 100 * TAIL_SAMPLES:
            out[f"p{q}"] = float(np.percentile(values, q))
            break
    return out


def accuracy_summary(wl, rec):
    """Card histogram, card-match and refinement rates and median PI per
    method, over the distinct instances the loop reached."""
    out = {}
    for method, seen in rec.accuracy.items():
        rows = list(seen.values())
        cards = [row.card for row in rows]
        entry = {
            "instances": len(rows),
            "card_hist": {str(c): cards.count(c) for c in sorted(set(cards))},
            "card_match_rate": sum(row.card_match for row in rows) / len(rows),
        }
        if wl.score:
            entry["refine_rate"] = sum(row.refines for row in rows) / len(rows)
            # the refinement test compares sizes only, so an all-singleton
            # answer counts as correct for any truth
            entry["refine_vacuous_singletons"] = sum(row.card == row.n for row in rows)
            pis = [row.pi for row in rows if row.pi is not None]
            entry["pi_median"] = float(np.median(pis)) if pis else None
        out[method] = entry
    return out


def timing_summary(rec, elapsed):
    out = {f"{m}_ms": _percentiles(v) for m, v in rec.method_ms.items()}
    for name, values in (("score_ms", rec.score_ms), ("check_ms", rec.check_ms),
                         ("solve_ms", rec.solve_ms), ("instance_ms", rec.instance_ms)):
        if values:
            out[name] = _percentiles(values)
    out["instances"] = len(rec.instance_ms)
    out["loop_s"] = elapsed
    out["solves_per_s"] = len(rec.instance_ms) / elapsed
    return out


def blas_threads():
    """OpenBLAS libraries mapped into this process, with their version
    string and effective thread count, read through their C interface."""
    libs = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    entry["threads"] = int(get_threads())
                    entry["config"] = get_config().decode()
        libs.append(entry)
    return libs


def environment():
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_threads(),
    }


def pin_problem(env):
    """Why the one-thread BLAS pin cannot be confirmed, or None."""
    if not env["blas"]:
        return "no OpenBLAS library found to confirm the thread pin"
    for lib in env["blas"]:
        if lib.get("threads") != 1:
            return f"{lib['library']} runs {lib.get('threads', 'an unknown number of')} threads"
    return None


def measure(wl, seed, seconds, trace, workdir, import_s):
    """Set up, then run the closed loop for ``seconds``; returns the report.

    A traced run alternates each instance between an untraced and a traced
    pass, so the tracing overhead is measured on the same work.
    """
    pool, setup_s, gen_ms = setup(wl, seed, workdir)
    rec = Record()
    traced_rec = Record()
    tracer = Tracer() if trace else None
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        inst = pool[i % len(pool)]
        if not trace:
            run_instance(wl, inst, rec, workdir)
        else:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                t0 = time.perf_counter()
                if traced:
                    tracer.install()
                    try:
                        run_instance(wl, inst, traced_rec, workdir, tracer, i)
                    finally:
                        tracer.uninstall()
                    traced_s += time.perf_counter() - t0
                else:
                    run_instance(wl, inst, rec, workdir)
                    plain_s += time.perf_counter() - t0
        i += 1
    elapsed = time.perf_counter() - start

    report = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "loop": "closed, 1 caller",
        "pool_size": wl.pool_size,
        "import_s": import_s,
        "setup_s": import_s + setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "timings": timing_summary(rec, plain_s if trace else elapsed),
        "accuracy": accuracy_summary(wl, rec),
    }
    records = (rec, traced_rec) if trace else (rec,)
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    report["attempted"] = attempted
    report["failed"] = failed
    report["failed_frac"] = failed / attempted
    report["problems"] = [p for r in records for p in r.problems][:20]

    if trace:
        overhead = 100.0 * (traced_s - plain_s) / plain_s
        values, self_ms = per_layer_metrics(tracer, len(traced_rec.instance_ms),
                                            traced_rec.accepted_splits, gen_ms, overhead)
        report["per_layer"] = values
        report["layer_self_ms"] = self_ms
        report["not_called"] = sorted(tracer.missing)
        report["traced_timings"] = timing_summary(traced_rec, traced_s)
        report["spans"] = tracer.span_records(start)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
    else:
        timings = report["timings"]
        values = {
            "setup_s": report["setup_s"],
            "solve_ms_p50": timings["solve_ms"]["p50"],
            "solves_per_s": timings["solves_per_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    report["metrics"] = metrics
    report["correct"] = failed == 0
    return report


def _fmt(value, unit):
    return f"{value:.4g} {unit}"


def print_table(report, out):
    """Human-readable view: every timing, accuracy figure and metric by name
    and unit, with n/a where the workload does not run that step."""
    t = report["timings"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"{t['loop_s']:.1f} s, {t['instances']} instances, closed loop with 1 caller",
          file=out)
    rows = [("setup_s", _fmt(report["setup_s"], "s"))]
    for key in ("greedy_ms", "consv_ms", "exact_ms", "score_ms", "check_ms", "solve_ms",
                "instance_ms"):
        if key not in t:
            rows.append((f"{key}_p50", "n/a (step not run in this workload)"))
            continue
        for q in ("p50", "p90", "p99"):
            if q in t[key]:
                rows.append((f"{key}_{q}", f"{_fmt(t[key][q], 'ms')} (n={t[key]['n']})"))
    rows.append(("solves_per_s", _fmt(t["solves_per_s"], "1/s")))
    rows.append(("peak_rss_mb", _fmt(report["peak_rss_mb"], "MB")))
    rows.append(("failed_frac", f"{report['failed_frac']:.4g} "
                                f"({report['failed']}/{report['attempted']})"))
    for method, acc in report["accuracy"].items():
        rows.append((f"card_match_rate[{method}]", f"{acc['card_match_rate']:.3f} "
                     f"over {acc['instances']} instances, cards {acc['card_hist']}"))
        if "refine_rate" in acc:
            rows.append((f"refine_rate[{method}]", f"{acc['refine_rate']:.3f} (vacuous: "
                         f"{acc['refine_vacuous_singletons']} all-singleton answers)"))
            pi = acc["pi_median"]
            rows.append((f"pi_median[{method}]", "n/a" if pi is None else _fmt(pi, "rad")))
    if report["trace"]:
        for name, value in report["per_layer"].items():
            rows.append((name, _fmt(value, PER_LAYER_UNITS[name])))
        for layer, ms in report["layer_self_ms"].items():
            rows.append((f"self_ms[{layer}]", _fmt(ms, "ms")))
    for name, text in rows:
        print(f"  {name:<32} {text}", file=out)
    for problem in report["problems"]:
        print(f"  FAILED {problem}", file=out)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="gjbd benchmark")
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out"),
                        help="directory for the report and span files")
    return parser.parse_args(argv)


def main(argv, import_s):
    args = parse_args(argv)
    src = ROOT / "src"
    if not Path(gjbd.__file__).resolve().is_relative_to(src):
        print(f"error: gjbd was imported from {gjbd.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    env = environment()
    problem = pin_problem(env)
    if problem is not None:
        print(f"error: BLAS is not pinned to one thread: {problem}", file=sys.stderr)
        return 3
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = ROOT / "perfbench" / ".work" / str(os.getpid())
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            workdir.mkdir(parents=True, exist_ok=True)
            report = measure(WORKLOADS[name], args.seed, args.seconds, args.trace,
                             workdir, import_s)
            shutil.rmtree(workdir)
            report["environment"] = env
            spans = report.pop("spans", None)
            stem = f"{name}-seed{args.seed}-trace{args.trace}"
            (out_dir / f"report-{stem}.json").write_text(json.dumps(report, indent=1))
            if spans is not None:
                with open(out_dir / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
                    for s in spans:
                        fh.write(json.dumps(s) + "\n")
            print_table(report, sys.stdout)
            summary["correct"] = summary["correct"] and report["correct"]
            summary["attempted"] += report["attempted"]
            summary["failed"] += report["failed"]
            prefix = "" if len(names) == 1 else f"{name}/"
            for key, val in report["metrics"].items():
                summary["metrics"][prefix + key] = val
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(summary))
    return 0
