"""Command-line front end: solve matrix-set files, synthesize model
instances, run benchmark sweeps, and run diagnostic checks.

Exit codes: 0 success, 2 unreadable or malformed input, 3 the solver only
found the trivial solution (still written), 4 a requested check failed,
5 a numerical failure (for example inseparable eigenvalue clusters).
"""

import argparse
import json
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .analysis import (
    cost_ls,
    equivalence_check,
    gap_lower_bound,
    performance_index,
    verify_imag_bound,
    verify_offblock_bound,
)
from .datagen import generate_model
from .matkernels import NumericalError
from .nullspace import MatrixSet
from .partition import Partition, is_refinement
from .solvers import (
    Solution,
    SolverConfig,
    UnsplittableError,
    conservative_solve,
    exact_solve_with_trace,
    greedy_solve_with_trace,
    one_step_split_with_trace,
)

log = logging.getLogger("gjbd")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TRIVIAL = 3
EXIT_CHECK_FAILED = 4
EXIT_NUMERICAL = 5

_METHODS = ("greedy", "consv", "exact")


class InputError(Exception):
    """Unreadable, malformed or inconsistent input file."""


def _snr_epsilon(snr, n, scale_sq):
    # cost tolerance for the conservative solver; the dB rule degenerates at
    # infinite SNR, where a tiny relative tolerance admits exact recovery
    if np.isinf(snr):
        return 1e-8 * np.sqrt(scale_sq)
    return 3.0 * n * n * 10.0 ** (-snr / 20.0)


def _parse_partition(text):
    try:
        sizes = tuple(int(tok) for tok in text.split(","))
        return Partition(sizes)
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid partition {text!r}: {exc}") from exc


def _parse_snr(text):
    if text.strip().lower() in ("inf", "infinity"):
        return np.inf
    try:
        return float(text)
    except ValueError as exc:
        raise InputError(f"invalid SNR {text!r}") from exc


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _matrix_from_flat(flat, n, what):
    try:
        arr = np.asarray(flat, dtype=float)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{what} holds non-numeric values") from exc
    if arr.shape != (n * n,):
        raise InputError(f"{what} must hold {n * n} numbers")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} holds non-finite values")
    return arr.reshape((n, n))  # row-major on disk


def load_matrix_set_file(path):
    """Parse a matrix-set JSON document.

    Returns
    -------
    (MatrixSet, v_inv or None, p_true or None)
    """
    doc = _load_json(path)
    try:
        n = int(doc["n"])
        m = int(doc["m"])
        matrices = doc["matrices"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: missing or malformed n/m/matrices") from exc
    if n < 1 or m < 1:
        raise InputError(f"{path}: n and m must be positive")
    if not isinstance(matrices, list) or len(matrices) != m:
        raise InputError(f"{path}: expected {m} matrices")
    mats = np.array([_matrix_from_flat(row, n, f"matrix {i}") for i, row in enumerate(matrices)])
    v_inv = None
    if doc.get("v_inv") is not None:
        v_inv = _matrix_from_flat(doc["v_inv"], n, "v_inv")
    p_true = None
    if doc.get("p_true") is not None:
        try:
            p_true = Partition(tuple(int(s) for s in doc["p_true"]))
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: malformed p_true") from exc
        if p_true.n != n:
            raise InputError(f"{path}: p_true does not sum to n")
    return MatrixSet(mats), v_inv, p_true


def _write_json(doc, out_path):
    text = json.dumps(doc, indent=2)
    if out_path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def matrix_set_document(a, v_inv=None, p_true=None):
    doc = {
        "n": a.n,
        "m": a.m,
        "matrices": [mat.flatten().tolist() for mat in a.mats],
    }
    if v_inv is not None:
        doc["v_inv"] = np.asarray(v_inv).flatten().tolist()
    if p_true is not None:
        doc["p_true"] = list(p_true.sizes)
    return doc


def _score(a, v_inv, p_true, solution):
    # optional scoring block for inputs that carry the generator's truth
    if v_inv is None or p_true is None:
        return {}
    correct = is_refinement(solution.partition, p_true)
    pi = performance_index(v_inv, solution.w, p_true, solution.partition)
    return {"correct": correct, "pi": pi if pi is not None else float("nan")}


def _solve_with(method, a, cfg):
    if method == "greedy":
        solution, trace = greedy_solve_with_trace(a, cfg)
    elif method == "exact":
        solution, trace = exact_solve_with_trace(a, cfg.seed)
    elif method == "consv":
        solution, trace = conservative_solve(a, cfg), None
    else:
        raise InputError(f"unknown method {method!r}")
    return solution, trace


def cmd_solve(args):
    a, v_inv, p_true = load_matrix_set_file(args.input)
    cfg = SolverConfig(gamma=args.gamma, mu=args.mu, epsilon=args.epsilon, seed=args.seed)
    solution, _ = _solve_with(args.method, a, cfg)
    doc = {
        "method": args.method,
        "parameters": {
            "gamma": args.gamma,
            "mu": args.mu,
            "epsilon": args.epsilon,
            "seed": args.seed,
        },
        "partition": list(solution.partition.sizes),
        "w": solution.w.flatten().tolist(),
        "cost": solution.cost,
        "no_split": solution.no_split,
    }
    doc.update(_score(a, v_inv, p_true, solution))
    _write_json(doc, args.out)
    return EXIT_TRIVIAL if solution.no_split else EXIT_OK


def cmd_synth(args):
    p = _parse_partition(args.partition)
    snr = _parse_snr(args.snr)
    inst = generate_model(p, args.m, snr, args.seed)
    doc = matrix_set_document(inst.a, v_inv=inst.v_inv(), p_true=p)
    _write_json(doc, args.out)
    return EXIT_OK


def _bench_trial(p, m, snr, base_seed, trial, methods, timing):
    inst = generate_model(p, m, snr, base_seed + trial)
    a = inst.a
    rows = []
    for method in methods:
        eps = _snr_epsilon(snr, a.n, a.total_sq_norm()) if method == "consv" else 0.0
        cfg = SolverConfig(epsilon=eps, seed=(base_seed + trial, 1))
        start = time.perf_counter()
        solution, _ = _solve_with(method, a, cfg)
        elapsed_ms = (time.perf_counter() - start) * 1e3 if timing else 0.0
        correct = is_refinement(solution.partition, p)
        pi = performance_index(inst.v_inv(), solution.w, p, solution.partition)
        rows.append({
            "snr": snr,
            "trial": trial,
            "method": method,
            "card": solution.partition.card,
            "correct": int(correct),
            "pi": pi if pi is not None else float("nan"),
            "cost": solution.cost,
            "runtime_ms": elapsed_ms,
        })
    return rows


def _fmt_float(x):
    if isinstance(x, float):
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(float(x))  # builtin repr: shortest lossless decimal
    return str(x)


def cmd_bench(args):
    if args.case == "1":
        p, m = Partition((3, 3, 3)), 20
    elif args.case == "2":
        p, m = Partition((1, 2, 3, 4)), 20
    else:
        if args.partition is None:
            raise InputError("--case custom requires --partition")
        p, m = _parse_partition(args.partition), args.m
    snrs = [_parse_snr(tok) for tok in args.snrs.split(",")]
    methods = [tok.strip() for tok in args.methods.split(",")]
    for method in methods:
        if method not in _METHODS:
            raise InputError(f"unknown method {method!r}")

    tasks = [(si, snr, trial) for si, snr in enumerate(snrs) for trial in range(args.trials)]

    def run(task):
        _, snr, trial = task
        return _bench_trial(p, m, snr, args.seed, trial, methods, args.timing)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            per_task = list(pool.map(run, tasks))
    else:
        per_task = [run(task) for task in tasks]

    rows = [row for rows in per_task for row in rows]
    rows.sort(key=lambda r: (snrs.index(r["snr"]), r["trial"], r["method"]))
    lines = ["snr,trial,method,card,correct,pi,cost,runtime_ms"]
    for r in rows:
        lines.append(",".join([
            f"{r['snr']:g}",
            str(r["trial"]),
            r["method"],
            str(r["card"]),
            str(r["correct"]),
            _fmt_float(r["pi"]),
            _fmt_float(r["cost"]),
            _fmt_float(r["runtime_ms"]),
        ]))
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def _report_doc(report):
    components = {}
    for key, val in report.components.items():
        if isinstance(val, complex):
            components[key] = [val.real, val.imag]
        elif isinstance(val, float) and np.isinf(val):
            components[key] = "inf"
        else:
            components[key] = val
    return {
        "lhs": report.lhs,
        "rhs": "inf" if np.isinf(report.rhs) else report.rhs,
        "satisfied": report.satisfied,
        "applicable": report.applicable,
        "lower_bound": report.lower_bound,
        "components": components,
    }


def _load_result(path, n):
    doc = _load_json(path)
    try:
        partition = Partition(tuple(int(s) for s in doc["partition"]))
        w = _matrix_from_flat(doc["w"], n, "result w")
        cost = float(doc["cost"])
        method = doc["method"]
        params = doc.get("parameters", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed result document") from exc
    if partition.n != n:
        raise InputError(f"{path}: result partition does not sum to n")
    solution = Solution(partition=partition, w=w, cost=cost,
                        no_split=bool(doc.get("no_split", False)))
    return solution, method, params


def cmd_check(args):
    a, v_inv, p_true = load_matrix_set_file(args.input)
    doc = {}
    all_ok = True

    solution = method = params = None
    if args.result is not None:
        solution, method, params = _load_result(args.result, a.n)
        recomputed = cost_ls(a, solution.partition, solution.w)
        scale = max(abs(solution.cost), abs(recomputed), 1e-300)
        match = abs(recomputed - solution.cost) <= 1e-12 * scale or (
            solution.cost == 0.0 and recomputed <= 1e-12 * a.total_sq_norm()
        )
        doc["cost"] = {
            "stored": solution.cost,
            "recomputed": recomputed,
            "match": bool(match),
        }
        all_ok = all_ok and match

    if args.equivalence:
        if solution is not None:
            p_eq, w_eq = solution.partition, solution.w
        elif p_true is not None and v_inv is not None:
            p_eq, w_eq = p_true, v_inv
        else:
            raise InputError("--equivalence needs --result or v_inv/p_true in the input")
        all_equivalent, singular_pairs, spectra_ok = equivalence_check(a, p_eq, w_eq)
        doc["equivalence"] = {
            "all_equivalent": all_equivalent,
            "singular_pairs": [list(pair) for pair in singular_pairs],
            "per_block_spectra_ok": spectra_ok,
        }

    if args.bounds:
        bounds_doc = {}
        trace = None
        bound_solution = None
        if method in ("greedy", "exact"):
            # deterministic re-run recovers the combined direction
            cfg = SolverConfig(
                gamma=params.get("gamma", 1.2),
                mu=params.get("mu"),
                epsilon=params.get("epsilon", 0.0) or 0.0,
                seed=params.get("seed", 0),
            )
            bound_solution, trace = _solve_with(method, a, cfg)
        if trace is not None and trace.z is not None:
            offblock = verify_offblock_bound(a, trace.z, trace.delta, bound_solution)
            imag = verify_imag_bound(a, trace.z, trace.delta)
            bounds_doc["offblock"] = _report_doc(offblock)
            bounds_doc["imag"] = [_report_doc(r) for r in imag]
            all_ok = all_ok and offblock.satisfied and all(r.satisfied for r in imag)
        try:
            split_partition, split_w, split_cost, split_trace = one_step_split_with_trace(a)
            gap = gap_lower_bound(split_trace.z)
            two_block = Solution(partition=split_partition, w=split_w, cost=split_cost)
            split_off = verify_offblock_bound(a, split_trace.z, split_trace.delta, two_block)
            split_imag = verify_imag_bound(a, split_trace.z, split_trace.delta)
            bounds_doc["gap"] = _report_doc(gap)
            bounds_doc["split_offblock"] = _report_doc(split_off)
            bounds_doc["split_imag"] = [_report_doc(r) for r in split_imag]
            all_ok = all_ok and gap.satisfied and split_off.satisfied
            all_ok = all_ok and all(r.satisfied for r in split_imag)
        except UnsplittableError:
            bounds_doc["gap"] = None
        doc["bounds"] = bounds_doc

    doc["all_checks_passed"] = bool(all_ok)
    _write_json(doc, args.out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gjbd",
        description="Joint block diagonalization of real matrix sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a matrix-set file")
    p_solve.add_argument("input", help="matrix-set JSON file")
    p_solve.add_argument("--method", choices=_METHODS, default="greedy")
    p_solve.add_argument("--gamma", type=float, default=1.2)
    p_solve.add_argument("--mu", type=float, default=None,
                         help="relative gap threshold; default 1/(8(n-1))")
    p_solve.add_argument("--epsilon", type=float, default=0.0,
                         help="cost tolerance for --method consv")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", default=None, help="result JSON path (default stdout)")
    p_solve.set_defaults(func=cmd_solve)

    p_synth = sub.add_parser("synth", help="generate a synthetic matrix set")
    p_synth.add_argument("--partition", required=True, help="comma-separated block sizes")
    p_synth.add_argument("--m", type=int, default=20)
    p_synth.add_argument("--snr", default="inf", help="decibels, or 'inf' for exact")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_synth.set_defaults(func=cmd_synth)

    p_bench = sub.add_parser("bench", help="seeded benchmark sweep, CSV output")
    p_bench.add_argument("--case", choices=("1", "2", "custom"), default="1")
    p_bench.add_argument("--partition", default=None, help="block sizes for --case custom")
    p_bench.add_argument("--m", type=int, default=20)
    p_bench.add_argument("--snrs", default="20,40,60,80")
    p_bench.add_argument("--trials", type=int, default=50)
    p_bench.add_argument("--methods", default="greedy,consv")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--jobs", type=int, default=1, help="concurrent trials")
    p_bench.add_argument("--timing", action="store_true",
                         help="measure wall time per solve; off by default so "
                              "reruns with one seed are byte-identical")
    p_bench.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_bench.set_defaults(func=cmd_bench)

    p_check = sub.add_parser("check", help="diagnostics on a set and optional result")
    p_check.add_argument("input", help="matrix-set JSON file")
    p_check.add_argument("--result", default=None, help="result JSON from solve")
    p_check.add_argument("--bounds", action="store_true")
    p_check.add_argument("--equivalence", action="store_true")
    p_check.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    logging.basicConfig(level=os.environ.get("GJBD_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, NumericalError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
