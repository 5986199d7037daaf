"""Command-line front end: solve matrix-set files, synthesize model
instances, run benchmark sweeps, and run diagnostic checks.

Exit codes: 0 success, 2 unreadable or malformed input or an output path
that cannot be written, 3 the solver only found the trivial solution (still
written), 4 a requested check failed, 5 a numerical failure (for example
inseparable eigenvalue clusters).
"""

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from .analysis import (
    cost_ls,
    equivalence_check,
    gap_lower_bound,
    performance_index,
    verify_imag_bound,
    verify_offblock_bound,
)
from .datagen import generate_model, noise_level
from .matkernels import NumericalError
from .nullspace import MatrixSet
from .partition import Partition, partition_equivalent
from .solvers import (
    Solution,
    SolverConfig,
    UnsplittableError,
    conservative_solve,
    exact_solve_with_trace,
    greedy_solve_with_trace,
    one_step_split_with_trace,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TRIVIAL = 3
EXIT_CHECK_FAILED = 4
EXIT_NUMERICAL = 5

_METHODS = ("greedy", "consv", "exact")


class InputError(Exception):
    """Unreadable, malformed or inconsistent input, or an unwritable output path."""


def _snr_epsilon(snr, n, scale_sq):
    # cost tolerance for the conservative solver; the dB rule degenerates at
    # infinite SNR, where a tiny relative tolerance admits exact recovery
    if np.isinf(snr):
        return 1e-8 * np.sqrt(scale_sq)
    return 3.0 * n * n * noise_level(snr)


def _parse_partition(text):
    try:
        sizes = tuple(int(tok) for tok in text.split(","))
        return Partition(sizes)
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid partition {text!r}: {exc}") from exc


def _parse_snr(text):
    try:
        snr = float(text)  # reads "inf" and "infinity" in any case
    except ValueError as exc:
        raise InputError(f"invalid SNR {text!r}") from exc
    if np.isnan(snr) or snr == -np.inf:
        raise InputError(f"invalid SNR {text!r}: must be finite or inf")
    return snr


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    # a JSON number; an int past the float range would overflow the solvers' arithmetic
    return isinstance(value, float) or _is_int(value) and abs(value) <= sys.float_info.max


def _partition_from_json(sizes, n, what):
    # Partition accepts JSON integers only, rejecting 2.9, 2.0 and true
    if not (isinstance(sizes, list) and sizes):
        raise InputError(f"{what} must be a nonempty list of positive integers")
    try:
        p = Partition(tuple(sizes))
    except ValueError as exc:
        raise InputError(f"{what}: {exc}") from exc
    if p.n != n:
        raise InputError(f"{what} does not sum to n")
    return p


def _matrix_from_flat(flat, n, what):
    # JSON numbers only: numpy would read "1.5" as 1.5 and true as 1.0
    if not isinstance(flat, list) or not all(isinstance(x, float) or _is_int(x) for x in flat):
        raise InputError(f"{what} holds non-numeric values")
    try:
        arr = np.asarray(flat, dtype=float)
    except OverflowError as exc:
        raise InputError(f"{what} holds values past the float range") from exc
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
        n, m, matrices = doc["n"], doc["m"], doc["matrices"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: missing n/m/matrices") from exc
    if not (_is_int(n) and _is_int(m)) or n < 1 or m < 1:
        raise InputError(f"{path}: n and m must be positive integers")
    if not isinstance(matrices, list) or len(matrices) != m:
        raise InputError(f"{path}: expected {m} matrices")
    mats = np.array([_matrix_from_flat(row, n, f"matrix {i}") for i, row in enumerate(matrices)])
    v_inv = None
    if doc.get("v_inv") is not None:
        v_inv = _matrix_from_flat(doc["v_inv"], n, "v_inv")
    p_true = None
    if doc.get("p_true") is not None:
        p_true = _partition_from_json(doc["p_true"], n, f"{path}: p_true")
    return MatrixSet(mats), v_inv, p_true


def _write_text(text, out_path):
    # newline="" keeps the bytes the same on platforms that translate "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc}") from exc


def _write_json(doc, out_path):
    _write_text(json.dumps(doc, indent=2) + "\n", out_path)


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


def _score(v_inv, p_true, solution):
    # optional scoring block for inputs that carry the generator's truth: an
    # answer is correct when it has the true block sizes
    if v_inv is None or p_true is None:
        return {}
    correct = partition_equivalent(solution.partition, p_true)
    pi = performance_index(v_inv, solution.w, p_true, solution.partition)
    return {"correct": correct, "pi": pi if pi is not None else float("nan")}


def _solve_with(method, a, cfg):
    # method is one of _METHODS, checked by every caller
    if method == "greedy":
        return greedy_solve_with_trace(a, cfg)
    if method == "exact":
        return exact_solve_with_trace(a, cfg.seed)
    return conservative_solve(a, cfg), None


def cmd_solve(args):
    a, v_inv, p_true = load_matrix_set_file(args.input)
    cfg = SolverConfig(gamma=args.gamma, mu=args.mu, epsilon=args.epsilon, seed=args.seed)
    solution, _ = _solve_with(args.method, a, cfg)
    doc = {
        "method": args.method,
        "parameters": dataclasses.asdict(cfg),
        "partition": list(solution.partition.sizes),
        "w": solution.w.flatten().tolist(),
        "cost": solution.cost,
        "no_split": solution.no_split,
    }
    doc.update(_score(v_inv, p_true, solution))
    _write_json(doc, args.out)
    return EXIT_TRIVIAL if solution.no_split else EXIT_OK


def cmd_synth(args):
    p = _parse_partition(args.partition)
    snr = _parse_snr(args.snr)
    inst = generate_model(p, args.m, snr, args.seed)
    doc = matrix_set_document(inst.a, v_inv=inst.v_inv(), p_true=p)
    _write_json(doc, args.out)
    return EXIT_OK


def _fmt_float(x):
    return repr(float(x))  # builtin repr: shortest lossless decimal, nan, inf


def cmd_bench(args):
    p = _parse_partition(args.partition)
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    snrs = [_parse_snr(tok) for tok in args.snrs.split(",")]
    for i, snr in enumerate(snrs):
        if snr in snrs[:i]:
            raise InputError(f"SNR {snr:g} appears more than once in --snrs")
    methods = [tok.strip() for tok in args.methods.split(",")]
    for i, method in enumerate(methods):
        if method not in _METHODS:
            raise InputError(f"unknown method {method!r}")
        if method in methods[:i]:
            raise InputError(f"method {method} appears more than once in --methods")

    # rows in output order: the --snrs order, then the trial, then the method name
    lines = ["snr,trial,method,card,correct,pi,cost,runtime_ms"]
    for snr in snrs:
        for trial in range(args.trials):
            inst = generate_model(p, args.m, snr, args.seed + trial)
            a = inst.a
            # epsilon is read by consv only
            cfg = SolverConfig(epsilon=_snr_epsilon(snr, a.n, a.total_sq_norm()),
                               seed=(args.seed + trial, 1))
            for method in sorted(methods):
                start = time.perf_counter()
                solution, _ = _solve_with(method, a, cfg)
                elapsed_ms = (time.perf_counter() - start) * 1e3 if args.timing else 0.0
                score = _score(inst.v_inv(), p, solution)
                lines.append(",".join([
                    f"{snr:g}", str(trial), method, str(solution.partition.card),
                    str(int(score["correct"])), _fmt_float(score["pi"]),
                    _fmt_float(solution.cost), _fmt_float(elapsed_ms),
                ]))
    _write_text("\n".join(lines) + "\n", args.out)
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


def _bound_reports(bounds_doc, prefix, a, solution, trace):
    # adds the off-block and imaginary-part bound reports of one solve under
    # prefix + "offblock" and prefix + "imag"; returns whether all hold
    offblock = verify_offblock_bound(a, trace.z, trace.delta, solution)
    imag = verify_imag_bound(a, trace.z, trace.delta)
    bounds_doc[prefix + "offblock"] = _report_doc(offblock)
    bounds_doc[prefix + "imag"] = [_report_doc(r) for r in imag]
    return offblock.satisfied and all(r.satisfied for r in imag)


def _load_parameters(params, path):
    """The SolverConfig of a result's stored ``parameters``.

    A field that is missing or null takes SolverConfig's default; every other
    value is judged by SolverConfig alone, so a JSON bool or string, or a
    seed that is not an int or a list of ints, is rejected.
    """
    if not isinstance(params, dict):
        raise InputError(f"{path}: parameters must be an object")
    given = {f.name: params[f.name] for f in dataclasses.fields(SolverConfig)
             if params.get(f.name) is not None}
    try:
        return SolverConfig(**given)
    except ValueError as exc:
        raise InputError(f"{path}: parameters: {exc}") from exc


def _load_result(path, n):
    doc = _load_json(path)
    try:
        partition = _partition_from_json(doc["partition"], n, f"{path}: result partition")
        w = _matrix_from_flat(doc["w"], n, "result w")
        cost, method = doc["cost"], doc["method"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed result document") from exc
    if method not in _METHODS:
        raise InputError(f"{path}: result method must be one of {', '.join(_METHODS)}")
    if not _is_number(cost):
        raise InputError(f"{path}: result cost must be a number")
    cfg = _load_parameters(doc.get("parameters", {}), path)
    return Solution(partition=partition, w=w, cost=float(cost)), method, cfg


def cmd_check(args):
    a, v_inv, p_true = load_matrix_set_file(args.input)
    doc = {}
    all_ok = True

    solution = method = None
    cfg = SolverConfig()
    if args.result is not None:
        solution, method, cfg = _load_result(args.result, a.n)
        # judged on the set's unit, where the cost is finite; reported at
        # the set's scale
        b = a.unit
        recomputed = cost_ls(b, solution.partition, solution.w)
        match = math.isclose(a.rescale(solution.cost, -2), recomputed, rel_tol=1e-12) or (
            solution.cost == 0.0 and recomputed <= 1e-12 * b.total_sq_norm()
        )
        doc["cost"] = {
            "stored": solution.cost,
            "recomputed": float(a.rescale(recomputed, 2)),
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
        basis = None
        if method in ("greedy", "exact"):
            # deterministic re-run recovers the combined direction
            bound_solution, trace = _solve_with(method, a, cfg)
            basis = trace.basis
            if trace.z is not None:
                all_ok &= _bound_reports(bounds_doc, "", a, bound_solution, trace)
        try:
            # consv split with the result's gamma, the default without
            # --result; it reuses the re-solve's near-null space when gamma
            # cuts that spectrum at the same delta
            split, split_trace = one_step_split_with_trace(a, cfg.gamma, basis)
        except UnsplittableError:
            bounds_doc["gap"] = None
        else:
            gap = gap_lower_bound(split_trace.z)
            bounds_doc["gap"] = _report_doc(gap)
            all_ok &= gap.satisfied & _bound_reports(bounds_doc, "split_", a, split, split_trace)
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
    p_solve.add_argument("--gamma", type=float, default=SolverConfig.gamma,
                         help="near-null threshold multiplier, > 1; read by greedy and consv")
    p_solve.add_argument("--mu", type=float, default=SolverConfig.mu,
                         help="relative gap threshold, read by greedy only; default "
                              "1/(8(n-1)), or 1e-6 when the near-null space is cut at "
                              "numerical rank (an exact set)")
    p_solve.add_argument("--epsilon", type=float, default=SolverConfig.epsilon,
                         help="cost tolerance, read by consv only")
    p_solve.add_argument("--seed", type=int, default=SolverConfig.seed,
                         help="seed of the random combination, read by greedy and exact")
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
    p_bench.add_argument("--partition", default="3,3,3", help="comma-separated block sizes")
    p_bench.add_argument("--m", type=int, default=20)
    p_bench.add_argument("--snrs", default="20,40,60,80")
    p_bench.add_argument("--trials", type=int, default=50)
    p_bench.add_argument("--methods", default="greedy,consv")
    p_bench.add_argument("--seed", type=int, default=0)
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


# built once: each parse fills a fresh namespace, so calls share no state
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
