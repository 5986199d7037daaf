"""Parity harness: answers on a fixed list of sets, the command line's
outputs on a fixed list of runs, and the changes between two such lists.

    PYTHONPATH=src python tests/parity.py solve answers.json
    PYTHONPATH=src python tests/parity.py cli outputs.json
    PYTHONPATH=src python tests/parity.py compare before.json after.json

``solve`` runs the 333 parity sets with the ``gjbd`` found on the path,
BLAS pinned to one thread:

- greedy and consv on (3,3,3) and (1,2,3,4) with seeds 0-11, and on
  (4,4,4,4) and (5,5,5,5) with seeds 0-5, at 20, 40, 60 and 80 dB, m = 20,
  with consv's tolerance ``3 n**2 10**(-snr/20)``;
- exact mode on exact sets: (2,)*8 with m = 4, (3,3,3) with m = 20 and
  (1,2,3,4) with m = 6, seeds 0-14.

The instance seed is also the solver's.  For each answer it writes the
ordered partition, the performance index (null when the blocks do not group
into the true ones), the cost and a SHA-256 hash of ``W``, or the error a
solve raised.

``cli`` runs ``gjbd.cli.main`` in a temporary directory, BLAS pinned alike,
on the sets of ``CLI_SETS`` with seeds 0 and 1 and on the paper's
non-unique 4x4 fixture: ``synth`` (the fixture is written by
``matrix_set_document``), ``check --bounds --equivalence`` on the truth,
``solve`` with greedy, consv and exact, ``check --result --bounds
--equivalence`` on each result, then one ``bench``.  For each run it writes
the arguments, the exit code and SHA-256 hashes of the output file (null
when none was written) and of the standard error.

``compare`` counts the answers whose ordered partition changed and those
whose block multiset changed, lists the latter and counts them by method
and SNR, and gives per method the number of answers with the same
partition whose ``W`` is byte-identical, the number whose performance index
is bit-identical (two nulls count as equal), the number whose cost is
bit-identical and the largest change of the performance index among them.
It reads only the two files, and like ``cmp`` it exits 1 when any ordered
partition, error, ``W`` hash or cost differs, else 0.  Given two ``cli``
files it lists the runs whose exit code or hashes differ, and exits 1 when
any does.
The file name keeps pytest from collecting it.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from collections import Counter

# BLAS reads its thread count when it is loaded, so the pin must precede
# the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

SNRS = (20.0, 40.0, 60.0, 80.0)
NOISY = (((3, 3, 3), 12), ((1, 2, 3, 4), 12), ((4, 4, 4, 4), 6), ((5, 5, 5, 5), 6))
EXACT = (((2,) * 8, 4), ((3, 3, 3), 20), ((1, 2, 3, 4), 6))
EXACT_SEEDS = 15
# (block sizes, m, SNR) of the command-line sweep, each with seeds 0 and 1
CLI_SETS = (((3, 3, 3), 20, 20.0), ((3, 3, 3), 20, 40.0), ((3, 3, 3), 20, np.inf),
            ((1, 2, 3, 4), 20, 40.0), ((2,) * 8, 4, np.inf), ((2, 3), 8, 40.0),
            ((5, 5, 5, 5), 20, 40.0))


def parity_cases():
    """``(method, sizes, m, snr, seed)`` for each of the 333 parity sets."""
    cases = []
    for sizes, seeds in NOISY:
        for snr in SNRS:
            for seed in range(seeds):
                cases += [(method, sizes, 20, snr, seed) for method in ("greedy", "consv")]
    for sizes, m in EXACT:
        cases += [("exact", sizes, m, np.inf, seed) for seed in range(EXACT_SEEDS)]
    return cases


def answer(method, sizes, m, snr, seed):
    # imported here so that compare, which reads only JSON, runs without it
    from gjbd import (
        NumericalError,
        Partition,
        SolverConfig,
        conservative_solve,
        exact_solve,
        generate_model,
        greedy_solve,
        performance_index,
    )

    p = Partition(sizes)
    inst = generate_model(p, m, snr, seed)
    record = {"method": method, "sizes": list(sizes), "m": m,
              "snr": None if snr == np.inf else snr, "seed": seed}
    try:
        if method == "exact":
            solution = exact_solve(inst.a, seed=seed)
        else:
            cfg = SolverConfig(epsilon=3 * p.n ** 2 * 10 ** (-snr / 20), seed=seed)
            solver = greedy_solve if method == "greedy" else conservative_solve
            solution = solver(inst.a, cfg)
    except NumericalError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    w = np.ascontiguousarray(solution.w)
    # None when the blocks do not group into the true ones
    pi = performance_index(inst.v_inv(), w, p, solution.partition)
    record.update(
        partition=list(solution.partition.sizes),
        pi=None if pi is None else float(pi),
        cost=float(solution.cost),
        w_sha256=hashlib.sha256(w.tobytes()).hexdigest(),
    )
    return record


def key(record):
    return (record["method"], tuple(record["sizes"]), record["m"], record["snr"], record["seed"])


def snr_label(record):
    return "exact" if record["snr"] is None else f"{record['snr']:g} dB"


def label(record):
    sizes = ",".join(map(str, record["sizes"]))
    return f"{record['method']} ({sizes}) m={record['m']} {snr_label(record)} seed {record['seed']}"


def solve(path):
    records = [answer(*case) for case in parity_cases()]
    with open(path, "w") as out:
        json.dump({"answers": records}, out, indent=1)
    errors = sum("error" in r for r in records)
    print(f"{len(records)} answers, {errors} errors, written to {path}")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def cli_run(argv):
    """One ``gjbd.cli.main`` call in the current directory: its record."""
    from gjbd.cli import main

    out = argv[argv.index("--out") + 1]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    written = None
    if os.path.exists(out):
        with open(out, "rb") as f:
            written = sha256(f.read())
    return {"argv": argv, "exit": code, "out_sha256": written,
            "stderr_sha256": sha256(err.getvalue().encode())}


def cli_set_runs(name, synth_argv, epsilon, seed):
    """The records of one set: its synth run (none for a written set), the
    truth check, and a solve and check per method."""
    records = [cli_run(synth_argv)] if synth_argv else []
    records.append(cli_run(["check", name, "--bounds", "--equivalence",
                            "--out", f"truth-{name}"]))
    for method in ("greedy", "consv", "exact"):
        result = f"{method}-{name}"
        records.append(cli_run(["solve", name, "--method", method, "--seed", str(seed),
                                "--epsilon", repr(epsilon), "--out", result]))
        records.append(cli_run(["check", name, "--result", result, "--bounds",
                                "--equivalence", "--out", f"check-{result}"]))
    return records


def cli_outputs():
    """The records of the command-line sweep, run in the current directory."""
    from gjbd.cli import matrix_set_document
    from gjbd.partition import Partition
    from oracles import nonunique_example

    records = []
    for sizes, m, snr in CLI_SETS:
        n = sum(sizes)
        # consv's tolerance as in the parity sets; 1e-6 on an exact set
        epsilon = 1e-6 if snr == np.inf else 3 * n ** 2 * 10 ** (-snr / 20)
        for seed in (0, 1):
            name = f"set-{'-'.join(map(str, sizes))}-m{m}-{snr:g}-s{seed}.json"
            synth_argv = ["synth", "--partition", ",".join(map(str, sizes)), "--m", str(m),
                          "--snr", f"{snr:g}", "--seed", str(seed), "--out", name]
            records += cli_set_runs(name, synth_argv, epsilon, seed)
    a, _ = nonunique_example([1.0, -0.4, 2.2], [0.8, 1.5, -1.0])
    with open("set-nonunique.json", "w") as out:
        json.dump(matrix_set_document(a, np.eye(4), Partition((2, 2))), out)
    records += cli_set_runs("set-nonunique.json", None, 1e-6, 0)
    records.append(cli_run(["bench", "--partition", "3,3,3", "--snrs", "20,40,inf",
                            "--trials", "2", "--methods", "greedy,consv,exact",
                            "--out", "bench.csv"]))
    return records


def cli(path):
    path = os.path.abspath(path)
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            records = cli_outputs()
        finally:
            os.chdir(start)
    with open(path, "w") as out:
        json.dump({"outputs": records}, out, indent=1)
    print(f"{len(records)} command-line runs written to {path}")


def compare_outputs(before, after):
    """Print the runs of two ``cli`` files that differ; 1 when any does."""
    if [r["argv"] for r in before] != [r["argv"] for r in after]:
        raise SystemExit("error: the two files hold different command-line runs")
    changed = [old["argv"] for old, new in zip(before, after) if old != new]
    print(f"{len(before)} command-line runs: {len(changed)} differ")
    for argv in changed:
        print("differs:", " ".join(argv))
    return int(bool(changed))


def compare(before_path, after_path):
    """Print the changes between two answer files, or two ``cli`` files;
    the exit status, 1 when any ordered partition, error, ``W`` hash or
    cost differs, or any run's exit code or hashes, else 0."""
    with open(before_path) as f:
        before = json.load(f)
    with open(after_path) as f:
        after = json.load(f)
    if "outputs" in before or "outputs" in after:
        return compare_outputs(before.get("outputs", []), after.get("outputs", []))
    before = {key(r): r for r in before["answers"]}
    after = {key(r): r for r in after["answers"]}
    if before.keys() != after.keys():
        raise SystemExit("error: the two files hold different parity sets")
    ordered, multiset, pi_moves = [], [], {}
    # per method, per SNR: changed block multisets
    multiset_by_snr = {}
    # per method: identical W, identical PI, identical cost, same partition
    same_w, same_pi, same_cost, kept = Counter(), Counter(), Counter(), Counter()
    for k, old in before.items():
        new = after[k]
        got = (old.get("partition", old.get("error")), new.get("partition", new.get("error")))
        if got[0] != got[1]:
            ordered.append(k)
            sort = [sorted(g) if isinstance(g, list) else g for g in got]
            if sort[0] != sort[1]:
                multiset.append(f"{label(old)}: {got[0]} -> {got[1]}")
                by_snr = multiset_by_snr.setdefault(k[0], Counter())
                by_snr[snr_label(old)] += 1
        elif "error" not in old:
            if old["pi"] is not None:
                moves = pi_moves.setdefault(k[0], [])
                moves.append(abs(new["pi"] - old["pi"]))
            kept[k[0]] += 1
            same_w[k[0]] += old["w_sha256"] == new["w_sha256"]
            # JSON keeps a float's shortest repr, so == compares its bits
            same_pi[k[0]] += old["pi"] == new["pi"]
            same_cost[k[0]] += old["cost"] == new["cost"]
    print(f"{len(before)} answers: {len(ordered)} ordered partitions changed, "
          f"{len(multiset)} block multisets changed, {sum(same_w.values())} W byte-identical")
    by_method = Counter(k[0] for k in ordered)
    print("ordered changes by method:", json.dumps(by_method, sort_keys=True))
    print("multiset changes by method and SNR:", json.dumps(multiset_by_snr, sort_keys=True))
    for line in multiset:
        print("multiset change:", line)
    for method in sorted(kept):
        print(f"{method}: {same_w[method]} of {kept[method]} W byte-identical, "
              f"{same_pi[method]} of {kept[method]} PI bit-identical, "
              f"{same_cost[method]} of {kept[method]} cost bit-identical")
    for method, moves in sorted(pi_moves.items()):
        print(f"{method}: largest |PI change| with the same partition {max(moves):.3g}")
    return int(bool(ordered) or any(min(same_w[method], same_cost[method]) < kept[method]
                                    for method in kept))


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "solve":
        solve(sys.argv[2])
    elif len(sys.argv) == 3 and sys.argv[1] == "cli":
        cli(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        raise SystemExit(__doc__)
