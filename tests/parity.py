"""Parity harness: answers on a fixed list of sets, and the changes between
two lists of answers.

    PYTHONPATH=src python tests/parity.py solve answers.json
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

``compare`` counts the answers whose ordered partition changed and those
whose block multiset changed, lists the latter and counts them by method
and SNR, and gives per method the number of answers with the same
partition whose ``W`` is byte-identical, the number whose performance index
is bit-identical (two nulls count as equal), the number whose cost is
bit-identical and the largest change of the performance index among them.
It reads only the two files, and like ``cmp`` it exits 1 when any ordered
partition, error, ``W`` hash or cost differs, else 0.
The file name keeps pytest from collecting it.
"""

import hashlib
import json
import os
import sys
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


def compare(before_path, after_path):
    """Print the changes between two answer files; the exit status, 1 when
    any ordered partition, error, ``W`` hash or cost differs, else 0."""
    with open(before_path) as f:
        before = {key(r): r for r in json.load(f)["answers"]}
    with open(after_path) as f:
        after = {key(r): r for r in json.load(f)["answers"]}
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
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        raise SystemExit(__doc__)
