"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass line when
its assertions hold (run with ``pytest -s`` or ``-rA`` to see them).

Statistical thresholds in criterion 6 are regression baselines calibrated
by pilot runs of this implementation (seeds 0..49, 2026-08):

    conservative solver, 50 trials per SNR, m = 20
    case 1 (n=9, blocks 3,3,3):   median PI  7.2e-2, 6.3e-3, 6.3e-4, 6.3e-5
                                  correct rate 0.00, 0.54, 0.92, 0.98
    case 2 (n=10, blocks 1,2,3,4): median PI 1.1e-1, 8.6e-3, 8.7e-4, 8.7e-5
                                  correct rate 0.00, 0.42, 0.84, 0.96

An answer is correct when its block sizes equal the true ones up to order
(``partition_equivalent``); an answer whose blocks do not group into the true
ones scores the worst PI, pi / 2.
"""

import numpy as np

from gjbd.analysis import (
    bdiag,
    cost_ls,
    equivalence_check,
    gap_lower_bound,
    normalize,
    performance_index,
    verify_imag_bound,
    verify_offblock_bound,
)
from gjbd.cli import main as cli_main
from gjbd.datagen import generate_model
from gjbd.matkernels import InseparableClustersError, real_schur_ordered
from gjbd.nullspace import MatrixSet, exact_nullspace
from gjbd.partition import Partition, partition_equivalent
from gjbd.solvers import (
    SolverConfig,
    conservative_solve,
    exact_solve,
    greedy_solve_with_trace,
    one_step_split_with_trace,
)
from oracles import eig_decomp_for_partition, nonunique_example, perfect_shuffle

CASES = {
    1: Partition((3, 3, 3)),
    2: Partition((1, 2, 3, 4)),
}
SNRS = (20.0, 40.0, 60.0, 80.0)


def snr_epsilon(snr, n):
    return 3.0 * n * n * 10.0 ** (-snr / 20.0)


def random_partition(rng, n):
    sizes = []
    left = n
    while left > 0:
        s = int(rng.integers(1, left + 1))
        sizes.append(s)
        left -= s
    return Partition(tuple(sizes))


def test_criterion_1_exact_recovery():
    trials = 50
    for case, p in CASES.items():
        for trial in range(trials):
            inst = generate_model(p, m=20, snr=np.inf, seed=trial)
            scale = inst.a.total_sq_norm()
            epsilon = 1e-8 * np.sqrt(scale)
            solutions = {
                "exact": exact_solve(inst.a, seed=trial),
                "consv": conservative_solve(inst.a, SolverConfig(epsilon=epsilon)),
            }
            for method, sol in solutions.items():
                assert partition_equivalent(sol.partition, p), (case, trial, method, sol.partition)
                assert sol.cost <= 1e-16 * scale, (case, trial, method, sol.cost)
                pi = performance_index(inst.v_inv(), sol.w, p, sol.partition)
                assert pi is not None and pi <= 1e-8, (case, trial, method, pi)
    print("criterion 1: PASS - exact recovery 50/50 per case for both solvers")


def test_criterion_2_null_dimension_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        p = random_partition(rng, n)
        inst = generate_model(p, m=3, snr=np.inf, seed=10_000 + trial)
        whole = exact_nullspace(inst.a).dim
        blockwise = 0
        for sl in p.slices():
            block_set = MatrixSet(np.array([di[sl, sl] for di in inst.d]))
            blockwise += exact_nullspace(block_set).dim
        assert whole == p.card == blockwise, (trial, p.sizes, whole, blockwise)
    print("criterion 2: PASS - null dimension equals block count and blockwise sum, 100/100")


def test_criterion_3_bound_suites():
    runs = 0
    for case, p in CASES.items():
        n = p.n
        for snr in SNRS:
            for trial in range(13):
                inst = generate_model(p, m=20, snr=snr, seed=20_000 + trial)
                # greedy run: off-block and imaginary-part bounds
                sol, trace = greedy_solve_with_trace(
                    inst.a, SolverConfig(seed=20_000 + trial)
                )
                assert trace.z is not None
                rep = verify_offblock_bound(inst.a, trace.z, trace.delta, sol)
                assert rep.satisfied, (case, snr, trial, "offblock", rep)
                for er in verify_imag_bound(inst.a, trace.z, trace.delta):
                    assert er.satisfied, (case, snr, trial, "imag", er)
                runs += 1
                # two-block split run: the same bounds plus the gap bound
                two, strace = one_step_split_with_trace(inst.a)
                gap = gap_lower_bound(strace.z)
                assert gap.satisfied, (case, snr, trial, "gap", gap)
                rep2 = verify_offblock_bound(inst.a, strace.z, strace.delta, two)
                assert rep2.satisfied, (case, snr, trial, "split offblock", rep2)
                for er in verify_imag_bound(inst.a, strace.z, strace.delta):
                    assert er.satisfied, (case, snr, trial, "split imag", er)
                runs += 1
    assert runs >= 200
    print(f"criterion 3: PASS - all bound reports satisfied across {runs} runs")


def test_criterion_4_nonuniqueness_fixture():
    rng = np.random.default_rng(4)
    p = Partition((2, 2))
    for m in (1, 3):
        for rep in range(5):
            coeffs = rng.uniform(0.3, 2.0, size=(2, m)) * rng.choice([-1.0, 1.0], size=(2, m))
            a, w4 = nonunique_example(coeffs[0], coeffs[1])
            scale = a.total_sq_norm()
            assert cost_ls(a, p, np.eye(4)) <= 1e-14 * scale
            assert cost_ls(a, p, w4) <= 1e-14 * scale
            all_equivalent, singular_pairs, _ = equivalence_check(a, p, np.eye(4))
            assert not all_equivalent
            assert (0, 1) in singular_pairs
    print("criterion 4: PASS - fixture costs exact for both solutions, coupling Gram singular")


def test_criterion_5_conservative_contract_in_bench(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli_main([
        "bench", "--partition", "3,3,3", "--snrs", "20,40,60,80", "--trials", "5",
        "--methods", "consv", "--seed", "123", "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 20
    violations = 0
    for row in rows:
        fields = row.split(",")
        snr = float(fields[0])
        cost = float(fields[6])
        if cost > snr_epsilon(snr, 9) ** 2:
            violations += 1
    assert violations == 0
    print("criterion 5: PASS - conservative cost within epsilon**2 on every bench row")


def test_criterion_6_trend_reproduction():
    trials = 50
    for case, p in CASES.items():
        n = p.n
        medians = []
        rate_at_80 = None
        for snr in SNRS:
            cfg = SolverConfig(epsilon=snr_epsilon(snr, n))
            pis = []
            correct = 0
            for trial in range(trials):
                inst = generate_model(p, m=20, snr=snr, seed=trial)
                sol = conservative_solve(inst.a, cfg)
                correct += partition_equivalent(sol.partition, p)
                pi = performance_index(inst.v_inv(), sol.w, p, sol.partition)
                # PI where the answer refines the truth, worst case otherwise
                pis.append(pi if pi is not None else np.pi / 2)
            medians.append(float(np.median(pis)))
            if snr == 80.0:
                rate_at_80 = correct / trials
        assert all(b <= a * (1 + 1e-12) for a, b in zip(medians, medians[1:])), (case, medians)
        assert rate_at_80 >= 0.90, (case, rate_at_80)
        print(f"criterion 6: case {case} medians {['%.2e' % v for v in medians]} "
              f"rate@80dB {rate_at_80:.2f}")
    print("criterion 6: PASS - median PI non-increasing in SNR; rate at 80 dB >= 90%")


def test_criterion_7_kernel_properties():
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    shuffles = 0
    for n in range(2, 9):
        perm = perfect_shuffle(n)
        for _ in range(15):
            z = rng.standard_normal((n, n))
            assert np.array_equal(z.flatten(order="F")[perm], z.T.flatten(order="F"))
            shuffles += 1
    checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 21))
        z = rng.standard_normal((n, n))
        sf = real_schur_ordered(z)
        znorm = np.linalg.norm(z)
        assert np.linalg.norm(sf.q @ sf.t @ sf.q.T - z) <= 1e-10 * znorm
        assert np.all(np.diff(sf.eig_real_parts) >= -1e-12 * znorm)
        allowed = (np.flatnonzero(sf.cuts) + 1).tolist()
        if allowed:
            k = int(rng.integers(1, min(3, len(allowed)) + 1))
            marks = sorted(rng.choice(allowed, size=k, replace=False).tolist())
            p = Partition(np.diff([0, *marks, n]))
            try:
                w, _ = eig_decomp_for_partition(z, p)
            except InseparableClustersError:
                continue
            d = np.linalg.solve(w, z @ w)
            off = d - bdiag(d, p)
            kappa = np.linalg.cond(w)
            assert np.linalg.norm(off) <= 1e3 * eps * kappa * znorm
            assert np.linalg.norm(bdiag(w.T @ w, p) - np.eye(n)) <= 1e-12 * n
            wn = normalize(rng.standard_normal((n, n)), p)
            assert np.linalg.norm(bdiag(wn.T @ wn, p) - np.eye(n)) <= 1e-12 * n
            checked += 1
    assert checked >= 60
    print(f"criterion 7: PASS - kernel invariants hold ({shuffles} shuffles, "
          f"100 Schur forms, {checked} decouplings)")


def test_criterion_8_bench_determinism(tmp_path):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    args = ["bench", "--partition", "1,2,3,4", "--snrs", "20,60", "--trials", "3",
            "--methods", "greedy,consv", "--seed", "99"]
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    print("criterion 8: PASS - repeated bench runs are byte-identical")
