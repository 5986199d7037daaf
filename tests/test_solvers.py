import numpy as np
import pytest

from gjbd.analysis import bdiag, cost_ls, performance_index, verify_offblock_bound
from gjbd.datagen import generate_model, noise_level
from gjbd.matkernels import InseparableClustersError, real_schur_ordered
from gjbd.nullspace import (
    MatrixSet,
    NullSpaceBasis,
    basis_excluding_identity,
    delta_nullspace,
    exact_nullspace,
)
from gjbd.partition import Partition, cluster_by_gap, partition_equivalent
from gjbd.solvers import (
    SolverConfig,
    UnsplittableError,
    _combination_solve,
    conservative_solve,
    exact_solve,
    greedy_solve,
    greedy_solve_with_trace,
    one_step_split,
    one_step_split_with_trace,
)
from oracles import eig_decomp_for_partition, nonunique_example
from test_nullspace import spans_identity
from test_partition import schur_with


def check_solution_invariants(a, solution, tol=1e-12):
    n = a.n
    w = solution.w
    assert solution.partition.n == n
    assert np.linalg.norm(bdiag(w.T @ w, solution.partition) - np.eye(n)) <= tol * n
    recomputed = cost_ls(a, solution.partition, w)
    scale = max(recomputed, solution.cost, 1e-30)
    # a library Solution whose cost passes the float range carries inf, and
    # the recomputed cost is inf alike
    assert recomputed == solution.cost or abs(recomputed - solution.cost) <= 1e-12 * scale


class TestEigDecompForPartition:
    def test_block_diagonal_input(self):
        z = np.diag([1.0, 1.0, 2.0])
        w, blocks = eig_decomp_for_partition(z, Partition((2, 1)))
        assert np.allclose(np.abs(w), np.eye(3))
        assert len(blocks) == 2
        got = np.linalg.solve(w, z @ w)
        assert np.allclose(got, np.diag([1.0, 1.0, 2.0]))

    def test_hand_example_columns(self):
        z = np.array([[1.0, 5.0], [0.0, 2.0]])
        w, blocks = eig_decomp_for_partition(z, Partition((1, 1)))
        # columns come from orthonormalizing [1, 0] and [5, 1]
        assert np.allclose(np.abs(w[:, 0]), [1.0, 0.0])
        want = np.array([5.0, 1.0]) / np.sqrt(26.0)
        assert np.allclose(np.abs(w[:, 1]), want)
        d = np.linalg.solve(w, z @ w)
        assert np.allclose(d, np.diag([1.0, 2.0]), atol=1e-12)
        assert np.allclose(sorted(float(b[0, 0]) for b in blocks), [1.0, 2.0])

    def test_coincident_spectra_error(self):
        z = np.array([[1.0, 3.0], [0.0, 1.0]])
        with pytest.raises(InseparableClustersError):
            eig_decomp_for_partition(z, Partition((1, 1)))

    def test_rejects_partition_of_other_order(self):
        with pytest.raises(ValueError):
            eig_decomp_for_partition(np.diag([1.0, 2.0, 3.0]), Partition((1, 1)))


class TestGreedySolve:
    @pytest.mark.parametrize("sizes", [(3, 3, 3), (1, 2, 3, 4)], ids=["case1", "case2"])
    def test_exact_recovery_with_known_mixing(self, sizes):
        # the set is exact, so its null space is cut at numerical rank and
        # greedy clusters with the exact mu: every seed's answer must be
        # exact and recover the true blocks
        p = Partition(sizes)
        inst = generate_model(p, m=20, snr=np.inf, seed=0)
        for seed in range(200):
            solution = greedy_solve(inst.a, SolverConfig(seed=seed))
            assert solution.cost <= 1e-16 * inst.a.total_sq_norm(), seed
            check_solution_invariants(inst.a, solution)
            # grouping the true blocks into the computed ones: each computed
            # block spans a union of true blocks
            unions = performance_index(solution.w, inst.v_inv(), solution.partition, p)
            assert unions is not None and unions <= 1e-8, seed
            assert partition_equivalent(solution.partition, p), seed
            pi = performance_index(inst.v_inv(), solution.w, p, solution.partition)
            assert pi is not None and pi <= 1e-8, seed

    @pytest.mark.parametrize("i", range(3))
    def test_exact_set_takes_exact_path(self, i):
        # on an exact set the near-null space falls back to the rank cutoff,
        # so greedy is exact mode's path: its answer is exact_solve's for the
        # same seed, byte for byte, and finds every true block
        p = Partition((2,) * 8)
        a = generate_model(p, 4, np.inf, [i, 7]).a
        assert delta_nullspace(a, 1.2).rank_cutoff
        for seed in range(100):
            got = greedy_solve(a, SolverConfig(seed=seed))
            want = exact_solve(a, seed)
            assert got.partition == want.partition, seed
            assert got.w.tobytes() == want.w.tobytes(), seed
            assert repr(got.cost) == repr(want.cost), seed
            assert got.partition.card == p.card, seed

    def test_noisy_set_is_not_rank_cutoff(self):
        a = generate_model(Partition((3, 3, 3)), 20, 40, 0).a
        assert not delta_nullspace(a, 1.2).rank_cutoff
        assert exact_nullspace(a).rank_cutoff

    def test_deterministic_given_seed(self):
        inst = generate_model(Partition((2, 3)), m=8, snr=40, seed=1)
        cfg = SolverConfig(seed=11)
        one = greedy_solve(inst.a, cfg)
        two = greedy_solve(inst.a, cfg)
        assert one.partition == two.partition
        assert np.array_equal(one.w, two.w)
        assert one.cost == two.cost

    def test_noisy_solution_invariants_and_bound(self):
        for seed in range(4):
            inst = generate_model(Partition((1, 2, 3, 4)), m=20, snr=40, seed=2 + seed)
            solution, trace = greedy_solve_with_trace(inst.a, SolverConfig(seed=seed))
            check_solution_invariants(inst.a, solution)
            if trace.z is not None and solution.partition.card > 1:
                rep = verify_offblock_bound(inst.a, trace.z, trace.delta, solution)
                assert rep.satisfied

    def test_order_one_trivial(self):
        a = MatrixSet(np.array([[[2.0]]]))
        solution = greedy_solve(a)
        assert solution.no_split
        assert solution.partition.sizes == (1,)
        assert solution.cost == 0.0

    @staticmethod
    def _hand_basis(members):
        # one member per entry: the unit matrix that misses I / sqrt(3) by
        # sin(theta) = entry towards x, or y for None; x and y are
        # orthonormal and trace-free
        rng = np.random.default_rng(3)
        ident = np.eye(3) / np.sqrt(3)
        q, _ = np.linalg.qr(np.column_stack([ident.ravel(), rng.standard_normal((9, 2))]))
        x, y = (q[:, j].reshape(3, 3) for j in (1, 2))
        basis = [y if sin is None else np.sqrt(1.0 - sin ** 2) * ident + sin * x
                 for sin in members]
        return NullSpaceBasis(delta=1.0, sigma=np.zeros(9), basis=basis, rank_cutoff=False)

    _HAND_BASES = {"empty": (), "identity": (0.0,), "miss-1e-6": (1e-6,),
                   "miss-1e-3": (1e-3,), "identity-and-more": (0.0, None)}

    @pytest.mark.parametrize("members, trivial", [
        ((), True), ((0.0,), True), ((1e-6,), True), ((1e-3,), True), ((0.0, None), False)],
        ids=["empty", "identity", "miss-1e-6", "miss-1e-3", "identity-and-more"])
    def test_trivial_rule_on_constructed_bases(self, members, trivial):
        # greedy's and exact's answer is trivial exactly when the basis has
        # fewer than two members: the identity is an exact member of every
        # near-null space, so a lone member that misses it, by 1e-6 or by
        # 1e-3, misses it by kernel error alone; two members always combine
        a = generate_model(Partition((1, 2)), 4, np.inf, 0).a
        basis = self._hand_basis(members)
        solution, trace = _combination_solve(a, basis, SolverConfig())
        assert trace.basis is basis
        assert (trace.z is None) is trivial
        if trivial:
            assert solution.no_split and solution.cost == 0.0
            assert np.array_equal(solution.w, np.eye(3))

    @pytest.mark.parametrize("members", _HAND_BASES.values(), ids=_HAND_BASES.keys())
    def test_trivial_rule_matches_split(self, members):
        # greedy and exact answer trivially exactly where the split finds no
        # trace-free direction
        a = generate_model(Partition((1, 2)), 4, np.inf, 0).a
        basis = self._hand_basis(members)
        _, trace = _combination_solve(a, basis, SolverConfig())
        assert (trace.z is None) is (len(basis_excluding_identity(basis)) == 0)


class TestOneStepSplit:
    def test_exact_two_block_set(self):
        inst = generate_model(Partition((2, 3)), m=10, snr=np.inf, seed=3)
        split = one_step_split(inst.a)
        assert sorted(split.partition.sizes) == [2, 3]
        assert split.cost <= 1e-16 * inst.a.total_sq_norm()

    def test_identity_pair_splits_cleanly(self):
        a = MatrixSet(np.eye(2)[None])
        split, trace = one_step_split_with_trace(a)
        assert split.partition.sizes == (1, 1)
        assert split.cost <= 1e-20
        assert abs(np.trace(trace.z)) <= 1e-12
        # the chosen direction maximizes trace(z @ z) at unit coefficients
        assert abs(float(np.trace(trace.z @ trace.z)) - 1.0) <= 1e-10

    def test_order_one_unsplittable(self):
        with pytest.raises(UnsplittableError):
            one_step_split(MatrixSet(np.array([[[1.0]]])))

    @pytest.mark.parametrize("gamma", ["1.5", b"1.5"], ids=["str", "bytes"])
    @pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reused-basis"])
    def test_rejects_string_gamma(self, gamma, reuse):
        # checked before the reuse test, which would multiply sigma by gamma
        a = generate_model(Partition((2, 2)), m=6, snr=40, seed=4).a
        basis = delta_nullspace(a, 1.2) if reuse else None
        with pytest.raises(ValueError, match="gamma"):
            one_step_split_with_trace(a, gamma, basis)

    def test_trace_free_direction(self):
        inst = generate_model(Partition((2, 2)), m=6, snr=30, seed=4)
        _, trace = one_step_split_with_trace(inst.a)
        assert abs(np.trace(trace.z)) <= 1e-10

    @pytest.mark.parametrize("space, snr", [("exact", 40.0), ("delta", 40.0), ("exact", np.inf)],
                             ids=["exact", "delta", "exact-set"])
    def test_given_basis_never_changes_answer(self, space, snr):
        # the split uses a basis only when its own delta rule cuts that
        # spectrum at the same delta: never the rank cutoff of a 40 dB set,
        # always the space delta_nullspace gives for the same gamma, and the
        # rank cutoff of an exact set, where gamma also cuts at numerical rank
        inst = generate_model(Partition((3, 3, 3)), m=20, snr=snr, seed=0)
        basis = exact_nullspace(inst.a) if space == "exact" else delta_nullspace(inst.a, 1.2)
        ref, ref_trace = one_step_split_with_trace(inst.a, 1.2)
        split, trace = one_step_split_with_trace(inst.a, 1.2, basis)
        assert split.w.tobytes() == ref.w.tobytes()
        assert split.cost == ref.cost
        assert trace.z.tobytes() == ref_trace.z.tobytes()
        assert trace.delta == ref_trace.delta
        assert (trace.basis is basis) is (space == "delta" or snr == np.inf)


class TestConservativeSolve:
    def test_zero_tolerance_on_noisy_set_is_trivial(self):
        inst = generate_model(Partition((2, 2)), m=8, snr=20, seed=5)
        solution = conservative_solve(inst.a, SolverConfig(epsilon=0.0))
        assert solution.no_split
        assert solution.partition.sizes == (4,)
        assert solution.cost == 0.0

    def test_exact_full_recovery(self):
        p = Partition((1, 2, 3, 4))
        inst = generate_model(p, m=20, snr=np.inf, seed=6)
        eps = 1e-6 * np.sqrt(inst.a.total_sq_norm())
        solution = conservative_solve(inst.a, SolverConfig(epsilon=eps))
        assert partition_equivalent(solution.partition, p)
        assert solution.cost <= eps ** 2
        check_solution_invariants(inst.a, solution)

    @pytest.mark.parametrize("snr", [20, 40, 60])
    def test_cost_contract(self, snr):
        p = Partition((3, 3, 3))
        n = p.n
        eps = 3 * n * n * 10 ** (-snr / 20)
        for seed in range(3):
            inst = generate_model(p, m=20, snr=snr, seed=30 + seed)
            solution = conservative_solve(inst.a, SolverConfig(epsilon=eps))
            assert solution.cost <= eps ** 2
            check_solution_invariants(inst.a, solution)

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (1, 2, 3, 4)], ids=["case1", "case2"])
    def test_true_blocks_at_high_snr(self, sizes):
        # at 200 dB the computed null space misses the identity by up to
        # 1e-6; splitting along that miss made consv reject its first
        # proposal and return one block
        p = Partition(sizes)
        eps = 3 * p.n ** 2 * 10 ** (-200 / 20)
        for seed in range(20):
            inst = generate_model(p, m=20, snr=200.0, seed=seed)
            solution = conservative_solve(inst.a, SolverConfig(epsilon=eps))
            assert partition_equivalent(solution.partition, p), (seed, solution.partition.sizes)

    @pytest.mark.parametrize("sizes, m, snr, seed", [
        ((1, 1, 1), 1, 240.0, 14), ((1, 1, 1), 1, 260.0, 30), ((2, 2, 2), 3, 260.0, 28)],
        ids=["111-240dB", "111-260dB", "222-260dB"])
    def test_true_blocks_where_span_misses_identity(self, sizes, m, snr, seed):
        # the identity's coordinates in the computed span have norm 1 - 3e-8
        # to 1 - 1e-7, so the span misses the identity by more than 1e-8;
        # a split along the identity's residue cost 1.1-2.3 eps**2 and left
        # one block.  The trace constraint removes that residue whatever
        # that norm is
        p = Partition(sizes)
        eps = 3 * p.n ** 2 * 10 ** (-snr / 20)
        inst = generate_model(p, m, snr, seed)
        assert not spans_identity(delta_nullspace(inst.a, 1.2))
        solution = conservative_solve(inst.a, SolverConfig(epsilon=eps))
        assert partition_equivalent(solution.partition, p), solution.partition.sizes

    @pytest.mark.parametrize("scale", [1e150, 1e155, 1e-160, 1e-170])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sizes, snr", [((3, 3, 3), 40.0), ((1, 2, 3, 4), 60.0)],
                             ids=["case1-40dB", "case2-60dB"])
    def test_ordered_partition_at_extreme_scales(self, sizes, snr, seed, scale):
        # with epsilon scaled alike; at 1e155 a proposal's cost overflowed to
        # inf, at 1e-170 every cost underflowed to 0, until consv ran on the
        # set's power-of-two unit
        a = generate_model(Partition(sizes), 20, snr, seed).a
        eps = 3.0 * a.n ** 2 * noise_level(snr)  # the CLI's consv tolerance
        base = conservative_solve(a, SolverConfig(epsilon=eps))
        moved = conservative_solve(MatrixSet(scale * a.mats), SolverConfig(epsilon=scale * eps))
        assert moved.partition.sizes == base.partition.sizes

    def test_deterministic(self):
        inst = generate_model(Partition((2, 3)), m=8, snr=40, seed=7)
        cfg = SolverConfig(epsilon=1.0)
        one = conservative_solve(inst.a, cfg)
        two = conservative_solve(inst.a, cfg)
        assert one.partition == two.partition
        assert np.array_equal(one.w, two.w)


class TestExactSolve:
    def test_generic_diagonal_set(self):
        a = MatrixSet(np.array([np.diag([1.0, 2.0, 3.0]), np.diag([4.0, 5.0, 6.0])]))
        solution = exact_solve(a, seed=0)
        assert solution.partition.sizes == (1, 1, 1)
        assert solution.cost <= 1e-24
        # w is a column-scaled permutation of the identity up to signs
        assert np.allclose(np.abs(solution.w) @ np.abs(solution.w).T, np.eye(3), atol=1e-12)

    def test_nonunique_fixture_card_two(self):
        a, _ = nonunique_example([1.0, 0.3, -2.0], [0.5, 1.0, 1.7])
        solution = exact_solve(a, seed=1)
        assert solution.partition.sizes == (2, 2)
        assert solution.cost <= 1e-20 * a.total_sq_norm()

    @pytest.mark.parametrize("coeffs, seed", [
        (([1.0, 0.3, -2.0], [0.5, 1.0, 1.7]), 178),
        (([1.0, 0.3, -2.0], [0.5, 1.0, 1.7]), 232),
        (([1.0, -2.0], [0.7, 1.1]), 177),
        (([1.0, -2.0], [0.7, 1.1]), 268),
        (([1.0, -2.0], [0.7, 1.1]), 279),
        (([1.0, -2.0], [0.7, 1.1]), 297),
        (([1.0, -0.4, 2.2], [0.8, 1.5, -1.0]), 294),
    ])
    def test_nonunique_fixture_near_defective_reordering(self, coeffs, seed):
        # the null elements of this fixture have near-defective eigenvalues,
        # whose reordering leaves real parts that descend by about 4e-9;
        # such a descent is far below mu times the range and cuts nothing
        a, _ = nonunique_example(*coeffs)
        solution = exact_solve(a, seed=seed)
        assert solution.partition.sizes == (2, 2)
        assert solution.cost <= 1e-20 * a.total_sq_norm()

    def test_identity_set_full_cardinality(self):
        a = MatrixSet(np.eye(4)[None])
        solution = exact_solve(a, seed=2)
        assert solution.partition.card == 4
        assert solution.cost <= 1e-20

    def test_commuting_rotation_family(self):
        # normal family whose null elements carry conjugate-pair spectra, so
        # clustering and splitting must treat 2x2 blocks atomically
        rng = np.random.default_rng(17)
        for trial in range(10):
            blocks = []
            n = 0
            target = int(rng.integers(4, 11))
            while n < target:
                if target - n >= 2 and rng.random() < 0.6:
                    a, b = rng.standard_normal(2)
                    blocks.append(np.array([[a, b], [-b, a]]))
                    n += 2
                else:
                    blocks.append(rng.standard_normal((1, 1)))
                    n += 1
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            mats = []
            for _ in range(4):
                diag = np.zeros((n, n))
                pos = 0
                for blk in blocks:
                    k = blk.shape[0]
                    piece = rng.standard_normal() * blk if k == 2 else rng.standard_normal((1, 1))
                    diag[pos:pos + k, pos:pos + k] = piece
                    pos += k
                mats.append(q @ diag @ q.T)
            a = MatrixSet(np.array(mats))
            solution = exact_solve(a, seed=trial)
            check_solution_invariants(a, solution)
            assert solution.cost <= 1e-12 * a.total_sq_norm()
            # every 2x2 rotation block stays whole: at most one merge pair
            assert solution.partition.card >= len(blocks) - 1

    @pytest.mark.parametrize("sizes", [(2, 2), (1, 2, 3), (3, 3, 3)])
    def test_maximal_cardinality_on_model(self, sizes):
        p = Partition(sizes)
        for seed in range(5):
            inst = generate_model(p, m=12, snr=np.inf, seed=50 + seed)
            solution = exact_solve(inst.a, seed=seed)
            assert partition_equivalent(solution.partition, p)
            assert solution.partition.card == p.card
            assert solution.cost <= 1e-10 * inst.a.total_sq_norm()
            pi = performance_index(inst.v_inv(), solution.w, p, solution.partition)
            assert pi is not None and pi <= 1e-8


@pytest.mark.parametrize("method", ["greedy", "exact"])
def test_rounding_level_real_parts_give_one_block(method):
    # the random combination of this SNR-0 single-matrix set has a double
    # complex pair, so its real parts differ only by rounding; a gap between
    # them is no cluster boundary, so the solve is trivial instead of an
    # inseparable decoupling
    a = generate_model(Partition((2, 1, 1)), 1, 0, 215).a
    if method == "greedy":
        solution = greedy_solve(a, SolverConfig(seed=215))
    else:
        solution = exact_solve(a, seed=215)
    assert solution.partition.sizes == (4,)
    assert solution.no_split


# a skew set (n = 3, m = 2), draw 330 (from 0) of test_nullspace's
# fuzz_set(np.random.default_rng(0), "skew"), whose greedy seed-0
# combination has a near-defective triple eigenvalue: its real parts spread
# by 2.0e-9, far above the rounding level of 4.0e-14, and reordering them
# left a descent of 1.0e-9, above mu * range = 1.3e-10
NEAR_DEFECTIVE_SKEW = MatrixSet(np.array([
    [[0.0, -0.2260307693010088, -1.2031309996476405],
     [0.2260307693010088, 0.0, -0.2754122196601288],
     [1.2031309996476405, 0.2754122196601288, 0.0]],
    [[0.0, -0.11200210846507633, 0.27116755296957396],
     [0.11200210846507633, 0.0, -3.5150198515419038],
     [-0.27116755296957396, 3.5150198515419038, 0.0]],
]))


def _descent_combination():
    # the ordered Schur form of NEAR_DEFECTIVE_SKEW's greedy combination
    # and greedy's mu, checked to reach the descent rule and not the
    # rounding rule, so that drift in the kernels fails here loudly
    cfg = SolverConfig(seed=0)
    _, trace = greedy_solve_with_trace(NEAR_DEFECTIVE_SKEW, cfg)
    schur = real_schur_ordered(trace.z)
    mu = cfg.resolve_mu(NEAR_DEFECTIVE_SKEW.n, trace.basis.rank_cutoff)
    re = schur.eig_real_parts
    rng = re.max() - re.min()
    assert rng > 1e3 * np.finfo(float).eps * np.linalg.norm(schur.t)
    assert np.diff(re).min() <= -mu * rng
    return schur, mu


def test_reordering_descent_gives_one_block():
    # a descent of mu times the range marks the range as reordering error
    _descent_combination()
    solution = greedy_solve(NEAR_DEFECTIVE_SKEW, SolverConfig(seed=0))
    assert solution.partition.sizes == (3,)
    assert solution.no_split


class TestGapClusters:
    """Greedy's gap clustering, ``cluster_by_gap``, on constructed Schur
    forms, whose real parts, unlike those of NEAR_DEFECTIVE_SKEW, no
    rounding sets."""

    @pytest.mark.parametrize("re", [[0.0, 1.0, 0.75, 2.0], [0.0, 1.0, 0.5, 2.0],
                                    [2.0, 0.0, 1.0, 1.5]],
                             ids=["at-mu-range", "above-mu-range", "whole-range"])
    def test_descent_of_mu_range_gives_one_cluster(self, re):
        # range 2 and mu 1/8: descents of 0.25, exactly mu * range, of 0.5
        # and of the whole range
        assert cluster_by_gap(schur_with(re), 0.125).sizes == (4,)

    def test_smaller_descent_clusters_by_gap(self):
        # a descent of 1/32 against mu * range = 0.2578: the real parts
        # cluster by gap, with a boundary at the gap of 1.96875
        schur = schur_with([0.0, 0.0625, 0.03125, 2.0, 2.0625])
        assert cluster_by_gap(schur, 0.125).sizes == (3, 2)


def test_cluster_by_gap_accepts_reordering_descent():
    # the public path greedy takes after the Schur form
    schur, mu = _descent_combination()
    assert cluster_by_gap(schur, mu).sizes == (3,)


def _congruence(rng, a):
    # S = U diag(1 .. 1e2) V.T, so cond(S) = 1e2
    n = a.n
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = (u * np.geomspace(1.0, 1e2, n)) @ v.T
    return MatrixSet(np.array([s.T @ mat @ s for mat in a.mats]))


_INVARIANCES = {
    "congruence": _congruence,
    "scale-up": lambda rng, a: MatrixSet(1e3 * a.mats),
    "scale-down": lambda rng, a: MatrixSet(1e-3 * a.mats),
    "permute": lambda rng, a: MatrixSet(a.mats[rng.permutation(a.m)]),
}


class TestExactInvariance:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("sizes", [(3, 3, 3), (1, 2, 3, 4), (2,) * 8, (2, 2, 1)],
                             ids=lambda sizes: ",".join(map(str, sizes)))
    def test_partition_invariant(self, sizes, seed):
        # an exact joint block diagonalization survives congruence, scaling
        # and reordering of the matrices, so the exact solve finds the same
        # blocks, as many as the truth has
        p = Partition(sizes)
        a = generate_model(p, m=4, snr=np.inf, seed=seed).a
        base = exact_solve(a, seed=seed).partition
        for name, transform in _INVARIANCES.items():
            got = exact_solve(transform(np.random.default_rng(seed), a), seed=seed).partition
            assert partition_equivalent(got, base), name
            assert got.card == p.card, name


class TestSolverConfig:
    def test_default_mu(self):
        cfg = SolverConfig()
        assert cfg.resolve_mu(9) == 1.0 / 64.0
        assert cfg.resolve_mu(9, rank_cutoff=True) == 1e-6

    def test_explicit_mu_wins(self):
        cfg = SolverConfig(mu=0.25)
        assert cfg.resolve_mu(9) == cfg.resolve_mu(9, rank_cutoff=True) == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma=0.9)
        with pytest.raises(ValueError):
            SolverConfig(mu=1.5)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=-1.0)

    @pytest.mark.parametrize("kwargs", [{"gamma": np.nan}, {"gamma": np.inf},
                                        {"epsilon": np.nan}],
                             ids=["gamma-nan", "gamma-inf", "epsilon-nan"])
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_stores_floats(self):
        cfg = SolverConfig(gamma=2, mu=np.float64(0.25), epsilon=np.float32(0.5))
        assert [type(v) for v in (cfg.gamma, cfg.mu, cfg.epsilon)] == [float] * 3

    @pytest.mark.parametrize("field", ["gamma", "mu", "epsilon"])
    def test_rejects_what_float_cannot_take(self, field):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: 10 ** 400})

    @pytest.mark.parametrize("seed", [-1, 1.5, (3, -1), "abc", None, True, np.bool_(True),
                                      [[1]], [1, True], 11.0])
    def test_rejects_a_seed_seed_sequence_rejects(self, seed):
        # None would draw OS entropy and bools, floats and nested lists would
        # pass SeedSequence or be read as other seeds: only ints and lists
        # or tuples of ints make a solve repeatable
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(seed=seed)

    @pytest.mark.parametrize("seed", [7, np.int64(7), [7, 1], (7, np.uint8(1)), [], 10 ** 40])
    def test_accepts_int_seeds(self, seed):
        assert SolverConfig(seed=seed).seed is seed

    @pytest.mark.parametrize("field, value", [("gamma", "1.5"), ("gamma", True), ("mu", "0.1"),
                                              ("mu", np.bool_(True)), ("epsilon", True),
                                              ("epsilon", b"1")])
    def test_rejects_bools_and_strings(self, field, value):
        # float() would read "1.5" as 1.5 and True as 1.0
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_numpy_epsilon_past_float_range_square_root(self):
        # np.float64(1e200) ** 2 overflows with a RuntimeWarning, which the
        # tests make an error; stored as a float, it is an infinite tolerance
        a = generate_model(Partition((3, 3, 3)), 20, 40.0, 0).a
        got = conservative_solve(a, SolverConfig(epsilon=np.float64(1e200)))
        want = conservative_solve(a, SolverConfig(epsilon=np.inf))
        assert got.partition == want.partition and got.w.tobytes() == want.w.tobytes()


_ENTRY_POINTS = {
    "greedy": lambda a, seed, eps: greedy_solve(a, SolverConfig(seed=seed)),
    "exact": lambda a, seed, eps: exact_solve(a, seed),
    "consv": lambda a, seed, eps: conservative_solve(a, SolverConfig(epsilon=eps)),
    "one_step_split": lambda a, seed, eps: one_step_split(a),
}


@pytest.mark.parametrize("method", _ENTRY_POINTS)
@pytest.mark.parametrize("sizes, m, snr", [((3, 3, 3), 20, 40.0), ((1, 2, 3, 4), 20, 60.0),
                                           ((2, 2, 2), 4, np.inf)],
                         ids=["case1-snr40", "case2-snr60", "exact-2,2,2"])
def test_solution_contract(method, sizes, m, snr):
    # every entry point returns a Solution whose partition sums to n, whose
    # diagonalizer has orthonormal blocks (to 1e-12 n, within the contract's
    # 1e-8) and whose cost is exactly cost_ls's
    for seed in range(3):
        a = generate_model(Partition(sizes), m, snr, seed).a
        n = a.n
        eps = 1e-8 * np.sqrt(a.total_sq_norm()) if np.isinf(snr) else 3 * n * n * 10 ** (-snr / 20)
        solution = _ENTRY_POINTS[method](a, seed, eps)
        check_solution_invariants(a, solution)
        assert solution.cost == cost_ls(a, solution.partition, solution.w)
