import itertools

import numpy as np
import pytest
import scipy.linalg

import gjbd.analysis

from gjbd.analysis import (
    bdiag,
    cost_ls,
    equivalence_check,
    gap_lower_bound,
    normalize,
    offbdiag,
    performance_index,
    verify_imag_bound,
    verify_offblock_bound,
)
from gjbd.datagen import generate_model
from gjbd.matkernels import largest_principal_angle, sep_lower
from gjbd.nullspace import MatrixSet
from gjbd.partition import Partition
from gjbd.solvers import (
    SolverConfig,
    Solution,
    conservative_solve,
    exact_solve,
    greedy_solve_with_trace,
)
from oracles import block_permutation, nonunique_example

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i


def all_groupings(hat_sizes, room):
    # brute-force reference for the performance index: every assignment of
    # the recovered blocks to the true ones whose sizes add up, as tuples g
    # with g[j] the true block that recovered block j joins
    if not hat_sizes:
        yield ()
        return
    size = hat_sizes[0]
    for k, left in enumerate(room):
        if size <= left:
            rest_room = room[:k] + (left - size,) + room[k + 1:]
            for rest in all_groupings(hat_sizes[1:], rest_room):
                yield (k,) + rest


class TestBdiagOffbdiag:
    def test_single_block(self):
        a = np.arange(9.0).reshape(3, 3)
        p = Partition((3,))
        assert np.array_equal(bdiag(a, p), a)
        assert np.array_equal(offbdiag(a, p), np.zeros((3, 3)))

    def test_all_singletons(self):
        a = np.arange(4.0).reshape(2, 2)
        p = Partition((1, 1))
        assert np.array_equal(bdiag(a, p), np.diag(np.diag(a)))

    def test_example_offblock(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(offbdiag(a, Partition((1, 1))), [[0.0, 2.0], [3.0, 0.0]])

    def test_complementary_projectors(self):
        rng = np.random.default_rng(0)
        p = Partition((2, 1, 3))
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        assert np.array_equal(bdiag(a, p) + offbdiag(a, p), a)
        assert abs(np.sum(bdiag(a, p) * offbdiag(b, p))) == 0.0


class TestCostLS:
    def test_exact_congruence_is_zero(self):
        inst = generate_model(Partition((2, 2)), m=4, snr=np.inf, seed=1)
        w = np.linalg.inv(inst.v)
        assert cost_ls(inst.a, inst.p_true, w) <= 1e-20 * inst.a.total_sq_norm()

    def test_hand_value(self):
        a = MatrixSet(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert cost_ls(a, Partition((1, 1)), np.eye(2)) == 13.0

    def test_invariant_under_block_orthogonal_factor(self):
        rng = np.random.default_rng(2)
        p = Partition((2, 3))
        a = MatrixSet(rng.standard_normal((4, 5, 5)))
        w = rng.standard_normal((5, 5))
        q = np.zeros((5, 5))
        for sl in p.slices():
            k = sl.stop - sl.start
            q[sl, sl], _ = np.linalg.qr(rng.standard_normal((k, k)))
        base = cost_ls(a, p, w)
        assert abs(cost_ls(a, p, w @ q) - base) <= 1e-12 * max(base, 1.0)

    @pytest.mark.parametrize("sizes", [(2, 3, 4), (1, 1, 2, 1, 3, 1), (9,)],
                             ids=["correct", "over-split", "single-block"])
    def test_matches_per_matrix_reference(self, sizes):
        rng = np.random.default_rng(16)
        inst = generate_model(Partition((2, 3, 4)), m=6, snr=40, seed=16)
        p = Partition(sizes)
        for _ in range(5):
            w = rng.standard_normal((9, 9))
            ref = 0.0
            for mat in inst.a.mats:
                off = w.T @ mat @ w
                for sl in p.slices():
                    off[sl, sl] = 0.0
                ref += float(np.sum(off ** 2))
            assert abs(cost_ls(inst.a, p, w) - ref) <= 1e-14 * ref

    def test_block_diagonal_set_is_exactly_zero(self):
        # summing the off-block entries directly keeps an exact solve at 0.0;
        # the total minus the block diagonal part would leave rounding behind
        rng = np.random.default_rng(17)
        p = Partition((1, 3, 2, 4))
        mats = rng.standard_normal((5, 10, 10)) * 10.0 ** rng.uniform(-3, 3, (5, 10, 10))
        a = MatrixSet(np.where(p.mask, mats, 0.0))
        assert cost_ls(a, p, np.eye(10)) == 0.0

    @pytest.mark.parametrize("sizes, w_order", [((2,), 4), ((3, 3), 4), ((2, 2), 3)],
                             ids=["short-partition", "long-partition", "small-w"])
    def test_rejects_another_order(self, sizes, w_order):
        # the mask of another order raised a bare IndexError
        a = MatrixSet(np.random.default_rng(18).standard_normal((2, 4, 4)))
        with pytest.raises(ValueError, match="order"):
            cost_ls(a, Partition(sizes), np.eye(w_order))


class TestNormalize:
    def test_restores_constraint(self):
        rng = np.random.default_rng(3)
        p = Partition((2, 2, 1))
        w = rng.standard_normal((5, 5))
        out = normalize(w, p)
        assert np.linalg.norm(bdiag(out.T @ out, p) - np.eye(5)) <= 1e-12

    def test_scaling_removed(self):
        rng = np.random.default_rng(4)
        p = Partition((2, 2))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        w = q.copy()
        w[:, :2] *= 7.0
        out = normalize(w, p)
        assert np.linalg.norm(bdiag(out.T @ out, p) - np.eye(4)) <= 1e-12
        # block column spaces unchanged
        for sl in p.slices():
            assert largest_principal_angle(out[:, sl], q[:, sl]) <= 1e-10

    def test_already_normalized_spaces_kept(self):
        rng = np.random.default_rng(5)
        p = Partition((3, 2))
        w0 = normalize(rng.standard_normal((5, 5)), p)
        out = normalize(w0, p)
        for sl in p.slices():
            assert largest_principal_angle(out[:, sl], w0[:, sl]) <= 1e-10

    @pytest.mark.parametrize("sizes", [(2,), (3, 3)], ids=["short", "long"])
    def test_rejects_another_order(self, sizes):
        # a short partition left columns of uninitialized memory, a long one
        # processed a partial block
        w = np.random.default_rng(6).standard_normal((4, 4))
        with pytest.raises(ValueError, match="order"):
            normalize(w, Partition(sizes))


class TestPerformanceIndex:
    def test_exact_match_is_zero(self):
        rng = np.random.default_rng(6)
        p = Partition((1, 2, 3))
        v_inv = rng.standard_normal((6, 6))
        assert performance_index(v_inv, v_inv, p, p) <= 1e-10

    def test_equivalent_solution_is_zero(self):
        rng = np.random.default_rng(7)
        p = Partition((2, 2, 2))
        v_inv = rng.standard_normal((6, 6))
        t = np.zeros((6, 6))
        for sl in p.slices():
            t[sl, sl] = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        perm = [2, 0, 1]
        w = v_inv @ t @ block_permutation(p, perm)
        p_hat = Partition(tuple(p.sizes[j] for j in perm))
        assert performance_index(v_inv, w, p, p_hat) <= 1e-10

    def test_refinement_grouping_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        p_true = Partition((1, 2, 3))
        p_hat = Partition((1, 1, 2, 2))
        v_inv = rng.standard_normal((6, 6))
        w = rng.standard_normal((6, 6))
        got = performance_index(v_inv, w, p_true, p_hat)
        # the four admissible regroupings, as explicit column orders
        orders = [
            [0, 2, 3, 1, 4, 5],
            [1, 2, 3, 0, 4, 5],
            [0, 4, 5, 1, 2, 3],
            [1, 4, 5, 0, 2, 3],
        ]
        vals = []
        for order in orders:
            wt = w[:, order]
            worst = max(
                largest_principal_angle(v_inv[:, sl], wt[:, sl])
                for sl in p_true.slices()
            )
            vals.append(worst)
        assert abs(got - min(vals)) <= 1e-12

    def test_incorrect_partition(self):
        rng = np.random.default_rng(9)
        v_inv = rng.standard_normal((6, 6))
        w = rng.standard_normal((6, 6))
        assert performance_index(v_inv, w, Partition((1, 2, 3)), Partition((2, 4))) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            performance_index(np.eye(3), np.eye(4), Partition((3,)), Partition((4,)))

    @pytest.mark.parametrize("p_hat", [Partition((2,)), Partition((3, 3))], ids=["smaller", "larger"])
    def test_rejects_recovered_partition_of_another_order(self, p_hat):
        # a None here would read as a wrong answer, not a wrong call
        v_inv = np.random.default_rng(9).standard_normal((4, 4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            performance_index(v_inv, np.eye(4), Partition((2, 2)), p_hat)

    def test_one_basis_per_true_block(self, monkeypatch):
        # each true and each recovered block is orthonormalized once, up
        # front, and each scored group once; each (true block, group) angle
        # is taken once; no angle goes through scipy's subspace_angles.  The
        # kernels take stacks, so the matrices of each call are counted.  An
        # exact answer scores one-block groups only; consv's over-split
        # answer of test_past_node_budget_is_upper_bound also scores groups
        # of several blocks, each against several true blocks
        exact = generate_model(Partition((2,) * 8), m=4, snr=np.inf, seed=3)
        over_split = generate_model(Partition((3, 3, 3)), m=20, snr=20, seed=2)
        n = 9
        consv = conservative_solve(over_split.a, SolverConfig(epsilon=3 * n * n * 10 ** (-20 / 20)))
        assert consv.partition.sizes == (1, 1, 1, 2, 1, 1, 1, 1)
        orthonormal_basis = gjbd.analysis._orthonormal_basis
        largest_angle = gjbd.analysis._largest_angle

        def members(a, batch=None):
            # the matrices of a stack, broadcast to the batch shape
            a = np.asarray(a)
            batch = a.shape[:-2] if batch is None else batch
            return list(np.broadcast_to(a, batch + a.shape[-2:]).reshape((-1,) + a.shape[-2:]))

        def counted_basis(a):
            calls.append("basis")
            u = orthonormal_basis(a)
            inputs.extend(members(a))
            outputs.extend(members(u))
            return u

        def counted_angle(ue, uf):
            calls.append("angle")
            batch = np.broadcast_shapes(ue.shape[:-2], uf.shape[:-2])
            true_bases = outputs[:p_true.card]
            for e, f in zip(members(ue, batch), members(uf, batch)):
                true_block = next(k for k, u in enumerate(true_bases) if np.array_equal(u, e))
                keys.append((true_block, f.tobytes()))
            return largest_angle(ue, uf)

        def forbidden(*args, **kwargs):
            raise AssertionError("subspace_angles called")

        monkeypatch.setattr(gjbd.analysis, "_orthonormal_basis", counted_basis)
        monkeypatch.setattr(gjbd.analysis, "_largest_angle", counted_angle)
        monkeypatch.setattr(scipy.linalg, "subspace_angles", forbidden)
        for inst, sol in [(exact, exact_solve(exact.a, seed=3)), (over_split, consv)]:
            inputs, outputs, keys, calls = [], [], [], []
            p_true, v_inv = inst.p_true, inst.v_inv()
            pi = performance_index(v_inv, sol.w, p_true, sol.partition)
            blocks = [v_inv[:, sl] for sl in p_true.slices()]
            blocks += [sol.w[:, sl] for sl in sol.partition.slices()]
            # every block first, the true ones in order (their sizes are equal)
            assert all(np.array_equal(a, b) for a, b in zip(inputs, blocks[:p_true.card]))
            assert {a.tobytes() for a in inputs[:len(blocks)]} == {b.tobytes() for b in blocks}
            # no block or group twice, no (true block, group) key twice, and
            # every group scored is one that was orthonormalized
            assert len({a.tobytes() for a in inputs}) == len(inputs) >= len(blocks)
            assert len(set(keys)) == len(keys) > 0
            assert {f for _, f in keys} <= {u.tobytes() for u in outputs}
            if sol.partition.card == p_true.card:
                # equal blocks: one stacked call per side, one for the angles
                assert pi <= 1e-8
                assert calls == ["basis", "basis", "angle"]
            else:
                assert pi is not None
                assert len(inputs) > len(blocks)  # groups of several blocks

    def test_huge_grouping_count_stays_bounded(self):
        # all-singleton refinement of four equal groups: enumeration must not
        # materialize the ~63e6 maps; the budgeted scan still finds the true
        # grouping because the matching column order scores (near) zero
        rng = np.random.default_rng(14)
        p_true = Partition((4, 4, 4, 4))
        v_inv = rng.standard_normal((16, 16))
        pi = performance_index(v_inv, v_inv, p_true, Partition((1,) * 16))
        assert pi is not None and pi <= 1e-8

    def test_past_node_budget_is_upper_bound(self, monkeypatch):
        # consv over-splits (3,3,3) at 20 dB into (1,1,1,2,1,1,1,1); a budget
        # of card + 1 nodes stops the search after its first dive, whose
        # grouping bounds the exact index from above, and a budget of one
        # node reaches no complete grouping
        n = 9
        inst = generate_model(Partition((3, 3, 3)), m=20, snr=20, seed=2)
        sol = conservative_solve(inst.a, SolverConfig(epsilon=3 * n * n * 10 ** (-20 / 20)))
        assert sol.partition.sizes == (1, 1, 1, 2, 1, 1, 1, 1)
        args = (inst.v_inv(), sol.w, inst.p_true, sol.partition)
        exact = performance_index(*args)
        assert exact is not None
        monkeypatch.setattr(gjbd.analysis, "_PI_NODE_BUDGET", sol.partition.card + 1)
        first_dive = performance_index(*args)
        assert first_dive is None or first_dive >= exact
        assert first_dive != exact  # the upper-bound branch ran
        monkeypatch.setattr(gjbd.analysis, "_PI_NODE_BUDGET", 1)
        assert performance_index(*args) is None

    def test_rank_deficient_block_raises_within_budget(self, monkeypatch):
        # every block is orthonormalized before the search, so a zero column
        # in a small recovered block raises even where a budget of one node
        # stops the search before it reaches that block
        rng = np.random.default_rng(16)
        p_true, p_hat = Partition((2, 3)), Partition((3, 1, 1))
        v_inv = rng.standard_normal((5, 5))
        w = rng.standard_normal((5, 5))
        w[:, 3] = 0.0
        monkeypatch.setattr(gjbd.analysis, "_PI_NODE_BUDGET", 1)
        with pytest.raises(ValueError, match="rank deficient|zero"):
            performance_index(v_inv, w, p_true, p_hat)

    @pytest.mark.parametrize("true_sizes, pieces, noise", [
        ((2,) * 8, [(2,)] * 8, 1e-3),
        ((2,) * 8, [(2,)] * 8, 3.0),
        ((3, 3, 3), [(1, 1, 1), (2, 1), (3,)], 1e-2),
        ((1, 2, 3, 4), [(1,), (2,), (3,), (4,)], 1e-6),
        ((2, 2, 2, 2), [(1, 1), (2,), (1, 1), (2,)], 1e-2),
        ((1, 2, 3), None, None),
    ], ids=["pairs-near", "pairs-far", "over-split", "permuted", "repeated-sizes", "random-w"])
    def test_search_matches_full_scan(self, true_sizes, pieces, noise):
        rng = np.random.default_rng(15)
        p_true = Partition(true_sizes)
        n = p_true.n
        v_inv = rng.standard_normal((n, n))
        if pieces is None:
            # random diagonalizer scored against an over-split partition
            p_hat = Partition((1, 1, 2, 1, 1))
            w = rng.standard_normal((n, n))
        else:
            # recovered blocks cut from the true ones, shuffled and perturbed
            cols = []
            for sl, sizes in zip(p_true.slices(), pieces):
                edges = np.cumsum((sl.start,) + sizes)
                cols += [list(range(a, b)) for a, b in zip(edges[:-1], edges[1:])]
            cols = [cols[j] for j in rng.permutation(len(cols))]
            p_hat = Partition(tuple(len(c) for c in cols))
            w = v_inv[:, sum(cols, [])] + noise * rng.standard_normal((n, n))
        true_slices, hat_slices = p_true.slices(), p_hat.slices()
        angles = {}
        scores = []
        for g in all_groupings(p_hat.sizes, p_true.sizes):
            worst = 0.0
            for k, sl in enumerate(true_slices):
                ids = tuple(j for j in range(p_hat.card) if g[j] == k)
                if (k, ids) not in angles:
                    group = np.hstack([w[:, hat_slices[j]] for j in ids])
                    angles[k, ids] = largest_principal_angle(v_inv[:, sl], group)
                worst = max(worst, angles[k, ids])
            scores.append(worst)
        assert performance_index(v_inv, w, p_true, p_hat) == min(scores)


def kronecker_pair_gram(blocks_j, blocks_k):
    # reference for the pair certificates of equivalence_check: the Gram
    # matrix of the coupling equations of blocks j and k, summed term by
    # term in Kronecker form with the unknowns Z_jk and Z_kj.T
    nj = blocks_j[0].shape[0]
    nk = blocks_k[0].shape[0]
    top_left = np.zeros((nj * nk, nj * nk))
    off = np.zeros((nj * nk, nj * nk))
    bottom_right = np.zeros((nj * nk, nj * nk))
    for aj, ak in zip(blocks_j, blocks_k):
        top_left += np.kron(np.eye(nk), aj.T @ aj + aj @ aj.T)
        off += np.kron(ak, aj) + np.kron(ak.T, aj.T)
        bottom_right += np.kron(ak.T @ ak + ak @ ak.T, np.eye(nj))
    return np.block([[top_left, off], [off, bottom_right]])


def reference_singular_pairs(a, p, w):
    blocks = [[w[:, sl].T @ mat @ w[:, sl] for mat in a.mats] for sl in p.slices()]
    pairs = []
    for j in range(p.card):
        for k in range(j + 1, p.card):
            svals = np.linalg.svd(kronecker_pair_gram(blocks[j], blocks[k]), compute_uv=False)
            if svals[-1] <= 1e3 * np.finfo(float).eps * svals[0]:
                pairs.append((j, k))
    return pairs


class TestEquivalenceCheck:
    def test_pairs_match_kronecker_reference(self):
        rng = np.random.default_rng(9)
        cases = []
        for seed, (sizes, m) in enumerate([((2, 2), 1), ((1, 2, 3), 2), ((3, 3), 6),
                                           ((2, 1, 2, 1), 1), ((1, 3, 2), 4)]):
            inst = generate_model(Partition(sizes), m, 40.0, seed=700 + seed)
            cases.append((inst.a, inst.p_true, np.linalg.inv(inst.v)))
            cases.append((inst.a, inst.p_true, rng.standard_normal((inst.a.n,) * 2)))
        a, w4 = nonunique_example([1.0, -0.4, 2.2], [0.8, 1.5, -1.0])
        cases += [(a, Partition((2, 2)), np.eye(4)), (a, Partition((2, 2)), w4)]
        for sizes in [(1, 1, 1), (1, 2), (2, 1, 1)]:
            n = sum(sizes)
            scalar = MatrixSet(np.array([1.5 * np.eye(n), -0.5 * np.eye(n)]))
            cases.append((scalar, Partition(sizes), np.eye(n)))
        flagged = 0
        for a, p, w in cases:
            _, pairs, _ = equivalence_check(a, p, w)
            assert pairs == reference_singular_pairs(a, p, w), (p.sizes, pairs)
            flagged += bool(pairs)
        assert 0 < flagged < len(cases)

    @pytest.mark.parametrize("sizes", [(1, 2, 1), (3, 1, 3)], ids=["(1,2,1)", "(3,1,3)"])
    def test_flags_only_the_coupled_pair(self, sizes):
        # blocks 0 and 2 hold the same entries, so Z with identities in
        # blocks (0, 2) and (2, 0) solves their coupling equations; block 1
        # is generic and couples with neither
        rng = np.random.default_rng(12)
        p = Partition(sizes)
        first, middle, last = p.slices()
        d = np.zeros((6, p.n, p.n))
        for i in range(6):
            d[i, first, first] = d[i, last, last] = rng.standard_normal((sizes[0],) * 2)
            d[i, middle, middle] = rng.standard_normal((sizes[1],) * 2)
        v = rng.standard_normal((p.n, p.n))
        a = MatrixSet(v.T @ d @ v)
        _, pairs, _ = equivalence_check(a, p, np.linalg.inv(v))
        assert pairs == [(0, 2)]

    @pytest.mark.parametrize("ratio, flagged", [(3e4, False), (30.0, True)],
                             ids=["3e4-eps", "30-eps"])
    def test_singularity_threshold(self, ratio, flagged):
        # A_i = diag(x_i0, -x_i1) for the rows x_i of x = U diag(1, t) V.T;
        # the coupling of the two 1 x 1 blocks maps (Z[0, 1], Z[1, 0]) to
        # +-(x @ (Z[0, 1], Z[1, 0])), so the pair Gram is 2 x.T x and its
        # smallest relative eigenvalue is t**2.  A pair is singular at or
        # below 1e3 * eps, so 3e4 * eps is kept and 30 * eps flagged
        eps = np.finfo(float).eps
        rng = np.random.default_rng(31)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        x = u @ np.diag([1.0, np.sqrt(ratio * eps)]) @ v.T
        evals = np.linalg.eigvalsh(x.T @ x)
        assert 0.5 * ratio * eps <= evals[0] / evals[-1] <= 2.0 * ratio * eps
        a = MatrixSet(np.array([np.diag([x0, -x1]) for x0, x1 in x]))
        _, pairs, _ = equivalence_check(a, Partition((1, 1)), np.eye(2))
        assert pairs == ([(0, 1)] if flagged else [])

    @pytest.mark.parametrize("sizes, w_order", [((2, 1), 4), ((2, 3), 4), ((2, 2), 3)],
                             ids=["smaller-partition", "larger-partition", "w-shape"])
    def test_rejects_mismatched_order(self, sizes, w_order):
        a, _ = nonunique_example([1.0, -0.4], [0.8, 1.5])
        with pytest.raises(ValueError):
            equivalence_check(a, Partition(sizes), np.eye(w_order))

    def test_nonunique_fixture_flags_pair(self):
        a, _ = nonunique_example([1.0, -0.4, 2.2], [0.8, 1.5, -1.0])
        ok, pairs, spectra_ok = equivalence_check(a, Partition((2, 2)), np.eye(4))
        assert not ok
        assert pairs == [(0, 1)]
        assert spectra_ok

    def test_scalar_set_never_equivalent(self):
        a = MatrixSet(np.array([1.5 * np.eye(3), -0.5 * np.eye(3)]))
        ok, pairs, _ = equivalence_check(a, Partition((1, 1, 1)), np.eye(3))
        assert not ok
        assert pairs == [(0, 1), (0, 2), (1, 2)]

    def test_merged_blocks_fail_spectra(self):
        # one block holding both true blocks has no pair to flag, but its
        # null space holds the projector onto either, whose spectrum is two
        # distinct real values
        inst = generate_model(Partition((2, 2)), 6, np.inf, 3)
        result = equivalence_check(inst.a, Partition((4,)), np.linalg.inv(inst.v))
        assert result == (False, [], False)

    @pytest.mark.parametrize("spread, single", [(1.6e-6, True), (1.8e-6, False)])
    def test_spectra_rule_ignores_eigenvalue_order(self, spread, single):
        # diag(1, 1 + spread / 2, 1 + spread) against a tolerance of
        # 1e-6 * ||f||_F, about 1.73e-6; clustering the eigenvalues one by
        # one in LAPACK's order gave the permutations different verdicts
        d = np.array([1.0, 1.0 + spread / 2, 1.0 + spread])
        for perm in itertools.permutations(range(3)):
            p = np.eye(3)[list(perm)]
            assert gjbd.analysis._single_value_or_pair(p @ np.diag(d) @ p.T) == single, perm

    @pytest.mark.parametrize("f, single", [
        (scipy.linalg.block_diag(ROTATION, ROTATION), True),
        (scipy.linalg.block_diag(ROTATION, 2.0 * ROTATION), False),
        (scipy.linalg.block_diag(ROTATION, np.zeros((1, 1))), False),
        (scipy.linalg.block_diag(ROTATION + np.eye(2), ROTATION), False),
        (np.zeros((3, 3)), True),
    ], ids=["one-pair", "two-pairs", "pair-and-real", "shifted-pair", "zero"])
    def test_spectra_rule_conjugate_pairs(self, f, single):
        assert gjbd.analysis._single_value_or_pair(f) == single

    @pytest.mark.parametrize("sizes", [(2, 2), (1, 2, 3), (3, 3)])
    def test_generic_sets_equivalent(self, sizes):
        for seed in range(5):
            inst = generate_model(Partition(sizes), m=8, snr=np.inf, seed=40 + seed)
            w = np.linalg.inv(inst.v)
            ok, pairs, spectra_ok = equivalence_check(inst.a, inst.p_true, w)
            assert ok, (sizes, seed, pairs, spectra_ok)

    def test_generic_sets_equivalent_frequency_one(self):
        rng = np.random.default_rng(100)
        for trial in range(100):
            n = int(rng.integers(4, 11))
            sizes = []
            left = n
            while left > 0:
                s = int(rng.integers(1, min(left, 4) + 1))
                sizes.append(s)
                left -= s
            p = Partition(tuple(sizes))
            inst = generate_model(p, m=6, snr=np.inf, seed=5000 + trial)
            ok, pairs, spectra_ok = equivalence_check(inst.a, p, np.linalg.inv(inst.v))
            assert ok, (trial, p.sizes, pairs, spectra_ok)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    @pytest.mark.parametrize("sizes", [(2, 2, 2), (1, 2, 3)])
    def test_extreme_scale_keeps_verdict(self, sizes, scale):
        # the verdict ignores the scale of the set, but the squares in the
        # pair Gram matrix would underflow or overflow at these scales
        inst = generate_model(Partition(sizes), m=6, snr=np.inf, seed=0)
        w = np.linalg.inv(inst.v)
        want = equivalence_check(inst.a, inst.p_true, w)
        assert want[0]
        assert equivalence_check(MatrixSet(scale * inst.a.mats), inst.p_true, w) == want


class TestVerifyOffblockBound:
    def test_exact_case_boundary(self):
        inst = generate_model(Partition((2, 2)), m=5, snr=np.inf, seed=10)
        w = np.linalg.inv(inst.v)
        # exact null element built from the known block projectors
        g = np.diag([1.0, 1.0, 3.0, 3.0])
        z = w @ g @ np.linalg.inv(w)
        sol = Solution(partition=inst.p_true, w=normalize(w, inst.p_true), cost=0.0)
        rep = verify_offblock_bound(inst.a, z, 0.0, sol)
        assert rep.satisfied
        assert rep.lhs <= 1e-18 * inst.a.total_sq_norm()

    def test_right_side_past_float_range(self):
        # delta ** 2 overflows, as for an exact solve of a set scaled by
        # 1e200; the right side is then infinite and the bound holds
        inst = generate_model(Partition((2, 2)), m=5, snr=np.inf, seed=10)
        w = np.linalg.inv(inst.v)
        z = w @ np.diag([1.0, 1.0, 3.0, 3.0]) @ np.linalg.inv(w)
        sol = Solution(partition=inst.p_true, w=normalize(w, inst.p_true), cost=0.0)
        rep = verify_offblock_bound(inst.a, z, 1e200, sol)
        assert rep.rhs == np.inf
        assert rep.satisfied

    def test_greedy_runs_satisfy_bound(self):
        for seed in range(5):
            inst = generate_model(Partition((2, 3)), m=8, snr=40, seed=60 + seed)
            sol, tr = greedy_solve_with_trace(inst.a, SolverConfig(seed=seed))
            if tr.z is None or sol.partition.card == 1:
                continue
            rep = verify_offblock_bound(inst.a, tr.z, tr.delta, sol)
            assert rep.satisfied
            assert np.isfinite(rep.rhs)

    def test_coincident_spectra_flagged(self):
        a = MatrixSet(np.eye(2)[None])
        sol = Solution(partition=Partition((1, 1)), w=np.eye(2), cost=0.0)
        rep = verify_offblock_bound(a, np.eye(2), 0.0, sol)
        assert rep.satisfied
        assert rep.components["sep_degenerate"]
        assert np.isinf(rep.rhs)

    @pytest.mark.parametrize("shared", [False, True], ids=["distinct", "shared-eigenvalue"])
    def test_separation_is_pairwise_minimum(self, shared):
        # the pairs are batched by shape; the minimum must equal that of the
        # pairwise separations exactly
        rng = np.random.default_rng(19)
        p = Partition((1, 2, 3, 2))
        a = MatrixSet(rng.standard_normal((3, 8, 8)))
        if shared:
            # blocks 0 and 2 share the eigenvalue 2
            z = np.diag([2.0, 3.0, 4.0, 2.0, 5.0, 6.0, 7.0, 8.0])
            w = np.eye(8)
        else:
            z = rng.standard_normal((8, 8))
            w = rng.standard_normal((8, 8))
        rep = verify_offblock_bound(a, z, 0.1, Solution(partition=p, w=w, cost=0.0))
        g = np.linalg.solve(w, z @ w)
        blocks = [g[sl, sl] for sl in p.slices()]
        ref = min(sep_lower(blocks[j], blocks[k]) for j in range(4) for k in range(j + 1, 4))
        assert rep.components["sep"] == ref
        assert rep.components["sep_degenerate"] is shared
        assert (ref == 0.0) is shared


class TestVerifyImagBound:
    def test_real_spectrum_trivial(self):
        rng = np.random.default_rng(11)
        a = MatrixSet(rng.standard_normal((3, 3, 3)))
        z = np.diag([1.0, 2.0, 3.0])
        for rep in verify_imag_bound(a, z, 0.5):
            assert rep.lhs == 0.0
            assert rep.satisfied

    def test_zero_delta_forces_real_spectrum(self):
        inst = generate_model(Partition((2, 2)), m=6, snr=np.inf, seed=12)
        w = np.linalg.inv(inst.v)
        z = w @ np.diag([1.0, 1.0, -2.0, -2.0]) @ np.linalg.inv(w)
        for rep in verify_imag_bound(inst.a, z, 0.0):
            if rep.applicable:
                assert rep.lhs <= 1e-10

    def test_noisy_runs_satisfied(self):
        for seed in range(5):
            inst = generate_model(Partition((2, 3)), m=8, snr=30, seed=80 + seed)
            _, tr = greedy_solve_with_trace(inst.a, SolverConfig(seed=seed))
            if tr.z is None:
                continue
            for rep in verify_imag_bound(inst.a, tr.z, tr.delta):
                assert rep.satisfied or not rep.applicable


class TestGapLowerBound:
    def test_two_point_equality(self):
        rep = gap_lower_bound(np.diag([1.0, -1.0]))
        assert abs(rep.lhs - 2.0) <= 1e-12
        assert abs(rep.rhs - 2.0) <= 1e-12
        assert rep.satisfied

    def test_zero_matrix(self):
        rep = gap_lower_bound(np.zeros((3, 3)))
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.satisfied

    def test_skew_is_inapplicable(self):
        z = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rep = gap_lower_bound(z)
        assert not rep.applicable
        assert rep.satisfied

    def test_random_trace_free(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            z = rng.standard_normal((n, n))
            z = z + z.T
            z -= np.trace(z) / n * np.eye(n)
            rep = gap_lower_bound(z)
            assert rep.applicable and rep.satisfied

    def test_rejects_nonzero_trace(self):
        with pytest.raises(ValueError):
            gap_lower_bound(np.eye(2))
