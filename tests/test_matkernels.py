import numpy as np
import pytest
import scipy.linalg

import gjbd.matkernels
from gjbd.matkernels import (
    DegenerateBlockBasisError,
    InseparableClustersError,
    SchurConvergenceError,
    block_diagonalize_similarity,
    economic_qr,
    largest_principal_angle,
    real_schur_ordered,
    sep_lower,
)
from oracles import perfect_shuffle, symmetric_orthogonalize


def vec(z):
    return z.flatten(order="F")


class TestPerfectShuffle:
    def test_order_one_is_identity(self):
        assert perfect_shuffle(1).tolist() == [0]

    def test_order_two_maps_positions(self):
        # 1-based positions (1,2,3,4) -> (1,3,2,4)
        assert perfect_shuffle(2).tolist() == [0, 2, 1, 3]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_transposes_vec(self, n):
        rng = np.random.default_rng(n)
        perm = perfect_shuffle(n)
        for _ in range(100):
            z = rng.standard_normal((n, n))
            assert np.array_equal(vec(z)[perm], vec(z.T))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_involution(self, n):
        rng = np.random.default_rng(10 + n)
        perm = perfect_shuffle(n)
        x = rng.standard_normal(n * n)
        assert np.array_equal(x[perm][perm], x)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            perfect_shuffle(0)


class TestRealSchurOrdered:
    def test_diagonal_input_sorted(self):
        sf = real_schur_ordered(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(sf.eig_real_parts, [1.0, 2.0, 3.0])
        # q must be a signed permutation matrix
        assert np.allclose(np.abs(sf.q) @ np.abs(sf.q).T, np.eye(3), atol=1e-12)
        assert np.allclose(np.sort(np.abs(sf.q).max(axis=0)), [1, 1, 1])

    def test_symmetric_two_by_two(self):
        sf = real_schur_ordered(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(sf.eig_real_parts, [-1.0, 1.0])
        assert sf.cuts.all()

    def test_rotation_keeps_pair(self):
        sf = real_schur_ordered(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert not sf.cuts.any()
        assert np.allclose(sf.eig_real_parts, [0.0, 0.0])
        assert abs(sf.t[1, 0]) > 0.5  # one genuine 2x2 block

    @pytest.mark.parametrize("n", [2, 5, 9, 14, 20])
    def test_random_reconstruction_and_order(self, n):
        rng = np.random.default_rng(n)
        for rep in range(10):
            z = rng.standard_normal((n, n))
            sf = real_schur_ordered(z)
            znorm = np.linalg.norm(z)
            assert np.linalg.norm(sf.q @ sf.t @ sf.q.T - z) <= 1e-10 * znorm
            assert np.linalg.norm(sf.q.T @ sf.q - np.eye(n)) <= 1e-12 * n
            assert np.all(np.diff(sf.eig_real_parts) >= -1e-12 * znorm)
            got = np.sort_complex(np.linalg.eigvals(sf.t))
            want = np.sort_complex(np.linalg.eigvals(z))
            assert np.allclose(got, want, atol=1e-8 * max(1.0, znorm))

    def test_pair_positions_share_real_part(self):
        rng = np.random.default_rng(77)
        found = 0
        for rep in range(20):
            z = rng.standard_normal((8, 8))
            sf = real_schur_ordered(z)
            scale = np.linalg.norm(sf.t)
            for start in np.flatnonzero(~sf.cuts):
                found += 1
                assert sf.eig_real_parts[start] == sf.eig_real_parts[start + 1]
                block = sf.t[start:start + 2, start:start + 2]
                # standardized: equal diagonal, genuinely complex pair
                assert abs(block[0, 0] - block[1, 1]) <= 1e-10 * scale
                assert np.linalg.eigvals(block).imag.any()
        assert found > 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            real_schur_ordered(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("z", [np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))],
                             ids=["wide", "vector", "stack"])
    def test_rejects_non_square(self, z):
        with pytest.raises(ValueError, match="z must be square"):
            real_schur_ordered(z)

    def test_failed_iteration_raises_schur_convergence_error(self, monkeypatch):
        failure = np.linalg.LinAlgError("the QR iteration did not converge")

        def failing(*args, **kwargs):
            raise failure

        monkeypatch.setattr(scipy.linalg, "schur", failing)
        with pytest.raises(SchurConvergenceError) as info:
            real_schur_ordered(np.diag([3.0, 1.0, 2.0]))
        assert info.value.__cause__ is failure


class TestBlockDiagonalizeSimilarity:
    def test_hand_sylvester_example(self):
        sf = real_schur_ordered(np.array([[1.0, 5.0], [0.0, 2.0]]))
        w = block_diagonalize_similarity(sf, [1])
        assert np.allclose(w, [[1.0, 5.0], [0.0, 1.0]])
        assert np.allclose(sf.t[:1, :1], [[1.0]])
        assert np.allclose(sf.t[1:, 1:], [[2.0]])
        assert np.allclose(np.linalg.solve(w, sf.t @ w), np.diag([1.0, 2.0]))

    def test_already_block_diagonal_gives_identity(self):
        z = np.diag([1.0, 2.0, 4.0])
        sf = real_schur_ordered(z)
        w = block_diagonalize_similarity(sf, [1, 2])
        assert np.allclose(w, np.eye(3))

    def test_inseparable_clusters(self):
        sf = real_schur_ordered(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(InseparableClustersError) as err:
            block_diagonalize_similarity(sf, [1])
        assert err.value.clusters == (0, 1)

    @pytest.mark.parametrize("c, separable, boundaries, failing", [
        (1e7, False, [2], (0, 1)), (1e3, True, [2], None),
        (1e7, False, [1, 2], (1, 2)), (1e3, True, [1, 2], None),
    ], ids=["10000000.0-False", "1000.0-True", "10000000.0-False-[1, 2]", "1000.0-True-[1, 2]"])
    def test_nonnormal_pair_with_distinct_eigenvalues(self, c, separable, boundaries, failing):
        # cluster {1, 1.001} lies 0.5 away from cluster {1.5}, but a large
        # coupling inside the first cluster can drive their separation
        # below the 1e3 * eps * ||T|| guard; cutting {1, 1.001} in two must
        # not hide that, although each of the three pairs is well separated
        z = np.array([[1.0, 0.0, c], [0.0, 1.5, 0.0], [0.0, 0.0, 1.001]])
        sf = real_schur_ordered(z)
        if not separable:
            with pytest.raises(InseparableClustersError) as err:
                block_diagonalize_similarity(sf, boundaries)
            assert err.value.clusters == failing
            return
        w = block_diagonalize_similarity(sf, boundaries)
        recon = np.linalg.solve(w, sf.t @ w)
        tol = 1e3 * np.finfo(float).eps * np.linalg.cond(w) * np.linalg.norm(sf.t)
        assert np.linalg.norm(recon[:2, 2:]) + np.linalg.norm(recon[2:, :2]) <= tol
        assert np.allclose(sf.t[2:, 2:], [[1.5]])

    def test_rejects_pair_splitting_boundary(self):
        sf = real_schur_ordered(np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            block_diagonalize_similarity(sf, [1])

    @pytest.mark.parametrize("boundaries", [[0], [3], [-1], [1, 3]],
                             ids=["zero", "n", "negative", "one-inside-one-at-n"])
    def test_rejects_boundary_outside_the_order(self, boundaries):
        sf = real_schur_ordered(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="strictly inside 1..n-1"):
            block_diagonalize_similarity(sf, boundaries)

    def test_rejects_repeated_boundary(self):
        sf = real_schur_ordered(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="boundaries must be distinct"):
            block_diagonalize_similarity(sf, [2, 1, 2])

    def test_one_sylvester_solve_per_cluster(self, monkeypatch):
        # each cluster is decoupled from all earlier ones at once: 8 clusters
        # take 7 solves, not one per pair of clusters
        orders = []
        dtrsyl = gjbd.matkernels.lapack.dtrsyl

        def counting(*args, **kwargs):
            orders.append(args[0].shape[0])
            return dtrsyl(*args, **kwargs)

        monkeypatch.setattr(gjbd.matkernels.lapack, "dtrsyl", counting)
        rng = np.random.default_rng(0)
        z = np.triu(rng.standard_normal((16, 16)), 1) + np.diag(np.arange(16.0))
        sf = real_schur_ordered(z)
        boundaries = list(range(2, 16, 2))
        w = block_diagonalize_similarity(sf, boundaries)
        # solve k runs against the leading block of clusters 0..k-1
        assert orders == boundaries
        recon = np.linalg.solve(w, sf.t @ w)
        mask = np.kron(np.eye(8), np.ones((2, 2))) == 0
        tol = 1e3 * np.finfo(float).eps * np.linalg.cond(w) * np.linalg.norm(sf.t)
        assert np.linalg.norm(recon[mask]) <= tol

    @pytest.mark.parametrize("seed", range(8))
    def test_random_residual_and_spectra(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        z = rng.standard_normal((n, n))
        sf = real_schur_ordered(z)
        allowed = (np.flatnonzero(sf.cuts) + 1).tolist()
        if not allowed:
            return
        k = int(rng.integers(1, min(3, len(allowed)) + 1))
        boundaries = sorted(rng.choice(allowed, size=k, replace=False).tolist())
        try:
            w = block_diagonalize_similarity(sf, boundaries)
        except InseparableClustersError:
            return
        recon = np.linalg.solve(w, sf.t @ w)
        target = np.zeros((n, n))
        edges = [0] + boundaries + [n]
        for j in range(len(edges) - 1):
            sl = slice(edges[j], edges[j + 1])
            target[sl, sl] = sf.t[sl, sl]
            # the block carries exactly the eigenvalues of its cluster
            got = np.sort_complex(np.linalg.eigvals(recon[sl, sl]))
            want = np.sort_complex(np.linalg.eigvals(sf.t[sl, sl]))
            assert np.allclose(got, want)
        kappa = np.linalg.cond(w)
        tol = 1e3 * np.finfo(float).eps * kappa * np.linalg.norm(sf.t)
        assert np.linalg.norm(recon - target) <= tol


class TestEconomicQR:
    def test_orthonormal_input(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        u, r = economic_qr(q)
        assert np.allclose(np.abs(r), np.eye(3), atol=1e-12)
        assert np.allclose(u * np.sign(np.diag(r)), q)

    def test_column_scaling(self):
        u, r = economic_qr(np.array([[2.0], [0.0]]))
        assert np.allclose(np.abs(u), [[1.0], [0.0]])
        assert np.allclose(np.abs(r), [[2.0]])

    def test_random_property(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 2))
        u, r = economic_qr(a)
        assert np.linalg.norm(u.T @ u - np.eye(2)) <= 1e-12
        assert np.linalg.norm(u @ r - a) <= 1e-12 * np.linalg.norm(a)
        # a stack takes one call whose members equal the 2-D calls bit for bit
        stack = rng.standard_normal((3, 6, 3))
        u, r = economic_qr(stack)
        assert u.shape == (3, 6, 3) and r.shape == (3, 3, 3)
        for b, member in enumerate(stack):
            u_b, r_b = economic_qr(member)
            assert np.array_equal(u[b], u_b) and np.array_equal(r[b], r_b)

    @pytest.mark.parametrize("a", [np.ones((2, 3)), np.ones((3, 2, 3)), np.ones(4)],
                             ids=["wide", "wide-stack", "vector"])
    def test_rejects_more_columns_than_rows(self, a):
        with pytest.raises(ValueError, match="k <= n"):
            economic_qr(a)

    def test_rank_deficiency_detected(self):
        a = np.ones((4, 2))
        with pytest.raises(DegenerateBlockBasisError):
            economic_qr(a)
        # one rank-deficient member fails the whole stack
        stack = np.random.default_rng(6).standard_normal((3, 4, 2))
        stack[1] = a
        with pytest.raises(DegenerateBlockBasisError):
            economic_qr(stack)


class TestLargestPrincipalAngle:
    def test_identical_subspaces(self):
        rng = np.random.default_rng(1)
        e = rng.standard_normal((7, 3))
        assert largest_principal_angle(e, e) <= 1e-10

    def test_orthogonal_lines(self):
        e = np.array([[1.0], [0.0]])
        f = np.array([[0.0], [1.0]])
        assert abs(largest_principal_angle(e, f) - np.pi / 2) <= 1e-12

    def test_quarter_angle(self):
        e = np.array([[1.0], [0.0]])
        f = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        assert abs(largest_principal_angle(e, f) - np.pi / 4) <= 1e-12

    def test_column_operation_invariance(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal((8, 3))
        f = rng.standard_normal((8, 2))
        base = largest_principal_angle(e, f)
        mixed = largest_principal_angle(e @ rng.standard_normal((3, 3)), f * 3.0)
        # generic mixing keeps the span almost surely
        assert abs(base - mixed) <= 1e-8

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            largest_principal_angle(np.zeros((4, 2)), np.eye(4)[:, :1])

    @pytest.mark.parametrize("angle", [1e-9, np.pi / 4 - 1e-3, np.pi / 4 + 1e-3, np.pi / 2 - 1e-2],
                             ids=["tiny", "below-quarter", "above-quarter", "near-right"])
    @pytest.mark.parametrize("shape_e, shape_f", [((7, 3), (7, 2)), ((7, 2), (7, 3)),
                                                  ((5, 1), (5, 1))],
                             ids=["wide-narrow", "narrow-wide", "lines"])
    def test_matches_scipy_reference(self, shape_e, shape_f, angle):
        # the cosine rule switches to the sine at cos^2 = 0.5, so the angles
        # straddle pi/4; the other principal angles are a third of the largest.
        # The reference takes the sine whenever its largest cosine passes the
        # switch, which loses about eps / (pi/2 - angle) near pi/2, so the
        # near-right angle stays 1e-2 away
        rng = np.random.default_rng(5)
        n, (p, q) = shape_e[0], sorted((shape_e[1], shape_f[1]), reverse=True)
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        thetas = np.full(q, angle / 3.0)
        thetas[0] = angle
        wide = basis[:, :p]
        narrow = np.cos(thetas) * basis[:, :q] + np.sin(thetas) * basis[:, p:p + q]
        e, f = (wide, narrow) if shape_e[1] >= shape_f[1] else (narrow, wide)
        # column operations keep each span but defeat an already orthonormal input
        e = e @ (rng.standard_normal((e.shape[1],) * 2) + 3.0 * np.eye(e.shape[1]))
        f = f @ (rng.standard_normal((f.shape[1],) * 2) + 3.0 * np.eye(f.shape[1]))
        want = scipy.linalg.subspace_angles(e, f)[0]
        assert abs(want - angle) <= 1e-10
        assert abs(largest_principal_angle(e, f) - want) <= 1e-12


class TestSepLower:
    def test_scalar_gap(self):
        assert abs(sep_lower(np.array([[1.0]]), np.array([[3.0]])) - 2.0) <= 1e-12

    def test_equal_blocks_are_inseparable(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3))
        assert sep_lower(g, g) <= 1e-12 * np.linalg.norm(g)

    def test_rotation_example(self):
        g_j = np.array([[0.0]])
        g_k = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert abs(sep_lower(g_j, g_k) - 1.0) <= 1e-12

    def test_zero_iff_spectra_intersect(self):
        shared = sep_lower(np.diag([1.0, 2.0]), np.diag([2.0, 5.0]))
        assert shared <= 1e-12
        disjoint = sep_lower(np.diag([1.0, 2.0]), np.diag([4.0, 5.0]))
        assert disjoint > 0.5


class TestSymmetricOrthogonalize:
    def test_matches_inverse_sqrt_form(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((5, 5))
        got = symmetric_orthogonalize(w)
        evals, evecs = np.linalg.eigh(w.T @ w)
        want = w @ evecs @ np.diag(evals ** -0.5) @ evecs.T
        assert np.allclose(got, want)
        assert np.linalg.norm(got.T @ got - np.eye(5)) <= 1e-12
