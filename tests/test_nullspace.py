import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from gjbd import nullspace
from gjbd.datagen import generate_model
from gjbd.nullspace import (
    MatrixSet,
    _apply_k,
    _apply_kt,
    _bisect,
    _gram,
    _gram_window,
    basis_excluding_identity,
    delta_nullspace,
    exact_nullspace,
    exact_rank_tolerance,
    trace_gram,
)
from gjbd.partition import Partition
from gjbd.solvers import SolverConfig, conservative_solve, greedy_solve
from oracles import build_stacked_operator, perfect_shuffle, residual


def vec(z):
    return z.flatten(order="F")


def random_exact_set(p, m, seed):
    return generate_model(p, m, np.inf, seed).a


class TestMatrixSet:
    def test_shape_and_counts(self):
        a = MatrixSet(np.zeros((3, 4, 4)))
        assert a.m == 3 and a.n == 4

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            MatrixSet(np.zeros((2, 3, 4)))

    def test_rejects_nonfinite(self):
        mats = np.zeros((1, 2, 2))
        mats[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            MatrixSet(mats)


class TestBuildStackedOperator:
    def test_identity_direction_in_kernel(self):
        rng = np.random.default_rng(0)
        a = MatrixSet(rng.standard_normal((3, 5, 5)))
        ell = build_stacked_operator(a)
        out = ell @ vec(np.eye(5))
        assert np.all(out == 0.0)

    def test_single_diagonal_matrix_rank_one(self):
        a = MatrixSet(np.diag([1.0, 2.0])[None])
        ell = build_stacked_operator(a)
        assert np.linalg.matrix_rank(ell) == 1

    def test_shape(self):
        a = MatrixSet(np.zeros((3, 4, 4)) + np.eye(4))
        assert build_stacked_operator(a).shape == (48, 16)

    def test_image_stacks_couplings(self):
        rng = np.random.default_rng(1)
        a = MatrixSet(rng.standard_normal((2, 4, 4)))
        z = rng.standard_normal((4, 4))
        out = build_stacked_operator(a) @ vec(z)
        want = np.concatenate([vec(mat @ z - z.T @ mat) for mat in a.mats])
        assert np.allclose(out, want, atol=1e-13)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (3, 4), (20, 9), (2, 13)])
    def test_equals_kronecker_formula(self, m, n):
        # reference: one Kronecker pair per matrix, the second with its
        # columns permuted by the perfect shuffle, stacked matrix by matrix
        rng = np.random.default_rng(100 + n)
        a = MatrixSet(rng.standard_normal((m, n, n)))
        eye = np.eye(n)
        shuffle = perfect_shuffle(n)
        want = np.vstack([np.kron(eye, mat) - np.kron(mat.T, eye)[:, shuffle]
                          for mat in a.mats])
        assert np.array_equal(build_stacked_operator(a), want)


KERNEL_SHAPES = [(1, 1), (1, 2), (3, 4), (20, 9), (2, 13)]


class TestOperatorKernels:
    """The solvers' Gram matrix and K-products against the dense operator."""

    @pytest.mark.parametrize("m, n", KERNEL_SHAPES)
    def test_gram_equals_dense(self, m, n):
        rng = np.random.default_rng(100 + n)
        a = MatrixSet(rng.standard_normal((m, n, n)))
        ell = build_stacked_operator(a)
        want = ell.T @ ell
        assert np.linalg.norm(_gram(a) - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("m, n", KERNEL_SHAPES)
    def test_products_equal_dense(self, m, n):
        rng = np.random.default_rng(200 + n)
        a = MatrixSet(rng.standard_normal((m, n, n)))
        ell = build_stacked_operator(a)
        v = rng.standard_normal((n * n, 3))
        y = rng.standard_normal((m * n * n, 3))
        assert np.allclose(_apply_k(a, v), ell @ v, rtol=0.0, atol=1e-12)
        assert np.allclose(_apply_kt(a, y), ell.T @ y, rtol=0.0, atol=1e-12)


def dense_dims(a, sigma, gamma):
    """Dimensions of ``delta_nullspace(a, gamma)`` and ``exact_nullspace(a)``
    by their thresholds, applied to ``sigma`` from the dense SVD."""
    n2 = a.n * a.n
    if sigma[0] == 0.0:
        return n2, n2
    tol = exact_rank_tolerance(a, sigma[0])
    second_smallest = sigma[n2 - 2]
    delta = tol if second_smallest <= tol else gamma * second_smallest
    return int(np.sum(sigma < delta)), int(np.sum(sigma < tol))


FUZZ_KINDS = ["skew", "symmetric", "general", "model"]
FUZZ_SETS = 300


def fuzz_set(rng, kind):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 5))
    if kind == "model":
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, n - sum(sizes) + 1)))
        snr = float(rng.choice([np.inf, 60.0, 20.0]))
        return generate_model(Partition(tuple(sizes)), m, snr, int(rng.integers(1 << 30))).a
    x = rng.standard_normal((m, n, n))
    if kind == "skew":
        x = x - x.transpose(0, 2, 1)
    elif kind == "symmetric":
        x = x + x.transpose(0, 2, 1)
    return MatrixSet(x)


@pytest.mark.parametrize("kind", FUZZ_KINDS)
def test_matches_dense_svd(kind):
    # the dimensions equal the dense SVD's, and every singular value up to
    # 1.5 * delta agrees with it at dense-SVD precision, so none of them
    # may come from the coarser square roots of the Gram eigenvalues; so
    # does sigma_max.  b.sigma holds only the ends of the spectrum, so the
    # low values are indexed from the end.  The collected basis spans the
    # dense SVD's near-null space
    rng = np.random.default_rng(FUZZ_KINDS.index(kind))
    for _ in range(FUZZ_SETS):
        a = fuzz_set(rng, kind)
        _, sigma, vt = np.linalg.svd(build_stacked_operator(a))
        got = (delta_nullspace(a, 1.2), exact_nullspace(a))
        for b, dim in zip(got, dense_dims(a, sigma, 1.2)):
            assert b.dim == dim
            assert abs(b.sigma[0] - sigma[0]) <= 1e-13 * sigma[0]
            low = int(np.sum(sigma <= 1.5 * b.delta))
            assert low <= len(b.sigma)
            assert np.all(np.abs(b.sigma[len(b.sigma) - low:] - sigma[sigma.size - low:])
                          <= 1e-13 * sigma[0])
            if dim:
                cols = np.column_stack([vec(z) for z in b.basis])
                angles = scipy.linalg.subspace_angles(cols, vt[vt.shape[0] - dim:].T)
                assert angles.max() <= 1e-6


class TestNearNullSvd:
    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_window_spans_lowest_gram_eigenvectors(self, kind):
        # the bisection/dstein/dormqr window against a full eigh of the same
        # G, for every k at which the eigengap bounds the eigenvector error.
        # Inverse iteration reorthogonalizes within clusters and keeps the
        # vectors orthogonal to O(N eps) for G of order N; the corrected
        # step orthonormalizes them again
        rng = np.random.default_rng(40 + FUZZ_KINDS.index(kind))
        eps = np.finfo(float).eps
        checked = 0
        for _ in range(20):
            g = _gram(fuzz_set(rng, kind))
            lam, vecs = np.linalg.eigh(g)
            refl, diag, offdiag, tau, _ = scipy.linalg.lapack.dsytrd(g, lower=1)
            reflectors = np.asfortranarray(refl[1:, :-1])
            for k in range(1, min(16, len(lam))):
                gap = lam[k] - lam[k - 1]
                if gap <= 1e-6 * lam[-1]:
                    continue
                window = _bisect(diag, offdiag, True, 1, k)
                v = _gram_window(reflectors, tau, diag, offdiag, window)
                assert v.shape == (len(lam), k)
                assert np.linalg.norm(v.T @ v - np.eye(k)) <= 1e3 * len(lam) * eps
                angles = scipy.linalg.subspace_angles(v, vecs[:, :k])
                assert angles.max() <= 1e3 * eps * lam[-1] / gap
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (1, 2, 3, 4), (5, 5, 5, 5)],
                             ids=["(3,3,3)", "(1,2,3,4)", "(5,5,5,5)"])
    def test_one_refinement_pass(self, monkeypatch, sizes):
        # the window is chosen up front, so each call applies K twice: once
        # in the corrected step and once in the Rayleigh-Ritz SVD, or only
        # in the SVD when the window is the whole space
        applied = []
        passes = []
        apply_k, near_null_svd = nullspace._apply_k, nullspace._near_null_svd

        def counting_apply_k(a, v):
            applied.append(v.shape[1])
            return apply_k(a, v)

        def counting_near_null_svd(a, threshold):
            del applied[:]
            sigma, vt = near_null_svd(a, threshold)
            passes.append((len(applied), 2 if vt.shape[0] < a.n * a.n else 1))
            return sigma, vt

        monkeypatch.setattr(nullspace, "_apply_k", counting_apply_k)
        monkeypatch.setattr(nullspace, "_near_null_svd", counting_near_null_svd)
        p = Partition(sizes)
        snrs = [40.0] if p.n > 10 else [20.0, 40.0, 60.0, 80.0]
        for snr in snrs:
            for seed in range(2):
                inst = generate_model(p, 20, snr, seed)
                cfg = SolverConfig(epsilon=3 * p.n ** 2 * 10 ** (-snr / 20), seed=seed)
                greedy_solve(inst.a, cfg)
                conservative_solve(inst.a, cfg)
        assert len(passes) > 2 * len(snrs)
        assert all(calls == want for calls, want in passes), passes

    def test_blocked_reduction_and_window_columns(self, monkeypatch):
        # LAPACK falls back to the unblocked reduction unless dsytrd gets
        # the workspace dsytrd_lwork asks for, and the window routine
        # returns its k vectors, not an N x N array as dstemr did
        reductions = []
        windows = []
        dsytrd, gram_window = nullspace.lapack.dsytrd, nullspace._gram_window

        def recording_dsytrd(g, **kwargs):
            reductions.append((len(g), kwargs.get("lwork", len(g))))
            return dsytrd(g, **kwargs)

        def recording_window(reflectors, tau, diag, offdiag, window):
            v = gram_window(reflectors, tau, diag, offdiag, window)
            windows.append((len(diag), len(window[0]), v.shape))
            return v

        monkeypatch.setattr(nullspace.lapack, "dsytrd", recording_dsytrd)
        monkeypatch.setattr(nullspace, "_gram_window", recording_window)
        calls = 0
        for sizes, snr in [((3, 3, 3), 40.0), ((5, 5, 5, 5), 40.0), ((2, 2, 2), np.inf)]:
            a = generate_model(Partition(sizes), 20, snr, 0).a
            delta_nullspace(a, 1.2)
            exact_nullspace(a)
            calls += 2
        assert len(reductions) == calls
        for order, lwork in reductions:
            assert lwork >= scipy.linalg.lapack.dsytrd_lwork(order, lower=1)[0] > order
        assert len(windows) >= calls
        assert all(shape == (order, k) and k < order for order, k, shape in windows)

    def test_window_doubles_until_it_holds_the_cut(self, monkeypatch):
        # a threshold of 0 on the Gram estimate sizes the window at two
        # vectors; the final values put the cut at 0.1 * sigma_max, so the
        # window must double until the first root outside it exceeds twice
        # the cut, and every value up to there comes from the tail
        windows = []
        gram_window = nullspace._gram_window

        def counting(reflectors, tau, diag, offdiag, window):
            v = gram_window(reflectors, tau, diag, offdiag, window)
            windows.append(v.shape[1])
            return v

        monkeypatch.setattr(nullspace, "_gram_window", counting)
        estimated = []

        def threshold(sigma):
            cut = 0.1 * sigma[0] if estimated else 0.0
            estimated.append(cut)
            return cut

        a = generate_model(Partition((3, 3, 3)), 20, 40.0, 0).a
        sigma, vt = nullspace._near_null_svd(a, threshold)
        assert windows[:2] == [2, 4] and len(windows) > 2
        dense = np.linalg.svd(build_stacked_operator(a), compute_uv=False)
        low = int(np.sum(dense <= 2.0 * 0.1 * dense[0]))
        assert vt.shape[0] >= low
        assert np.all(np.abs(sigma[len(sigma) - low:] - dense[dense.size - low:])
                      <= 1e-13 * dense[0])


class TestResidual:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(2)
        a = MatrixSet(rng.standard_normal((4, 3, 3)))
        assert residual(a, np.eye(3)) <= 1e-26

    def test_skew_against_identity_set(self):
        z = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)
        a = MatrixSet(np.eye(2)[None])
        assert abs(residual(a, z) - 4.0) <= 1e-12

    def test_matches_operator_norm(self):
        rng = np.random.default_rng(3)
        a = MatrixSet(rng.standard_normal((3, 4, 4)))
        z = rng.standard_normal((4, 4))
        direct = residual(a, z)
        via_op = float(np.sum((build_stacked_operator(a) @ vec(z)) ** 2))
        assert abs(direct - via_op) <= 1e-12 * max(direct, 1.0)


class TestDeltaNullspace:
    def test_identity_set_dimension(self):
        b = delta_nullspace(MatrixSet(np.eye(2)[None]), 1.2)
        assert b.dim == 3  # symmetric 2x2 matrices

    def test_single_diagonal_dimension(self):
        b = delta_nullspace(MatrixSet(np.diag([1.0, 2.0])[None]), 1.2)
        assert b.dim == 3

    @pytest.mark.parametrize("sizes", [(1, 2), (2, 2), (1, 2, 3), (3, 3)])
    def test_exact_block_diagonal_dimension(self, sizes, seed=11):
        p = Partition(sizes)
        a = random_exact_set(p, m=6, seed=seed)
        b = delta_nullspace(a, 1.2)
        assert b.dim == p.card

    def test_rejects_gamma_at_most_one(self):
        with pytest.raises(ValueError):
            delta_nullspace(MatrixSet(np.eye(2)[None]), 1.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError):
            delta_nullspace(MatrixSet(np.eye(2)[None]), gamma)

    def test_basis_invariants_on_noisy_model(self):
        inst = generate_model(Partition((2, 3)), m=8, snr=40, seed=5)
        b = delta_nullspace(inst.a, 1.2)
        assert b.dim >= 1
        assert np.all(np.diff(b.sigma) <= 1e-12)  # non-increasing
        assert b.sigma[-1] <= exact_rank_tolerance(inst.a, b.sigma[0])
        assert b.includes_identity_direction
        for z in b.basis:
            assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
            assert residual(inst.a, z) <= b.delta ** 2 * (1 + 1e-10)
        gram = np.array([
            [np.sum(zi * zj) for zj in b.basis] for zi in b.basis
        ])
        assert np.linalg.norm(gram - np.eye(b.dim)) <= 1e-12

    def test_rank_matches_pivoted_qr_oracle(self):
        # SVD numerical rank vs an independent rank-revealing factorization
        rng = np.random.default_rng(21)
        for trial in range(10):
            n = int(rng.integers(2, 9))
            parts = []
            left = n
            while left > 0:
                s = int(rng.integers(1, left + 1))
                parts.append(s)
                left -= s
            a = random_exact_set(Partition(tuple(parts)), m=4, seed=100 + trial)
            ell = build_stacked_operator(a)
            b = exact_nullspace(a)
            _, r_fac, _ = scipy.linalg.qr(ell, pivoting=True, mode="economic")
            diag = np.abs(np.diag(r_fac))
            qr_rank = int(np.sum(diag > exact_rank_tolerance(a, diag.max())))
            assert ell.shape[1] - qr_rank == b.dim

    @pytest.mark.parametrize("sizes, snr, seed", [
        ((1, 2, 3, 4), 60.0, [0, 0]),
        ((1, 2, 3, 4), 60.0, [0, 1]),
        ((3, 3, 3), 80.0, [0, 7]),
    ])
    def test_identity_found_at_rank_tolerance(self, sizes, snr, seed):
        # the null sigma must come out far below the rank tolerance of about
        # 4e-13 * sigma_max; the rounding of forming K.T K leaves the lowest
        # Gram eigenvectors too coarse for that unless they are refined
        a = generate_model(Partition(sizes), 20, snr, seed).a
        b = exact_nullspace(a)
        assert b.dim == 1
        assert b.includes_identity_direction

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_extreme_scale(self, scale):
        # the null space of K ignores the scale of the A_i, but the squares
        # in K.T K would underflow or overflow at these scales
        inst = generate_model(Partition((2, 3)), m=4, snr=np.inf, seed=0)
        a = MatrixSet(scale * inst.a.mats)
        for b in (delta_nullspace(a, 1.2), exact_nullspace(a)):
            assert b.dim == 2
            assert b.includes_identity_direction

    def test_memory_stays_below_dense_operator(self):
        # the dense operator alone is 20 * 32**2 * 32**2 doubles, 168 MB
        inst = generate_model(Partition((8, 8, 8, 8)), 20, 40.0, 0)
        tracemalloc.start()
        try:
            delta_nullspace(inst.a, 1.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestBasisExcludingIdentity:
    def test_identity_only_span_is_empty(self):
        b = exact_nullspace(MatrixSet(np.array([np.diag([1.0, 2.0]), np.diag([5.0, 3.0])])))
        # null space of two generic diagonal matrices is the diagonals, dim 2
        zs = basis_excluding_identity(b)
        assert len(zs) == b.dim - 1

    def test_outputs_are_trace_free_unit(self):
        inst = generate_model(Partition((2, 2)), m=6, snr=60, seed=9)
        zs = basis_excluding_identity(delta_nullspace(inst.a, 1.2))
        for z in zs:
            assert abs(np.trace(z)) <= 1e-10
            assert abs(np.linalg.norm(z) - 1.0) <= 1e-10

    def test_identity_set_reduces_dimension(self):
        b = delta_nullspace(MatrixSet(np.eye(2)[None]), 1.2)
        zs = basis_excluding_identity(b)
        assert len(zs) == 2  # trace-zero symmetric 2x2

    @staticmethod
    def _residue_basis(sin, flagged):
        # an orthonormal basis [first, y] whose first element misses the
        # identity by sin(theta); y is trace-free
        rng = np.random.default_rng(3)
        ident = np.eye(3) / np.sqrt(3)
        q, _ = np.linalg.qr(np.column_stack([vec(ident), rng.standard_normal((9, 2))]))
        x, y = (q[:, j].reshape((3, 3), order="F") for j in (1, 2))
        first = np.sqrt(1.0 - sin ** 2) * ident + sin * x
        b = nullspace.NullSpaceBasis(delta=1.0, sigma=np.zeros(9), basis=[first, y],
                                     includes_identity_direction=flagged, rank_cutoff=False)
        return b, y

    def test_drops_identity_residue_when_flagged(self):
        # a miss of 1e-6, well inside the flag's rule, is rounding residue,
        # not a trace-free direction of the space, and must not come back
        b, y = self._residue_basis(1e-6, True)
        zs = basis_excluding_identity(b)
        assert len(zs) == 1
        assert abs(abs(np.sum(zs[0] * y)) - 1.0) <= 1e-12

    def test_drops_identity_residue_when_not_flagged(self):
        # a miss of 1e-3 turns the flag off; the trace constraint does not
        # read it and still leaves the one trace-free direction
        b, y = self._residue_basis(1e-3, False)
        zs = basis_excluding_identity(b)
        assert len(zs) == 1
        assert abs(abs(np.sum(zs[0] * y)) - 1.0) <= 1e-12


class TestTraceGram:
    def test_symmetric_unit(self):
        z = np.array([[1.0, 2.0], [2.0, -1.0]])
        z /= np.linalg.norm(z)
        h = trace_gram([z])
        assert abs(h[0, 0] - 1.0) <= 1e-12

    def test_skew_unit(self):
        z = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)
        h = trace_gram([z])
        assert abs(h[0, 0] + 1.0) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        zs = [rng.standard_normal((4, 4)) for _ in range(4)]
        h = trace_gram(zs)
        assert np.array_equal(h, h.T)
        want = np.array([[np.trace(zi @ zj) for zj in zs] for zi in zs])
        assert np.allclose(h, want, atol=1e-12)
