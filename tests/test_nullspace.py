import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from gjbd import nullspace
from gjbd.datagen import generate_model
from gjbd.matkernels import NumericalError
from gjbd.nullspace import (
    MatrixSet,
    _apply_k,
    _apply_kt,
    _apply_q,
    _bisect,
    _gram,
    _lapack,
    basis_excluding_identity,
    delta_nullspace,
    exact_nullspace,
    exact_rank_tolerance,
    pair_grams,
    trace_gram,
)
from gjbd.partition import Partition
from gjbd.solvers import SolverConfig, conservative_solve, exact_solve, greedy_solve
from oracles import build_stacked_operator, nonunique_example, perfect_shuffle, residual


def vec(z):
    return z.flatten(order="F")


def random_exact_set(p, m, seed):
    return generate_model(p, m, np.inf, seed).a


def spans_identity(b):
    """Whether the identity lies in the span of ``b.basis``: its coordinates
    there have norm at least ``1 - 1e-8`` (0 for an empty basis)."""
    coords = np.array([np.trace(z) / np.sqrt(len(z)) for z in b.basis])
    return np.linalg.norm(coords) >= 1.0 - 1e-8


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

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 0)], ids=["no-matrices", "order-zero"])
    def test_rejects_empty(self, shape):
        with pytest.raises(ValueError, match="need m >= 1 matrices of order n >= 1"):
            MatrixSet(np.zeros(shape))

    @pytest.mark.parametrize("mats, dtype", [
        (np.ones((1, 2, 2), dtype=complex), "complex128"),
        (np.ones((1, 2, 2), dtype=bool), "bool"),
        ([[["1", "2"], ["3", "4"]]], "<U1"),
    ], ids=["complex", "bool", "strings"])
    def test_rejects_entries_that_are_not_real_numbers(self, mats, dtype):
        # numpy would drop the imaginary part, or read True and "1" as 1.0
        with pytest.raises(ValueError, match=f"real numbers, got dtype {dtype}"):
            MatrixSet(mats)

    def test_accepts_integer_entries(self):
        a = MatrixSet(np.arange(8, dtype=np.uint8).reshape(2, 2, 2))
        assert a.mats.dtype == float and a.mats[1, 1, 1] == 7.0

    @pytest.mark.parametrize("top, exponent", [(3.0, 2), (0.5, 0), (2.0 ** -600, -599), (0.0, 0)])
    def test_unit_is_scaled_by_a_power_of_two(self, top, exponent):
        mats = np.diag([top, -top / 3.0])[None]
        a = MatrixSet(mats)
        unit = a.unit
        assert a.exponent == exponent
        assert np.array_equal(np.ldexp(unit.mats, exponent), a.mats)
        assert (unit is a) is (exponent == 0)
        assert unit.exponent == 0 and unit.unit is unit


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

    def test_pair_grams_are_principal_submatrices(self):
        # the non-unique 4x4 fixture, whose two equal 2x2 blocks are coupled,
        # and a random 3x3 block coupled to neither
        fixture, _ = nonunique_example([1.0, -0.4, 2.2], [0.8, 1.5, -1.0])
        rng = np.random.default_rng(5)
        mats = np.zeros((3, 7, 7))
        mats[:, :4, :4] = fixture.mats
        mats[:, 4:, 4:] = rng.uniform(-1.0, 1.0, (3, 3, 3))
        a, p = MatrixSet(mats), Partition((2, 2, 3))
        # the largest entry, 2.2, is scaled to 0.55
        ell = build_stacked_operator(MatrixSet(np.ldexp(mats, -2)))
        dense = ell.T @ ell
        slices = p.slices()
        groups = pair_grams(a, p)
        assert [pairs for pairs, _ in groups] == [[(0, 1)], [(0, 2), (1, 2)]]
        for pairs, grams in groups:
            for (j, k), gram in zip(pairs, grams):
                rows_j, rows_k = range(7)[slices[j]], range(7)[slices[k]]
                # vec(Z) is column-major: Z[r, c] is entry c * n + r
                ids = ([c * 7 + r for r in rows_j for c in rows_k]
                       + [c * 7 + r for r in rows_k for c in rows_j])
                want = dense[np.ix_(ids, ids)]
                assert np.linalg.norm(gram - want) <= 1e-13 * np.linalg.norm(want)
                evals = np.linalg.eigvalsh(gram)
                at_rounding = evals[0] <= 1e3 * np.finfo(float).eps * evals[-1]
                assert at_rounding == ((j, k) == (0, 1)), (j, k, evals[0] / evals[-1])
        # scaling by a power of two leaves every Gram matrix's bits alone
        for scale in (-600, 600):
            scaled = pair_grams(MatrixSet(np.ldexp(mats, scale)), p)
            assert all(np.array_equal(g, h) for (_, g), (_, h) in zip(scaled, groups))


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


def fuzz_set(rng, kind, orders=(2, 9)):
    """A set of one ``kind``, of order drawn from ``range(*orders)``."""
    n = int(rng.integers(*orders))
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
    def test_order_one_is_the_zero_operator(self, monkeypatch):
        # a scalar commutes with its transpose, so K vanishes: one zero
        # value and the 1 x 1 identity, without a tridiagonal reduction
        monkeypatch.setattr(nullspace.lapack, "dsytrd", None)
        a = MatrixSet(np.array([[[2.0]], [[-1.5]]]))
        sigma, vt = nullspace._near_null_svd(a, lambda s: 0.0)
        assert np.array_equal(sigma, [0.0]) and np.array_equal(vt, [[1.0]])
        for b in (delta_nullspace(a, 1.2), exact_nullspace(a)):
            assert len(b.basis) == 1 and np.array_equal(b.basis[0], [[1.0]])

    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_order_two_is_the_dense_svd(self, monkeypatch, kind):
        # order 2 takes the thin SVD of K itself: all four values and rows,
        # the values to dense-SVD precision and every span that the dense
        # SVD separates by a gap
        monkeypatch.setattr(nullspace.lapack, "dsytrd", None)
        rng = np.random.default_rng(60 + FUZZ_KINDS.index(kind))
        checked = 0
        for _ in range(50):
            a = fuzz_set(rng, kind, orders=(2, 3))
            _, dense, dense_vt = np.linalg.svd(build_stacked_operator(a))
            sigma, vt = nullspace._near_null_svd(a, lambda s: 0.0)
            assert sigma.shape == (4,) and vt.shape == (4, 4)
            assert np.all(np.abs(sigma - dense) <= 1e-13 * dense[0])
            for k in range(1, 4):
                gap = dense[3 - k] - dense[4 - k]
                if gap <= 1e-6 * dense[0]:
                    continue
                angles = scipy.linalg.subspace_angles(vt[4 - k:].T, dense_vt[4 - k:].T)
                assert angles.max() <= 1e-13 * dense[0] / gap
                checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_window_spans_lowest_gram_eigenvectors(self, kind):
        # the bisection/dstein window, taken from the tridiagonal basis to
        # G's by dormqr, against a full eigh of the same G, for every k at
        # which the eigengap bounds the eigenvector error.
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
            for k in range(1, min(16, len(lam))):
                gap = lam[k] - lam[k - 1]
                if gap <= 1e-6 * lam[-1]:
                    continue
                window = _bisect(diag, offdiag, True, 1, k)
                (y,) = _lapack("dstein", diag, offdiag, *window)
                v = _apply_q(refl, tau, y)
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
        dsytrd, dstein = nullspace.lapack.dsytrd, nullspace.lapack.dstein

        def recording_dsytrd(g, **kwargs):
            reductions.append((len(g), kwargs.get("lwork", len(g))))
            return dsytrd(g, **kwargs)

        def recording_window(diag, offdiag, w, *args, **kwargs):
            v, *rest = dstein(diag, offdiag, w, *args, **kwargs)
            windows.append((len(diag), len(w), v.shape))
            return (v, *rest)

        monkeypatch.setattr(nullspace.lapack, "dsytrd", recording_dsytrd)
        monkeypatch.setattr(nullspace.lapack, "dstein", recording_window)
        calls = 0
        # order 3 is the smallest that the tridiagonal route takes
        for sizes, snr in [((3, 3, 3), 40.0), ((5, 5, 5, 5), 40.0), ((2, 2, 2), np.inf),
                           ((1, 2), 40.0)]:
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
        dstein = nullspace.lapack.dstein

        def counting(*args, **kwargs):
            v, *rest = dstein(*args, **kwargs)
            windows.append(v.shape[1])
            return (v, *rest)

        monkeypatch.setattr(nullspace.lapack, "dstein", counting)
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

    @pytest.mark.parametrize("gamma", ["1.5", b"1.5"], ids=["str", "bytes"])
    def test_rejects_string_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            delta_nullspace(MatrixSet(np.eye(2)[None]), gamma)

    def test_basis_invariants_on_noisy_model(self):
        inst = generate_model(Partition((2, 3)), m=8, snr=40, seed=5)
        b = delta_nullspace(inst.a, 1.2)
        assert b.dim >= 1
        assert np.all(np.diff(b.sigma) <= 1e-12)  # non-increasing
        assert b.sigma[-1] <= exact_rank_tolerance(inst.a, b.sigma[0])
        assert spans_identity(b)
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
        assert spans_identity(b)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_extreme_scale(self, scale):
        # the null space of K ignores the scale of the A_i, but the squares
        # in K.T K would underflow or overflow at these scales; at order 2,
        # the dense SVD must be as scale-free
        for sizes in [(2, 3), (1, 1)]:
            inst = generate_model(Partition(sizes), m=4, snr=np.inf, seed=0)
            a = MatrixSet(scale * inst.a.mats)
            for b in (delta_nullspace(a, 1.2), exact_nullspace(a)):
                assert b.dim == 2
                assert spans_identity(b)

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

    @pytest.mark.parametrize("k, bound", [(6, 2.5), (8, 1.6)], ids=["6", "8"])
    def test_kernel_holds_one_gram_sized_array(self, k, bound):
        # G is built in its own buffer, reduced there in place and its
        # reflectors read there, and the corrected step solves in the
        # tridiagonal basis, so a call holds one n**2 x n**2 array, plus the
        # window products and LAPACK workspace; the m * n**2 x k products
        # weigh about 0.8 of G at k = 6, far less at k = 8
        inst = generate_model(Partition((k,) * 4), 20, 40.0, 0)
        n2 = (4 * k) ** 2
        tracemalloc.start()
        try:
            delta_nullspace(inst.a, 1.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * n2 * n2 * 8

    def test_reflectors_are_read_in_gram_buffer(self, monkeypatch):
        # dsytrd reduces G's own buffer and dormqr reads the reflectors as a
        # view of it; ravel(order="F") would copy a buffer that is not
        # F-contiguous without a word, so the view is checked here
        lapack = nullspace.lapack
        reduced, read = [], []
        dsytrd, dormqr = lapack.dsytrd, lapack.dormqr

        def recording_dsytrd(g, **kwargs):
            out = dsytrd(g, **kwargs)
            reduced.append((g, out[0]))
            return out

        def recording_dormqr(side, trans, reflectors, *args):
            read.append(reflectors)
            return dormqr(side, trans, reflectors, *args)

        monkeypatch.setattr(lapack, "dsytrd", recording_dsytrd)
        monkeypatch.setattr(lapack, "dormqr", recording_dormqr)
        delta_nullspace(generate_model(Partition((3, 3, 3)), 20, 40.0, 0).a, 1.2)
        ((g, refl),) = reduced
        assert np.shares_memory(refl, g) and refl.flags.f_contiguous and read
        n2 = len(g)
        for reflectors in read:
            assert reflectors.shape == (n2, n2 - 1) and np.shares_memory(reflectors, g)
            assert np.array_equal(reflectors[:-1], refl[1:, :-1])


class TestPowerOfTwoScaling:
    """The kernel scales a set once, at its entry, to a largest entry below
    1, so a power-of-two multiple of a set gets the same basis to the bit,
    at every order and up to the ends of the float range."""

    def test_near_overflow_keeps_dimensions_and_answers(self):
        a = generate_model(Partition((3, 3, 3)), 4, 40.0, 0).a
        big = MatrixSet(np.ldexp(a.mats, 1018))  # largest entry 4.8e307
        # sigma_max and greedy's cost are inf, without a numpy warning; the
        # counts are not
        got = (delta_nullspace(big, 1.2), exact_nullspace(big))
        greedy, exact = greedy_solve(big), exact_solve(big)
        assert [b.dim for b in got] == [2, 1]
        for b, want in zip(got, (delta_nullspace(a, 1.2), exact_nullspace(a))):
            assert [z.tobytes() for z in b.basis] == [z.tobytes() for z in want.basis]
        assert greedy.partition.sizes == (3, 3, 3) and exact.partition.sizes == (9,)
        assert greedy.w.tobytes() == greedy_solve(a).w.tobytes()
        assert exact.w.tobytes() == exact_solve(a).w.tobytes()

    @pytest.mark.parametrize("sizes, k", [((3, 3, 3), -1045), ((1, 1), -1029)])
    def test_subnormal_set_keeps_the_identity(self, sizes, k):
        # every entry is subnormal; the identity solves the equations of
        # any set exactly, so the exact null space holds it
        a = MatrixSet(np.ldexp(generate_model(Partition(sizes), 4, 40.0, 0).a.mats, k))
        assert np.abs(a.mats).max() < np.finfo(float).tiny
        b = exact_nullspace(a)
        assert b.dim >= 1 and spans_identity(b)


def reporting_failure(routine):
    """``routine`` with its ``info``, the last output, set to 1."""
    def failed(*args, **kwargs):
        return (*routine(*args, **kwargs)[:-1], 1)
    return failed


@pytest.mark.parametrize("routine", ["dstebz", "dstein", "dptsv"])
def test_lapack_failure_raises(monkeypatch, routine):
    # a routine that reports a failure stops the solve instead of passing
    # its output on; at 40 dB the window is smaller than the space, so the
    # corrected step solves with dptsv
    lapack = nullspace.lapack
    monkeypatch.setattr(lapack, routine, reporting_failure(getattr(lapack, routine)))
    a = generate_model(Partition((3, 3, 3)), 20, 40.0, 0).a
    with pytest.raises(NumericalError, match=routine):
        delta_nullspace(a, 1.2)


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
    def _residue_basis(sin):
        # an orthonormal basis [first, y] whose first element misses the
        # identity by sin(theta); y is trace-free
        rng = np.random.default_rng(3)
        ident = np.eye(3) / np.sqrt(3)
        q, _ = np.linalg.qr(np.column_stack([vec(ident), rng.standard_normal((9, 2))]))
        x, y = (q[:, j].reshape((3, 3), order="F") for j in (1, 2))
        first = np.sqrt(1.0 - sin ** 2) * ident + sin * x
        b = nullspace.NullSpaceBasis(delta=1.0, sigma=np.zeros(9), basis=[first, y],
                                     rank_cutoff=False)
        return b, y

    def test_drops_identity_residue_when_flagged(self):
        # a miss of 1e-6, well inside spans_identity's 1e-8 on the norm, is
        # rounding residue, not a trace-free direction of the space, and
        # must not come back
        b, y = self._residue_basis(1e-6)
        zs = basis_excluding_identity(b)
        assert len(zs) == 1
        assert abs(abs(np.sum(zs[0] * y)) - 1.0) <= 1e-12

    def test_drops_identity_residue_when_not_flagged(self):
        # a miss of 1e-3 is past spans_identity's 1e-8; the trace
        # constraint does not test for the identity and still leaves the
        # one trace-free direction
        b, y = self._residue_basis(1e-3)
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
        # the upper triangle has the bits of the entrywise sum of each pair
        assert all(h[j, k] == float(np.sum(zs[j] * zs[k].T))
                   for j in range(4) for k in range(j, 4))
        want = np.array([[np.trace(zi @ zj) for zj in zs] for zi in zs])
        assert np.allclose(h, want, atol=1e-12)
