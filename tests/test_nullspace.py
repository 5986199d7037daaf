import numpy as np
import pytest
import scipy.linalg

from gjbd.datagen import generate_model
from gjbd.matkernels import perfect_shuffle
from gjbd.nullspace import (
    MatrixSet,
    basis_excluding_identity,
    build_stacked_operator,
    delta_nullspace,
    exact_nullspace,
    exact_rank_tolerance,
    residual,
    trace_gram,
)
from gjbd.partition import Partition


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
