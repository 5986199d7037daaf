import numpy as np
import pytest

from gjbd.analysis import cost_ls, offbdiag
from gjbd.datagen import (
    augment_identity,
    generate_model,
    nonunique_example,
    orthogonalize_solution,
)
from gjbd.nullspace import MatrixSet
from gjbd.partition import Partition
from gjbd.solvers import exact_solve


class TestGenerateModel:
    def test_infinite_snr_is_exactly_block_diagonal(self):
        inst = generate_model(Partition((2, 3)), m=6, snr=np.inf, seed=0)
        for di in inst.d:
            assert np.all(offbdiag(di, inst.p_true) == 0.0)

    def test_congruence_holds_exactly(self):
        inst = generate_model(Partition((2, 2)), m=3, snr=20, seed=1)
        for ai, di in zip(inst.a.mats, inst.d):
            assert np.array_equal(ai, inst.v.T @ di @ inst.v)

    def test_case_one_shape(self):
        inst = generate_model(Partition((3, 3, 3)), m=20, snr=40, seed=2)
        assert inst.a.m == 20 and inst.a.n == 9

    def test_noise_scale_matches_snr(self):
        # snr 20 -> off-block standard deviation 0.1
        p = Partition((3, 3, 4))
        pooled = []
        for seed in range(6):
            inst = generate_model(p, m=20, snr=20, seed=seed)
            for di in inst.d:
                off = offbdiag(di, p)
                mask = np.ones_like(off, dtype=bool)
                for sl in p.slices():
                    mask[sl, sl] = False
                pooled.append(off[mask])
        var = np.concatenate(pooled).var()
        assert abs(var - 0.01) <= 0.001

    def test_bit_identical_reproducibility(self):
        one = generate_model(Partition((2, 3)), m=5, snr=30, seed=42)
        two = generate_model(Partition((2, 3)), m=5, snr=30, seed=42)
        assert np.array_equal(one.a.mats, two.a.mats)
        assert np.array_equal(one.v, two.v)

    def test_mixing_matrix_well_conditioned(self):
        inst = generate_model(Partition((5, 5)), m=2, snr=10, seed=3)
        assert np.linalg.cond(inst.v) <= 1e8

    def test_rejects_zero_matrices(self):
        with pytest.raises(ValueError):
            generate_model(Partition((2,)), m=0, snr=10, seed=0)

    @pytest.mark.parametrize("snr", [-np.inf, np.nan], ids=["-inf", "nan"])
    def test_rejects_snr_neither_finite_nor_plus_inf(self, snr):
        with pytest.raises(ValueError, match="SNR"):
            generate_model(Partition((2, 2)), m=3, snr=snr, seed=0)


class TestNonuniqueExample:
    def test_both_solutions_have_zero_cost(self):
        a, w4 = nonunique_example([1.0], [1.0])
        p = Partition((2, 2))
        assert cost_ls(a, p, np.eye(4)) == 0.0
        assert cost_ls(a, p, w4) == 0.0

    def test_w4_not_block_diagonal_times_permutation(self):
        _, w4 = nonunique_example([2.0], [3.0])
        # the off-diagonal 2x2 blocks of w4 are nonzero in both positions,
        # which no product of a block-diagonal factor and a block
        # permutation can produce
        assert np.any(w4[:2, 2:] != 0.0) and np.any(w4[2:, :2] != 0.0)

    def test_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            nonunique_example([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            nonunique_example([1.0], [0.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            nonunique_example([1.0, 2.0], [1.0])


class TestAugmentIdentity:
    def test_prepends_identity(self):
        rng = np.random.default_rng(4)
        a = MatrixSet(rng.standard_normal((3, 4, 4)))
        plus = augment_identity(a)
        assert plus.m == 4 and plus.n == 4
        assert np.array_equal(plus.mats[0], np.eye(4))
        assert np.array_equal(plus.mats[1:], a.mats)

    def test_identity_set_augmentation(self):
        a = MatrixSet(np.eye(3)[None])
        plus = augment_identity(a)
        assert plus.m == 2

    def test_orthogonal_solution_of_commuting_family(self):
        rng = np.random.default_rng(5)
        n = 5
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mats = np.array([q @ np.diag(rng.standard_normal(n)) @ q.T for _ in range(4)])
        a = MatrixSet(mats)
        solution = exact_solve(augment_identity(a), seed=6)
        w_orth = orthogonalize_solution(solution.w)
        assert np.linalg.norm(w_orth.T @ w_orth - np.eye(n)) <= 1e-10
        assert cost_ls(a, solution.partition, w_orth) <= 1e-18 * a.total_sq_norm()
        assert solution.partition.card == n
