import numpy as np
import pytest

from gjbd.matkernels import SchurForm, real_schur_ordered
from gjbd.partition import (
    Partition,
    cluster_by_gap,
    partition_equivalent,
)
from oracles import block_permutation


class TestPartition:
    def test_basic_fields(self):
        p = Partition((1, 2, 3))
        assert p.n == 6 and p.card == 3
        assert p.boundaries() == (1, 3)
        assert [s.start for s in p.slices()] == [0, 1, 3]

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition((2, 0))

    @pytest.mark.parametrize("size", [2.9, 2.0, True], ids=["float", "integral-float", "bool"])
    def test_rejects_non_integer_sizes(self, size):
        # int() would truncate 2.9 to 2 and read True as 1
        with pytest.raises(ValueError):
            Partition((size, 1))

    def test_accepts_numpy_integers(self):
        p = Partition((np.int64(2), 1))
        assert p.sizes == (2, 1)
        assert all(type(s) is int for s in p.sizes)

    @pytest.mark.parametrize("sizes", [(1,), (4,), (1, 1, 1), (1, 2, 3), (3, 1, 2, 2)])
    def test_mask_matches_slices(self, sizes):
        p = Partition(sizes)
        expected = np.zeros((p.n, p.n), dtype=bool)
        for sl in p.slices():
            expected[sl, sl] = True
        assert p.mask.dtype == bool
        assert np.array_equal(p.mask, expected)

    def test_pairs_by(self):
        # every pair j < k once, grouped by key in order of first appearance
        p = Partition((2, 1, 2, 1))
        assert p.pairs_by(lambda j, k: p.sizes[j] * p.sizes[k]) == [
            [(0, 1), (0, 3), (1, 2), (2, 3)], [(0, 2)], [(1, 3)]]
        assert Partition((3,)).pairs_by(lambda j, k: 0) == []


def schur_with(re, pair_starts=()):
    """Ordered Schur form with diagonal ``re`` and a 2x2 conjugate-pair
    block (superdiagonal 1, subdiagonal -1) starting at each index in
    ``pair_starts``."""
    t = np.diag(np.asarray(re, dtype=float))
    for s in pair_starts:
        t[s, s + 1], t[s + 1, s] = 1.0, -1.0
    return SchurForm(q=np.eye(t.shape[0]), t=t)


class TestClusterByGap:
    def test_two_pairs_split_in_the_middle(self):
        p = cluster_by_gap(schur_with([0.0, 0.01, 1.0, 1.01]), mu=1.0 / 24.0)
        assert p.boundaries() == (2,)
        assert p.sizes == (2, 2)

    def test_constant_real_parts_single_cluster(self):
        p = cluster_by_gap(schur_with(np.ones(5)), mu=0.3)
        assert p.boundaries() == ()
        assert p.sizes == (5,)

    def test_pair_atomicity_suppresses_boundary(self):
        p = cluster_by_gap(schur_with([0.0, 0.0, 1.0, 1.0], [2]), mu=0.1)
        assert p.boundaries() == (2,)

    def test_pair_block_never_split(self):
        # the pair's diagonal entries differ (a 2x2 block that is not
        # standardized), so only the cut mask keeps the gap inside it out
        p = cluster_by_gap(schur_with([0.0, 0.25, 0.75, 1.0], [1]), mu=0.2)
        assert p.boundaries() == (1, 3)

    @pytest.mark.parametrize("seed", range(10))
    def test_sizes_sum_and_atomicity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        re = np.sort(rng.standard_normal(n))
        starts = []
        i = 0
        while i < n - 1:
            if rng.random() < 0.3:
                re[i + 1] = re[i]
                starts.append(i)
                i += 2
            else:
                i += 1
        p = cluster_by_gap(schur_with(re, starts), mu=1.0 / (8 * max(n - 1, 1)))
        assert p.n == n
        edges = set(p.boundaries())
        assert all(s + 1 not in edges for s in starts)

    @pytest.mark.parametrize("seed", range(40))
    def test_double_pair_real_parts_at_rounding_level(self, seed):
        # Q (I_2 kron [[0, w], [-w, 0]]) Q.T has the eigenvalues +-iw twice, so
        # its real parts are equal in exact arithmetic; the ordered Schur form
        # spreads them by a few ulps, which must not count as a gap
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.5, 2.0)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        z = q @ np.kron(np.eye(2), [[0.0, w], [-w, 0.0]]) @ q.T
        schur = real_schur_ordered(z)
        p = cluster_by_gap(schur, mu=1.0 / 24.0)
        assert p.sizes == (4,)

    def test_unsorted_pair_gives_one_cluster(self):
        # a descent of the whole range: the range is reordering error
        assert cluster_by_gap(schur_with([1.0, 0.0]), 0.5).sizes == (2,)

    def test_rejects_descent_of_mu_times_range(self):
        # a descent of 0.25 in a range of 2 reaches mu * range at mu = 1/8,
        # so the order is rejected as a sort and the range as reordering
        # error; at mu = 1/4 the same descent is below mu * range and the
        # real parts cluster by gap
        schur = schur_with([0.0, 1.0, 0.75, 2.0])
        assert cluster_by_gap(schur, mu=0.125).sizes == (4,)
        assert cluster_by_gap(schur, mu=0.25).sizes == (1, 2, 1)

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.125, 1.5])
    def test_rejects_mu_outside_unit_interval(self, mu):
        with pytest.raises(ValueError):
            cluster_by_gap(schur_with([0.0, 1.0]), mu)

    def test_descent_below_mu_times_range_is_accepted(self):
        p = cluster_by_gap(schur_with([0.0, 1.0, 1.0 - 1e-9, 2.0]), mu=0.1)
        assert p.sizes == (1, 2, 1)


class TestPartitionEquivalent:
    def test_permutation(self):
        assert partition_equivalent(Partition((1, 2, 3)), Partition((3, 1, 2)))

    def test_different_multisets(self):
        assert not partition_equivalent(Partition((2, 2)), Partition((1, 3)))

    def test_different_order_n(self):
        assert not partition_equivalent(Partition((1, 2, 3)), Partition((1, 2, 4)))

    def test_over_split_is_not_equivalent(self):
        # an answer that splits a true block, down to all singletons, has the
        # wrong block sizes even though its blocks group into the true ones
        assert not partition_equivalent(Partition((1,) * 9), Partition((3, 3, 3)))
        assert not partition_equivalent(Partition((3, 1, 2, 3)), Partition((3, 3, 3)))


class TestBlockPermutation:
    def test_identity(self):
        p = Partition((2, 3))
        assert np.array_equal(block_permutation(p, [0, 1]), np.eye(5))

    def test_swap_blocks(self):
        p = Partition((1, 2))
        pi = block_permutation(p, [1, 0])
        want = np.array([
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ])
        assert np.array_equal(pi, want)

    def test_right_multiplication_reorders_block_columns(self):
        rng = np.random.default_rng(1)
        p = Partition((2, 1, 3))
        w = rng.standard_normal((6, 6))
        perm = [2, 0, 1]
        out = w @ block_permutation(p, perm)
        slices = p.slices()
        want = np.hstack([w[:, slices[j]] for j in perm])
        assert np.array_equal(out, want)

    def test_orthogonal(self):
        p = Partition((2, 2, 1))
        pi = block_permutation(p, [1, 2, 0])
        assert np.array_equal(pi.T @ pi, np.eye(5))

    def test_composition_is_group_action(self):
        rng = np.random.default_rng(2)
        p = Partition((1, 3, 2))
        sigma = [2, 0, 1]
        p_sigma = Partition(tuple(p.sizes[j] for j in sigma))
        rho = [1, 2, 0]
        composed = [sigma[r] for r in rho]
        left = block_permutation(p, sigma) @ block_permutation(p_sigma, rho)
        right = block_permutation(p, composed)
        assert np.array_equal(left, right)

