import numpy as np
import pytest

from gjbd.matkernels import SchurForm, real_schur_ordered
from gjbd.partition import (
    Partition,
    block_permutation,
    cluster_by_gap,
    is_refinement,
    iter_refines,
    partition_equivalent,
    refines,
)


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

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            cluster_by_gap(schur_with([1.0, 0.0]), 0.5)


class TestPartitionEquivalent:
    def test_permutation(self):
        assert partition_equivalent(Partition((1, 2, 3)), Partition((3, 1, 2)))

    def test_different_multisets(self):
        assert not partition_equivalent(Partition((2, 2)), Partition((1, 3)))

    def test_different_order_n(self):
        assert not partition_equivalent(Partition((1, 2, 3)), Partition((1, 2, 4)))


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


class TestRefines:
    def test_four_way_grouping_count(self):
        maps = refines(Partition((1, 1, 2, 2)), Partition((1, 2, 3)))
        assert len(maps) == 4
        # every map fills group sums exactly
        for g in maps:
            sums = [0, 0, 0]
            for j, grp in enumerate(g):
                sums[grp] += (1, 1, 2, 2)[j]
            assert sums == [1, 2, 3]

    def test_incompatible_partition(self):
        assert refines(Partition((2, 4)), Partition((1, 2, 3))) == []

    def test_self_refinement_contains_identity(self):
        for sizes in [(1, 2, 3), (2, 2), (4,), (1, 1, 1)]:
            p = Partition(sizes)
            maps = refines(p, p)
            assert tuple(range(p.card)) in maps

    def test_equal_blocks_allow_all_permutations(self):
        maps = refines(Partition((2, 2)), Partition((2, 2)))
        assert sorted(maps) == [(0, 1), (1, 0)]

    def test_splitting_preserves_correctness(self):
        rng = np.random.default_rng(3)
        p_true = Partition((2, 3, 4))
        p_hat = Partition((2, 3, 4))
        for _ in range(5):
            sizes = list(p_hat.sizes)
            splittable = [j for j, s in enumerate(sizes) if s > 1]
            if not splittable:
                break
            j = int(rng.choice(splittable))
            s = sizes[j]
            cut = int(rng.integers(1, s))
            sizes[j:j + 1] = [cut, s - cut]
            p_hat = Partition(tuple(sizes))
            assert refines(p_hat, p_true), p_hat.sizes

    def test_mismatched_n(self):
        assert refines(Partition((2,)), Partition((3,))) == []

    def test_is_refinement_matches_refines(self):
        cases = [
            ((1, 1, 2, 2), (1, 2, 3)),
            ((2, 4), (1, 2, 3)),
            ((2, 2), (2, 2)),
            ((1, 1, 1), (3,)),
        ]
        for hat, true in cases:
            p_hat, p_true = Partition(hat), Partition(true)
            assert is_refinement(p_hat, p_true) == bool(refines(p_hat, p_true))

    def test_lazy_iteration_on_huge_grouping_count(self):
        # 16 singleton blocks into four groups of four admits ~63e6 maps;
        # the generator must answer feasibility without materializing them
        p_hat = Partition((1,) * 16)
        p_true = Partition((4, 4, 4, 4))
        assert is_refinement(p_hat, p_true)
        it = iter_refines(p_hat, p_true)
        first = next(it)
        assert len(first) == 16
        assert sorted(first.count(g) for g in range(4)) == [4, 4, 4, 4]
