"""Block-structure arithmetic: partitions, gap clustering of the eigenvalue
real parts of an ordered Schur form, block permutations, and the grouping
test that scores a computed partition against a reference one."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Partition:
    """Ordered positive block sizes summing to the matrix order."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("sizes must be a nonempty tuple of positive integers")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self):
        return sum(self.sizes)

    @property
    def card(self):
        return len(self.sizes)

    def boundaries(self):
        """Cumulative split indices i_1 < ... < i_{t-1}."""
        return tuple(np.cumsum(self.sizes[:-1]).tolist())

    def slices(self):
        """Column/row slice of each block."""
        edges = [0] + list(np.cumsum(self.sizes))
        return [slice(edges[j], edges[j + 1]) for j in range(self.card)]


def cluster_by_gap(schur, mu):
    """Cluster the sorted eigenvalue real parts of an ordered Schur form by
    relative gap.

    A boundary is placed after position ``i`` whenever the consecutive gap
    reaches ``mu`` times the total range and ``schur.cuts[i]`` allows a
    block to end there.  A range at rounding level, at most
    ``1e3 * eps * ||t||_F`` (the scale of the decoupling guard), yields a
    single cluster: such gaps come from rounding, not from the spectrum.

    Parameters
    ----------
    schur : SchurForm
        Ordered real Schur form, as returned by ``real_schur_ordered``.
    mu : float
        Relative gap threshold in (0, 1).

    Returns
    -------
    Partition
        Consecutive clusters of diagonal positions.

    Raises
    ------
    ValueError
        If ``mu`` lies outside (0, 1) or the real parts descend by more
        than the rounding floor.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    re = schur.eig_real_parts
    gaps = np.diff(re)
    floor = 1e3 * np.finfo(float).eps * np.linalg.norm(schur.t)
    if np.any(gaps < -floor):
        raise ValueError("real parts must be ascending")
    rng = re[-1] - re[0]
    if rng <= floor:
        return Partition((schur.n,))
    boundaries = np.flatnonzero(schur.cuts & (gaps >= mu * rng)) + 1
    return Partition(np.diff(np.concatenate(([0], boundaries, [schur.n]))))


def partition_equivalent(p, q):
    """True when the two partitions agree up to block reordering."""
    return p.card == q.card and sorted(p.sizes) == sorted(q.sizes)


def block_permutation(p, perm):
    """Orthogonal matrix permuting the block columns of a matrix partitioned
    by ``p``: block column ``k`` of ``w @ block_permutation(p, perm)`` is
    block ``perm[k]`` of ``w``.

    Parameters
    ----------
    p : Partition
    perm : sequence of int
        Permutation of ``range(p.card)``.

    Returns
    -------
    ndarray, shape (n, n)
    """
    perm = list(perm)
    if sorted(perm) != list(range(p.card)):
        raise ValueError("perm must be a permutation of range(card)")
    n = p.n
    out = np.zeros((n, n))
    src = p.slices()
    col = 0
    for k in range(p.card):
        j = perm[k]
        size = p.sizes[j]
        out[src[j], col:col + size] = np.eye(size)
        col += size
    return out


def iter_refines(p_hat, p_true):
    """Yield assignments of ``p_hat`` blocks into ``p_true.card`` groups
    whose per-group size sums reproduce ``p_true``, in a fixed order.

    Each map ``g`` has ``g[j]`` = the group of the j-th block of ``p_hat``;
    an empty iteration means ``p_hat`` is not a correct refinement.  The
    number of maps can grow combinatorially with many equal-size blocks, so
    consumers should iterate lazily.
    """
    if p_hat.n != p_true.n:
        return
    sizes = p_hat.sizes
    t_hat = len(sizes)
    assignment = [-1] * t_hat

    def assign(block, open_sums):
        if block == t_hat:
            yield tuple(assignment)
            return
        size = sizes[block]
        for g, room in enumerate(open_sums):
            if size <= room:
                assignment[block] = g
                open_sums[g] -= size
                yield from assign(block + 1, open_sums)
                open_sums[g] += size
        assignment[block] = -1

    yield from assign(0, list(p_true.sizes))


def refines(p_hat, p_true):
    """All assignments of ``p_hat`` blocks into ``p_true.card`` groups whose
    per-group size sums reproduce ``p_true``.

    Each returned map ``g`` has ``g[j]`` = the group of the j-th block of
    ``p_hat``; an empty result means ``p_hat`` is not a correct refinement.
    Use :func:`iter_refines` or :func:`is_refinement` when the full list is
    not needed; it can be combinatorially large.

    Parameters
    ----------
    p_hat : Partition
    p_true : Partition

    Returns
    -------
    list of tuple of int
    """
    return list(iter_refines(p_hat, p_true))


def is_refinement(p_hat, p_true):
    """True when at least one size-consistent grouping of ``p_hat`` into
    ``p_true`` exists, without materializing all of them."""
    return next(iter_refines(p_hat, p_true), None) is not None
