"""Block-structure arithmetic: partitions and their block masks, gap
clustering of the eigenvalue real parts of an ordered Schur form, and the
test that a computed partition has the block sizes of a reference one."""

import itertools
import operator
from dataclasses import dataclass

import numpy as np


def _block_size(s):
    # operator.index takes Python and NumPy integers, where int() would
    # truncate 2.9 and read True as 1
    if isinstance(s, bool):
        raise TypeError("a block size cannot be a bool")
    return operator.index(s)


@dataclass(frozen=True)
class Partition:
    """Ordered positive block sizes summing to the matrix order."""

    sizes: tuple

    def __post_init__(self):
        try:
            sizes = tuple(map(_block_size, self.sizes))
        except TypeError as exc:
            raise ValueError("sizes must be a sequence of integers, not bools or floats") from exc
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
        edges = [0, *itertools.accumulate(self.sizes)]
        return [slice(start, stop) for start, stop in zip(edges, edges[1:])]

    def pairs_by(self, key):
        """The block pairs ``(j, k)``, ``j < k``, grouped by ``key(j, k)``,
        in order of first appearance, so that each group can take one
        batched LAPACK call."""
        groups = {}
        for j in range(self.card):
            for k in range(j + 1, self.card):
                groups.setdefault(key(j, k), []).append((j, k))
        return list(groups.values())

    @property
    def mask(self):
        """(n, n) bool array, True exactly on the diagonal blocks."""
        labels = np.repeat(np.arange(self.card), self.sizes)
        return labels[:, None] == labels[None, :]


def cluster_by_gap(schur, mu):
    """Cluster the sorted eigenvalue real parts of an ordered Schur form by
    relative gap.

    A boundary is placed after position ``i`` whenever the consecutive gap
    reaches ``mu`` times the range ``max - min`` of the real parts and
    ``schur.cuts[i]`` allows a block to end there.  Two kinds of real parts
    form a single cluster.  A range at most ``schur.rounding_level``, the
    level that also guards the decoupling, comes from rounding, not from
    the spectrum.  A descent of ``mu`` times the range or more means the
    range is reordering error: the ordering sorts the real parts, so a
    descent is what swapping near-defective blocks (Bai and Demmel)
    perturbed them by, and the range is at most ``1 / mu`` times that
    perturbation.  A smaller descent is clustered by gap like a sorted
    order, because a gap that small never places a boundary.

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
        If ``mu`` lies outside (0, 1).
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    re = schur.eig_real_parts
    gaps = np.diff(re)
    rng = re.max() - re.min()
    if rng <= schur.rounding_level or np.any(gaps <= -mu * rng):
        return Partition((schur.n,))
    boundaries = np.flatnonzero(schur.cuts & (gaps >= mu * rng)) + 1
    return Partition(np.diff(np.concatenate(([0], boundaries, [schur.n]))))


def partition_equivalent(p, q):
    """True when the two partitions agree up to block reordering: the
    meaning of a correct answer when ``q`` is the true partition."""
    return p.card == q.card and sorted(p.sizes) == sorted(q.sizes)
