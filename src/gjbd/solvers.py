"""Solution procedures: exact solve, the greedy randomized solve, the
single two-block split, and the conservative iterative refinement.

Each turns a near-null direction into a :class:`Solution` through one
routine, :func:`_solution_from_direction`; exact mode is greedy's path over
the null space cut at numerical rank.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import cost_ls, normalize
from .matkernels import (
    DegenerateBlockBasisError,
    InseparableClustersError,
    block_diagonalize_similarity,
    real_schur_ordered,
)
from .nullspace import (
    MatrixSet,
    NullSpaceBasis,
    _delta_rule,
    basis_excluding_identity,
    delta_nullspace,
    exact_nullspace,
    trace_gram,
)
from .partition import Partition, cluster_by_gap

# relative real-part gap below which eigenvalues count as one cluster when
# splitting exact null-space elements; large enough to absorb rounding in
# multiple eigenvalues, small enough to keep distinct random values apart
_EXACT_CLUSTER_MU = 1e-6


class UnsplittableError(RuntimeError):
    """No two-block split of the set exists (order one, an empty identity-
    reduced near-null space, or every gap suppressed by pair atomicity)."""


@dataclass(frozen=True)
class Solution:
    """A computed diagonalization: partition, normalized diagonalizer and
    the off-block-diagonal cost."""

    partition: Partition
    w: np.ndarray
    cost: float

    @property
    def no_split(self):
        """True for the trivial one-block answer."""
        return self.partition.card == 1


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs shared by the solvers.

    Each method reads only some of them:

    - ``gamma``, the near-null threshold multiplier: greedy and conservative;
    - ``mu``, the relative gap threshold: greedy only; ``None`` resolves to
      a default, see :meth:`resolve_mu`;
    - ``epsilon``, the cost tolerance: conservative only;
    - ``seed``, of the random combination: greedy and exact.

    Exact mode takes only the seed and clusters with its own ``mu``; the
    conservative solver splits deterministically at the largest gap.
    """

    gamma: float = 1.2
    mu: float = None
    epsilon: float = 0.0
    seed: object = 0

    def __post_init__(self):
        # written so that NaN fails every test
        if not 1.0 < self.gamma < np.inf:
            raise ValueError("gamma must be finite and > 1")
        if self.mu is not None and not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if not self.epsilon >= 0.0:
            raise ValueError("epsilon must be nonnegative")

    def resolve_mu(self, n, rank_cutoff=False):
        """``mu``, else the default for order ``n`` and a null space that
        is (``NullSpaceBasis.rank_cutoff``) or is not cut at numerical rank."""
        if self.mu is not None:
            return self.mu
        if rank_cutoff:
            return _EXACT_CLUSTER_MU
        return 1.0 / (8.0 * (n - 1)) if n > 1 else 0.5


@dataclass(frozen=True)
class SolveTrace:
    """Ingredients of a solve needed to verify the analytic bounds.

    Attributes
    ----------
    z : ndarray or None
        The combined near-null direction; None for a trivial greedy or
        exact answer whose basis holds nothing beyond the identity.
    basis : NullSpaceBasis
        The near-null space of the full set that ``z`` was drawn from;
        :func:`one_step_split_with_trace` reuses it when its own ``gamma``
        cuts the same spectrum at the same ``delta``.
    """

    z: np.ndarray
    basis: NullSpaceBasis

    @property
    def delta(self):
        """The threshold that admitted the basis."""
        return self.basis.delta


def _trivial_solution(a):
    return Solution(partition=Partition((a.n,)), w=np.eye(a.n), cost=0.0)


def _assemble_diagonalizer(schur, p):
    # Sylvester decoupling of the ordered Schur factor followed by a per
    # cluster orthonormalization
    return schur.q @ normalize(block_diagonalize_similarity(schur, p.boundaries()), p)


def _solution_from_direction(a, z, pick):
    # ordered Schur form, the partition pick(schur) chooses, decoupling, cost
    schur = real_schur_ordered(z)
    partition = pick(schur)
    if partition.card == 1:
        return _trivial_solution(a)
    w = _assemble_diagonalizer(schur, partition)
    return Solution(partition=partition, w=w, cost=cost_ls(a, partition, w))


def _gap_clusters(schur, mu):
    # greedy's clusters.  Reordering a near-defective spectrum perturbs its
    # real parts, and when that leaves them descending by mu times their
    # range or more, which cluster_by_gap rejects as unsorted, the range
    # itself is reordering error: one cluster, as the rounding rule gives
    re = schur.eig_real_parts
    descent = np.any(np.diff(re) <= -mu * (re.max() - re.min()))
    return Partition((schur.n,)) if descent else cluster_by_gap(schur, mu)


def _largest_gap(schur):
    # two blocks at the largest real-part gap outside conjugate pairs
    gaps = np.diff(schur.eig_real_parts)
    gaps[~schur.cuts] = -np.inf
    if np.all(gaps == -np.inf):
        raise UnsplittableError("every gap falls inside a conjugate-pair block")
    best_i = int(np.argmax(gaps)) + 1  # first maximum: earliest index on ties
    return Partition((best_i, schur.n - best_i))


def _combination_solve(a, basis_obj, cfg):
    # greedy's path: a random combination of the basis, clustered by gap;
    # the identity flag alone decides when the basis holds nothing beyond
    # the identity (always at order one)
    if basis_obj.dim - basis_obj.includes_identity_direction == 0:
        return _trivial_solution(a), SolveTrace(z=None, basis=basis_obj)
    alpha = np.random.default_rng(cfg.seed).standard_normal(len(basis_obj.basis))
    z = sum(c * zj for c, zj in zip(alpha, basis_obj.basis))
    mu = cfg.resolve_mu(a.n, basis_obj.rank_cutoff)
    solution = _solution_from_direction(a, z, lambda schur: _gap_clusters(schur, mu))
    return solution, SolveTrace(z=z, basis=basis_obj)


def greedy_solve_with_trace(a, cfg=None):
    """Like :func:`greedy_solve` but also returns the combined near-null
    direction and threshold for bound verification."""
    cfg = cfg if cfg is not None else SolverConfig()
    return _combination_solve(a, delta_nullspace(a, cfg.gamma), cfg)


def greedy_solve(a, cfg=None):
    """One-shot randomized solve: a random combination of the near-null
    basis, gap clustering of its spectrum, and block decoupling.

    Deterministic given ``cfg.seed``, and :func:`exact_solve` with that seed
    on an exact set.  Returns the trivial solution, flagged by ``no_split``,
    when the near-null space holds nothing beyond the identity or the
    spectrum forms a single cluster.

    Parameters
    ----------
    a : MatrixSet
    cfg : SolverConfig, optional

    Returns
    -------
    Solution
    """
    return greedy_solve_with_trace(a, cfg)[0]


def exact_solve_with_trace(a, seed=0):
    """Like :func:`exact_solve` but also returns the combined null direction
    and threshold for bound verification."""
    return _combination_solve(a, exact_nullspace(a), SolverConfig(seed=seed))


def exact_solve(a, seed=0):
    """Solve assuming the set admits an exact joint block diagonalization.

    Greedy's path over the numerical-rank null space of the coupling
    operator: it splits every numerically distinct eigenvalue cluster of a
    random combination, which for almost all seeds gives maximal cardinality.

    Parameters
    ----------
    a : MatrixSet
    seed : int or sequence of int

    Returns
    -------
    Solution
    """
    return exact_solve_with_trace(a, seed)[0]


def one_step_split_with_trace(a, gamma=1.2, basis=None):
    """Like :func:`one_step_split` but also returns the trace-free split
    direction and threshold for bound verification.

    ``basis``, a near-null space of ``a`` computed earlier (a re-solve's
    ``SolveTrace.basis``), is used only when the delta rule for ``gamma``
    applied to its singular values gives its own ``delta`` and
    ``rank_cutoff``: always for a basis from :func:`delta_nullspace` with
    the same ``gamma``, and for one from :func:`exact_nullspace` exactly
    when ``gamma`` also cuts at numerical rank.  Any other basis, or one
    whose operator vanishes (``delta`` infinite), is ignored and the space
    is computed by :func:`delta_nullspace`.  So the answer never depends on
    what the caller passes.
    """
    reusable = basis is not None and _delta_rule(a, gamma, basis.sigma) == (
        basis.delta, basis.rank_cutoff)
    basis_obj = basis if reusable else delta_nullspace(a, gamma)
    zs = basis_excluding_identity(basis_obj)
    if not zs:  # always empty at order one
        raise UnsplittableError("near-null space holds nothing beyond the identity")
    alpha = np.linalg.eigh(trace_gram(zs))[1][:, -1]  # the top eigenvector
    z = sum(c * zj for c, zj in zip(alpha, zs))
    if np.trace(z @ z @ z) < 0.0:
        # z and -z split alike with the blocks in reverse order; a
        # similarity invariant, not the basis, chooses between them
        z = -z
    return _solution_from_direction(a, z, _largest_gap), SolveTrace(z=z, basis=basis_obj)


def one_step_split(a, gamma=1.2):
    """Best two-block split of the set.

    The split direction is the trace-free near-null combination maximizing
    the trace of its square (top eigenvector of the trace Gram matrix),
    which guarantees a spectral gap.  Its sign, which orders the two
    blocks, makes ``trace(z**3)`` nonnegative.  So the split depends only
    on the near-null subspace, not on the basis computed for it, wherever
    that top eigenvalue is simple.  It is not where the space holds two
    independent trace-free symmetric matrices, which reach the largest
    possible value, 1, alike; every space of dimension ``n(n-1)/2 + 3`` or
    more does.  Where ``trace(z**3)`` is at rounding level the block order
    may follow rounding; the block sizes do not.  The split lands at the
    largest real-part gap, earliest index on ties, never inside a
    conjugate-pair block.

    Parameters
    ----------
    a : MatrixSet
    gamma : float
        Near-null threshold multiplier, > 1.

    Returns
    -------
    Solution
        With a two-block partition.

    Raises
    ------
    UnsplittableError
        If no admissible split exists.
    """
    return one_step_split_with_trace(a, gamma)[0]


def _propose_split(block_cols, a, gamma):
    # one-step proposal for the block spanned by the given columns of the
    # accepted diagonalizer; None marks an unsplittable block
    if block_cols.shape[1] < 2:
        return None
    compressed = MatrixSet(block_cols.T @ a.mats @ block_cols)
    try:
        return one_step_split(compressed, gamma)
    except (UnsplittableError, InseparableClustersError, DegenerateBlockBasisError):
        return None


def conservative_solve(a, cfg=None):
    """Iterative refinement: repeatedly split the block whose tentative
    two-block split has the smallest projected cost, accepting while the
    total cost stays within ``cfg.epsilon ** 2``.

    The returned solution always satisfies ``cost <= cfg.epsilon ** 2``;
    size-one and unsplittable blocks are ineligible, so the loop terminates
    after at most ``n - 1`` acceptances.

    Parameters
    ----------
    a : MatrixSet
    cfg : SolverConfig, optional

    Returns
    -------
    Solution
    """
    cfg = cfg if cfg is not None else SolverConfig()
    n = a.n
    try:
        eps2 = cfg.epsilon ** 2
    except OverflowError:  # an epsilon past the square root of the float range
        eps2 = np.inf
    sizes = [n]
    w = np.eye(n)
    cost = 0.0
    proposals = [_propose_split(w, a, cfg.gamma)]
    while True:
        finite = [p.cost if p is not None else np.inf for p in proposals]
        ell = int(np.argmin(finite))  # ties resolve to the smallest index
        if not np.isfinite(finite[ell]):
            break
        split = proposals[ell]
        col0 = sum(sizes[:ell])
        col1 = col0 + sizes[ell]
        w_hat = w.copy()
        w_hat[:, col0:col1] = w[:, col0:col1] @ split.w
        sizes_hat = sizes[:ell] + list(split.partition.sizes) + sizes[ell + 1:]
        cost_hat = cost_ls(a, Partition(tuple(sizes_hat)), w_hat)
        if cost_hat > eps2:
            break
        sizes, w, cost = sizes_hat, w_hat, cost_hat
        mid = col0 + split.partition.sizes[0]
        proposals[ell:ell + 1] = [
            _propose_split(w[:, col0:mid], a, cfg.gamma),
            _propose_split(w[:, mid:col1], a, cfg.gamma),
        ]
    return Solution(partition=Partition(tuple(sizes)), w=w, cost=cost)
