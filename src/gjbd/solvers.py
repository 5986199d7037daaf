"""Solution procedures: exact solve, the greedy randomized solve, the
single two-block split, and the conservative iterative refinement."""

from dataclasses import dataclass

import numpy as np

from .analysis import cost_ls
from .matkernels import (
    DegenerateBlockBasisError,
    InseparableClustersError,
    block_diagonalize_similarity,
    economic_qr,
    real_schur_ordered,
)
from .nullspace import (
    MatrixSet,
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
    the off-block-diagonal cost; ``no_split`` marks the trivial fallback."""

    partition: Partition
    w: np.ndarray
    cost: float
    no_split: bool = False


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs shared by the solvers.

    ``mu = None`` resolves to the default relative gap threshold
    ``1 / (8 * (n - 1))``; ``epsilon`` is the cost tolerance used by the
    conservative solver; ``seed`` feeds the random combination drawn by the
    greedy solver.
    """

    gamma: float = 1.2
    mu: float = None
    epsilon: float = 0.0
    seed: object = 0

    def __post_init__(self):
        if self.gamma <= 1.0:
            raise ValueError("gamma must be > 1")
        if self.mu is not None and not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")

    def resolve_mu(self, n):
        if self.mu is not None:
            return self.mu
        return 1.0 / (8.0 * (n - 1)) if n > 1 else 0.5


@dataclass(frozen=True)
class SolveTrace:
    """Ingredients of a solve needed to verify the analytic bounds: the
    combined near-null direction and the threshold that admitted it."""

    z: np.ndarray
    delta: float


def _trivial_solution(a):
    return Solution(
        partition=Partition((a.n,)), w=np.eye(a.n), cost=0.0, no_split=True
    )


def _assemble_diagonalizer(schur, p):
    # Sylvester decoupling of the ordered Schur factor followed by a per
    # cluster orthonormalization; returns the normalized diagonalizer and
    # the diagonal blocks of inv(w) z w.
    w_syl, tblocks = block_diagonalize_similarity(schur, p.boundaries())
    cols = []
    gblocks = []
    for sl, tblock in zip(p.slices(), tblocks):
        u, r = economic_qr(w_syl[:, sl])
        cols.append(u)
        gblocks.append(np.linalg.solve(r.T, (r @ tblock).T).T)
    w = schur.q @ np.hstack(cols)
    return w, gblocks


def eig_decomp_for_partition(z, p):
    """Eigenvalue decomposition of ``z`` grouped by ``p``.

    Computes the ordered real Schur form of ``z``, decouples the clusters of
    consecutive diagonal positions given by ``p`` by Sylvester solves and
    orthonormalizes each block of columns, so that ``inv(w) @ z @ w`` is
    block diagonal and the block diagonal of ``w.T @ w`` is the identity.

    Parameters
    ----------
    z : ndarray, shape (n, n)
    p : Partition
        Cluster sizes in ascending real-part order, with ``p.n == n``; no
        cluster may end inside a 2x2 conjugate-pair block.

    Returns
    -------
    w : ndarray, shape (n, n)
    blocks : list of ndarray
    """
    schur = real_schur_ordered(z)
    if p.n != schur.n:
        raise ValueError("partition order must match z")
    return _assemble_diagonalizer(schur, p)


def _combination_solve(a, basis_obj, mu, alpha):
    # shared tail of the greedy and exact solvers: combine the basis with
    # the given coefficients, cluster the spectrum, decouple, and score
    z = sum(c * zj for c, zj in zip(alpha, basis_obj.basis))
    schur = real_schur_ordered(z)
    partition = cluster_by_gap(schur, mu)
    if partition.card == 1:
        return _trivial_solution(a), SolveTrace(z=z, delta=basis_obj.delta)
    w, _ = _assemble_diagonalizer(schur, partition)
    cost = cost_ls(a, partition, w)
    solution = Solution(partition=partition, w=w, cost=cost)
    return solution, SolveTrace(z=z, delta=basis_obj.delta)


def greedy_solve_with_trace(a, cfg=None):
    """Like :func:`greedy_solve` but also returns the combined near-null
    direction and threshold for bound verification."""
    cfg = cfg if cfg is not None else SolverConfig()
    basis_obj = delta_nullspace(a, cfg.gamma)
    nontrivial = basis_excluding_identity(basis_obj)
    if a.n < 2 or not nontrivial:
        return _trivial_solution(a), SolveTrace(z=None, delta=basis_obj.delta)
    rng = np.random.default_rng(cfg.seed)
    alpha = rng.standard_normal(len(basis_obj.basis))
    return _combination_solve(a, basis_obj, cfg.resolve_mu(a.n), alpha)


def greedy_solve(a, cfg=None):
    """One-shot randomized solve: a random combination of the near-null
    basis, gap clustering of its spectrum, and block decoupling.

    Deterministic given ``cfg.seed``.  Returns the trivial solution,
    flagged by ``no_split``, when the near-null space holds nothing beyond
    the identity or the spectrum forms a single cluster.

    Parameters
    ----------
    a : MatrixSet
    cfg : SolverConfig, optional

    Returns
    -------
    Solution
    """
    solution, _ = greedy_solve_with_trace(a, cfg)
    return solution


def exact_solve_with_trace(a, seed=0):
    """Like :func:`exact_solve` but also returns the combined null direction
    and threshold for bound verification."""
    basis_obj = exact_nullspace(a)
    nontrivial = basis_excluding_identity(basis_obj)
    if a.n < 2 or not nontrivial:
        return _trivial_solution(a), SolveTrace(z=None, delta=basis_obj.delta)
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal(len(basis_obj.basis))
    return _combination_solve(a, basis_obj, _EXACT_CLUSTER_MU, alpha)


def exact_solve(a, seed=0):
    """Solve assuming the set admits an exact joint block diagonalization.

    Uses the numerical-rank null space of the coupling operator and splits
    every numerically distinct eigenvalue cluster of a random combination,
    which for almost all seeds yields a partition of maximal cardinality.

    Parameters
    ----------
    a : MatrixSet
    seed : int or sequence of int

    Returns
    -------
    Solution
    """
    solution, _ = exact_solve_with_trace(a, seed)
    return solution


def one_step_split_with_trace(a, gamma=1.2):
    """Like :func:`one_step_split` but also returns the trace-free split
    direction and threshold for bound verification."""
    n = a.n
    if n < 2:
        raise UnsplittableError("cannot split a set of order 1")
    basis_obj = delta_nullspace(a, gamma)
    zs = basis_excluding_identity(basis_obj)
    if not zs:
        raise UnsplittableError("near-null space holds nothing beyond the identity")
    h = trace_gram(zs)
    _, evecs = np.linalg.eigh(h)
    alpha = evecs[:, -1]
    pivot = int(np.argmax(np.abs(alpha)))
    if alpha[pivot] < 0.0:
        alpha = -alpha  # fix the eigenvector sign for determinism
    z = sum(c * zj for c, zj in zip(alpha, zs))
    schur = real_schur_ordered(z)
    gaps = np.diff(schur.eig_real_parts)
    gaps[~schur.cuts] = -np.inf  # inside a conjugate pair
    if np.all(gaps == -np.inf):
        raise UnsplittableError("every gap falls inside a conjugate-pair block")
    best_i = int(np.argmax(gaps)) + 1  # first maximum: earliest index on ties
    partition = Partition((best_i, n - best_i))
    w, _ = _assemble_diagonalizer(schur, partition)
    cost = cost_ls(a, partition, w)
    return partition, w, cost, SolveTrace(z=z, delta=basis_obj.delta)


def one_step_split(a, gamma=1.2):
    """Best two-block split of the set.

    The split direction is the near-null combination maximizing the trace
    of its square (top eigenvector of the trace Gram matrix), which is
    trace-free and so guarantees a spectral gap; the split lands at the
    largest real-part gap, earliest index on ties, never inside a
    conjugate-pair block.

    Parameters
    ----------
    a : MatrixSet
    gamma : float
        Near-null threshold multiplier, > 1.

    Returns
    -------
    partition : Partition
        Two blocks.
    w : ndarray, shape (n, n)
    cost : float

    Raises
    ------
    UnsplittableError
        If no admissible split exists.
    """
    partition, w, cost, _ = one_step_split_with_trace(a, gamma)
    return partition, w, cost


def _propose_split(block_cols, a, gamma):
    # one-step proposal for the block spanned by the given columns of the
    # accepted diagonalizer; None marks an unsplittable block
    if block_cols.shape[1] < 2:
        return None
    compressed = MatrixSet(
        np.array([block_cols.T @ mat @ block_cols for mat in a.mats])
    )
    try:
        partition, w_block, cost = one_step_split(compressed, gamma)
    except (UnsplittableError, InseparableClustersError, DegenerateBlockBasisError):
        return None
    return partition.sizes[0], w_block, cost


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
    eps2 = cfg.epsilon ** 2
    sizes = [n]
    w = np.eye(n)
    cost = 0.0
    proposals = [_propose_split(w, a, cfg.gamma)]
    while True:
        finite = [p[2] if p is not None else np.inf for p in proposals]
        ell = int(np.argmin(finite))  # ties resolve to the smallest index
        if not np.isfinite(finite[ell]):
            break
        first_size, w_block, _ = proposals[ell]
        col0 = sum(sizes[:ell])
        col1 = col0 + sizes[ell]
        w_hat = w.copy()
        w_hat[:, col0:col1] = w[:, col0:col1] @ w_block
        sizes_hat = sizes[:ell] + [first_size, sizes[ell] - first_size] + sizes[ell + 1:]
        p_hat = Partition(tuple(sizes_hat))
        cost_hat = cost_ls(a, p_hat, w_hat)
        if cost_hat > eps2:
            break
        sizes, w, cost = sizes_hat, w_hat, cost_hat
        mid = col0 + first_size
        proposals[ell:ell + 1] = [
            _propose_split(w[:, col0:mid], a, cfg.gamma),
            _propose_split(w[:, mid:col1], a, cfg.gamma),
        ]
    return Solution(
        partition=Partition(tuple(sizes)),
        w=w,
        cost=cost,
        no_split=(len(sizes) == 1),
    )
