"""Cost and structure operators, the subspace performance index, the
solution-equivalence test, and runtime verification of the off-block,
imaginary-part and gap bounds."""

from dataclasses import dataclass, field, replace

import numpy as np

from .matkernels import _largest_angle, _orthonormal_basis, _sep_stacked, economic_qr
from .nullspace import MatrixSet, basis_excluding_identity, exact_nullspace, pair_grams, trace_gram

_REL_SLACK = 1e-8

# a block holds one real eigenvalue or one conjugate pair when no unit
# trace-free member Y of its null space has trace(Y @ Y) above this: the
# square of a relative eigenvalue spread of 1e-6, since a unit member whose
# eigenvalues spread by 1e-6 has a trace form of about (1e-6)**2, or
# (1e-6)**2 / 2 for two values
_TRACE_FORM_TOL = 1e-6 ** 2
# relative trace under which gap_lower_bound takes z as trace-free
_TRACE_TOL = 1e-8

# search nodes visited per performance-index call; past it the index is an
# upper bound
_PI_NODE_BUDGET = 500_000


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one analytic bound on concrete data.

    ``satisfied`` compares ``lhs`` against ``rhs`` with a small relative
    slack, in the direction recorded by ``lower_bound``: upper bounds
    require ``lhs <= rhs``, lower bounds ``lhs >= rhs``.
    """

    lhs: float
    rhs: float
    satisfied: bool
    applicable: bool = True
    lower_bound: bool = False
    components: dict = field(default_factory=dict)


def _upper_report(lhs, rhs, components, applicable=True, abs_slack=0.0):
    ok = (not applicable) or (lhs <= rhs * (1.0 + _REL_SLACK) + abs_slack)
    return BoundReport(lhs=float(lhs), rhs=float(rhs), satisfied=bool(ok),
                       applicable=applicable, components=components)


def _lower_report(lhs, rhs, components, applicable=True):
    ok = (not applicable) or (lhs >= rhs * (1.0 - _REL_SLACK))
    return BoundReport(lhs=float(lhs), rhs=float(rhs), satisfied=bool(ok),
                       applicable=applicable, lower_bound=True, components=components)


def bdiag(a, p):
    """Block diagonal part of ``a`` under partition ``p``."""
    return np.where(p.mask, np.asarray(a, dtype=float), 0.0)


def offbdiag(a, p):
    """Off-block-diagonal part of ``a`` under partition ``p``."""
    return np.where(p.mask, 0.0, np.asarray(a, dtype=float))


def cost_ls(a, p, w):
    """Sum of squared off-block-diagonal Frobenius norms of ``w.T A_i w``.

    Zero exactly when every congruence-transformed matrix is block diagonal
    under ``p``.  The off-block entries are summed directly; the total minus
    the block diagonal part would lose a small cost, such as that of an
    exact solve, to cancellation.  They are summed on ``a.unit``, and past the
    float range the cost is inf (:meth:`gjbd.nullspace.MatrixSet.rescale`).

    Raises
    ------
    ValueError
        When ``w`` is not square of order ``a.n``, or ``p`` is of another
        order.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (a.n, a.n) or p.n != a.n:
        raise ValueError(f"partition of order {p.n} and w of shape {w.shape} do not "
                         f"match the matrix set of order {a.n}")
    return float(a.rescale(np.sum((w.T @ a.unit.mats @ w)[:, ~p.mask] ** 2), 2))


def _bases_by_size(m, p, orthonormalize):
    # {block size: (ids of the blocks of p of that size, orthonormalize of
    # the stack (count, n, size) of their columns of m)}, one call per size
    ids_by_size = {}
    for j, size in enumerate(p.sizes):
        ids_by_size.setdefault(size, []).append(j)
    slices = p.slices()
    return {size: (ids, orthonormalize(np.stack([m[:, slices[j]] for j in ids])))
            for size, ids in ids_by_size.items()}


def normalize(w, p):
    """Orthonormalize each block of columns of ``w`` (economic QR), so the
    block diagonal of ``out.T @ out`` is the identity while every block's
    column space is unchanged.

    The blocks of one size are factorized by one stacked call to
    :func:`gjbd.matkernels.economic_qr`, which gives each the bits of its
    own 2-D call.

    Raises
    ------
    ValueError
        When ``w`` is not 2-D or ``p`` is not of the order of its columns.
    DegenerateBlockBasisError
        When a block of columns is numerically rank deficient.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or p.n != w.shape[1]:
        raise ValueError(f"partition of order {p.n} does not match the columns of w "
                         f"of shape {w.shape}")
    out = np.empty_like(w)
    slices = p.slices()
    for ids, u in _bases_by_size(w, p, lambda stack: economic_qr(stack)[0]).values():
        for j, u_j in zip(ids, u):
            out[:, slices[j]] = u_j
    return out


def performance_index(v_inv, w, p_true, p_hat):
    """Worst-case principal angle between true and recovered block column
    spaces, minimized over every grouping of the recovered blocks into the
    true ones.

    A grouping assigns each block of ``p_hat`` to a block of ``p_true`` so
    that the sizes in each group add up to that block's size; a group scores
    the largest principal angle between the true block and the span of its
    members.  The minimum over groupings is found by a best-first branch and
    bound: blocks are placed largest first, each tried first in the group
    with room that keeps the worst angle lowest, and a partial grouping is
    abandoned once its worst angle reaches the best complete one.  This is
    sound because the angle of a group can only grow as members join.  The
    result is exact while the search stays within its node budget; past the
    budget it is the best grouping found, hence an upper bound.

    Every true and every recovered block is orthonormalized up front, by one
    stacked call per block size, and every one-block group's angle is taken
    before the search, by one stacked call per pair of sizes.  A group of
    several blocks is orthonormalized once when first scored, whatever true
    block it is scored against.  Each angle comes from two bases by the
    same routine as :func:`largest_principal_angle`, which takes one pair
    as a stack of one, and a stacked call gives each member the bits of a
    stack of one, so both give the same value on the same columns.

    Parameters
    ----------
    v_inv : ndarray, shape (n, n)
        True inverse mixing matrix, block columns partitioned by ``p_true``.
    w : ndarray, shape (n, n)
        Computed diagonalizer, block columns partitioned by ``p_hat``.
    p_true, p_hat : Partition

    Returns
    -------
    float or None
        None when ``p_hat`` is not a correct refinement of ``p_true`` (past
        the budget, also when no complete grouping was reached).

    Raises
    ------
    ValueError
        When the shapes of ``v_inv`` and ``w`` and the orders of ``p_true``
        and ``p_hat`` disagree; when a block of ``v_inv`` or ``w`` is
        numerically rank deficient, whatever the search reaches; and when a
        group of several recovered blocks that the search scores spans fewer
        dimensions than it has columns.
    """
    v_inv = np.asarray(v_inv, dtype=float)
    w = np.asarray(w, dtype=float)
    if v_inv.shape != w.shape or not v_inv.shape[0] == p_true.n == p_hat.n:
        raise ValueError("dimension mismatch between v_inv, w and partitions")
    hat_slices = p_hat.slices()
    true_bases = _bases_by_size(v_inv, p_true, _orthonormal_basis)
    hat_bases = _bases_by_size(w, p_hat, _orthonormal_basis)
    true_basis = {k: u_k for ids, u in true_bases.values() for k, u_k in zip(ids, u)}
    angle_cache = {}
    for size, (true_ids, u_true) in true_bases.items():
        for hat_size, (hat_ids, u_hat) in hat_bases.items():
            if hat_size <= size:
                angles = _largest_angle(u_true[:, None], u_hat[None]).tolist()
                angle_cache.update(((k, (j,)), angle)
                                   for k, row in zip(true_ids, angles)
                                   for j, angle in zip(hat_ids, row))
    group_bases = {}

    def group_angle(k, block_ids):
        key = (k, tuple(sorted(block_ids)))
        if key not in angle_cache:
            ids = key[1]
            if ids not in group_bases:
                cols = np.hstack([w[:, hat_slices[j]] for j in ids])
                group_bases[ids] = _orthonormal_basis(cols)
            angles = _largest_angle(true_basis[k][None], group_bases[ids][None])
            angle_cache[key] = float(angles[0])
        return angle_cache[key]

    order = sorted(range(p_hat.card), key=lambda j: -p_hat.sizes[j])
    groups = [[] for _ in range(p_true.card)]
    room = list(p_true.sizes)
    best = np.inf
    nodes = 0

    def search(depth, worst):
        nonlocal best, nodes
        nodes += 1
        if depth == len(order):
            # the finished groups' own angles, not the running bound, which
            # also holds rounding-inflated angles of partial groups
            best = max(group_angle(k, ids) for k, ids in enumerate(groups))
            return
        j = order[depth]
        size = p_hat.sizes[j]
        children = sorted((max(worst, group_angle(k, groups[k] + [j])), k)
                          for k in range(p_true.card) if size <= room[k])
        for bound, k in children:
            if bound >= best or nodes >= _PI_NODE_BUDGET:
                return
            groups[k].append(j)
            room[k] -= size
            search(depth + 1, bound)
            groups[k].pop()
            room[k] += size

    search(0, 0.0)
    return None if np.isinf(best) else float(best)


def _one_cluster(members):
    # the largest trace form over the span of orthonormal trace-free
    # members, at most _TRACE_FORM_TOL when every member has one real
    # eigenvalue or one conjugate pair
    return not members or np.linalg.eigvalsh(trace_gram(members))[-1] <= _TRACE_FORM_TOL


def equivalence_check(a, p, w):
    """Test whether all exact solutions sharing the structure of ``(p, w)``
    are equivalent.

    The test reads the answer, not its basis or scale: each block of
    columns of ``w`` is orthonormalized by :func:`normalize`, the solvers'
    own per-block QR, and the set is read on ``a.unit``.  So ``w`` and
    ``w @ Bdiag(S_j)`` with nonsingular ``S_j``, and every power-of-two
    multiple of the set, get one verdict, as the paper's condition asks:
    it concerns solutions up to block permutations and block-diagonal
    factors.

    A block pair is flagged when the Gram matrix of its coupling equations
    in the block diagonal part of ``w.T A_i w``
    (:func:`gjbd.nullspace.pair_grams`) is numerically singular, that is,
    when the pair's equations admit a nonzero solution.

    A block passes when every member of its exact null space has one real
    eigenvalue or one conjugate pair.  That is read from one number per
    block, with no samples drawn: the largest eigenvalue of the trace Gram
    matrix (:func:`gjbd.nullspace.trace_gram`) of the block's orthonormal
    trace-free null members (:func:`gjbd.nullspace.basis_excluding_identity`),
    the largest ``trace(Y @ Y)`` over its unit trace-free members ``Y``.
    The members are closed under powers, since ``A Z = Z.T A`` gives
    ``A Z**2 = Z.T A Z = (Z**2).T A``, and the identity is a member.  So if
    every member has one real eigenvalue or one conjugate pair, every
    trace-free member has eigenvalues 0 or ``+-ib`` and ``trace(Y @ Y) <= 0``;
    if some member has two clusters, a real polynomial in it has two
    distinct real eigenvalues, and its trace-free part has
    ``trace(Y @ Y) > 0``.  The value is smooth in the members, where
    eigenvalues near a Jordan block move like the square root of rounding.
    It is compared with ``_TRACE_FORM_TOL = (1e-6)**2``, the trace form of a
    unit member whose eigenvalues spread by ``1e-6``.  A block whose null
    space holds only the identity has no trace-free member and passes.

    Parameters
    ----------
    a : MatrixSet
    p : Partition
    w : ndarray, shape (n, n)
        (Approximate) solution pair for ``a``; only the column space of
        each block of ``p`` is read.

    Returns
    -------
    all_equivalent : bool
    singular_pairs : list of (int, int)
        0-based block pairs whose Gram matrix is numerically singular.
    per_block_spectra_ok : bool
        Whether every block's largest trace form is at most
        ``_TRACE_FORM_TOL``.

    Raises
    ------
    ValueError
        When ``p`` or ``w`` does not match the order of ``a``.
    DegenerateBlockBasisError
        When a block of columns of ``w`` is numerically rank deficient, so
        that ``(p, w)`` is no solution to test.
    """
    if p.n != a.n or np.shape(w) != (a.n, a.n):
        raise ValueError("partition and w must match the order of the matrix set")
    w = normalize(w, p)
    compressed = w.T @ a.unit.mats @ w
    singular_pairs = []
    for pairs, grams in pair_grams(MatrixSet(bdiag(compressed, p)), p):
        evals = np.linalg.eigvalsh(grams)  # one call over the pairs' stack
        singular_pairs += [pair for pair, ev in zip(pairs, evals)
                           if ev[0] <= 1e3 * np.finfo(float).eps * ev[-1]]
    singular_pairs.sort()

    members = (basis_excluding_identity(exact_nullspace(MatrixSet(compressed[:, sl, sl])))
               for sl in p.slices())
    spectra_ok = all(map(_one_cluster, members))
    all_equivalent = (not singular_pairs) and spectra_ok
    return all_equivalent, singular_pairs, spectra_ok


def verify_offblock_bound(a, z, delta, solution):
    """Check the off-block-diagonal cost bound
    ``cost <= delta**2 * ||z||_F**2 * ||w||_2**4 / sep(G)**2``.

    ``sep(G)`` is the minimum over block pairs of :func:`sep_lower` of the
    diagonal blocks of ``inv(w) @ z @ w``.  The pairs are grouped by their
    shape ``(nj, nk)``, and each group takes one batched SVD, which gives
    the same values as the pairwise calls.  A zero separation gives an
    infinite right-hand side, reported as trivially satisfied but flagged
    in ``components``; a single block has no pair and an infinite one.

    The cost, ``delta`` and the absolute floor are taken on ``a.unit``, as
    the near-null kernel takes them.  That scaling is exact and the bound
    is homogeneous of degree 2 in the set, so the verdict is the given
    set's, also where its cost passes the float range.  The reported
    ``lhs`` and ``rhs`` are at the given scale, by
    :meth:`gjbd.nullspace.MatrixSet.rescale`: inf past the float range.
    """
    z = np.asarray(z, dtype=float)
    w = solution.w
    p = solution.partition
    b = a.unit
    delta_b = float(a.rescale(delta, -1))
    lhs = cost_ls(b, p, w)
    g_full = np.linalg.solve(w, z @ w)
    g_blocks = [g_full[sl, sl] for sl in p.slices()]
    seps = [_sep_stacked(np.array([g_blocks[j] for j, _ in pairs]),
                         np.array([g_blocks[k] for _, k in pairs]))
            for pairs in p.pairs_by(lambda j, k: (p.sizes[j], p.sizes[k]))]
    sep = float(np.min(np.concatenate(seps))) if seps else np.inf
    z_norm = float(np.linalg.norm(z))
    w_norm2 = float(np.linalg.norm(w, 2))
    components = {
        "delta": float(delta),
        "z_frobenius": z_norm,
        "w_spectral": w_norm2,
        "sep": sep,
        "sep_degenerate": bool(sep == 0.0),
    }
    if sep == 0.0 or not np.isfinite(sep):
        rhs = np.inf
    else:
        try:
            rhs = (delta_b ** 2) * (z_norm ** 2) * (w_norm2 ** 4) / (sep ** 2)
        except OverflowError:  # a float power past the float range
            rhs = np.inf
    # evaluating the cost of an exact solution already leaves rounding dust
    # of this size, so the comparison needs an absolute floor
    floor = (1e2 * np.finfo(float).eps) ** 2 * b.total_sq_norm()
    report = _upper_report(lhs, rhs, components, abs_slack=floor)
    return replace(report, lhs=float(a.rescale(lhs, 2)), rhs=float(a.rescale(rhs, 2)))


def verify_imag_bound(a, z, delta):
    """Check, per eigenpair of ``z``, the imaginary-part bound
    ``|lam - conj(lam)| <= delta * ||z||_F / sqrt(sum_i |x* A_i x|**2)``.

    Eigenpairs whose denominator vanishes are reported as inapplicable.

    Each denominator and ``delta`` are taken on ``a.unit``, as the
    near-null kernel takes them.  That scaling is exact and cancels in the
    right-hand side, so ``rhs`` is the given set's, also where its squares
    pass the float range.  The reported denominator is at the given scale,
    by :meth:`gjbd.nullspace.MatrixSet.rescale`: inf past the float range.

    Returns
    -------
    list of BoundReport
    """
    z = np.asarray(z, dtype=float)
    z_norm = float(np.linalg.norm(z))
    b = a.unit
    delta_b = a.rescale(float(delta), -1)
    evals, evecs = np.linalg.eig(z)
    reports = []
    for idx in range(evals.size):
        lam = evals[idx]
        x = evecs[:, idx]
        # one stacked product per eigenvector; a product over all of them at
        # once would sum in another order
        denom_b = float(sum(abs(np.vdot(x, bx)) ** 2 for bx in b.mats @ x))
        denom = float(a.rescale(denom_b, 2))
        lhs = float(abs(lam - np.conj(lam)))
        components = {
            "eigenvalue": complex(lam),
            "denominator": denom,
            "delta": float(delta),
            "z_frobenius": z_norm,
        }
        if denom_b == 0.0:
            reports.append(_upper_report(lhs, np.inf, components, applicable=False))
            continue
        # from |lam - conj(lam)|**2 * denom <= delta**2 * ||z||_F**2
        rhs = delta_b * z_norm / np.sqrt(denom_b)
        reports.append(_upper_report(lhs, rhs, components))
    return reports


def gap_lower_bound(z):
    """Check the guaranteed largest consecutive real-part gap
    ``g >= sqrt(8 * eta / ((n - 1) * n**2))`` for a trace-free ``z`` with
    ``eta = trace(z @ z) >= 0``; negative ``eta`` makes the bound
    inapplicable."""
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    tr = float(np.trace(z))
    scale = max(1.0, float(np.linalg.norm(z)))
    if abs(tr) > _TRACE_TOL * scale:
        raise ValueError("z must be trace-free")
    eta = float(np.trace(z @ z))
    real_parts = np.sort(np.linalg.eigvals(z).real)
    g = float(np.max(np.diff(real_parts))) if n > 1 else 0.0
    components = {"eta": eta, "n": n}
    if eta < 0.0:
        return _lower_report(g, 0.0, components, applicable=False)
    rhs = 0.0 if n == 1 else float(np.sqrt(8.0 * eta / ((n - 1) * n * n)))
    return _lower_report(g, rhs, components)
