"""Near-null spaces of the coupling equations ``A_i Z = Z.T A_i``.

The equations stack into one operator ``K``: the ``m*n*n x n*n`` matrix
of the linear map ``vec(Z) -> stack_i vec(A_i Z - Z.T A_i)`` (column-major
vec), whose small singular directions span the near-null space.
``tests/oracles.py`` forms ``K`` densely as the reference the tests compare
against.  The solvers never form ``K``.  They assemble its Gram matrix
``G = K.T K`` from the structure of the ``A_i`` in ``O(m n**4)`` and
reduce it to tridiagonal form once.  Bisection on the tridiagonal
matrix gives only the few eigenvalues of ``G`` that are read: the
largest, the lowest, which choose a window, and the first above the
window.  Only the window's eigenvectors are computed, by inverse
iteration.  They are refined by one corrected semi-normal step (Bjorck,
*Numerical Methods for Least Squares Problems*, 1996), which applies
``K`` and ``K.T`` as ``A_i Z - Z.T A_i`` and ``A_i.T Y - A_i Y.T`` and
solves with a Cholesky factor of ``G`` shifted on the window.  A
Rayleigh-Ritz SVD of ``K`` on the refined window (Golub & Van Loan,
*Matrix Computations*) then gives the small singular values to the
precision of a dense SVD.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack


@dataclass(frozen=True)
class MatrixSet:
    """A family of ``m`` real square matrices of common order ``n``.

    Attributes
    ----------
    mats : ndarray, shape (m, n, n)
    """

    mats: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("mats must have shape (m, n, n)")
        if mats.shape[0] < 1 or mats.shape[1] < 1:
            raise ValueError("need m >= 1 matrices of order n >= 1")
        if not np.all(np.isfinite(mats)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "mats", mats)

    @property
    def m(self):
        return self.mats.shape[0]

    @property
    def n(self):
        return self.mats.shape[1]

    def total_sq_norm(self):
        """Sum of squared Frobenius norms, the natural cost scale."""
        return float(np.sum(self.mats ** 2))


@dataclass(frozen=True)
class NullSpaceBasis:
    """Orthonormal basis (trace inner product) of a near-null space.

    Attributes
    ----------
    delta : float
        Threshold under which singular directions were collected.
    sigma : ndarray, shape (k + 2,) at most
        The ends of the singular values of the stacked operator,
        non-increasing: ``sigma[0]`` is the largest, ``sigma_max``, then
        comes the first value above the refined window of ``k`` directions,
        both square roots of eigenvalues of ``G = K.T K`` by bisection on its
        tridiagonal form and accurate relative to ``sigma_max``.  The last
        ``k`` values, which cover every value up to twice ``delta``, come
        from the Rayleigh-Ritz SVD at the precision of a dense SVD of ``K``.
        When the window is the whole space, ``sigma`` holds all ``n*n``
        values from the Rayleigh-Ritz SVD.  Index it from its ends only.
    basis : list of ndarray
        Matrices reshaped from the right singular directions with singular
        value below ``delta``, smallest singular value first.
    includes_identity_direction : bool
        Whether the identity lies in the span of ``basis``: its coordinates
        in ``basis`` have norm at least ``1 - 1e-8``.  Read only by greedy
        and exact mode, whose answer is trivial when the basis holds nothing
        beyond the identity; :func:`basis_excluding_identity` does not read
        it.
    rank_cutoff : bool
        Whether ``delta`` is the numerical-rank cutoff, so that ``basis``
        spans the exact null space.
    """

    delta: float
    sigma: np.ndarray
    basis: list
    includes_identity_direction: bool
    rank_cutoff: bool

    @property
    def dim(self):
        return len(self.basis)


def exact_rank_tolerance(a, sigma_max):
    """Numerical-rank cutoff for the stacked operator of ``a``."""
    n2 = a.n * a.n
    return max(a.m * n2, n2) * np.finfo(float).eps * sigma_max


# Below this multiple of n * sqrt(eps) * sigma_max, sqrt(eig(G)) is lost to
# the rounding of forming G = K.T K, whose error is about eps * sigma_max**2
# per entry; singular values there are taken from the Rayleigh-Ritz step.
_GRAM_RESOLUTION = 1e2


def _unit_scaled(a):
    """``(b, exponent)`` with ``a = 2**exponent * b`` and the largest entry
    of ``b`` below 1 in magnitude.

    ``K`` is linear in the ``A_i``: scaling them by a power of two, which is
    exact, keeps the squares in :func:`_gram` from overflowing or
    underflowing.  Both callers of :func:`_gram` scale with it.
    """
    exponent = np.frexp(np.abs(a.mats).max())[1]
    return MatrixSet(np.ldexp(a.mats, -exponent)), exponent


def _gram(a):
    """``K.T K`` for the stacked coupling operator ``K`` of ``a``, the matrix
    of ``vec(Z) -> stack_i vec(A_i Z - Z.T A_i)``, in ``O(m n**4)``.

    ``G = I kron S - C - C.T`` with ``S = sum_i A_i.T A_i + A_i A_i.T`` and
    ``C[(c, p), (r, s)] = sum_i A_i[r, p] A_i[s, c]`` in the column order of
    ``K``: column ``(q, p)``, index ``q * n + p``, weighs ``Z[p, q]``, the
    column-major ``vec(Z)`` in which :func:`_near_null_basis` reshapes.

    Two callers: :func:`_near_null_svd`, for the solvers' near-null spaces,
    and :func:`gjbd.analysis.equivalence_check`, which reads each block
    pair's certificate from a principal submatrix.
    """
    n = a.n
    rows = a.mats.reshape(a.m * n, n)  # rows[(i, r), p] = A_i[r, p]
    cols = a.mats.transpose(1, 0, 2).reshape(n, a.m * n)  # cols[p, (i, r)] = A_i[p, r]
    s = rows.T @ rows + cols @ cols.T
    flat = a.mats.reshape(a.m, n * n)
    # (flat.T @ flat)[(r, p), (s, c)] = sum_i A_i[r, p] A_i[s, c]
    cross = (flat.T @ flat).reshape(n, n, n, n).transpose(3, 1, 0, 2).reshape(n * n, n * n)
    g = -(cross + cross.T)
    diag = np.arange(n)
    g.reshape(n, n, n, n)[diag, :, diag, :] += s  # I kron S
    return g


def _apply_k(a, v):
    """``K @ v`` for ``v`` of shape ``(n*n, k)``, as ``A_i Z - Z.T A_i``."""
    n, m = a.n, a.m
    z = v.reshape(n, n, -1)  # z[c, p, j] = Z_j[p, c]
    az = a.mats.reshape(m * n, n) @ z.transpose(1, 0, 2).reshape(n, -1)  # [(i, r), (c, j)]
    za = z.transpose(0, 2, 1).reshape(-1, n) @ a.mats.transpose(1, 0, 2).reshape(n, m * n)
    az = az.reshape(m, n, n, -1).transpose(0, 2, 1, 3)  # [i, c, r, j]
    za = za.reshape(n, -1, m, n).transpose(2, 3, 0, 1)  # from [r, j, i, c]
    return (az - za).reshape(m * n * n, -1)


def _apply_kt(a, y):
    """``K.T @ y`` for ``y`` of shape ``(m*n*n, k)``, as
    ``sum_i A_i.T Y_i - A_i Y_i.T``."""
    n, m = a.n, a.m
    y = y.reshape(m, n, n, -1)  # y[i, c, r, j] = Y_ij[r, c]
    # both terms contract over (i, r) and come out as [p, (j, c)]
    at_y = a.mats.reshape(m * n, n).T @ y.transpose(0, 2, 3, 1).reshape(m * n, -1)
    a_rows = a.mats.transpose(0, 2, 1).reshape(m * n, n).T  # [p, (i, r)] = A_i[p, r]
    a_yt = a_rows @ y.transpose(0, 1, 3, 2).reshape(m * n, -1)
    return (at_y - a_yt).reshape(n, -1, n).transpose(1, 2, 0).reshape(-1, n * n).T


def _bisect(diag, offdiag, by_index, low, high):
    """Eigenvalues of the symmetric tridiagonal matrix ``(diag, offdiag)``
    by bisection (``dstebz``): those numbered ``low`` to ``high`` from the
    lowest (1-based) when ``by_index``, else those in ``(low, high]``.

    Returns ``(w, iblock, isplit)``: the values grouped by split-off block
    and ascending within each, as :func:`_gram_window` reads them.
    """
    if by_index:
        m, w, iblock, isplit, _ = lapack.dstebz(diag, offdiag, 2, 0.0, 0.0, low, high, 0.0, "B")
    else:
        m, w, iblock, isplit, _ = lapack.dstebz(diag, offdiag, 1, low, high, 0, 0, 0.0, "B")
    return w[:m], iblock, isplit


def _gram_window(reflectors, tau, diag, offdiag, window):
    """Eigenvectors of a symmetric matrix of order ``N`` from its ``dsytrd``
    reduction (lower), for the ``k`` eigenvalues of ``window``, the output
    of :func:`_bisect` on its tridiagonal matrix.

    ``diag`` and ``offdiag`` hold the tridiagonal matrix, whose eigenvectors
    come from inverse iteration (``dstein``).  ``Q = H(1) ... H(N - 1)``
    leaves row 0 alone, and on rows ``1:`` it is the ``Q`` of a QR
    factorization: ``reflectors``, rows ``1:`` and columns ``:-1`` of what
    ``dsytrd`` returns, in column order, and ``tau`` define it for
    ``dormqr``.

    Returns
    -------
    ndarray, shape (N, k)
    """
    w, iblock, isplit = window
    z, _ = lapack.dstein(diag, offdiag, w, iblock, isplit)
    rows, _, _ = lapack.dormqr("L", "N", reflectors, tau, z[1:], len(w))
    return np.vstack((z[:1], rows))


def _near_null_svd(a, threshold):
    """The largest and the smallest singular values of ``K`` and the right
    singular vectors of the smallest ones, as the thin SVD of the dense
    ``K`` (``tests/oracles.py``) gives them, without forming ``K``.

    ``G = K.T K`` is reduced to tridiagonal form once (blocked ``dsytrd``).
    Bisection (``dstebz``) on the tridiagonal matrix gives only the
    eigenvalues read: the largest and the two lowest, which estimate the
    caller's threshold, those of the window, and the first above the
    window.  The window holds the ``k``
    lowest eigenvectors, at least two, enough to hold every root at or
    below ``_GRAM_RESOLUTION * n * sqrt(eps) * sigma_max`` and every root at
    or below twice the estimated threshold.  Only these ``k`` vectors are
    computed, by inverse iteration (``dstein``) on the tridiagonal matrix
    and ``dormqr`` with the stored reflectors.

    One corrected semi-normal step removes the rounding that forming ``G``
    left in the window ``V``: ``V <- qr(V - inv(M) (I - V V.T) K.T (K V))``
    with ``M = G + lambda_max V V.T``, solved by one Cholesky factorization.
    With ``(V_c, L_c)`` the eigenpairs outside the window,
    ``inv(M) (I - V V.T) = V_c inv(L_c) V_c.T``, so the eigenvectors outside
    the window are never formed.  The SVD of ``K V`` then gives the tail of
    the spectrum and its right vectors.  Should the first root outside the
    window, the square root of eigenvalue ``k + 1``, not exceed
    ``2 * threshold(sigma)`` of the final values, the window doubles and the
    step is repeated, so every value a caller compares with its threshold
    comes from the tail.

    Parameters
    ----------
    a : MatrixSet
    threshold : callable
        Maps non-increasing singular values, of which it reads only
        ``sigma[0]`` and ``sigma[-2]``, to the threshold the caller applies.

    Returns
    -------
    sigma : ndarray, shape (k + 2,) at most
        Non-increasing: ``sigma_max`` and the first root outside the window,
        from the Gram eigenvalues, then the ``k`` Rayleigh-Ritz values of
        the window.  Without roots outside the window, ``k = n*n`` and
        ``sigma`` is the tail alone; with one, ``sigma_max`` is that root.
    vt : ndarray, shape (k, n*n)
        The right singular vectors of the window: row ``j`` belongs to
        ``sigma[len(sigma) - k + j]``.  Every value below the threshold lies
        in the window, so these are all the rows a caller reads.
    """
    n2 = a.n * a.n
    if n2 == 1:
        # a scalar commutes with its transpose: K vanishes (and dsytrd
        # rejects a 1 x 1 matrix)
        return np.zeros(1), np.ones((1, 1))
    a, exponent = _unit_scaled(a)
    g = _gram(a)
    lwork, _ = lapack.dsytrd_lwork(n2, lower=1)
    refl, diag, offdiag, tau, _ = lapack.dsytrd(g, lower=1, lwork=int(lwork))
    # the reflectors in the layout dormqr reads; dropping dsytrd's own array
    # keeps at most three n**2 x n**2 arrays alive
    reflectors = np.asfortranarray(refl[1:, :-1])
    del refl
    lam_max = _bisect(diag, offdiag, True, n2, n2)[0][0]
    lowest = _bisect(diag, offdiag, True, 1, 2)
    # sigma_max and the two lowest roots, all that the threshold reads
    ends = np.sqrt(np.maximum([lam_max, *sorted(lowest[0], reverse=True)], 0.0))
    resolution = _GRAM_RESOLUTION * a.n * np.sqrt(np.finfo(float).eps) * ends[0]
    estimate = threshold(np.ldexp(ends, exponent))
    cut = max(resolution, np.ldexp(2.0 * estimate, -exponent))
    # the lower end lies below every eigenvalue, even when G = 0
    window = _bisect(diag, offdiag, False, -lam_max - 1.0, cut * cut)
    if len(window[0]) < 2:
        window = lowest
    while True:
        k = len(window[0])
        v = _gram_window(reflectors, tau, diag, offdiag, window)
        if k < n2:
            # the window holds every root at or below the resolution, so no
            # eigenvalue of M lies below resolution**2, about 1e4 * n**2 *
            # eps * lambda_max: the Cholesky factorization cannot break down
            shifted = (lam_max * v) @ v.T
            shifted += g
            # symmetric, so the transpose is the same matrix in the column
            # order LAPACK factors in place
            m_chol, _ = lapack.dpotrf(shifted.T, lower=1, overwrite_a=1)
            step = _apply_kt(a, _apply_k(a, v))
            step -= v @ (v.T @ step)
            step, _ = lapack.dpotrs(m_chol, step, lower=1)
            v, _ = np.linalg.qr(v - step)
        _, tail, rot = np.linalg.svd(_apply_k(a, v), full_matrices=False)
        # eigenvalue k + 1, the first outside the window
        lam_next = lam_max if k + 1 >= n2 else _bisect(diag, offdiag, True, k + 1, k + 1)[0][0]
        head = np.sqrt(np.maximum([lam_max, lam_next][:n2 - k], 0.0))
        # a Ritz value may pass the first root outside the window by rounding
        # when the two are nearly equal; both lie above twice the threshold,
        # so the values callers compare keep their rows
        sigma = -np.sort(-np.ldexp(np.concatenate((head, tail)), exponent))
        if k == n2 or np.ldexp(head[-1], exponent) > 2.0 * threshold(sigma):
            break
        window = _bisect(diag, offdiag, True, 1, min(2 * k, n2))
    return sigma, rot @ v.T


def _delta_rule(a, gamma, sigma):
    """``(delta, rank_cutoff)`` for the non-increasing singular values
    ``sigma`` of the stacked operator of ``a``: the numerical-rank cutoff,
    unless ``gamma`` is given and the second smallest value exceeds it, in
    which case ``gamma * sigma[-2]``.

    The package's only delta rule: :func:`_near_null_basis` cuts with it,
    and :func:`gjbd.solvers.one_step_split_with_trace` reads it to decide
    whether a basis already computed is the one ``gamma`` would give.
    """
    tol_exact = exact_rank_tolerance(a, sigma[0])
    if gamma is None or sigma.size < 2 or sigma[-2] <= tol_exact:
        return tol_exact, True
    return gamma * sigma[-2], False


def _near_null_basis(a, gamma):
    """The basis of :func:`delta_nullspace` for ``gamma``, or of
    :func:`exact_nullspace` for ``gamma=None``."""
    n = a.n
    sigma, vt = _near_null_svd(a, lambda s: _delta_rule(a, gamma, s)[0])
    delta, rank_cutoff = _delta_rule(a, gamma, sigma)
    if sigma[0] == 0.0:
        # the operator vanishes; every direction is null
        count, delta = n * n, np.inf
    else:
        count = int(np.sum(sigma < delta))
    # vt holds the rows of the window only, the last len(vt) values of sigma
    basis = [vt[-(j + 1)].reshape((n, n), order="F") for j in range(count)]
    # the identity's coordinates in the basis; an empty basis has norm 0
    coords = np.array([np.trace(z) / np.sqrt(n) for z in basis])
    return NullSpaceBasis(
        delta=float(delta),
        sigma=sigma,
        basis=basis,
        includes_identity_direction=bool(np.linalg.norm(coords) >= 1.0 - 1e-8),
        rank_cutoff=rank_cutoff,
    )


def delta_nullspace(a, gamma):
    """Near-null space spanned by the right singular directions of the
    stacked operator with singular value below ``gamma * sigma[n*n - 2]``.

    The smallest singular value is always (numerically) zero because the
    identity satisfies the coupling equations exactly.  When the second
    smallest is also numerically zero the set admits exact solutions and the
    threshold falls back to a standard numerical-rank cutoff, which the
    returned basis records as ``rank_cutoff``.

    Parameters
    ----------
    a : MatrixSet
    gamma : float
        Threshold multiplier, finite and > 1.

    Returns
    -------
    NullSpaceBasis
    """
    if not 1.0 < gamma < np.inf:
        raise ValueError("gamma must be finite and > 1")
    return _near_null_basis(a, gamma)


def exact_nullspace(a):
    """Exact null space of the coupling equations, up to numerical rank."""
    return _near_null_basis(a, None)


def basis_excluding_identity(b):
    """Orthonormal basis of the trace-free members of a near-null space.

    The combinations ``sum_j c_j Z_j`` of ``b.basis`` with trace zero are
    those whose coefficients ``c`` are orthogonal to the row of the basis'
    traces: the last ``k - 1`` right singular vectors of that ``1 x k`` row.
    Orthonormal coefficients of an orthonormal basis give orthonormal
    matrices.  The result spans a subspace fixed by the span of
    ``b.basis`` alone, whatever basis represents it, and the constraint
    removes the identity's representative whether or not the computed span
    holds the identity to rounding.  A basis whose traces all vanish is
    trace-free already and is returned whole.

    Parameters
    ----------
    b : NullSpaceBasis

    Returns
    -------
    list of ndarray
        ``b.dim - 1`` matrices (``b.dim`` when every trace vanishes); empty
        when the space is the span of the identity.
    """
    traces = np.array([np.trace(z) for z in b.basis])
    coeffs = np.linalg.svd(traces[None, :])[2][1:] if np.any(traces) else np.eye(b.dim)
    return list(np.tensordot(coeffs, np.array(b.basis), axes=1))


def trace_gram(zs):
    """Gram-type matrix ``H`` with ``H[j, k] = trace(Z_j @ Z_k)``."""
    ell = len(zs)
    h = np.empty((ell, ell))
    for j in range(ell):
        for k in range(j, ell):
            v = float(np.sum(zs[j] * zs[k].T))
            h[j, k] = v
            h[k, j] = v
    return h
