"""Near-null spaces of the coupling equations ``A_i Z = Z.T A_i``.

The equations stack into one operator ``K``: the ``m*n*n x n*n`` matrix
of the linear map ``vec(Z) -> stack_i vec(A_i Z - Z.T A_i)`` (column-major
vec), whose small singular directions span the near-null space.
``tests/oracles.py`` forms ``K`` densely as the reference the tests compare
against.

For ``n <= 2``, ``K`` is at most ``4m x 4`` and the solvers take its thin
SVD, which costs less than the fixed cost of the route below, some twenty
LAPACK and numpy calls.  The dense SVD is also cheaper at ``n = 3`` and
``4``, but its basis differs from the route's by rounding, and on
near-defective sets that the route answers, greedy then meets clusters it
cannot decouple; so the dense route stops at ``n = 2``.

From ``n = 3`` on the solvers never form ``K``.  They assemble its Gram
matrix ``G = K.T K`` from the structure of the ``A_i`` in ``O(m n**4)``, by
one stacked matrix product into the only ``n**2 x n**2`` array of the
route, and reduce it there to tridiagonal form ``T = Q.T G Q`` once.
Bisection on ``T`` gives only the few eigenvalues of ``G`` that are read:
the largest, the lowest, which choose a window, and the first above the
window.  Only the window's eigenvectors of ``T`` are computed, by inverse
iteration.
They are refined by one corrected semi-normal step (Bjorck, *Numerical
Methods for Least Squares Problems*, 1996), which applies ``K`` and ``K.T``
as ``A_i Z - Z.T A_i`` and ``A_i.T Y - A_i Y.T`` and solves in the
tridiagonal basis, with ``T`` shifted by a small multiple of the identity
and refined.  A Rayleigh-Ritz SVD of ``K`` on the refined window (Golub &
Van Loan, *Matrix Computations*) then gives the small singular values to
the precision of a dense SVD.

Both routes run on the set's :attr:`MatrixSet.unit`, the set scaled by the
power of two that brings its largest entry below 1, and only the reported
singular values and threshold are scaled back, by :meth:`MatrixSet.rescale`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .matkernels import NumericalError


@dataclass(frozen=True)
class MatrixSet:
    """A family of ``m`` real square matrices of common order ``n``.

    The set owns its power-of-two scale: each computation homogeneous in the
    set (the near-null kernel, :func:`pair_grams`, the costs, the
    off-block and imaginary-part bounds, ``gjbd check``'s cost match,
    consv and the equivalence test) runs on ``unit`` and reports at the
    set's scale by :meth:`rescale`.

    Attributes
    ----------
    mats : ndarray, shape (m, n, n)
    exponent : int
        ``mats = 2**exponent * unit.mats``, exactly wherever entries are normal.

    Raises
    ------
    ValueError
        If ``mats`` is not of shape ``(m, n, n)`` with ``m, n >= 1``, holds
        a non-finite entry, or has a dtype other than int, uint or float,
        such as bool, complex or string.  numpy reads a list that mixes
        bools with numbers as floats before any dtype exists; files are
        checked entry by entry where ``gjbd.cli`` reads them.
    """

    mats: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.mats)
        if mats.dtype.kind not in "iuf":
            raise ValueError(f"matrix entries must be real numbers, got dtype {mats.dtype}")
        mats = mats.astype(float, copy=False)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("mats must have shape (m, n, n)")
        if mats.shape[0] < 1 or mats.shape[1] < 1:
            raise ValueError("need m >= 1 matrices of order n >= 1")
        if not np.all(np.isfinite(mats)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "exponent", int(np.frexp(np.abs(mats).max())[1]))

    @property
    def unit(self):
        """The set times ``2**-exponent``, largest entry in [1/2, 1) in
        magnitude; the set itself when ``exponent`` is 0, as for the zero
        set.  Formed on each access, so that no set holds two copies."""
        return MatrixSet(np.ldexp(self.mats, -self.exponent)) if self.exponent else self

    @property
    def m(self):
        return self.mats.shape[0]

    @property
    def n(self):
        return self.mats.shape[1]

    def rescale(self, x, power=1):
        """``x * 2**(power * exponent)``: a quantity of degree ``power`` in
        the set, computed on ``unit``, at the set's own scale (``power=-1``
        takes one of degree 1 the other way).  Exact wherever the result is
        normal; past the float range inf, without a numpy overflow warning.
        """
        with np.errstate(over="ignore"):
            return np.ldexp(x, power * self.exponent)

    def total_sq_norm(self):
        """Sum of squared Frobenius norms, the natural cost scale, summed on
        ``unit``; see :meth:`rescale`."""
        return float(self.rescale(np.sum(self.unit.mats ** 2), 2))


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
        values from the Rayleigh-Ritz SVD; for ``n <= 2`` it always holds
        all ``n*n`` values, from the thin SVD of the dense ``K``.  Index it
        from its ends only.
    basis : list of ndarray
        Matrices reshaped from the right singular directions with singular
        value below ``delta``, smallest singular value first.
    rank_cutoff : bool
        Whether ``delta`` is the numerical-rank cutoff, so that ``basis``
        spans the exact null space.

    Every field is computed on the set scaled by a power of two to a
    largest entry below 1; ``sigma`` and ``delta`` are then scaled back to
    the caller's set, exactly wherever they are normal.  Past the float
    range they round to inf, without a numpy overflow warning, or toward 0;
    ``dim`` is counted before that rounding, and ``basis`` is the same for
    every power-of-two multiple of a set.
    """

    delta: float
    sigma: np.ndarray
    basis: list
    rank_cutoff: bool

    @property
    def dim(self):
        return len(self.basis)


def exact_rank_tolerance(a, sigma_max):
    """Numerical-rank cutoff for the stacked operator of ``a``."""
    n2 = a.n * a.n
    return a.m * n2 * np.finfo(float).eps * sigma_max


# Below this multiple of n * sqrt(eps) * sigma_max, sqrt(eig(G)) is lost to
# the rounding of forming G = K.T K, whose error is about eps * sigma_max**2
# per entry; singular values there are taken from the Rayleigh-Ritz step.
_GRAM_RESOLUTION = 1e2

# Up to this order _near_null_svd takes the thin SVD of the dense K, at
# most 4m x 4 (see the module docstring for why not beyond).
_DENSE_MAX_ORDER = 2

# The corrected step of _near_null_svd applies the inverse of T off the
# window as a sum of solves with T + shift * I, shift = _STEP_SHIFT *
# resolution**2.  Every eigenvalue lam of T off the window exceeds
# resolution**2, so each solve shrinks the error of the sum by
# shift / (lam + shift) < 1e-2.  The step removes an error of at most
# eps * lambda_max / lam from the window, and is itself accurate only to
# eps * sqrt(lambda_max / lam); their ratio is at most
# 1 / (1e2 * n * sqrt(eps)) < 1 / 1.4e-6, at lam = resolution**2, and three
# solves shrink the error by less than 1e-6.
_STEP_SHIFT = 1e-2
_STEP_SOLVES = 3


def _gram(a):
    """``K.T K`` for the stacked coupling operator ``K`` of ``a``, the matrix
    of ``vec(Z) -> stack_i vec(A_i Z - Z.T A_i)``, in ``O(m n**4)``.

    ``G = I kron S - C - C.T`` with ``S = sum_i A_i.T A_i + A_i A_i.T`` and
    ``C[(c, p), (r, s)] = sum_i A_i[r, p] A_i[s, c]`` in the column order of
    ``K``: column ``(q, p)``, index ``q * n + p``, weighs ``Z[p, q]``, the
    column-major ``vec(Z)`` in which :func:`_near_null_basis` reshapes.

    Row block ``c`` of ``-(C + C.T)``, laid out as ``[(p, r), s]``, is the
    product of the ``n**2 x 2m`` matrix ``-[A_i[r, p] | A_i[p, r]]`` with
    the ``2m x n`` matrix ``[A_i[s, c] ; A_i[c, s]]``, so one stacked
    matmul writes ``-(C + C.T)`` into the output, the only ``n**2 x n**2``
    array, and ``I kron S`` is added to its diagonal blocks.

    Two callers: :func:`_near_null_svd`, for the solvers' near-null spaces,
    and :func:`pair_grams`, which reads each block pair's Gram matrix from
    a principal submatrix.  Both pass a set's ``unit``, whose squares
    neither overflow nor underflow.
    """
    n, m = a.n, a.m
    rows = a.mats.reshape(m * n, n)  # rows[(i, r), p] = A_i[r, p]
    cols = a.mats.transpose(1, 0, 2).reshape(n, m * n)  # cols[p, (i, r)] = A_i[p, r]
    s = rows.T @ rows + cols @ cols.T
    # left[(p, r), i] = -A_i[r, p] and left[(p, r), m + i] = -A_i[p, r]
    left = -np.concatenate((a.mats.transpose(2, 1, 0), a.mats.transpose(1, 2, 0)), axis=2)
    # right[c, i, s] = A_i[s, c] and right[c, m + i, s] = A_i[c, s]
    right = np.concatenate((a.mats.transpose(2, 0, 1), a.mats.transpose(1, 0, 2)), axis=1)
    g = np.empty((n * n, n * n))
    # g as [c, (p, r), s] is -(C + C.T)[(c, p), (r, s)]
    np.matmul(left.reshape(n * n, 2 * m), right, out=g.reshape(n, n * n, n))
    diag = np.arange(n)
    g.reshape(n, n, n, n)[diag, :, diag, :] += s  # I kron S
    return g


def pair_grams(a, p):
    """``[(pairs, grams), ...]``: per product ``nj * nk`` of block sizes of
    ``p``, its block pairs ``(j, k)``, ``j < k``, and the stack of the Gram
    matrices of their coupling equations, for a set ``a`` block diagonal
    under ``p``.

    There the equations tie the entries of ``Z`` in blocks ``(j, k)`` and
    ``(k, j)`` to no others, so a pair's Gram matrix is the principal
    submatrix of the one ``K.T K`` on those entries, block ``(j, k)`` row by
    row, then block ``(k, j)``; it is singular exactly when the pair's
    equations admit a nonzero solution.  ``K`` is that of ``a.unit``, as
    for the near-null spaces.
    """
    g = _gram(a.unit)
    column = np.arange(a.n ** 2).reshape((a.n, a.n), order="F")  # g's column weighing Z[r, s]
    slices = p.slices()
    groups = []
    for pairs in p.pairs_by(lambda j, k: p.sizes[j] * p.sizes[k]):
        ids = np.array([np.concatenate((column[slices[j], slices[k]].ravel(),
                                        column[slices[k], slices[j]].ravel()))
                        for j, k in pairs])
        groups.append((pairs, g[ids[:, :, None], ids[:, None, :]]))
    return groups


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


def _lapack(name, *args, **kwargs):
    """The outputs of the LAPACK routine ``name`` but its last, ``info``.

    A nonzero ``info`` raises :class:`NumericalError`, so that a failed
    routine never passes its output on to later steps.
    """
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info != 0:
        raise NumericalError(f"near-null space: LAPACK {name} failed with info {info}")
    return out


def _bisect(diag, offdiag, by_index, low, high):
    """Eigenvalues of the symmetric tridiagonal matrix ``(diag, offdiag)``
    by bisection (``dstebz``): those numbered ``low`` to ``high`` from the
    lowest (1-based) when ``by_index``, else those in ``(low, high]``.

    Returns ``(w, iblock, isplit)``: the values grouped by split-off block
    and ascending within each, as inverse iteration (``dstein``) reads them.
    """
    if by_index:
        m, w, iblock, isplit = _lapack("dstebz", diag, offdiag, 2, 0.0, 0.0, low, high, 0.0, "B")
    else:
        m, w, iblock, isplit = _lapack("dstebz", diag, offdiag, 1, low, high, 0, 0, 0.0, "B")
    return w[:m], iblock, isplit


def _apply_q(refl, tau, x, trans="N"):
    """``Q @ x``, or ``Q.T @ x`` for ``trans="T"``, for the ``Q`` of a
    ``dsytrd`` reduction (lower) of order ``N`` and ``x`` of shape
    ``(N, k)``.

    ``Q = H(1) ... H(N - 1)`` leaves row 0 alone, and on rows ``1:`` it is
    the ``Q`` of a QR factorization whose reflectors ``dsytrd`` stored
    below the subdiagonal of ``refl``, its output in column order.  As in
    LAPACK's ``dormtr``, which scipy does not wrap, ``dormqr`` reads them in
    place: from the view of ``refl`` that starts at ``refl[1, 0]`` with
    leading dimension ``N``, so no copy of the ``N x N`` array is made.
    """
    n2 = refl.shape[0]
    reflectors = refl.ravel(order="F")[1:1 + n2 * (n2 - 1)].reshape((n2, n2 - 1), order="F")
    rows, _ = _lapack("dormqr", "L", trans, reflectors, tau, x[1:], x.shape[1])
    return np.concatenate((x[:1], rows))


def _near_null_svd(a, threshold):
    """The largest and the smallest singular values of ``K`` and the right
    singular vectors of the smallest ones, as the thin SVD of the dense
    ``K`` (``tests/oracles.py``) gives them, without forming ``K`` from
    ``n = 3`` on, for a set's ``unit``: its only caller,
    :func:`_near_null_basis`, reports at the set's scale, so neither route
    below has a scaling rule of its own.

    For ``n <= 2`` it is that thin SVD: ``K``, at most ``4m x 4``, is formed
    by applying it to the identity, and all ``n*n`` values and rows are
    returned, as below when the window is the whole space.  The dense SVD
    would be cheaper at ``n = 3`` and ``4`` too, but its rounding differs
    from the route below, and there it turned near-defective sets that
    greedy answers into ``InseparableClustersError``.

    From ``n = 3`` on, ``G = K.T K`` is reduced in place to tridiagonal
    form ``T = Q.T G Q`` once (blocked ``dsytrd``).  Bisection (``dstebz``)
    on ``T`` gives only the eigenvalues read: the largest and the two
    lowest, which estimate the caller's threshold, those of the window, and
    the first above the window.  The window holds the ``k`` lowest
    eigenvectors, at least two, enough to hold every root at or
    below ``_GRAM_RESOLUTION * n * sqrt(eps) * sigma_max`` and every root at
    or below twice the estimated threshold.  Only these ``k`` vectors ``Y``
    of ``T`` are computed, by inverse iteration (``dstein``).

    One corrected semi-normal step removes the rounding that forming ``G``
    left in the window ``V = Q Y``: ``V <- qr(V - V_c inv(L_c) V_c.T K.T
    (K V))``, with ``(V_c, L_c)`` the eigenpairs of ``G`` outside the
    window, which are never formed.  The step is taken in the tridiagonal
    basis, where ``Y`` spans the window of ``T``: with ``P = I - Y Y.T`` and
    ``b = P Q.T K.T (K V)``, ``x = P inv(T) b`` off the window is summed
    from ``_STEP_SOLVES`` solves with ``T + shift I`` (``dptsv``), and
    ``V <- qr(Q (Y - x))``; ``Q`` is applied by ``dormqr`` with the
    reflectors that ``dsytrd`` stored in ``G``'s buffer.  So one
    ``n**2 x n**2`` array is alive: :func:`_gram` writes ``G`` into it, and
    ``dsytrd`` reduces it in place.

    The SVD of ``K V`` then gives the tail of the spectrum and its right
    vectors.  Should the first root outside the
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

    Raises
    ------
    NumericalError
        If a LAPACK routine reports a failure.
    """
    n2 = a.n * a.n
    if a.n <= _DENSE_MAX_ORDER:
        _, sigma, vt = np.linalg.svd(_apply_k(a, np.eye(n2)), full_matrices=False)
        return sigma, vt
    g = _gram(a)
    (lwork,) = _lapack("dsytrd_lwork", n2, lower=1)
    # G is symmetric, so its transpose is the same matrix in the column
    # order in which dsytrd reduces it in place
    refl, diag, offdiag, tau = _lapack("dsytrd", g.T, lower=1, lwork=int(lwork), overwrite_a=1)
    lam_max = _bisect(diag, offdiag, True, n2, n2)[0][0]
    lowest = _bisect(diag, offdiag, True, 1, 2)
    # sigma_max and the two lowest roots, all that the threshold reads
    ends = np.sqrt(np.maximum([lam_max, *sorted(lowest[0], reverse=True)], 0.0))
    resolution = _GRAM_RESOLUTION * a.n * np.sqrt(np.finfo(float).eps) * ends[0]
    # 1e2 * n**2 * eps * lambda_max, above the rounding of T's eigenvalues,
    # about n**2 * eps * lambda_max, so T + shift I is positive definite
    shift = _STEP_SHIFT * resolution ** 2
    cut = max(resolution, 2.0 * threshold(ends))
    # the lower end lies below every eigenvalue, even when G = 0
    window = _bisect(diag, offdiag, False, -lam_max - 1.0, cut * cut)
    if len(window[0]) < 2:
        window = lowest
    while True:
        k = len(window[0])
        (y,) = _lapack("dstein", diag, offdiag, *window)
        if k < n2:
            kv = _apply_k(a, _apply_q(refl, tau, y))
            b = _apply_q(refl, tau, _apply_kt(a, kv), "T")
            b -= y @ (y.T @ b)
            # x = sum_j inv(T + shift I) (shift inv(T + shift I))**j b
            x = np.zeros_like(b)
            shifted = diag + shift
            for _ in range(_STEP_SOLVES):
                b = _lapack("dptsv", shifted, offdiag, b)[2]
                x += b
                b *= shift
            x -= y @ (y.T @ x)
            v, _ = np.linalg.qr(_apply_q(refl, tau, y - x))
        else:
            v = _apply_q(refl, tau, y)
        _, tail, rot = np.linalg.svd(_apply_k(a, v), full_matrices=False)
        # eigenvalue k + 1, the first outside the window
        lam_next = lam_max if k + 1 >= n2 else _bisect(diag, offdiag, True, k + 1, k + 1)[0][0]
        head = np.sqrt(np.maximum([lam_max, lam_next][:n2 - k], 0.0))
        # a Ritz value may pass the first root outside the window by rounding
        # when the two are nearly equal; both lie above twice the threshold,
        # so the values callers compare keep their rows
        sigma = -np.sort(-np.concatenate((head, tail)))
        if k == n2 or head[-1] > 2.0 * threshold(sigma):
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


def _check_gamma(gamma):
    """Raise ``ValueError`` unless ``gamma`` is a number, finite and > 1:
    the one check of the delta rule's multiplier, for
    :func:`delta_nullspace`, :func:`gjbd.solvers.one_step_split_with_trace`
    and :class:`gjbd.solvers.SolverConfig`."""
    if isinstance(gamma, (str, bytes)):
        raise ValueError(f"gamma must be a float, got {gamma!r}")
    # written so that NaN fails
    if not 1.0 < gamma < np.inf:
        raise ValueError("gamma must be finite and > 1")


def _near_null_basis(a, gamma):
    """The basis of :func:`delta_nullspace` for ``gamma``, or of
    :func:`exact_nullspace` for ``gamma=None``.

    The singular values, ``delta`` and the basis are computed and counted
    on ``b = a.unit``, and only ``sigma`` and ``delta`` are scaled back, by
    :meth:`MatrixSet.rescale`.  So the basis is the same for every
    power-of-two multiple of a set.
    """
    n = a.n
    b = a.unit
    sigma, vt = _near_null_svd(b, lambda s: _delta_rule(b, gamma, s)[0])
    delta, rank_cutoff = _delta_rule(b, gamma, sigma)
    if sigma[0] == 0.0:
        # the operator vanishes; every direction is null
        count, delta = n * n, np.inf
    else:
        count = int(np.sum(sigma < delta))
    # vt holds the rows of the window only, the last len(vt) values of sigma
    basis = [vt[-(j + 1)].reshape((n, n), order="F") for j in range(count)]
    delta, sigma = float(a.rescale(delta)), a.rescale(sigma)
    return NullSpaceBasis(delta=delta, sigma=sigma, basis=basis, rank_cutoff=rank_cutoff)


def delta_nullspace(a, gamma):
    """Near-null space spanned by the right singular directions of the
    stacked operator with singular value below ``gamma * sigma[n*n - 2]``.

    The smallest singular value is always (numerically) zero because the
    identity satisfies the coupling equations exactly.  When the second
    smallest is also numerically zero the set admits exact solutions and the
    threshold falls back to a standard numerical-rank cutoff, which the
    returned basis records as ``rank_cutoff``.

    The kernel runs on ``a.unit``, so the basis is the same for every
    power-of-two multiple of ``a``; see :class:`NullSpaceBasis`.

    Parameters
    ----------
    a : MatrixSet
    gamma : float
        Threshold multiplier, finite and > 1.

    Returns
    -------
    NullSpaceBasis

    Raises
    ------
    ValueError
        If ``gamma`` is a string, or not finite and > 1.
    NumericalError
        If a LAPACK routine of the near-null kernel reports a failure.
    """
    _check_gamma(gamma)
    return _near_null_basis(a, gamma)


def exact_nullspace(a):
    """Exact null space of the coupling equations, up to numerical rank.

    On ``a.unit``, as in :func:`delta_nullspace`.

    Parameters
    ----------
    a : MatrixSet

    Returns
    -------
    NullSpaceBasis
        With ``rank_cutoff`` true.

    Raises
    ------
    NumericalError
        If a LAPACK routine of the near-null kernel reports a failure.
    """
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
    """Gram-type matrix ``H`` with ``H[j, k] = trace(Z_j @ Z_k)``.

    Each entry ``j <= k`` sums the n² products ``Z_j * Z_k.T`` as one
    contiguous row, so it has the bits of ``np.sum(zs[j] * zs[k].T)``; the
    lower triangle mirrors the upper one, so ``H`` is exactly symmetric.
    """
    zs = np.asarray(zs, dtype=float)
    h = (zs[:, None] * zs.transpose(0, 2, 1)[None]).reshape(len(zs), len(zs), -1).sum(axis=-1)
    return np.triu(h) + np.triu(h, 1).T
