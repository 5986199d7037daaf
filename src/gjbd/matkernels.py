"""Dense matrix kernels: ordered real Schur form, Sylvester-based
block diagonalization, economic QR, principal angles and separation estimates.

The Schur form is reordered with LAPACK ``dtrexc`` (Bai-Demmel block swaps);
each cluster is decoupled from all earlier ones by one ``dtrsyl`` solve
(Bartels-Stewart), guarded by the ``dtrsen`` separation estimate of it."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import lapack


class NumericalError(RuntimeError):
    """Base class of the numerical failures a solve can raise."""


class SchurConvergenceError(NumericalError):
    """The QR eigenvalue iteration failed to converge."""


class InseparableClustersError(NumericalError):
    """The Sylvester system that decouples cluster ``k`` from clusters
    ``0..k-1`` is numerically singular; ``clusters == (k - 1, k)`` names the
    boundary at which decoupling failed."""

    def __init__(self, j, k):
        super().__init__(f"cluster {k} cannot be decoupled from clusters 0..{j}: "
                         "numerically inseparable spectra")
        self.clusters = (j, k)


class DegenerateBlockBasisError(NumericalError):
    """A block of columns is numerically rank deficient."""


@dataclass(frozen=True)
class SchurForm:
    """Real Schur decomposition with diagonal blocks sorted by ascending
    eigenvalue real part.

    The factor ``t`` is the only record of the block structure: a nonzero
    subdiagonal entry ``t[i + 1, i]`` marks a standardized 2x2 block holding
    a complex conjugate pair, which no cluster boundary may split.

    Attributes
    ----------
    q : ndarray, shape (n, n)
        Orthogonal factor.
    t : ndarray, shape (n, n)
        Real quasi-upper-triangular factor with 1x1 and 2x2 diagonal blocks;
        ``q @ t @ q.T`` reconstructs the input.
    """

    q: np.ndarray
    t: np.ndarray

    @property
    def n(self):
        return self.t.shape[0]

    @property
    def eig_real_parts(self):
        """Real part of the eigenvalue at each diagonal position, shape (n,),
        non-decreasing up to rounding (a standardized 2x2 block carries the
        pair's real part on both of its diagonal entries)."""
        return np.diag(self.t)

    @property
    def cuts(self):
        """Boolean array of shape (n - 1,): ``cuts[i]`` is True when a block
        may end after position ``i``, that is when ``t[i + 1, i] == 0``, so
        positions ``i`` and ``i + 1`` do not share a 2x2 conjugate-pair
        block."""
        return np.diag(self.t, -1) == 0.0

    @cached_property
    def rounding_level(self):
        """``1e3 * eps * ||t||_F``, the size below which a quantity of the
        form is taken for rounding error: a range of eigenvalue real parts
        in gap clustering, a separation estimate in Sylvester decoupling."""
        return 1e3 * np.finfo(float).eps * np.linalg.norm(self.t)


def _block_size(t, i):
    # 2 at the start of a 2x2 conjugate-pair block, else 1
    return 2 if i + 1 < t.shape[0] and t[i + 1, i] != 0.0 else 1


def real_schur_ordered(z):
    """Real Schur decomposition ``z = q @ t @ q.T`` with the diagonal blocks
    reordered so the eigenvalue real parts are ascending.

    The raw factorization is delegated to LAPACK; a selection sort moves the
    first block with the smallest real part to the front of the unsorted
    tail with ``dtrexc`` (2x2 conjugate-pair blocks move as units and stay
    standardized, so their diagonal entries equal the real part).

    Parameters
    ----------
    z : ndarray, shape (n, n)
        Real matrix with finite entries.

    Returns
    -------
    SchurForm

    Raises
    ------
    SchurConvergenceError
        If the underlying eigenvalue iteration does not converge.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError("z must be square")
    if not np.all(np.isfinite(z)):
        raise ValueError("z must have finite entries")
    n = z.shape[0]
    try:
        t, q = scipy.linalg.schur(z, output="real", check_finite=False)  # checked above
    except np.linalg.LinAlgError as exc:
        raise SchurConvergenceError(f"Schur iteration failed for a {n}x{n} matrix") from exc

    i = 0
    while i < n:
        best = p = i
        while p < n:
            if t[p, p] < t[best, best]:
                best = p
            p += _block_size(t, p)
        if best > i:
            # dtrexc leaves a block short of its target (info = 1) only when
            # its eigenvalues are too close to a neighbour's to swap stably
            t, q, _ = lapack.dtrexc(t, q, best + 1, i + 1)
        i += _block_size(t, i)

    return SchurForm(q=q, t=t)


def _solve_cluster_sylvester(t, e0, e1, level, k):
    # Solve T11 @ X - X @ Tkk = -T1k for cluster k at positions e0:e1 against
    # all earlier clusters, guarded by the dtrsen estimate of sep(T11, Tkk)
    # against clusters that cannot be decoupled though their eigenvalues differ.
    nk = e1 - e0
    *_, sep, _ = lapack.dtrsen(np.arange(e1) < e0, t[:e1, :e1], np.eye(e1),
                               job="V", wantq=0, lwork=2 * e0 * nk, liwork=e0 * nk)
    x, scale, info = lapack.dtrsyl(t[:e0, :e0], t[e0:e1, e0:e1], -t[:e0, e0:e1], isgn=-1)
    if sep <= level or info != 0:
        raise InseparableClustersError(k - 1, k)
    return x / scale


def block_diagonalize_similarity(schur, boundaries):
    """Similarity transform that decouples the clusters of an ordered real
    Schur factor.

    Finds nonsingular ``w`` (block upper triangular with identity diagonal
    blocks) such that ``inv(w) @ schur.t @ w`` is block diagonal, one block
    per cluster delimited by ``boundaries``, equal to the diagonal blocks of
    ``schur.t``.  One Sylvester solve per cluster after the first fills its
    block column of ``w``.

    Parameters
    ----------
    schur : SchurForm
    boundaries : sequence of int
        Split indices ``0 < i_1 < ... < i_{t-1} < n``; cluster ``j`` covers
        positions ``i_{j-1}:i_j``.  No boundary may fall inside a 2x2
        conjugate-pair block.

    Returns
    -------
    w : ndarray, shape (n, n)

    Raises
    ------
    InseparableClustersError
        If a cluster cannot be decoupled from the clusters before it.
    """
    t = schur.t
    n = t.shape[0]
    boundaries = sorted(int(b) for b in boundaries)
    if any(b <= 0 or b >= n for b in boundaries):
        raise ValueError("boundaries must lie strictly inside 1..n-1")
    if len(set(boundaries)) != len(boundaries):
        raise ValueError("boundaries must be distinct")
    if not schur.cuts[np.asarray(boundaries, dtype=int) - 1].all():
        raise ValueError("a boundary splits a 2x2 conjugate-pair block")

    edges = boundaries + [n]
    w = np.eye(n)
    for k, (e0, e1) in enumerate(zip(edges, edges[1:]), start=1):
        w[:e0, e0:e1] = _solve_cluster_sylvester(t, e0, e1, schur.rounding_level, k)
    return w


def economic_qr(a):
    """Economic QR factorization ``a = u @ r`` with ``u`` column-orthonormal.

    A stack of matrices is factorized by one LAPACK call, which runs the
    same routine on each member, so every member's factors equal those of
    the 2-D call on it bit for bit.

    Parameters
    ----------
    a : ndarray, shape (n, k) or (..., n, k), k <= n

    Returns
    -------
    u : ndarray, shape (..., n, k)
    r : ndarray, shape (..., k, k)

    Raises
    ------
    DegenerateBlockBasisError
        If ``a``, or a member of the stack, is numerically rank deficient.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] > a.shape[-2]:
        raise ValueError("a must be n-by-k with k <= n, or a stack of such")
    u, r = np.linalg.qr(a, mode="reduced")
    if a.shape[-1]:
        diag = np.abs(r.diagonal(0, -2, -1))
        tol = max(a.shape[-2:]) * np.finfo(float).eps * diag.max(-1)
        if (diag.min(-1) <= tol).any():
            raise DegenerateBlockBasisError(
                f"column block of shape {a.shape[-2:]} is numerically rank deficient"
            )
    return u, r


def _orthonormal_basis(a):
    # orthonormal basis of the column space of a full-rank matrix, or of
    # each member of a stack (..., n, k) by one LAPACK call
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.shape[-1] == 0 or (s[..., 0] == 0.0).any():
        raise ValueError("subspace basis is zero")
    # the singular values come sorted, so the last decides the rank
    tol = max(a.shape[-2:]) * np.finfo(float).eps * s[..., 0]
    if a.shape[-1] > a.shape[-2] or not (s[..., -1] > tol).all():
        raise ValueError("subspace basis is rank deficient")
    return u


def largest_principal_angle(e, f):
    """Largest principal angle between the column spaces of ``e`` and ``f``.

    Uses the combined cosine/sine formulation, which stays accurate for
    angles near zero; invariant under column operations on either input.

    Parameters
    ----------
    e : ndarray, shape (n, p)
    f : ndarray, shape (n, q)
        Nonzero matrices of full column rank.

    Returns
    -------
    float
        Angle in [0, pi/2].
    """
    return float(_largest_angle(_orthonormal_basis(e)[None], _orthonormal_basis(f)[None])[0])


def _largest_angle(ue, uf):
    # largest principal angle between two orthonormal bases (Bjorck & Golub
    # 1973): the smallest cosine, or the sine from the residual of projecting
    # the narrower basis, which stays accurate where the cosine does not.
    # Takes stacks (..., n, p) and (..., n, q), one pair as a stack of one,
    # which broadcast against each other and give an array of angles by one
    # LAPACK call per step; LAPACK runs the same routine on every member
    if ue.shape[-1] < uf.shape[-1]:
        ue, uf = uf, ue
    cross = ue.swapaxes(-1, -2) @ uf
    cos = np.linalg.svd(cross, compute_uv=False)[..., -1]
    near = cos * cos >= 0.5  # where the sine decides; only there the residual SVD
    angle = np.arccos(np.minimum(cos, 1.0))
    if near.any():
        sin = np.linalg.svd((uf - ue @ cross)[near], compute_uv=False)[:, 0]
        angle[near] = np.arcsin(np.minimum(sin, 1.0))
    return angle


def _sep_stacked(g_j, g_k):
    """:func:`sep_lower` of each pair ``(g_j[b], g_k[b])`` of two stacks of
    shapes ``(B, nj, nj)`` and ``(B, nk, nk)``, by one batched SVD.

    The operators are ``kron(I, g_j.T) - kron(g_k.T, I)``, built by
    broadcasting the same products ``np.kron`` forms, and LAPACK runs the
    same routine on each, so every value equals that of the 2-D call.
    """
    count, nj, nk = g_j.shape[0], g_j.shape[1], g_k.shape[1]
    # axes (b, row block, row, column block, column), as np.kron lays them out
    left = np.eye(nk)[:, None, :, None] * g_j.transpose(0, 2, 1)[:, None, :, None, :]
    right = g_k.transpose(0, 2, 1)[:, :, None, :, None] * np.eye(nj)[:, None, :]
    ops = (left - right).reshape(count, nk * nj, nk * nj)
    return np.linalg.svd(ops, compute_uv=False)[:, -1]


def sep_lower(g_j, g_k):
    """Smallest singular value of the map ``X -> g_j.T @ X - X @ g_k``.

    Zero exactly when the spectra of ``g_j`` and ``g_k`` intersect; it
    measures how well the two blocks can be decoupled.  The matrix of the
    map is ``kron(I, g_j.T) - kron(g_k.T, I)``;
    :func:`gjbd.analysis.verify_offblock_bound` evaluates it for many pairs
    of one shape at once through the same routine.

    Parameters
    ----------
    g_j : ndarray, shape (nj, nj)
    g_k : ndarray, shape (nk, nk)

    Returns
    -------
    float
    """
    g_j = np.atleast_2d(np.asarray(g_j, dtype=float))
    g_k = np.atleast_2d(np.asarray(g_k, dtype=float))
    return float(_sep_stacked(g_j[None], g_k[None])[0])
