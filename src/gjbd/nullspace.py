"""Stacked operator for the coupling equations ``A_i Z = Z.T A_i``, its SVD,
and orthonormal bases of the resulting near-null spaces."""

from dataclasses import dataclass

import numpy as np


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
    sigma : ndarray, shape (n*n,)
        All singular values of the stacked operator, non-increasing.
    basis : list of ndarray
        Matrices reshaped from the right singular directions with singular
        value below ``delta``, smallest singular value first.
    includes_identity_direction : bool
        Whether the identity lies in the span of ``basis``.
    """

    delta: float
    sigma: np.ndarray
    basis: list
    includes_identity_direction: bool

    @property
    def dim(self):
        return len(self.basis)


def build_stacked_operator(a):
    """Matrix of the linear map ``vec(Z) -> stack_i vec(A_i Z - Z.T A_i)``.

    Parameters
    ----------
    a : MatrixSet

    Returns
    -------
    ndarray, shape (m*n*n, n*n)
    """
    # row (i, c, r) holds vec(A_i Z - Z.T A_i)[r, c], column (q, p) the
    # weight of Z[p, q]: A_i[r, p] where q == c, minus A_i[p, c] where q == r
    n = a.n
    eye = np.eye(n)
    k = np.einsum("irp,qc->icrqp", a.mats, eye) - np.einsum("ipc,qr->icrqp", a.mats, eye)
    return k.reshape(a.m * n * n, n * n)


def residual(a, z):
    """Coupling residual ``sum_i ||A_i z - z.T A_i||_F**2``."""
    z = np.asarray(z, dtype=float)
    return float(sum(np.sum((mat @ z - z.T @ mat) ** 2) for mat in a.mats))


def exact_rank_tolerance(a, sigma_max):
    """Numerical-rank cutoff for the stacked operator of ``a``."""
    n2 = a.n * a.n
    return max(a.m * n2, n2) * np.finfo(float).eps * sigma_max


def _collect_basis(a, sigma, vt, threshold):
    n = a.n
    if sigma[0] == 0.0:
        # the operator vanishes; every direction is null
        count = n * n
        threshold = np.inf
    else:
        count = int(np.sum(sigma < threshold))
    basis = [vt[-(j + 1)].reshape((n, n), order="F") for j in range(count)]
    if count:
        coords = np.array([np.trace(z) / np.sqrt(n) for z in basis])
        includes_identity = bool(np.linalg.norm(coords) >= 1.0 - 1e-8)
    else:
        includes_identity = False
    return NullSpaceBasis(
        delta=float(threshold),
        sigma=sigma,
        basis=basis,
        includes_identity_direction=includes_identity,
    )


def delta_nullspace(a, gamma):
    """Near-null space spanned by the right singular directions of the
    stacked operator with singular value below ``gamma * sigma[n*n - 2]``.

    The smallest singular value is always (numerically) zero because the
    identity satisfies the coupling equations exactly.  When the second
    smallest is also numerically zero the set admits exact solutions and the
    threshold falls back to a standard numerical-rank cutoff.

    Parameters
    ----------
    a : MatrixSet
    gamma : float
        Threshold multiplier, > 1.

    Returns
    -------
    NullSpaceBasis
    """
    if gamma <= 1.0:
        raise ValueError("gamma must be > 1")
    _, sigma, vt = np.linalg.svd(build_stacked_operator(a), full_matrices=False)
    tol_exact = exact_rank_tolerance(a, sigma[0])
    n2 = a.n * a.n
    second_smallest = sigma[n2 - 2] if n2 >= 2 else 0.0
    if second_smallest <= tol_exact:
        return _collect_basis(a, sigma, vt, tol_exact)
    return _collect_basis(a, sigma, vt, gamma * second_smallest)


def exact_nullspace(a):
    """Exact null space of the coupling equations, up to numerical rank."""
    _, sigma, vt = np.linalg.svd(build_stacked_operator(a), full_matrices=False)
    return _collect_basis(a, sigma, vt, exact_rank_tolerance(a, sigma[0]))


def basis_excluding_identity(b):
    """Orthonormal trace-zero matrices spanning the near-null space modulo
    the identity direction.

    Parameters
    ----------
    b : NullSpaceBasis

    Returns
    -------
    list of ndarray
        May be empty when the space is exactly the span of the identity.
    """
    if not b.basis:
        return []
    n = b.basis[0].shape[0]
    cols = np.column_stack([z.flatten(order="F") for z in b.basis])
    ident = np.eye(n).flatten(order="F") / np.sqrt(n)
    cols = cols - np.outer(ident, ident @ cols)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    # columns are unit vectors, so a singular value is the sine of an angle
    # to the identity span; directions below this are rounding residue and
    # must not be renormalized into basis elements
    rank = int(np.sum(s > 1e-8))
    return [u[:, j].reshape((n, n), order="F") for j in range(rank)]


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
