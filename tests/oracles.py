"""Dense references and fixtures that the tests compare the package against.

None of these is called by the solvers: the explicit stacked operator ``K``
that the Gram assembly is checked against, the coupling residual, the
perfect shuffle, the polar factor, block permutations, the paper's
non-unique 4x4 example, identity augmentation and the eigenvalue
decomposition of a matrix by a given partition.
"""

import numpy as np

from gjbd.matkernels import real_schur_ordered
from gjbd.nullspace import MatrixSet
from gjbd.solvers import _assemble_diagonalizer


def build_stacked_operator(a):
    """Matrix of the linear map ``vec(Z) -> stack_i vec(A_i Z - Z.T A_i)``.

    The dense reference for ``K``: no solver calls it, because
    :func:`gjbd.nullspace.delta_nullspace` and
    :func:`gjbd.nullspace.exact_nullspace` work from its Gram matrix and
    apply ``K`` without forming it.  At ``n = 32``, ``m = 20`` it holds
    168 MB.

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


def perfect_shuffle(n):
    """Permutation ``p`` of size n*n with ``vec(Z)[p] == vec(Z.T)`` for any
    n-by-n matrix ``Z`` (column-major vec). The permutation is an involution.

    Parameters
    ----------
    n : int
        Matrix order, n >= 1.

    Returns
    -------
    ndarray of int, shape (n*n,)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(n * n)
    return (k % n) * n + k // n


def symmetric_orthogonalize(w):
    """Closest-orthogonal polar factor ``w @ (w.T @ w)**(-1/2)``."""
    u, _, vt = np.linalg.svd(np.asarray(w, dtype=float))
    return u @ vt


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


def nonunique_example(a_coeffs, b_coeffs):
    """The 4x4 fixture whose exact solutions are not all equivalent.

    Each matrix is ``diag(B_i, B_i)`` with ``B_i = [[0, a_i], [a_i, b_i]]``;
    both the identity and the returned ``w4`` block diagonalize the set
    under partition (2, 2), yet the two solutions are not related by a block
    permutation and block-diagonal factor.

    Parameters
    ----------
    a_coeffs, b_coeffs : sequence of float
        Equal-length lists of nonzero coefficients.

    Returns
    -------
    (MatrixSet, ndarray)
    """
    a_coeffs = np.asarray(a_coeffs, dtype=float)
    b_coeffs = np.asarray(b_coeffs, dtype=float)
    if a_coeffs.shape != b_coeffs.shape or a_coeffs.ndim != 1 or a_coeffs.size < 1:
        raise ValueError("coefficient lists must be equal-length and nonempty")
    if np.any(a_coeffs == 0.0) or np.any(b_coeffs == 0.0):
        raise ValueError("all coefficients must be nonzero")
    mats = []
    for a_i, b_i in zip(a_coeffs, b_coeffs):
        block = np.array([[0.0, a_i], [a_i, b_i]])
        mat = np.zeros((4, 4))
        mat[:2, :2] = block
        mat[2:, 2:] = block
        mats.append(mat)
    w4 = np.array([
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    return MatrixSet(np.array(mats)), w4


def augment_identity(a):
    """Prepend the identity to the set.

    Solving the augmented set and taking the polar factor of the
    diagonalizer (:func:`symmetric_orthogonalize`) yields an orthogonal
    solution of the original set.
    """
    n = a.n
    mats = np.concatenate([np.eye(n)[None, :, :], a.mats], axis=0)
    return MatrixSet(mats)


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
        The diagonal blocks of ``inv(w) @ z @ w``.
    """
    schur = real_schur_ordered(z)
    if p.n != schur.n:
        raise ValueError("partition order must match z")
    w = _assemble_diagonalizer(schur, p)
    d = np.linalg.solve(w, z @ w)
    return w, [d[sl, sl] for sl in p.slices()]
