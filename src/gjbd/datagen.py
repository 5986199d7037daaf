"""Synthetic problem generation: the random congruence model with adjustable
off-block noise."""

from dataclasses import dataclass

import numpy as np

from .analysis import bdiag, offbdiag
from .nullspace import MatrixSet
from .partition import Partition

_MAX_MIXING_CONDITION = 1e8


@dataclass(frozen=True)
class ModelInstance:
    """One synthetic problem drawn from the random congruence model.

    ``a.mats[i] == v.T @ d[i] @ v`` exactly; the block diagonal of each
    ``d[i]`` is standard normal and the off-block entries have standard
    deviation ``10**(-snr/20)``.
    """

    a: MatrixSet
    v: np.ndarray
    d: np.ndarray
    p_true: Partition
    snr: float
    seed: object

    def v_inv(self):
        return np.linalg.inv(self.v)


def noise_level(snr):
    """The off-block standard deviation ``10**(-snr/20)`` of decibel
    ``snr``; 0 at ``snr = inf``.

    Raises
    ------
    ValueError
        If the level is past the float range (``snr`` below about -6165).
    """
    try:
        return 10.0 ** (-float(snr) / 20.0)  # a float power raises, a numpy one warns
    except OverflowError:
        raise ValueError(f"SNR {snr} gives a noise level past the float range") from None


def generate_model(p, m, snr, seed):
    """Draw a matrix set ``A_i = V.T @ D_i @ V`` with near-block-diagonal
    ``D_i`` and a generic mixing matrix ``V``.

    Randomness comes from numpy's PCG64 generator seeded with ``seed``;
    normal variates use ``Generator.standard_normal``.  The mixing matrix is
    redrawn until its condition number is below 1e8.

    Parameters
    ----------
    p : Partition
    m : int
        Number of matrices, >= 1.
    snr : float
        Decibel signal-to-noise ratio of the off-block entries, finite or
        ``numpy.inf``, which gives exactly block diagonal ``D_i``.
    seed : int or sequence of int

    Returns
    -------
    ModelInstance
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if not (np.isfinite(snr) or snr == np.inf):
        raise ValueError(f"SNR {snr} is neither finite nor +inf")
    rng = np.random.default_rng(seed)
    n = p.n
    sigma = noise_level(snr)
    v = rng.standard_normal((n, n))
    while np.linalg.cond(v) > _MAX_MIXING_CONDITION:
        v = rng.standard_normal((n, n))
    full = rng.standard_normal((m, n, n))
    d = bdiag(full, p) + sigma * offbdiag(full, p)
    mats = v.T @ d @ v
    return ModelInstance(
        a=MatrixSet(mats), v=v, d=d, p_true=p, snr=float(snr), seed=seed
    )
