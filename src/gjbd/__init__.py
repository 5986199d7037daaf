"""Exact and approximate non-orthogonal general joint block diagonalization
of real matrix sets.

Given matrices ``A_1 .. A_m``, the solvers look for a partition and a
nonsingular ``W`` making every ``W.T @ A_i @ W`` (approximately) block
diagonal with as many diagonal blocks as possible.  The route goes through
the near-null space of the coupling equations ``A_i Z = Z.T A_i`` and an
eigenvalue decomposition of one of its generic elements.
"""

from .analysis import (
    BoundReport,
    bdiag,
    cost_ls,
    equivalence_check,
    gap_lower_bound,
    normalize,
    offbdiag,
    performance_index,
    verify_imag_bound,
    verify_offblock_bound,
)
from .datagen import ModelInstance, generate_model
from .matkernels import (
    DegenerateBlockBasisError,
    InseparableClustersError,
    NumericalError,
    SchurConvergenceError,
    SchurForm,
    block_diagonalize_similarity,
    economic_qr,
    largest_principal_angle,
    real_schur_ordered,
    sep_lower,
)
from .nullspace import (
    MatrixSet,
    NullSpaceBasis,
    basis_excluding_identity,
    delta_nullspace,
    exact_nullspace,
    trace_gram,
)
from .partition import (
    Partition,
    cluster_by_gap,
    partition_equivalent,
)
from .solvers import (
    Solution,
    SolverConfig,
    UnsplittableError,
    conservative_solve,
    exact_solve,
    exact_solve_with_trace,
    greedy_solve,
    greedy_solve_with_trace,
    one_step_split,
    one_step_split_with_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DegenerateBlockBasisError",
    "InseparableClustersError",
    "MatrixSet",
    "ModelInstance",
    "NullSpaceBasis",
    "NumericalError",
    "Partition",
    "SchurConvergenceError",
    "SchurForm",
    "Solution",
    "SolverConfig",
    "UnsplittableError",
    "basis_excluding_identity",
    "bdiag",
    "block_diagonalize_similarity",
    "cluster_by_gap",
    "conservative_solve",
    "cost_ls",
    "delta_nullspace",
    "economic_qr",
    "equivalence_check",
    "exact_nullspace",
    "exact_solve",
    "exact_solve_with_trace",
    "gap_lower_bound",
    "generate_model",
    "greedy_solve",
    "greedy_solve_with_trace",
    "largest_principal_angle",
    "normalize",
    "offbdiag",
    "one_step_split",
    "one_step_split_with_trace",
    "partition_equivalent",
    "performance_index",
    "real_schur_ordered",
    "sep_lower",
    "trace_gram",
    "verify_imag_bound",
    "verify_offblock_bound",
]
