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
from .datagen import (
    ModelInstance,
    augment_identity,
    generate_model,
    nonunique_example,
    orthogonalize_solution,
)
from .matkernels import (
    DegenerateBlockBasisError,
    InseparableClustersError,
    NumericalError,
    SchurConvergenceError,
    SchurForm,
    block_diagonalize_similarity,
    economic_qr,
    largest_principal_angle,
    perfect_shuffle,
    real_schur_ordered,
    sep_lower,
    symmetric_orthogonalize,
)
from .nullspace import (
    MatrixSet,
    NullSpaceBasis,
    basis_excluding_identity,
    build_stacked_operator,
    delta_nullspace,
    exact_nullspace,
    residual,
    trace_gram,
)
from .partition import (
    Partition,
    block_permutation,
    cluster_by_gap,
    is_refinement,
    iter_refines,
    partition_equivalent,
    refines,
)
from .solvers import (
    Solution,
    SolverConfig,
    UnsplittableError,
    conservative_solve,
    eig_decomp_for_partition,
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
    "augment_identity",
    "basis_excluding_identity",
    "bdiag",
    "block_diagonalize_similarity",
    "block_permutation",
    "build_stacked_operator",
    "cluster_by_gap",
    "conservative_solve",
    "cost_ls",
    "delta_nullspace",
    "economic_qr",
    "eig_decomp_for_partition",
    "equivalence_check",
    "exact_nullspace",
    "exact_solve",
    "exact_solve_with_trace",
    "gap_lower_bound",
    "generate_model",
    "greedy_solve",
    "greedy_solve_with_trace",
    "is_refinement",
    "iter_refines",
    "largest_principal_angle",
    "nonunique_example",
    "normalize",
    "offbdiag",
    "one_step_split",
    "one_step_split_with_trace",
    "orthogonalize_solution",
    "partition_equivalent",
    "perfect_shuffle",
    "performance_index",
    "real_schur_ordered",
    "refines",
    "residual",
    "sep_lower",
    "symmetric_orthogonalize",
    "trace_gram",
    "verify_imag_bound",
    "verify_offblock_bound",
]
