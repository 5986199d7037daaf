import gjbd

# the public surface: the solvers, their diagnostics and the model generator;
# test oracles and fixtures live in tests/oracles.py
PUBLIC_NAMES = [
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


def test_all_names_resolve_once():
    names = gjbd.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(gjbd, name)]
    assert missing == []


def test_public_surface_is_pinned():
    assert sorted(gjbd.__all__) == PUBLIC_NAMES
