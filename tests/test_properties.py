"""Properties of the solvers, drawn with hypothesis.

Invariance: an orthogonal congruence, a scaling (by a power of two, exact
in floating point, or by 1e3) with epsilon scaled alike, and a reordering
of the matrices leave greedy's multiset of block sizes and consv's ordered
block sizes unchanged.

Scale equivariance: a power-of-two multiple of a set, of every order and
as far as its entries stay normal, gets the same near-null bases and the
same greedy and exact answers to the bit, and its singular values and
threshold scaled by that power; with epsilon scaled alike, it gets consv's
ordered partition and ``W`` to the bit, and its cost scaled by the square
of that power.  With delta scaled alike, it gets the off-block bound's
verdict of the unscaled set, violated or not, also where its cost passes
the float range.

Equivalence: the equivalence test reads the answer, not its basis or
scale, so a power-of-two multiple of the set, as far as its entries stay
normal, and ``W @ Bdiag(S_j)`` with block transforms of condition up to
1e6 get the verdict of the set and ``W``.

Contract: on every drawn set, each solver returns a ``Solution`` that
passes ``check_solution_invariants`` or raises a ``NumericalError``; the
two-block split returns such a ``Solution`` with two blocks or raises an
``UnsplittableError`` or a ``NumericalError``.  Through the command line,
``gjbd solve`` ends with exit 0, 3 or 5, and ``gjbd check --bounds
--equivalence`` on every result it writes with exit 0 or 4."""

import json
import tempfile
from pathlib import Path

import numpy as np
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gjbd.analysis import equivalence_check, verify_offblock_bound
from gjbd.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_TRIVIAL,
    main,
    matrix_set_document,
)
from gjbd.datagen import generate_model, noise_level
from gjbd.matkernels import NumericalError
from gjbd.nullspace import MatrixSet, delta_nullspace, exact_nullspace
from gjbd.partition import Partition
from gjbd.solvers import (
    Solution,
    SolverConfig,
    UnsplittableError,
    conservative_solve,
    exact_solve,
    greedy_solve,
    greedy_solve_with_trace,
    one_step_split,
)
from oracles import nonunique_example
from test_nullspace import FUZZ_KINDS, fuzz_set
from test_solvers import check_solution_invariants

_M = 20
# derandomized with no example database: every run draws the same examples
_SETTINGS = settings(derandomize=True, database=None, max_examples=25, deadline=None)
_CASES = st.sampled_from([(3, 3, 3), (1, 2, 3, 4)])
_SEEDS = st.integers(0, 2**16)


def _orthogonal(n, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _transformed(a, eps, k, order, seed):
    """(name, set, epsilon) for each invariance of one drawn instance."""
    q = _orthogonal(a.n, seed)
    return [
        ("orthogonal congruence", MatrixSet(q.T @ a.mats @ q), eps),
        (f"scaling by 2^{k}", MatrixSet(2.0 ** k * a.mats), 2.0 ** k * eps),
        ("scaling by 1e3", MatrixSet(1e3 * a.mats), 1e3 * eps),
        ("permuting the matrices", MatrixSet(a.mats[list(order)]), eps),
    ]


def _check_invariant(solve, sizes, snr, seed, k, order, key):
    # key maps the block sizes to what must not change: sorted or tuple
    a = generate_model(Partition(sizes), _M, snr, seed).a
    eps = 3.0 * a.n ** 2 * noise_level(snr)  # the CLI's consv tolerance
    base = key(solve(a, eps).partition.sizes)
    for name, moved, moved_eps in _transformed(a, eps, k, order, seed):
        assert key(solve(moved, moved_eps).partition.sizes) == base, name


_INVARIANCE_ARGS = dict(k=st.integers(-30, 30), order=st.permutations(range(_M)))


# greedy combines the near-null basis with seeded random weights, so its
# answer depends on the signs of the basis directions, which rounding sets.
# Where many combinations merge blocks, a flipped sign changes the block
# sizes: at 20 dB on (3,3,3) seed 117 and (1,2,3,4) seed 102 of seeds 100-129,
# so greedy is drawn above 20 dB.  There it is rare but not ruled out: on
# (1,2,3,4) at 80 dB seed 8902 about half of all orders of the matrices flip
# a sign that merges the blocks of sizes 2 and 4.
@_SETTINGS
@given(sizes=_CASES, snr=st.sampled_from([40.0, 60.0, 80.0]), seed=_SEEDS, **_INVARIANCE_ARGS)
def test_greedy_block_sizes_invariant(sizes, snr, seed, k, order):
    _check_invariant(lambda a, eps: greedy_solve(a, SolverConfig(seed=seed)),
                     sizes, snr, seed, k, order, sorted)


@_SETTINGS
@given(sizes=_CASES, snr=st.sampled_from([20.0, 40.0, 60.0, 80.0]), seed=_SEEDS,
       **_INVARIANCE_ARGS)
def test_consv_block_sizes_invariant(sizes, snr, seed, k, order):
    # the split's sign comes from trace(z**3), a similarity invariant, so
    # the order of consv's blocks is a function of the set too
    _check_invariant(lambda a, eps: conservative_solve(a, SolverConfig(epsilon=eps)),
                     sizes, snr, seed, k, order, tuple)


def _normal_exponents(x):
    """The ``k`` for which ``2**k`` times every nonzero entry of the array
    ``x`` is a normal float, as an inclusive range."""
    exps = np.frexp(x[x != 0.0])[1]  # |x| in [2**(e - 1), 2**e)
    if not exps.size:  # the zero set, which every k leaves alone
        return 0, 0
    fmin, fmax = np.finfo(float).minexp, np.finfo(float).maxexp
    return int(fmin + 1 - exps.min()), int(fmax - exps.max())


def _same_where_normal(scaled, base, k):
    # scaled == 2**k * base wherever both are normal floats or zero
    tiny = np.finfo(float).tiny
    normal = [np.isfinite(x) & ((np.abs(x) >= tiny) | (x == 0.0)) for x in (scaled, base)]
    both = normal[0] & normal[1]
    return np.array_equal(scaled[both], np.ldexp(base, k)[both])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(kind=st.sampled_from(FUZZ_KINDS), n=st.integers(1, 8), seed=_SEEDS, data=st.data())
def test_near_null_space_and_answers_scale_exactly(kind, n, seed, data):
    # consv, whose epsilon scales with the set, has its own property below;
    # past the float range the reported sigma and greedy's cost are inf
    # without a numpy warning
    a = fuzz_set(np.random.default_rng(seed), kind, orders=(n, n + 1))
    k = data.draw(st.integers(*_normal_exponents(a.mats)), label="k")
    scaled = MatrixSet(np.ldexp(a.mats, k))
    for space in (lambda s: delta_nullspace(s, 1.2), exact_nullspace):
        base, moved = space(a), space(scaled)
        assert [z.tobytes() for z in moved.basis] == [z.tobytes() for z in base.basis]
        assert _same_where_normal(moved.sigma, base.sigma, k)
        assert _same_where_normal(np.array([moved.delta]), np.array([base.delta]), k)
    for solve in (lambda s: greedy_solve(s, SolverConfig(seed=seed)),
                  lambda s: exact_solve(s, seed)):
        base, moved = solve(a), solve(scaled)
        assert moved.partition.sizes == base.partition.sizes
        assert moved.w.tobytes() == base.w.tobytes()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(kind=st.sampled_from(["paper case", *FUZZ_KINDS]), seed=_SEEDS, data=st.data())
def test_consv_answer_scales_exactly(kind, seed, data):
    # consv runs on the set's power-of-two unit with epsilon scaled alike;
    # k keeps epsilon normal too
    if kind == "paper case":
        snr = data.draw(st.sampled_from([20.0, 40.0, 60.0, 80.0]), label="snr")
        a = generate_model(Partition(data.draw(_CASES, label="sizes")), _M, snr, seed).a
        eps = 3.0 * a.n ** 2 * noise_level(snr)  # the CLI's consv tolerance
    else:
        a, eps = fuzz_set(np.random.default_rng(seed), kind, orders=(1, 9)), 1e-6
    k = data.draw(st.integers(*_normal_exponents(np.append(a.mats, eps))), label="k")
    base = conservative_solve(a, SolverConfig(epsilon=eps))
    moved = conservative_solve(MatrixSet(np.ldexp(a.mats, k)),
                               SolverConfig(epsilon=float(np.ldexp(eps, k))))
    assert moved.partition.sizes == base.partition.sizes
    assert moved.w.tobytes() == base.w.tobytes()
    if np.isfinite(moved.cost) and moved.cost != 0.0:
        assert moved.cost == np.ldexp(base.cost, 2 * k)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(kind=st.sampled_from(["greedy", "random w"]), seed=_SEEDS, k=st.integers(-1000, 1000))
@example(kind="random w", seed=0, k=515)
def test_offblock_verdict_scales_exactly(kind, seed, k):
    # the bound is homogeneous of degree 2 in the set and delta, so their
    # power-of-two multiple gets the same verdict, also where its cost
    # passes the float range; a random W and z violate the bound
    rng = np.random.default_rng(seed)
    if kind == "greedy":
        a = generate_model(Partition((2, 3)), 8, 40.0, seed).a
        solution, trace = greedy_solve_with_trace(a, SolverConfig(seed=seed))
        assume(trace.z is not None)
        z, delta = trace.z, trace.delta
    else:
        a = MatrixSet(rng.standard_normal((3, 8, 8)))
        z, delta = rng.standard_normal((8, 8)), 1e-3
        solution = Solution(partition=Partition((1, 2, 3, 2)), w=rng.standard_normal((8, 8)),
                            cost=0.0)
    lo, hi = _normal_exponents(np.append(a.mats, delta))
    assume(lo <= k <= hi)
    base = verify_offblock_bound(a, z, delta, solution)
    moved = verify_offblock_bound(MatrixSet(np.ldexp(a.mats, k)), z, float(np.ldexp(delta, k)),
                                  solution)
    assert moved.satisfied == base.satisfied
    for got, want in ((moved.lhs, base.lhs), (moved.rhs, base.rhs)):
        if np.isfinite(got) and got != 0.0:
            assert got == np.ldexp(want, 2 * k)


# exact sets (block sizes, m) whose true v_inv the equivalence property reads
_EXACT_CASES = {f"{sizes} m={m}": (sizes, m)
                for sizes in ((2, 2, 2, 2), (3, 3, 3), (1, 2, 3), (2, 2, 2)) for m in range(3, 7)}
_EXACT_CASES["(2,)*8 m=4"] = ((2,) * 8, 4)


def _block_transform(p, cond, rng):
    """Bdiag(S_j) with S_j = Q1 diag(logspace(0, log10 cond)) Q2 for a
    block of two or more columns, and cond**U(-1, 1) for a single column."""
    blocks = []
    for size in p.sizes:
        if size == 1:
            blocks.append(np.array([[cond ** rng.uniform(-1.0, 1.0)]]))
        else:
            q1, q2 = (_orthogonal(size, int(rng.integers(2**32))) for _ in range(2))
            blocks.append(q1 @ np.diag(np.logspace(0.0, np.log10(cond), size)) @ q2)
    return scipy.linalg.block_diag(*blocks)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(kind=st.sampled_from([*_EXACT_CASES, "non-unique"]), seed=_SEEDS,
       cond=st.sampled_from([1e2, 1e4, 1e6]), k=st.integers(-1100, 1100))
@example(kind="(3, 3, 3) m=3", seed=0, cond=1e6, k=0)
@example(kind="(1, 2, 3) m=3", seed=26700, cond=1e2, k=0)  # its 1x1 block times 0.07
def test_equivalence_verdict_ignores_basis_and_scale(kind, seed, cond, k):
    # k is clipped to the exponents that keep the set's entries normal, so
    # both ends of that range, where w.T A_i w at the set's own scale
    # underflows or overflows, are drawn often.  The non-unique fixture's
    # blocks are near-defective, and their trace form is smooth in the
    # block's basis where their eigenvalues are not
    rng = np.random.default_rng(seed)
    if kind == "non-unique":
        base, w4 = nonunique_example(*rng.uniform(0.5, 2.0, (2, 3)) * rng.choice([-1, 1], (2, 3)))
        v = rng.standard_normal((4, 4))
        a, p = MatrixSet(v.T @ base.mats @ v), Partition((2, 2))
        w = np.linalg.solve(v, w4 if rng.integers(2) else np.eye(4))
    else:
        sizes, m = _EXACT_CASES[kind]
        inst = generate_model(Partition(sizes), m, np.inf, seed)
        a, p, w = inst.a, inst.p_true, inst.v_inv()
    want = equivalence_check(a, p, w)
    lo, hi = _normal_exponents(a.mats)
    got = equivalence_check(MatrixSet(np.ldexp(a.mats, min(max(k, lo), hi))), p,
                            w @ _block_transform(p, cond, rng))
    if kind == "non-unique":
        assert want[1] == [(0, 1)]
    assert got == want


_SOLVERS = (
    lambda a, seed: greedy_solve(a, SolverConfig(seed=seed)),
    lambda a, seed: conservative_solve(a, SolverConfig(epsilon=1e-6)),
    exact_solve,
)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(kind=st.sampled_from(FUZZ_KINDS), seed=_SEEDS)
def test_every_set_gets_a_solution_or_a_numerical_error(kind, seed):
    # fuzz sets of order 1 to 5 and 1 to 4 matrices; an error must be one
    # the solvers document, never a wrong-shaped or inconsistent answer
    a = fuzz_set(np.random.default_rng(seed), kind, orders=(1, 6))
    for solve in _SOLVERS:
        try:
            solution = solve(a, seed)
        except NumericalError:
            continue
        check_solution_invariants(a, solution)
    try:
        split = one_step_split(a)
    except (UnsplittableError, NumericalError):
        return
    assert split.partition.card == 2
    check_solution_invariants(a, split)


_SCALED_KINDS = {"times 2^500": 2.0 ** 500, "times 2^-500": 2.0 ** -500}

# the paper's two cases at the scales where consv changed its answer before
# it ran on the set's power-of-two unit; pinned examples, never drawn
_EXTREME_CASES = {f"{sizes} at {snr:g} dB times {scale:g}": (sizes, snr, scale)
                  for sizes, snr in (((3, 3, 3), 40.0), ((1, 2, 3, 4), 60.0))
                  for scale in (1e150, 1e155, 1e-160, 1e-170)}


def _contract_set(seed, kind):
    """(set, scale) of one kind, of order 1 to 5 with 1 to 4 matrices: a
    scaled identity per matrix, diagonal matrices, a fuzz set scaled by
    2^500 or 2^-500 (exact in floating point), or a fuzz set of one of
    FUZZ_KINDS; or a set of ``_EXTREME_CASES`` drawn with ``seed``.  consv's
    epsilon is scaled with the set."""
    rng = np.random.default_rng(seed)
    if kind in _EXTREME_CASES:
        sizes, snr, scale = _EXTREME_CASES[kind]
        return MatrixSet(scale * generate_model(Partition(sizes), _M, snr, seed).a.mats), scale
    if kind in FUZZ_KINDS:
        return fuzz_set(rng, kind, orders=(1, 6)), 1.0
    if kind in _SCALED_KINDS:
        base = fuzz_set(rng, FUZZ_KINDS[int(rng.integers(len(FUZZ_KINDS)))], orders=(1, 6))
        return MatrixSet(_SCALED_KINDS[kind] * base.mats), _SCALED_KINDS[kind]
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    if kind == "scaled identity":
        return MatrixSet(rng.standard_normal(m)[:, None, None] * np.eye(n)), 1.0
    return MatrixSet(np.array([np.diag(rng.standard_normal(n)) for _ in range(m)])), 1.0


def _pin_extreme_cases(test):
    for kind in _EXTREME_CASES:
        for seed in range(3):
            test = example(kind=kind, seed=seed)(test)
    return test


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(kind=st.sampled_from(["scaled identity", "diagonal", *_SCALED_KINDS, *FUZZ_KINDS]),
       seed=_SEEDS)
@_pin_extreme_cases
def test_every_entry_point_keeps_its_contract(kind, seed):
    # the library contract on the kinds the fuzz test above does not draw,
    # and the command-line one on every kind
    a, scale = _contract_set(seed, kind)
    eps = 1e-6 * scale
    if kind not in FUZZ_KINDS:
        for solve in (lambda: greedy_solve(a, SolverConfig(seed=seed)),
                      lambda: conservative_solve(a, SolverConfig(epsilon=eps)),
                      lambda: exact_solve(a, seed)):
            try:
                solution = solve()
            except NumericalError:
                continue
            check_solution_invariants(a, solution)
        try:
            split = one_step_split(a)
        except (UnsplittableError, NumericalError):
            split = None
        if split is not None:
            assert split.partition.card == 2
            check_solution_invariants(a, split)
    # hypothesis rejects function-scoped fixtures such as tmp_path
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp) / "set.json"
        inp.write_text(json.dumps(matrix_set_document(a)))
        for method in ("greedy", "consv", "exact"):
            res = Path(tmp) / f"{method}.json"
            code = main(["solve", str(inp), "--method", method, "--epsilon", repr(eps),
                         "--seed", str(seed), "--out", str(res)])
            assert code in (EXIT_OK, EXIT_TRIVIAL, EXIT_NUMERICAL), method
            if code == EXIT_NUMERICAL:
                assert not res.exists(), method
                continue
            code = main(["check", str(inp), "--result", str(res), "--bounds", "--equivalence",
                         "--out", str(Path(tmp) / "check.json")])
            assert code in (EXIT_OK, EXIT_CHECK_FAILED), method
