"""Span recorder for the traced benchmark run.

The tracer wraps gjbd functions by name from the benchmark's side, so the
package source stays untouched. The solvers import their kernels by name
(``from .nullspace import delta_nullspace``), so a kernel is wrapped in the
namespace of the module that calls it, not in the one that defines it. A
wrapped name that a module no longer has is recorded as missing, and its
layer then reads as not called.

Spans stay in memory as ``[name, start, end, parent, trace_id]`` lists; the
text before the first dot of a span name is its layer.
"""

import contextlib
import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute, span name)
WRAPS = (
    ("gjbd.solvers", "delta_nullspace", "nullspace.solve"),
    ("gjbd.solvers", "exact_nullspace", "nullspace.solve"),
    ("gjbd.solvers", "basis_excluding_identity", "nullspace.basis"),
    ("gjbd.solvers", "trace_gram", "nullspace.trace_gram"),
    ("gjbd.nullspace", "build_stacked_operator", "nullspace.operator"),
    ("gjbd.solvers", "real_schur_ordered", "matkernels.schur"),
    ("gjbd.solvers", "block_diagonalize_similarity", "matkernels.decouple"),
    ("gjbd.solvers", "economic_qr", "matkernels.qr"),
    ("gjbd.solvers", "cluster_by_gap", "partition.cluster"),
    ("gjbd.solvers", "cost_ls", "analysis.cost"),
    ("gjbd.solvers", "one_step_split", "solvers.split"),
    # per-block null spaces of the equivalence test
    ("gjbd.analysis", "exact_nullspace", "nullspace.block"),
    ("gjbd.analysis", "cost_ls", "analysis.cost"),
    ("gjbd.analysis", "iter_refines", "partition.refines"),
    ("gjbd.cli", "cost_ls", "analysis.cost"),
    ("gjbd.cli", "equivalence_check", "analysis.equivalence"),
    ("gjbd.cli", "verify_offblock_bound", "analysis.bounds"),
    ("gjbd.cli", "verify_imag_bound", "analysis.bounds"),
    ("gjbd.cli", "gap_lower_bound", "analysis.bounds"),
    # the two-block split that `check --bounds` runs for the gap bound
    ("gjbd.cli", "one_step_split_with_trace", "analysis.bounds"),
    ("gjbd.cli", "one_step_split", "analysis.bounds"),
    # solver calls made by `check` are re-solves of the stored result
    ("gjbd.cli", "greedy_solve_with_trace", "solvers.resolve"),
    ("gjbd.cli", "exact_solve_with_trace", "solvers.resolve"),
    ("gjbd.cli", "greedy_solve", "solvers.resolve"),
    ("gjbd.cli", "exact_solve", "solvers.resolve"),
    ("gjbd.cli", "conservative_solve", "solvers.resolve"),
    ("gjbd.cli", "_load_json", "cli.io"),
    ("gjbd.cli", "_write_json", "cli.io"),
)

# per-layer metric name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "nullspace.ms": "ms",
    "nullspace.operator_ms": "ms",
    "nullspace.calls": "count",
    "nullspace.dim_median": "count",
    "nullspace.sigma_floor_rel_max": "ratio",
    "nullspace.gap_ratio_min": "ratio",
    "matkernels.schur_ms": "ms",
    "matkernels.schur_calls": "count",
    "matkernels.decouple_ms": "ms",
    "matkernels.decouple_pairs": "count",
    "matkernels.qr_ms": "ms",
    "partition.cluster_ms": "ms",
    "solvers.solve_ms": "ms",
    "solvers.self_ms": "ms",
    "solvers.split_calls": "count",
    "solvers.split_accept_ratio": "ratio",
    "solvers.split_unsplittable": "count",
    "analysis.cost_ms": "ms",
    "analysis.cost_calls": "count",
    "analysis.pi_ms": "ms",
    "analysis.pi_groupings": "count",
    "analysis.equivalence_ms": "ms",
    "analysis.bounds_ms": "ms",
    "cli.check_ms": "ms",
    "cli.resolve_calls": "count",
    "cli.io_ms": "ms",
    "datagen.ms": "ms",
    "trace.overhead_pct": "%",
}


def _layer(name):
    return name.split(".", 1)[0]


def _observe_nullspace(tracer, args, kwargs, basis):
    # for the near-null spaces the solvers use: the dimension, the largest
    # admitted singular value relative to sigma_max (the precision floor in
    # exact mode), and the first singular value above the threshold divided
    # by the threshold
    sigma = getattr(basis, "sigma", None)
    delta = getattr(basis, "delta", None)
    dim = getattr(basis, "dim", None)
    if sigma is None or delta is None or dim is None:
        return
    tracer.nullspace_dims.append(dim)
    if len(sigma) == 0 or sigma[0] <= 0.0:
        return
    if 0 < dim <= len(sigma):
        tracer.sigma_floors.append(float(sigma[len(sigma) - dim] / sigma[0]))
    if dim < len(sigma) and 0.0 < delta < float("inf"):
        tracer.gap_ratios.append(float(sigma[len(sigma) - dim - 1] / delta))


def _observe_decouple(tracer, args, kwargs, result):
    boundaries = args[1] if len(args) > 1 else kwargs["boundaries"]
    clusters = len(boundaries) + 1
    tracer.counts["matkernels.decouple_pairs"] += clusters * (clusters - 1) // 2


_OBSERVERS = {
    "nullspace.solve": _observe_nullspace,
    "matkernels.decouple": _observe_decouple,
}


class Tracer:
    """In-memory span and counter store with by-name function wrapping."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.nullspace_dims = []
        self.sigma_floors = []
        self.gap_ratios = []
        self.missing = set()
        self.trace_id = None
        self._stack = []
        self._patches = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.trace_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span under the current trace id."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        # a lazily consumed generator has no span of its own; count its items
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                tracer.counts[name] += items

        return counted

    def install(self):
        """Replace every name of WRAPS by its traced wrapper."""
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            if name == "partition.refines":
                wrapped = self._wrap_generator(original, name)
            else:
                wrapped = self._wrap(original, name)
            setattr(module, attr, wrapped)
            self._patches.append((module, attr, original))

    def uninstall(self):
        """Restore the original functions."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def span_records(self, origin):
        """Spans as dicts with times in seconds from ``origin``."""
        return [
            {"name": name, "start": start - origin, "end": end - origin,
             "parent": parent, "trace": trace_id}
            for name, start, end, parent, trace_id in self.spans
        ]

    def summary(self):
        """Per span name: calls and total time; per layer: self time and the
        time of its outermost spans (a span whose parent is another layer).
        Times are in milliseconds."""
        child_ms = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ms[parent] += (end - start) * 1e3
        by_name = defaultdict(lambda: [0, 0.0])
        layer_self = defaultdict(float)
        layer_outer = defaultdict(float)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            ms = (end - start) * 1e3
            by_name[name][0] += 1
            by_name[name][1] += ms
            layer = _layer(name)
            layer_self[layer] += ms - child_ms[idx]
            if parent is None or _layer(self.spans[parent][0]) != layer:
                layer_outer[layer] += ms
        return dict(by_name), dict(layer_self), dict(layer_outer)


def per_layer_metrics(tracer, instances, accepted_splits, datagen_ms, overhead_pct):
    """Per-layer metrics of a traced run, as values per traced instance.

    ``accepted_splits`` counts the splits the conservative solves kept (the
    block count minus one per solve); ``datagen_ms`` is the generation time
    per instance measured at set-up.
    """
    by_name, layer_self, layer_outer = tracer.summary()
    per = 1.0 / instances

    def ms(name):
        return by_name.get(name, (0, 0.0))[1] * per

    def calls(name):
        return by_name.get(name, (0, 0.0))[0] * per

    split_calls = by_name.get("solvers.split", (0, 0.0))[0]
    split_raised = tracer.counts["solvers.split.raised"]
    proposals = split_calls - split_raised
    solve_ms = sum(ms(f"solvers.{m}") for m in ("greedy", "consv", "exact"))
    values = {
        "nullspace.ms": layer_outer.get("nullspace", 0.0) * per,
        "nullspace.operator_ms": ms("nullspace.operator"),
        "nullspace.calls": calls("nullspace.solve") + calls("nullspace.block"),
        "nullspace.dim_median": (
            float(statistics.median(tracer.nullspace_dims)) if tracer.nullspace_dims else 0.0
        ),
        "nullspace.sigma_floor_rel_max": max(tracer.sigma_floors, default=0.0),
        "nullspace.gap_ratio_min": min(tracer.gap_ratios, default=0.0),
        "matkernels.schur_ms": ms("matkernels.schur"),
        "matkernels.schur_calls": calls("matkernels.schur"),
        "matkernels.decouple_ms": ms("matkernels.decouple"),
        "matkernels.decouple_pairs": tracer.counts["matkernels.decouple_pairs"] * per,
        "matkernels.qr_ms": ms("matkernels.qr"),
        "partition.cluster_ms": ms("partition.cluster"),
        "solvers.solve_ms": solve_ms,
        "solvers.self_ms": layer_self.get("solvers", 0.0) * per,
        "solvers.split_calls": split_calls * per,
        "solvers.split_accept_ratio": accepted_splits / proposals if proposals else 0.0,
        "solvers.split_unsplittable": split_raised * per,
        "analysis.cost_ms": ms("analysis.cost"),
        "analysis.cost_calls": calls("analysis.cost"),
        "analysis.pi_ms": ms("analysis.pi"),
        "analysis.pi_groupings": tracer.counts["partition.refines"] * per,
        "analysis.equivalence_ms": ms("analysis.equivalence"),
        "analysis.bounds_ms": ms("analysis.bounds"),
        "cli.check_ms": ms("cli.check"),
        "cli.resolve_calls": calls("solvers.resolve"),
        "cli.io_ms": ms("cli.io"),
        "datagen.ms": datagen_ms,
        "trace.overhead_pct": overhead_pct,
    }
    self_ms = {layer: t * per for layer, t in sorted(layer_self.items())}
    return values, self_ms
