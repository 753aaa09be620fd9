"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the public entry points of each chanleak layer
with timing wrappers, in every chanleak module that holds a reference to
them (``cli`` imports most of them by name), and ``Tracer.restore`` puts the
originals back. A wrapper records a span (layer, name, start, end, parent
span, operation id) only while ``Tracer.active`` is set, and only at the
outermost call of its layer, so internal calls within one layer (for
example ``alpha_tau_leakage`` calling ``maximal_alpha_beta_leakage``) are
counted once. An entry point the library no longer has is skipped and
listed in ``Tracer.absent``.

The objective kernel is reached through the callable that ``measures``
passes to ``maximize_on_simplex``: the optimizer wrapper wraps that
callable, so each evaluation is a ``kernel`` span. An evaluation counts as
useful when the optimizer still holds its gradient at the next evaluation,
or when it was made at the point the optimizer returned.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
import tracemalloc
import weakref
from typing import NamedTuple

_MIB = 2.0 ** 20

# (module, attribute, layer) of every wrapped entry point
ENTRY_POINTS = (
    ("chanleak.core", "read_channel_csv", "core"),
    ("chanleak.core", "validate_channel", "core"),
    ("chanleak.core", "compose", "core"),
    ("chanleak.core", "product", "core"),
    ("chanleak.measures", "maximal_alpha_beta_leakage", "measures"),
    ("chanleak.measures", "maximal_alpha_leakage", "measures"),
    ("chanleak.measures", "alpha_tau_leakage", "measures"),
    ("chanleak.measures", "lrdp", "measures"),
    ("chanleak.measures", "lrdp_variant", "measures"),
    ("chanleak.measures", "ldp", "measures"),
    ("chanleak.measures", "maximal_leakage", "measures"),
    ("chanleak.measures", "shannon_capacity", "measures"),
    ("chanleak.measures", "inner_objective", "measures"),
    ("chanleak.measures", "inner_gradient", "measures"),
    ("chanleak.measures", "variational_objective", "measures"),
    ("chanleak.measures", "optimal_q_y", "measures"),
    ("chanleak.optim", "maximize_on_simplex", "optim"),
    ("chanleak.oracle", "grid_search_inner", "oracle"),
    ("chanleak.oracle", "definitional_leakage", "oracle"),
    ("chanleak.cli", "main", "cli"),
)

# closed forms whose evaluation builds an n x n x m array over input pairs
_PAIRWISE = {"pairs", "ratio"}


class Span(NamedTuple):
    # a tuple, so that the garbage collector stops tracking the many kernel
    # spans (their info is None) instead of scanning them on every pass
    span_id: int
    parent: int | None
    op: str | None
    layer: str
    name: str
    start: float
    end: float
    info: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _order_branch(alpha: float, beta: float) -> str:
    """The dispatch branch of the family at (alpha, beta)."""
    if math.isinf(beta):
        return "ratio"
    if math.isinf(alpha):
        return "alpha-inf"
    return "pairs" if beta >= alpha else "concave"


def _measure_branch(name: str, a: dict) -> str:
    """concave, capacity, aux, or the closed form a public measure call takes."""
    if name == "maximal_alpha_beta_leakage":
        return _order_branch(a["order"].alpha, a["order"].beta)
    if name == "maximal_alpha_leakage":
        return _order_branch(float(a["alpha"]), 1.0)
    if name == "alpha_tau_leakage":
        return "pairs" if float(a["tau"]) == 0.0 else "concave"
    if name == "lrdp":
        return "pairs"
    if name in ("lrdp_variant", "maximal_leakage"):
        return "alpha-inf"
    if name == "ldp":
        return "columns"
    if name == "shannon_capacity":
        return "capacity"
    return "aux"


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op: str | None = None
        self.absent: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in ENTRY_POINTS that the library still has."""
        modules = [m for name, m in sys.modules.items() if name == "chanleak" or name.startswith("chanleak.")]
        try:
            for module_name, attr, layer in ENTRY_POINTS:
                module = sys.modules.get(module_name)
                original = getattr(module, attr, None) if module is not None else None
                if not callable(original):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(layer, attr, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, name, original))
                            setattr(mod, name, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original function back."""
        while self._patches:
            mod, name, original = self._patches.pop()
            setattr(mod, name, original)
        self.active = False

    # -- spans ----------------------------------------------------------

    def _open(self, layer: str) -> tuple[int, int | None]:
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, layer))
        return span_id, parent

    def _close(self, span_id: int, parent, layer: str, name: str, start: float, end: float, info) -> None:
        self._stack.pop()
        self.spans.append(Span(span_id, parent, self.op, layer, name, start, end, info))

    def _nested(self, layer: str) -> bool:
        return not self.active or (bool(self._stack) and self._stack[-1][1] == layer)

    def _wrap(self, layer: str, name: str, fn):
        if layer == "optim":
            return self._wrap_optimizer(fn)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._nested(layer):
                return fn(*args, **kwargs)
            info = {}
            closed = False
            if layer == "measures":
                arguments = signature.bind(*args, **kwargs).arguments
                info["branch"] = _measure_branch(name, arguments)
                closed = info["branch"] not in ("concave", "capacity", "aux")
            elif layer == "cli":
                argv = args[0] if args else kwargs.get("argv")
                info["command"] = argv[0] if argv else "?"
            if closed:
                n, m = arguments["channel"].matrix.shape
                info["computed_bytes"] = 8 * (n * n * m if info["branch"] in _PAIRWISE else n * m)
                tracing_memory = not tracemalloc.is_tracing()
                if tracing_memory:
                    tracemalloc.start()
            span_id, parent = tracer._open(layer)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if closed and tracing_memory:
                    info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(span_id, parent, layer, name, start, end, info)

        return wrapper

    def _wrap_optimizer(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(objective, *args, **kwargs):
            if tracer._nested("optim"):
                return fn(objective, *args, **kwargs)
            kernel = _KernelProbe(tracer, objective)
            info = {"iterations": 0, "converged": False, "gap": math.inf}
            span_id, parent = tracer._open("optim")
            start = time.perf_counter()
            try:
                report = fn(kernel, *args, **kwargs)
                kernel.finish(report.maximizer.weights)
                info.update(iterations=report.iterations, converged=bool(report.converged),
                            gap=float(report.certified_gap))
                return report
            finally:
                end = time.perf_counter()
                info.update(evals=kernel.evals, useful=kernel.useful)
                tracer._close(span_id, parent, "optim", "maximize_on_simplex", start, end, info)

        return wrapper

    # -- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        """One CSV line per span: id, parent, operation, layer, name, start, end."""
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            handle.write("span_id,parent,op,layer,name,start_s,end_s\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                handle.write(f"{s.span_id},{parent},{s.op},{s.layer},{s.name},{s.start:.9f},{s.end:.9f}\n")

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures of this trace (zero where a layer saw no calls)."""
        child_seconds: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_seconds[s.parent] = child_seconds.get(s.parent, 0.0) + s.seconds

        def self_seconds(spans):
            return sum(s.seconds - child_seconds.get(s.span_id, 0.0) for s in spans)

        def median_ms(spans):
            return 1e3 * statistics.median(s.seconds for s in spans) if spans else 0.0

        by_layer: dict[str, list[Span]] = {}
        for s in self.spans:
            by_layer.setdefault(s.layer, []).append(s)
        core = by_layer.get("core", [])
        kernel = by_layer.get("kernel", [])
        optim = by_layer.get("optim", [])
        measures = by_layer.get("measures", [])
        concave = [s for s in measures if s.info["branch"] == "concave"]
        capacity = [s for s in measures if s.info["branch"] == "capacity"]
        closed = [s for s in measures if "computed_bytes" in s.info]
        oracle = by_layer.get("oracle", [])
        cli = by_layer.get("cli", [])
        evals = sum(s.info["evals"] for s in optim)
        kernel_s = sum(s.seconds for s in kernel)
        finite_gaps = [s.info["gap"] for s in optim if math.isfinite(s.info["gap"])]
        return {
            "core.read_csv_ms": median_ms([s for s in core if s.name == "read_channel_csv"]),
            "core.validate_ms": median_ms([s for s in core if s.name == "validate_channel"]),
            "core.calls": len(core),
            "core.self_s": self_seconds(core),
            "kernel.evals": len(kernel),
            "kernel.s": kernel_s,
            "kernel.us_per_eval": 1e6 * kernel_s / len(kernel) if kernel else 0.0,
            "kernel.useful_frac": sum(s.info["useful"] for s in optim) / evals if evals else 0.0,
            "optim.calls": len(optim),
            "optim.iterations": sum(s.info["iterations"] for s in optim),
            "optim.self_s": self_seconds(optim),
            "optim.uncertified_calls": sum(not s.info["converged"] for s in optim),
            "optim.worst_gap": max(finite_gaps, default=0.0),
            "concave.calls": len(concave),
            "concave.self_s": self_seconds(concave),
            "closed.calls": len(closed),
            "closed.s": sum(s.seconds for s in closed),
            "closed.p50_ms": median_ms(closed),
            "closed.peak_alloc_mb": max((s.info.get("peak_bytes", 0) for s in closed), default=0) / _MIB,
            "closed.computed_mb": max((s.info["computed_bytes"] for s in closed), default=0) / _MIB,
            "capacity.calls": len(capacity),
            "capacity.s": sum(s.seconds for s in capacity),
            "oracle.calls": len(oracle),
            "oracle.grid_s": sum(s.seconds for s in oracle if s.name == "grid_search_inner"),
            "oracle.definitional_s": sum(s.seconds for s in oracle if s.name == "definitional_leakage"),
            "cli.verify_ms": median_ms([s for s in cli if s.info["command"] == "verify"]),
            "cli.sweep_ms": median_ms([s for s in cli if s.info["command"] == "sweep"]),
            "cli.compute_ms": median_ms([s for s in cli if s.info["command"] == "compute"]),
            "cli.self_s": self_seconds(cli),
        }


class _KernelProbe:
    """The objective callable handed to the optimizer, timed per evaluation."""

    def __init__(self, tracer: Tracer, objective):
        self._tracer = tracer
        self._objective = objective
        self._last_gradient = None  # weak reference to the previous evaluation's gradient
        self._last_point = None
        self.evals = 0
        self.useful = 0

    def _settle_previous(self) -> None:
        if self._last_gradient is not None and self._last_gradient() is not None:
            self.useful += 1
        self._last_gradient = None

    def __call__(self, weights):
        self._settle_previous()
        tracer = self._tracer
        span_id, parent = tracer._open("kernel")
        start = time.perf_counter()
        try:
            value, gradient = self._objective(weights)
        finally:
            end = time.perf_counter()
            tracer._close(span_id, parent, "kernel", "objective", start, end, None)
        self.evals += 1
        self._last_point = weights.copy()
        try:
            self._last_gradient = weakref.ref(gradient)
        except TypeError:
            self._last_gradient = None
        return value, gradient

    def finish(self, maximizer) -> None:
        """Settle the last evaluation: useful when made at the returned point."""
        if self._last_gradient is not None and self._last_point is not None:
            if self._last_point.shape == maximizer.shape and (self._last_point == maximizer).all():
                self.useful += 1
        self._last_gradient = None
