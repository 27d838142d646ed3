"""Out-of-process layer tracer for the bivekua benchmark.

``Tracer.install()`` replaces the public functions and methods of each
``bivekua`` module with wrappers that record spans and counters.  Nothing
under ``src/`` is modified: the wrappers are set on the imported module
objects, on every module that re-imported a name with ``from ... import``,
and on module-level dicts that hold function references (the CLI's command
table).  Install it only in a process that runs a traced pass.

A span opens at every wrapped call except a direct recursive call of the
same function, which is counted but not spanned.  Spans are kept in flat
arrays (name, parent, start, end) and written when the pass ends.  A layer
is the ``bivekua`` module that defines the wrapped function; a layer's self
time is the time its spans cover minus the time covered by their children.

Bicomplex values are counted but never spanned: a span per construction
costs more than the construction, so that time stays in the callers' self
time.  Compiled-expression calls are not wrapped either; their time shows
in the ``fields`` evaluation spans that make them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

# Layers in the order their modules sit on the call stack, outermost first.
LAYERS = ("cli", "powers", "schroedinger", "pairs", "calculus", "fields", "expr", "bicomplex")
SPANNED_LAYERS = LAYERS[:-1]
COMMANDS = (
    "eval-kernel", "verify-reproducing", "build-powers",
    "build-fundamental", "residual-scan", "cauchy",
)

# Methods called once per evaluation whose spans would only add noise.
_SKIP = {"fields.SymBC.compiled"}

# Per-layer metrics as (name, unit, better); the order is the report order.
METRICS = (
    [(f"cli.{c}_s", "s", "lower") for c in COMMANDS]
    + [("cli.self_s", "s", "lower")]
    + [
        ("powers.contour_integrals", "count", "lower"),
        ("powers.contour_s", "s", "lower"),
        ("powers.contour_ms_per_node", "ms", "lower"),
        ("powers.negative_powers_s", "s", "lower"),
        ("powers.self_s", "s", "lower"),
        ("schroedinger.coefj_evals", "count", "lower"),
        ("schroedinger.coefj_dup_frac", "ratio", "lower"),
        ("schroedinger.coefj_ms", "ms", "lower"),
        ("schroedinger.darboux_evals", "count", "lower"),
        ("schroedinger.self_s", "s", "lower"),
        ("pairs.make_pair_calls", "count", "lower"),
        ("pairs.make_pair_s", "s", "lower"),
        ("pairs.adjoint_s", "s", "lower"),
        ("pairs.residual_evals", "count", "lower"),
        ("pairs.residual_s", "s", "lower"),
        ("pairs.self_s", "s", "lower"),
        ("calculus.paths", "count", "lower"),
        ("calculus.path_nodes", "count", "lower"),
        ("calculus.detours", "count", "lower"),
        ("calculus.integrals", "count", "lower"),
        ("calculus.integrate_s", "s", "lower"),
        ("calculus.errors", "count", "lower"),
        ("calculus.self_s", "s", "lower"),
        ("fields.field_evals", "count", "lower"),
        ("fields.kernel_evals", "count", "lower"),
        ("fields.substitutions", "count", "lower"),
        ("fields.eval_s", "s", "lower"),
        ("fields.self_s", "s", "lower"),
        ("expr.parse_calls", "count", "lower"),
        ("expr.simplify_calls", "count", "lower"),
        ("expr.simplify_s", "s", "lower"),
        ("expr.diff_calls", "count", "lower"),
        ("expr.diff_s", "s", "lower"),
        ("expr.compiles", "count", "lower"),
        ("expr.compile_s", "s", "lower"),
        ("expr.compiled_nodes", "count", "lower"),
        ("expr.max_compiled_nodes", "count", "lower"),
        ("expr.compile_dup_frac", "ratio", "lower"),
        ("expr.errors", "count", "lower"),
        ("expr.self_s", "s", "lower"),
        ("bicomplex.values", "count", "lower"),
        ("bicomplex.inv_calls", "count", "lower"),
        ("bicomplex.errors", "count", "lower"),
    ]
)

# Timed metrics: the time covered by spans with these names, each counted
# once even when spans of the same set nest.
_TIMED = {
    "powers.contour_s": ("powers.formal_contour_integral", "powers.first_cauchy"),
    "powers.negative_powers_s": ("powers.negative_powers",),
    "schroedinger.coefj_s": ("schroedinger.coefj",),
    "pairs.make_pair_s": ("pairs.make_pair",),
    "pairs.adjoint_s": ("pairs.adjoint_fields", "pairs.adjoint_pair"),
    "pairs.residual_s": ("pairs.vekua_residual",),
    "calculus.integrate_s": ("calculus.Path.integrate", "calculus.Path.integrate_bc"),
    "fields.eval_s": ("fields.Field.__call__", "fields.Kernel.__call__", "fields.SymBC.__call__"),
    "expr.simplify_s": ("expr.simplify",),
    "expr.diff_s": ("expr.diff",),
    "expr.compile_s": ("expr.compile_expr",),
}

# Call counts: metric -> wrapped names whose calls it adds up.
_CALLS = {
    "powers.contour_integrals": ("powers.formal_contour_integral", "powers.first_cauchy"),
    "pairs.make_pair_calls": ("pairs.make_pair",),
    "pairs.residual_evals": ("pairs.vekua_residual",),
    "calculus.detours": ("calculus.Path.detour",),
    "calculus.integrals": ("calculus.Path.integrate", "calculus.Path.integrate_bc"),
    "fields.field_evals": ("fields.Field.__call__",),
    "fields.kernel_evals": ("fields.Kernel.__call__",),
    "fields.substitutions": ("fields.Kernel.field_in_z", "fields.Kernel.field_in_zeta"),
    "expr.parse_calls": ("expr.parse",),
    "expr.simplify_calls": ("expr.simplify",),
    "expr.diff_calls": ("expr.diff",),
    "expr.compiles": ("expr.compile_expr",),
    "schroedinger.coefj_evals": ("schroedinger.coefj",),
    "schroedinger.darboux_evals": ("schroedinger.darboux_value",),
}

_PATH_CONSTRUCTORS = {
    "calculus.Path.segment", "calculus.Path.polyline", "calculus.Path.circle",
    "calculus.Path.arc", "calculus.Path.join", "calculus.Path.detour",
}


def tree_size(node) -> int:
    """Node count of an expression tree made of dataclass nodes."""
    count = 0
    todo = [node]
    while todo:
        n = todo.pop()
        count += 1
        if dataclasses.is_dataclass(n):
            for f in dataclasses.fields(n):
                v = getattr(n, f.name)
                if dataclasses.is_dataclass(v) and not isinstance(v, type):
                    todo.append(v)
    return count


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, object]] = []
        self._paused = 0.0
        self._compiled_trees: set[bytes] = set()
        self._coefj_seen: set = set()

    # -- clock and spans ---------------------------------------------------

    def clock(self) -> float:
        """perf_counter minus the time spent in the tracer's own bookkeeping."""
        return time.perf_counter() - self._paused

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, key) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(self.clock())
        self.span_end.append(0.0)
        self._stack.append((idx, key))
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, command: str):
        """The root span of one CLI run."""
        self._coefj_seen.clear()
        idx = self._open(self._name_id(f"cli.{command}"), None)
        try:
            yield
        finally:
            self._close(idx)

    def _outer_layer(self) -> str:
        if not self._stack:
            return ""
        return self.names[self.span_name[self._stack[-1][0]]].split(".", 1)[0]

    def _count_error(self, exc: BaseException, layer: str) -> None:
        if getattr(exc, "_bench_counted", False):
            return
        try:
            exc._bench_counted = True
        except AttributeError:
            pass
        module = type(exc).__module__
        if module.startswith("bivekua."):
            layer = module.split(".", 1)[1]
        self.counts[f"{layer}.errors"] += 1

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name: str, after=None, before=None):
        """A spanned wrapper of fn; after(result, args) and before(args) run
        outside the span, with their time taken off the clock."""
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]
        calls = self.calls
        stack = self._stack
        key = object()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if stack and stack[-1][1] is key:
                return fn(*args, **kwargs)
            if before is not None:
                self._bookkeep(before, args)
            idx = self._open(nid, key)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(exc, layer)
                raise
            finally:
                self._close(idx)
            if after is not None:
                self._bookkeep(after, result, args)
            return result

        return wrapper

    def _bookkeep(self, hook, *args) -> None:
        t0 = time.perf_counter()
        try:
            hook(*args)
        finally:
            self._paused += time.perf_counter() - t0

    # -- hooks -----------------------------------------------------------------

    def _after_path(self, result, args) -> None:
        # a path requested by another layer, not a piece of a bigger one
        if self._outer_layer() != "calculus":
            self.counts["calculus.paths"] += 1
            self.counts["calculus.path_nodes"] += len(getattr(result, "nodes", ()))

    def _before_contour(self, args) -> None:
        for a in args:
            nodes = getattr(getattr(a, "path", None), "nodes", None)
            if nodes is not None:
                self.counts["powers.contour_nodes"] += len(nodes)

    def _before_compile(self, args) -> None:
        if not args or not dataclasses.is_dataclass(args[0]):
            return
        size = tree_size(args[0])
        self.counts["expr.compiled_nodes"] += size
        self.counts["expr.max_compiled_nodes"] = max(self.counts["expr.max_compiled_nodes"], size)
        digest = hashlib.blake2b(repr(args[0]).encode(), digest_size=16).digest()
        if digest in self._compiled_trees:
            self.counts["expr.compile_dups"] += 1
        else:
            self._compiled_trees.add(digest)

    def _after_successor(self, family, args) -> None:
        inner = getattr(family, "coefj", None)
        if inner is None:
            return
        seen = self._coefj_seen

        def key_of(args):
            zeta, z = args[0], args[1]
            k = (zeta.x, zeta.y, z.x, z.y)
            if k in seen:
                self.counts["schroedinger.coefj_dups"] += 1
            else:
                seen.add(k)

        family.coefj = self.wrap(inner, "schroedinger.coefj", before=key_of)

    def _after_darboux(self, solution, args) -> None:
        inner = getattr(solution, "regular", None)
        if inner is not None:
            solution.regular = self.wrap(inner, "schroedinger.darboux_value")

    def _hooks(self, name: str) -> dict:
        if name in _PATH_CONSTRUCTORS:
            return {"after": self._after_path}
        return {
            "powers.formal_contour_integral": {"before": self._before_contour},
            "powers.first_cauchy": {"before": self._before_contour},
            "expr.compile_expr": {"before": self._before_compile},
            "schroedinger.successor_kernel_coefj": {"after": self._after_successor},
            "schroedinger.darboux_fundamental": {"after": self._after_darboux},
        }.get(name, {})

    def _count_bicomplex(self, bicomplex) -> None:
        cls = bicomplex.Bicomplex
        counts = self.counts
        post_init = cls.__post_init__
        inv = cls.inv
        base_error = bicomplex.BicomplexError

        def counted_post_init(obj):
            counts["bicomplex.values"] += 1
            try:
                post_init(obj)
            except base_error:
                counts["bicomplex.errors"] += 1
                raise

        def counted_inv(obj):
            counts["bicomplex.inv_calls"] += 1
            try:
                return inv(obj)
            except base_error:
                counts["bicomplex.errors"] += 1
                raise

        cls.__post_init__ = counted_post_init
        cls.inv = counted_inv

    def install(self) -> None:
        """Wrap every public function and method of the bivekua modules."""
        modules = {layer: importlib.import_module(f"bivekua.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer in SPANNED_LAYERS:
            mod = modules[layer]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped = self.wrap(value, name, **self._hooks(name))
                    replaced[id(value)] = wrapped
                    setattr(mod, attr, wrapped)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_class(value, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replaced:
                            value[k] = replaced[id(v)]
        self._count_bicomplex(modules["bicomplex"])

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{prefix}.{attr}"
            if name in _SKIP:
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(raw.__func__, name, **self._hooks(name))))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, **self._hooks(name))))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, name, **self._hooks(name)))

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.span_start)
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "pass_id": np.full(n, self.pass_id, dtype=np.int32),
            "names": np.array(self.names, dtype=str),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of this pass, by name."""
        return layer_metrics(self.arrays(), self.calls, self.counts)


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Self time of each span: its duration minus its children's."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def covered_time(spans: dict[str, np.ndarray], names) -> float:
    """Time covered by spans with any of these names, counting a span nested
    inside another span of the set only once."""
    ids = np.flatnonzero(np.isin(spans["names"], list(names)))
    in_set = np.append(np.isin(spans["name"], ids), False)
    n = len(in_set) - 1
    # pointer doubling over the parent links; index n is a root sentinel
    up = np.append(np.where(spans["parent"] >= 0, spans["parent"], n), n)
    inside = in_set[up]
    while np.any(up != n):
        inside |= inside[up]
        up = up[up]
    top = (in_set & ~inside)[:n]
    return float(np.sum(spans["end"][top] - spans["start"][top]))


def layer_metrics(spans, calls, counts) -> dict[str, float]:
    """Every per-layer metric, by name, from one pass's spans and counters."""
    names = np.asarray(spans["names"], dtype=str)
    name_layer = np.array([n.split(".", 1)[0] for n in names], dtype=str)
    self_t = self_times(spans)
    span_layer = name_layer[spans["name"]]
    roots = spans["parent"] < 0
    root_names = names[spans["name"][roots]]
    root_dur = (spans["end"] - spans["start"])[roots]
    out: dict[str, float] = {}
    for layer in SPANNED_LAYERS:
        out[f"{layer}.self_s"] = float(np.sum(self_t[span_layer == layer]))
    for command in COMMANDS:
        out[f"cli.{command}_s"] = float(np.sum(root_dur[root_names == f"cli.{command}"]))
    for metric, span_names in _TIMED.items():
        out[metric] = covered_time(spans, span_names)
    for metric, span_names in _CALLS.items():
        out[metric] = sum(calls[n] for n in span_names)
    for metric, _, _ in METRICS:
        if metric not in out:
            out[metric] = counts[metric]

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    out["powers.contour_ms_per_node"] = per(out["powers.contour_s"], counts["powers.contour_nodes"], 1e3)
    coefj = out["schroedinger.coefj_evals"]
    out["schroedinger.coefj_dup_frac"] = per(counts["schroedinger.coefj_dups"], coefj)
    out["schroedinger.coefj_ms"] = per(out["schroedinger.coefj_s"], coefj, 1e3)
    out["expr.compile_dup_frac"] = per(counts["expr.compile_dups"], out["expr.compiles"])
    return {name: out[name] for name, _, _ in METRICS}


def traced_wall(spans) -> float:
    """Sum of the root spans: the traced pass's wall time."""
    roots = spans["parent"] < 0
    return float(np.sum(spans["end"][roots] - spans["start"][roots]))
