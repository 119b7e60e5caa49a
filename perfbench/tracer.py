"""Per-layer tracing of the ``troupes`` modules from outside the program.

:func:`install` wraps the public functions and public methods of every
layer module, and the arithmetic methods of ``QPoly`` and ``Series``.  A
wrapped function is replaced in every ``troupes`` module namespace that binds
it, so calls between modules and inside one module both pass through the
wrapper.  Nothing under ``src/`` changes; the wrapping lasts for the life of
the process, which runs one traced operation and exits.

Self time.  A layer is one ``troupes`` module.  The self time of a call is its
duration minus the time spent in wrapped calls into *other* layers; calls into
the same layer count toward it.  So ``troupe.weighted_sum`` includes the
``troupe.WeightedTroupe.evaluate`` calls it makes, but not the tree
enumeration and factorization they trigger in ``trees``.  A key (function,
class or group name) is credited once per outermost call, so recursion and
nested calls of one class are not counted twice.

Memory stays bounded: every call is counted and timed in aggregate, but at
most ``span_cap`` spans per function name are kept, and the hot leaf methods
(:data:`HOT`, :data:`HOT_PREFIXES`) keep none.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from math import comb, factorial

LAYERS = ("cli", "rings", "series", "partitions", "cumulants", "troupe",
          "trees", "bijections", "peaks")

# Value types whose dunder methods are the arithmetic of a layer; other
# classes keep their generated dunders unwrapped (Node() alone runs per vertex).
ARITH_CLASSES = {"rings.QPoly", "series.Series"}
UNWRAPPED_DUNDERS = {"__setattr__", "__repr__", "__str__"}

HOT_PREFIXES = ("rings.QPoly.", "series.Series.")
HOT = {"troupe.WeightedTroupe.evaluate", "trees.encode"}

ENUMERATORS = {
    "trees.iter_branch_word": "branch", "trees.iter_branches": "branch",
    "trees.iter_bpt_word": "bpt", "trees.iter_bpt": "bpt",
    "trees.iter_dbpt_word": "dbpt", "trees.iter_dbpt": "dbpt",
}
# Extra keys a call is credited to, besides its own name, class and layer.
GROUPS = {
    "partitions.partitions_as_index_blocks": "partitions.table_build",
    "partitions.first_n_druns_index_blocks": "partitions.table_build",
    **{name: "trees.enumerate" for name in ENUMERATORS},
}

# Partition classes the cumulant kernels sum over; None means the class of
# the cumulant kind being converted.
CUMULANT_KERNELS = {
    "cumulants.moments_to_cumulants": None,
    "cumulants.cumulants_to_moments": None,
    "cumulants.boolean_to_free": "nc_irreducible",
    "cumulants.boolean_to_classical": "first_max",
}
KIND_TO_CLASS = {"classical": "all", "free": "noncrossing", "boolean": "interval"}

SPAN_CAP = 256


def bell(n: int) -> int:
    """Bell number, by the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def partition_count(klass: str, n: int) -> int:
    """Number of partitions of 1..n in a class, from closed forms."""
    if klass == "all":
        return bell(n)
    if klass == "noncrossing":
        return comb(2 * n, n) // (n + 1)
    if klass == "interval":
        return 2 ** (n - 1)
    if klass == "nc_irreducible":
        return comb(2 * n - 2, n - 1) // n
    if klass == "first_max":  # permutations of 1..n with first entry n
        return factorial(n - 1)
    raise ValueError(klass)


def block_products(name: str, alphabet_size: int, max_len: int, kind: str) -> int:
    """Partition terms a cumulant kernel sums over all words up to ``max_len``.

    Computed from closed-form class sizes, not observed; the moment-to-cumulant
    solve skips the one-block partition of every word.
    """
    klass = CUMULANT_KERNELS[name] or KIND_TO_CLASS[kind]
    skip = 1 if name == "cumulants.moments_to_cumulants" else 0
    return sum(alphabet_size ** n * (partition_count(klass, n) - skip)
               for n in range(1, max_len + 1))


class Frame:
    """One open wrapped call."""

    __slots__ = ("name", "layer", "credit", "covered", "start", "foreign",
                 "span", "parent_span", "anchor")


class Tracer:
    """Aggregates calls, layer self time and a bounded span list.

    ``clock`` is injectable so that tests can drive it by hand.
    """

    def __init__(self, clock=time.perf_counter, span_cap: int = SPAN_CAP):
        self.clock = clock
        self.span_cap = span_cap
        self.origin = clock()
        self.stack: list[Frame] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self.spans: list[tuple] = []
        self.span_counts: Counter = Counter()
        self.spans_dropped = 0
        self._next_span = 0

    def enter(self, name: str, layer: str, keys: tuple[str, ...], hot: bool) -> Frame:
        stack = self.stack
        parent = stack[-1] if stack else None
        f = Frame()
        f.name, f.layer = name, layer
        outer = parent.covered if parent is not None and parent.layer == layer else ()
        f.credit = tuple(k for k in keys if k not in outer)
        f.covered = outer + f.credit
        f.foreign = 0.0
        f.parent_span = parent.anchor if parent is not None else None
        f.span = None
        if not hot:
            if self.span_counts[name] < self.span_cap:
                self.span_counts[name] += 1
                f.span = self._next_span
                self._next_span += 1
            else:
                self.spans_dropped += 1
        # children of a frame without a span hang off its nearest spanned ancestor
        f.anchor = f.parent_span if f.span is None else f.span
        for k in keys:
            self.calls[k] += 1
        stack.append(f)
        f.start = self.clock()
        return f

    def exit(self, f: Frame) -> None:
        end = self.clock()
        dur = end - f.start
        self.stack.pop()
        layer_self = dur - f.foreign
        for k in f.credit:
            self.self_s[k] += layer_self
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            self.root_s += dur
        elif parent.layer != f.layer:
            parent.foreign += dur
        else:
            parent.foreign += f.foreign
        if f.span is not None:
            self.spans.append((f.span, f.name, f.start - self.origin,
                               end - self.origin, f.parent_span))

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "root_s": self.root_s,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }


# ---------------------------------------------------------------------------
# Wrapping


def _keys(name: str) -> tuple[str, ...]:
    """Own name, class (for methods), group, and layer."""
    parts = name.split(".")
    keys = [name]
    if len(parts) == 3:
        keys.append(f"{parts[0]}.{parts[1]}")
    if name in GROUPS:
        keys.append(GROUPS[name])
    keys.append(parts[0])
    return tuple(keys)


def _is_hot(name: str) -> bool:
    return name in HOT or name.startswith(HOT_PREFIXES)


def _wrap(tracer: Tracer, fn, name: str):
    layer = name.split(".", 1)[0]
    keys = _keys(name)
    hot = _is_hot(name)
    enter, exit_ = tracer.enter, tracer.exit

    if inspect.isgeneratorfunction(fn):
        family = ENUMERATORS.get(name)
        counts = tracer.counts

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                f = enter(name, layer, keys, hot)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    exit_(f)
                if family is not None:
                    counts[f"trees.enumerated.{family}"] += 1
                yield item

        return gen_wrapper

    if hasattr(fn, "cache_info"):  # an lru_cache'd partition table builder
        @functools.wraps(fn)
        def table_wrapper(*args, **kwargs):
            before = fn.cache_info().currsize
            built = tracer.calls["partitions.SetPartition.of"]
            f = enter(name, layer, keys, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(f)
            if fn.cache_info().currsize > before:
                tracer.counts["partitions.table_entries"] += len(result)
                tracer.counts["partitions.table_materialized"] += (
                    tracer.calls["partitions.SetPartition.of"] - built)
            return result

        return table_wrapper

    if name == "troupe.weighted_sum":
        @functools.wraps(fn)
        def sum_wrapper(tau, kind, word):
            f = enter(name, layer, keys + (f"troupe.weighted_sum.{kind}",), hot)
            try:
                return fn(tau, kind, word)
            finally:
                exit_(f)

        return sum_wrapper

    if name in CUMULANT_KERNELS:
        @functools.wraps(fn)
        def kernel_wrapper(table, *args):
            f = enter(name, layer, keys, hot)
            try:
                result = fn(table, *args)
            finally:
                exit_(f)
            kind = args[0] if args else table.kind
            tracer.counts["cumulants.block_products"] += block_products(
                name, len(table.alphabet), table.max_len, kind)
            return result

        return kernel_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        f = enter(name, layer, keys, hot)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(f)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer module's public callables, for the rest of the process."""
    modules = {layer: importlib.import_module(f"troupes.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "troupes" or n.startswith("troupes.")]

    def rebind(obj, wrapper):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is obj:
                    setattr(ns, attr, wrapper)

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                if not issubclass(obj, BaseException):
                    _wrap_class(tracer, obj, f"{layer}.{attr}")
            elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                rebind(obj, _wrap(tracer, obj, f"{layer}.{attr}"))


def _wrap_class(tracer: Tracer, cls, qualname: str) -> None:
    arith = qualname in ARITH_CLASSES
    wrapped: dict[int, object] = {}  # aliases such as __radd__ = __add__ share one wrapper
    for attr, raw in list(vars(cls).items()):
        dunder = attr.startswith("__") and attr.endswith("__")
        if dunder:
            if not arith or attr in UNWRAPPED_DUNDERS:
                continue
        elif attr.startswith("_"):
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            fn, rewrap = raw.__func__, type(raw)
        elif isinstance(raw, property):
            if not arith or raw.fget is None:
                continue
            fn, rewrap = raw.fget, property
        elif inspect.isfunction(raw):
            fn, rewrap = raw, None
        else:
            continue
        if id(fn) not in wrapped:
            wrapped[id(fn)] = _wrap(tracer, fn, f"{qualname}.{fn.__name__}")
        new = wrapped[id(fn)]
        setattr(cls, attr, rewrap(new) if rewrap is not None else new)


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run


def layer_metrics(calls: Counter, self_s: Counter, counts: Counter, root_s: float,
                  traced_wall: float, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of the benchmark, and the bases of its ratios.

    ``calls``, ``self_s`` and ``counts`` are tracer aggregates summed over a
    workload's operations; the walls are the summed wall times of the traced
    and untraced processes.  Both results map a name to ``(value, unit)``.
    A ratio whose base is 0 reads 0; the bases are printed, not reported.
    """
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    bases: dict[str, tuple[float, str]] = {}

    def sec(name: str, key: str | None = None) -> None:
        m[f"{name}.self_s"] = (self_s.get(key or name, 0.0), "s")

    def count(name: str, value) -> None:
        m[name] = (value, "count")

    for layer in LAYERS:
        sec(layer)
    sec("partitions.table_build")
    count("partitions.SetPartition_of.calls", calls.get("partitions.SetPartition.of", 0))
    entries = counts.get("partitions.table_entries", 0)
    built = counts.get("partitions.table_materialized", 0)
    bases["partitions.table_entries"] = (entries, "count")
    bases["partitions.table_materialized"] = (built, "count")
    m["partitions.kept_ratio"] = (ratio(entries, built), "ratio")

    for kernel in CUMULANT_KERNELS:
        sec(kernel)
    count("cumulants.block_products", counts.get("cumulants.block_products", 0))

    for kind in ("branch", "bpt", "dbpt"):
        sec(f"troupe.weighted_sum.{kind}")
    evals = calls.get("troupe.WeightedTroupe.evaluate", 0)
    factorizations = calls.get("trees.insertion_factors", 0)
    count("troupe.evaluate.calls", evals)
    sec("troupe.evaluate", "troupe.WeightedTroupe.evaluate")
    m["troupe.factorizations_per_eval"] = (ratio(factorizations, evals), "ratio")
    sec("troupe.branch_series")

    for family in ("branch", "bpt", "dbpt"):
        count(f"trees.enumerated.{family}", counts.get(f"trees.enumerated.{family}", 0))
    sec("trees.enumerate")
    count("trees.encode.calls", calls.get("trees.encode", 0))
    sec("trees.encode")
    count("trees.insertion_factors.calls", factorizations)
    for fn in ("insertion_factors", "labeled_insertion_factors", "alpha_inverse"):
        sec(f"trees.{fn}")
    for fn in ("psi", "psi_inverse", "phi", "phi_inverse"):
        sec(f"bijections.{fn}")
    sec("peaks.factors_from_plot")
    sec("peaks.tree_factors_for_comparison")

    sec("series.troupe_transform")
    sec("series.inverse_troupe_transform")
    sec("series.compositional_inverse", "series.Series.compositional_inverse")
    count("series.compose.calls", calls.get("series.Series.compose", 0))
    sec("series.compose", "series.Series.compose")
    count("series.mul.calls", calls.get("series.Series.__mul__", 0))
    count("series.is_poly_ring.calls", calls.get("series.Series.is_poly_ring", 0))
    sec("series.boolean_free_series_check")

    for op in ("mul", "add", "init"):
        count(f"rings.QPoly.{op}.calls", calls.get(f"rings.QPoly.__{op}__", 0))
    sec("rings.QPoly")

    bases["trace.wall_s"] = (traced_wall, "s")
    bases["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_ratio"] = (ratio(traced_wall, untraced_wall), "ratio")
    m["trace.covered_ratio"] = (ratio(root_s, traced_wall), "ratio")
    return m, bases
