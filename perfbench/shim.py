"""Span shim for the traced benchmark run, and the per-layer metrics read
from the spans it records.

`install` wraps every public function and method of every `comitant.*`
module (plus the arithmetic operators and constructors of its classes, and
each claim of the registry) in a recorder, without editing the package.
A layer is a module: the span `poly.Poly.__mul__` belongs to layer `poly`.
Because `from .linalg import poly_det` copies the binding into the
importing module, every module namespace, and every module-level dict,
that holds a wrapped object is rebound to the wrapper.

Spans stay in memory (name, start, end, parent, two counters) and are
written to one `.npz` file when the traced child exits.  The self time of
a span is its duration minus the durations of its direct children; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

# Dunder methods that do work worth a span; comparisons, hashing and
# formatting are left out because they are called per dict lookup.
_DUNDERS = frozenset({
    "__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__neg__", "__pow__", "__truediv__",
    "__rtruediv__",
})


class Tracer:
    """In-memory span store for one traced child process."""

    def __init__(self, run_id: str, poly_type):
        self.run_id = run_id
        self.names: list = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.a = array("q")     # work counter, meaning set per span name
        self.b = array("q")     # size of the result, meaning set per name
        self._stack = [-1]
        self._poly = poly_type

    def wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        hook = _HOOKS.get(span_name.split(".", 1)[1])
        poly = self._poly
        names, starts, ends = self.name, self.start, self.end
        parents, a_col, b_col, stack = self.parent, self.a, self.b, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            a_col.append(0)
            b_col.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                a_col[idx], b_col[idx] = hook(args, result)
            elif type(result) is poly:
                b_col[idx] = len(result.terms)
            return result

        return shim

    def dump(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 a=np.frombuffer(self.a, dtype=np.int64),
                 b=np.frombuffer(self.b, dtype=np.int64),
                 run_id=np.array(self.run_id))


def _mul_counts(args, result):
    left, right = args[0], args[1]
    right_terms = len(right.terms) if hasattr(right, "terms") else 1
    return len(left.terms) * right_terms, len(result.terms)


def _census_counts(args, result):
    c = args[0]
    kept = (c.source, c.images, c.indeterminate_mask, c._uniq, c._counts)
    return c.total, sum(arr.nbytes for arr in kept)


# span name without its layer -> (a, b) counters from (args, result)
_HOOKS = {
    "Poly.__mul__": _mul_counts,
    "Poly.__rmul__": _mul_counts,
    "Matrix.rref": lambda args, r: (args[0].rows * args[0].cols, len(r[1])),
    "int_nullspace_mod_p": lambda args, r: (len(args[0]) * args[1], len(r)),
    "FiberCensus.__init__": _census_counts,
    "find_invariants": lambda args, r: (0, len(r)),
}


def _modules():
    import comitant
    mods = [comitant]
    for info in pkgutil.iter_modules(comitant.__path__):
        mods.append(importlib.import_module(f"comitant.{info.name}"))
    return mods


def _is_function(obj) -> bool:
    # plain functions, and lru_cache wrappers around them
    wrapped = getattr(obj, "__wrapped__", None)
    return inspect.isfunction(obj) or (
        callable(obj) and inspect.isfunction(wrapped))


def install(run_id: str) -> Tracer:
    """Wrap the package in place and return the tracer recording it."""
    from comitant.poly import Poly
    tracer = Tracer(run_id, Poly)
    mods = _modules()
    replaced: dict = {}   # id(original) -> wrapper
    for mod in mods[1:]:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if _is_function(obj) and not name.startswith("_"):
                replaced[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj) and not name.startswith("_"):
                _wrap_class(tracer, layer, obj)
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in replaced:
                        obj[key] = replaced[id(val)]
    # The registry's claim functions are private, but the report times them
    # only to the millisecond, so each registry entry gets a span too.
    from comitant import verify
    verify._REGISTRY = tuple(
        c._replace(fn=tracer.wrap(f"verify.claim.{c.claim_id}", c.fn))
        for c in verify._REGISTRY)
    return tracer


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_") and attr not in _DUNDERS:
            continue
        span = f"{layer}.{cls.__name__}.{attr}"
        if inspect.isfunction(val):
            setattr(cls, attr, tracer.wrap(span, val))
        elif isinstance(val, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(span, val.__func__)))
        elif isinstance(val, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(span, val.__func__)))
        elif isinstance(val, property) and val.fget is not None:
            setattr(cls, attr, property(tracer.wrap(span, val.fget),
                                        val.fset, val.fdel, val.__doc__))


# ---------------------------------------------------------------------------
# per-layer metrics from one spans file

LAYERS = ("poly", "linalg", "invariants", "fibers", "comitants", "quartic",
          "maps", "associated", "geometry", "scalars", "cli", "verify")

# metric group -> span names (layer.Class.method or layer.function)
GROUPS = {
    "poly.mul": ("poly.Poly.__mul__", "poly.Poly.__rmul__"),
    "poly.add": ("poly.Poly.__add__", "poly.Poly.__radd__"),
    "poly.substitute": ("poly.Poly.substitute",),
    "poly.divexact": ("poly.divexact",),
    "linalg.rref": ("linalg.Matrix.rref",),
    "linalg.int_nullspace_mod_p": ("linalg.int_nullspace_mod_p",),
    "linalg.poly_det": ("linalg.poly_det",),
    "linalg.apply": ("linalg.LinearSubstitution.apply",),
    "invariants.find_invariants": ("invariants.find_invariants",),
    "invariants.evaluate_invariant": ("invariants.evaluate_invariant",),
    "fibers.census": ("fibers.FiberCensus.__init__",),
    "fibers.lookup": ("fibers.FiberCensus.image_of",
                      "fibers.FiberCensus.fiber_size",
                      "fibers.FiberCensus.normalize_target"),
    "comitants.hessian": ("comitants.hessian",),
    "comitants.transvectant": ("comitants.transvectant",),
    "quartic.salmon_contravariant": ("quartic.salmon_contravariant",),
    "quartic.clebsch_covariant": ("quartic.clebsch_covariant",),
    "maps.descend_map": ("maps.descend_map",),
}

# the outer calls of a lookup: one per image_of / fiber_size request
LOOKUP_CALLS = ("fibers.FiberCensus.image_of", "fibers.FiberCensus.fiber_size")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def span_metrics(path: str) -> tuple:
    """(per-layer metrics, lookup durations in microseconds) of one spans
    file.  A metric of a layer the run never entered reads 0."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name, parent = z["name"], z["parent"]
        dur = (z["end"] - z["start"]).astype(np.float64) / 1e9
        a, b = z["a"], z["b"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=dur.size)
    self_s = dur - child_time
    by_name = {n: i for i, n in enumerate(names)}

    def mask(span_names):
        ids = [by_name[n] for n in span_names if n in by_name]
        return np.isin(name, ids)

    def total(group, column):
        return int(column[mask(GROUPS[group])].sum())

    layer_of = np.array([n.split(".", 1)[0] for n in names] or [""])
    span_layer = layer_of[name] if name.size else np.array([], dtype=str)
    m: dict = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(self_s[span_layer == layer].sum())
    for group, members in GROUPS.items():
        sel = mask(members)
        m[f"{group}.calls"] = int(sel.sum())
        m[f"{group}.self_s"] = float(self_s[sel].sum())
    pairs, terms = total("poly.mul", a), total("poly.mul", b)
    m["poly.mul.term_pairs"] = pairs
    m["poly.mul.terms_out"] = terms
    m["poly.mul.merge_ratio"] = _ratio(terms, pairs)
    poly_spans = span_layer == "poly"
    m["poly.peak_terms"] = int(b[poly_spans].max()) if poly_spans.any() else 0
    m["linalg.rref.cells"] = total("linalg.rref", a)
    m["linalg.int_nullspace_mod_p.cells"] = total("linalg.int_nullspace_mod_p",
                                                  a)
    m["fibers.census.points"] = total("fibers.census", a)
    m["fibers.census.bytes_computed"] = total("fibers.census", b)
    m["fibers.census.points_per_s"] = _ratio(
        m["fibers.census.points"],
        float(dur[mask(GROUPS["fibers.census"])].sum()))
    m["invariants.kernel_dim"] = total("invariants.find_invariants", b)
    searches, hits = _modular_hits(name, parent, by_name)
    m["invariants.modular_hit_ratio"] = _ratio(hits, searches)
    lookups = dur[mask(LOOKUP_CALLS)] * 1e6
    m["fibers.lookup.calls"] = int(lookups.size)
    for n, i in by_name.items():
        if n.startswith("verify.claim."):
            m["verify.claim_ms." + n[len("verify.claim."):]] = \
                float(dur[name == i].sum()) * 1e3
    m["trace.spans"] = int(name.size)
    return m, lookups


def _modular_hits(name, parent, by_name) -> tuple:
    """(searches, searches that never reached Matrix.nullspace)."""
    search_id = by_name.get("invariants.find_invariants")
    if search_id is None:
        return 0, 0
    searches = set(np.flatnonzero(name == search_id).tolist())
    missed = set()
    null_id = by_name.get("linalg.Matrix.nullspace")
    if null_id is not None:
        for idx in np.flatnonzero(name == null_id).tolist():
            while idx >= 0:
                if idx in searches:
                    missed.add(idx)
                idx = int(parent[idx])
    return len(searches), len(searches) - len(missed)
