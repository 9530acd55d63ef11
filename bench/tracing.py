"""Outside-in tracing of planegalois for the benchmark's traced run.

`Tracer.install` replaces each public function of the layer modules with a
span-recording wrapper at every module binding that refers to it (the
`from .x import f` copies included), and wraps a few per-element methods
with aggregated counters.  `Tracer.uninstall` puts every original back.
The program's source knows nothing about any of this.

Spans are kept in memory as (id, parent id, name, start, end, inner) where
`inner` is the time of aggregated per-element calls made directly inside
the span.  Per-element calls are timed only at their outermost level and
are not recorded one by one; public functions reached from inside one run
unrecorded, as part of that element's time.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

PACKAGE = "planegalois"
LAYERS = ("fields", "linalg", "polynomials", "parsing", "curves", "maps", "galois", "cremona", "scenarios", "cli")

# FieldElement arithmetic, aggregated: (method, metric name).
FIELD_OPS = (
    ("__add__", "fields.add"),
    ("__sub__", "fields.sub"),
    ("__neg__", "fields.neg"),
    ("__mul__", "fields.mul"),
    ("__truediv__", "fields.div"),
    ("inverse", "fields.inv"),
    ("__pow__", "fields.pow"),
)
# Other per-element methods, aggregated: (module, class, method, metric name).
ELEMENT_METHODS = (
    ("polynomials", "MultiPoly", "__mul__", "polynomials.MultiPoly.mul"),
    ("polynomials", "MultiPoly", "substitute", "polynomials.MultiPoly.substitute"),
    ("polynomials", "Poly1", "gcd", "polynomials.Poly1.gcd"),
)
# Classes whose public methods count as one layer span each.
SPAN_CLASSES = (("cremona", "ReductionChain"), ("cremona", "ChainTransport"))

Span = Tuple[int, int, str, float, float, float]


def _ring_kind(args, kwargs) -> str:
    ring = args[1] if len(args) > 1 else kwargs["ring"]
    return "ratfunc" if type(ring).__name__ == "RatFuncField" else "field"


def _scenario_label(args, kwargs) -> str:
    name = (args[0] if args else kwargs["scenario"]).name
    base = name[: -len("-conjugated")] if name.endswith("-conjugated") else name
    return base if base in ("cubic-omega", "cubic-char3", "quartic-i", "quintic-zeta5") else "file"


class Tracer:
    """Installs the wrappers, records spans and counters, and restores."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.element_self: Dict[str, float] = defaultdict(float)  # module -> self time of element calls
        self._stack: List[list] = []  # open frames [span id or -1, start, inner]
        self._next_id = 1
        self._field_depth = [0]
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------------

    def span_wrapper(self, name: str, fn: Callable, label=None, probe=None) -> Callable:
        stack, spans, perf, counters = self._stack, self.spans, time.perf_counter, self.counters

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] < 0:
                return fn(*args, **kwargs)
            full = name if label is None else f"{name}.{label(args, kwargs)}"
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probe(counters, args, kwargs, result)
                return result
            finally:
                end = perf()
                stack.pop()
                spans.append((sid, parent, full, frame[1], end, frame[2]))

        wrapper.__wrapped__ = fn
        return wrapper

    def element_wrapper(self, name: str, fn: Callable, active=None) -> Callable:
        stack, perf, counters, element_self = self._stack, time.perf_counter, self.counters, self.element_self
        module = name.split(".")[0]
        depth = [0]

        def wrapper(*args, **kwargs):
            if active is not None and not active(args, kwargs):
                return fn(*args, **kwargs)
            counters[name + ".calls"] += 1
            frame = [-1, perf(), 0.0]
            stack.append(frame)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - frame[1]
                stack.pop()
                depth[0] -= 1
                if not depth[0]:
                    counters[name + ".busy_s"] += dur
                element_self[module] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def field_wrapper(self, name: str, fn: Callable) -> Callable:
        """Leaner element wrapper for field arithmetic, which only nests in itself."""
        stack, perf, counters, element_self, depth = (
            self._stack, time.perf_counter, self.counters, self.element_self, self._field_depth
        )
        calls = name + ".calls"

        def wrapper(*args):
            counters[calls] += 1
            if depth[0]:
                return fn(*args)
            depth[0] = 1
            start = perf()
            try:
                return fn(*args)
            finally:
                dur = perf() - start
                depth[0] = 0
                counters["fields.ops"] += 1
                element_self["fields"] += dur
                if stack:
                    stack[-1][2] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in LAYERS}
        replacements: Dict[int, Tuple[object, Callable]] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                label, probe = SPAN_OPTIONS.get(name, (None, None))
                replacements[id(obj)] = (obj, self.span_wrapper(name, obj, label, probe))
        # Rebind at every module that holds the function, the package included.
        holders = list(modules.values()) + [importlib.import_module(PACKAGE)]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(holder, attr, hit[1])
        for short, cls_name in SPAN_CLASSES:
            cls = getattr(modules[short], cls_name)
            for attr, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                    self._patch(cls, attr, self.span_wrapper(f"{short}.{cls_name}", obj))
        element_cls = modules["fields"].FieldElement
        for attr, name in FIELD_OPS:
            self._patch(element_cls, attr, self.field_wrapper(name, vars(element_cls)[attr]))
        for short, cls_name, attr, name in ELEMENT_METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, attr, self.element_wrapper(name, vars(cls)[attr]))
        ratfunc = modules["polynomials"].RatFunc
        self._patch(
            ratfunc,
            "__init__",
            self.element_wrapper("polynomials.RatFunc.reduce", vars(ratfunc)["__init__"], active=_reduces),
        )

    def _patch(self, holder, attr: str, replacement) -> None:
        self._patched.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, replacement)

    def uninstall(self) -> None:
        """Restore every original binding; raise if any did not come back."""
        patched, self._patched = self._patched, []
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)
        for holder, attr, original in patched:
            if vars(holder).get(attr) is not original:
                raise RuntimeError(f"{holder!r}.{attr} was not restored")


def _reduces(args, kwargs) -> bool:
    return kwargs.get("reduce", args[3] if len(args) > 3 else True)


def _count_cells(counters, args, kwargs, result) -> None:
    rows = args[0]
    counters["linalg.rref.cells"] += len(rows) * len(rows[0]) if rows else 0


def _count_kernel(counters, args, kwargs, result) -> None:
    counters["linalg.nullspace.kernel_dim"] += len(result)


def _count_sqrt(counters, args, kwargs, result) -> None:
    counters["fields.sqrt_in_field.decided"] += type(result).__name__ != "Undetermined"


def _count_certified(counters, args, kwargs, result) -> None:
    counters["curves.has_point_of_multiplicity_ge.certified"] += result.verdict is True or result.verdict is False


def _count_mobius(counters, args, kwargs, result) -> None:
    counters["galois.mobius_solver.decided"] += result.status in ("found", "none_proven")


# span name -> (label function or None, probe or None)
SPAN_OPTIONS = {
    "linalg.rref": (_ring_kind, _count_cells),
    "linalg.nullspace": (None, _count_kernel),
    "fields.sqrt_in_field": (None, _count_sqrt),
    "curves.has_point_of_multiplicity_ge": (None, _count_certified),
    "galois.mobius_solver": (None, _count_mobius),
    "scenarios.run_scenario": (_scenario_label, None),
}


# -- analysis -------------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of each span: its duration less its child spans (found
    through the parent links) and the element time recorded inside it."""
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for sid, parent, _name, start, end, _inner in spans:
        if parent:
            child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid] - inner for sid, _p, _n, start, end, inner in spans}


def group_stats(spans: Iterable[Span], names: Iterable[str]) -> Tuple[int, float]:
    """(calls, busy seconds) of the spans named in `names`, where busy time
    counts only calls not nested inside another call of the group."""
    names = set(names)
    spans = list(spans)
    by_id = {s[0]: s for s in spans}
    calls, busy = 0, 0.0
    for sid, parent, name, start, end, _inner in spans:
        if name not in names:
            continue
        calls += 1
        ancestor = parent
        while ancestor and by_id[ancestor][2] not in names:
            ancestor = by_id[ancestor][1]
        if not ancestor:
            busy += end - start
    return calls, busy


def module_self(spans: Iterable[Span], element_self: Dict[str, float]) -> Dict[str, float]:
    """Self seconds per layer module: span self times plus element self times."""
    spans = list(spans)
    out = {m: element_self.get(m, 0.0) for m in LAYERS}
    names = {s[0]: s[2] for s in spans}
    for sid, value in self_times(spans).items():
        out[names[sid].split(".")[0]] += value
    return out


def root_time(spans: Iterable[Span]) -> float:
    return sum(end - start for _sid, parent, _name, start, end, _inner in spans if not parent)
