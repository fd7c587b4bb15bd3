"""Per-layer tracing installed from outside the program.

Every public function of the layer modules is replaced, in every sqflows
namespace that holds it, by a wrapper that times the call.  The carrier and
polynomial operations and ``FlowFunction.__call__`` are wrapped on their
classes.  Times are thread CPU seconds, so that the worker threads of
``verify --jobs`` do not count the time they wait for the interpreter lock.

A span's self time is its duration minus the time of the spans it encloses
in the same thread; the self times of all layers therefore add up to the time
spent inside the outermost spans.  Spans are folded into per-layer and
per-function totals as they close instead of being stored one by one: a
single operation makes hundreds of thousands of semiring calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("network", "semiring", "flows", "matchings", "relations",
          "counterexample", "doubleflow", "laurent", "cli")

# Methods wrapped on their class: (module, class, method names, function name).
METHODS = (
    ("semiring", "Carrier", ("add",), "semiring.add"),
    ("semiring", "Carrier", ("mul",), "semiring.mul"),
    ("semiring", "Carrier", ("div",), "semiring.div"),
    ("semiring", "Carrier", ("neg",), "semiring.neg"),
    ("semiring", "Poly", ("__mul__", "__rmul__"), "semiring.poly_mul"),
    ("semiring", "Poly", ("__add__", "__radd__"), "semiring.poly_add"),
)

# Work counters read off results: function name -> (counter, size of result).
RESULT_COUNTERS = {
    "matchings.enumerate_feasible_matchings": ("matchings.matchings_enumerated", len),
    "matchings.enumerate_nested_matchings": ("matchings.matchings_enumerated", len),
    "counterexample.build_gadget_network":
        ("counterexample.gadget_vertices", lambda r: len(r.network.vertices)),
    "laurent.laurent_expand": ("laurent.monomials", lambda r: len(r.monomials)),
}

clock = time.thread_time


class _ThreadState:
    __slots__ = ("stack", "self_s", "fn_self_s", "calls", "counts")

    def __init__(self):
        self.stack: list[float] = []  # time of enclosed spans, per open span
        self.self_s: defaultdict = defaultdict(float)  # layer -> self time
        self.fn_self_s: defaultdict = defaultdict(float)  # function -> self time
        self.calls: Counter = Counter()  # function -> calls
        self.counts: Counter = Counter()  # work counters


class Tracer:
    """Per-thread span accounting, merged by :meth:`totals`."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    def wrap(self, fn, layer: str, name: str):
        tracer = self
        counter, size = RESULT_COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer.state()
            stack = st.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                st.self_s[layer] += own
                st.fn_self_s[name] += own
                st.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if counter:
                st.counts[counter] += size(result)
            return result

        return traced

    def totals(self):
        """(layer self time, function self time, function calls, counters)."""
        merged = [Counter() for _ in range(4)]
        for st in self._states:
            for total, part in zip(merged, (st.self_s, st.fn_self_s, st.calls, st.counts)):
                total.update(part)
        return tuple(merged)


def install(sqflows_pkg) -> Tracer:
    """Wrap the layers of an imported sqflows package; returns the tracer."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"sqflows.{layer}") for layer in LAYERS}
    layer_of = {mod.__name__: layer for layer, mod in modules.items()}
    wrapped: dict[int, object] = {}

    for namespace in (sqflows_pkg, *modules.values()):
        for name, obj in list(vars(namespace).items()):
            if (
                name.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ not in layer_of
                or inspect.isgeneratorfunction(obj)
            ):
                continue
            if id(obj) not in wrapped:
                layer = layer_of[obj.__module__]
                wrapped[id(obj)] = tracer.wrap(obj, layer, f"{layer}.{obj.__name__}")
            setattr(namespace, name, wrapped[id(obj)])

    for module, cls_name, methods, name in METHODS:
        cls = getattr(modules[module], cls_name)
        for method in methods:
            setattr(cls, method, tracer.wrap(vars(cls)[method], module, name))

    flow_function = modules["flows"].FlowFunction
    call = flow_function.__call__

    def fgf_call(self, I):
        if frozenset(I) in getattr(self, "_memo", ()):
            tracer.state().counts["flows.fgf_memo_hits"] += 1
        return call(self, I)

    flow_function.__call__ = tracer.wrap(fgf_call, "flows", "flows.FlowFunction.__call__")

    # Path systems are generated only on a miss of the enumeration caches, so
    # counting them counts the flows actually enumerated.  The memo and the
    # generator are internals: without them the counters read 0.
    flows = modules["flows"]
    systems = getattr(flows, "_systems", None)
    if systems is not None:
        def counted_systems(*args):
            counts = tracer.state().counts
            for system in systems(*args):
                counts["flows.flows_enumerated"] += 1
                yield system

        flows._systems = counted_systems
    return tracer
