"""Per-layer spans for the traced run, installed from outside the package.

A layer is one module of ``src/gradweil``.  `Tracer.install` replaces every
public function of a layer module, and every public method or arithmetic
operator of a class defined there, by a wrapper that counts calls and
measures self time: the span's wall time minus the part covered by the spans
it caused.  Self time falls into the span that ran the code, so a layer's
self time is the sum over its spans, and time spent in private helpers
counts toward the public function that called them.

A function imported by name (``from .forms import mat_mul`` in
``connections``, ``from .linalg import solve`` in ``chernweil``) is a second
reference to the same object, so patching the defining module alone would
miss those calls.  The wrapper is therefore also bound under every name in
every ``gradweil`` module that refers to the original.  `uninstall` puts the
originals back, so the untraced run and the checks never see a wrapper.

Spans are aggregated in memory by name: a call count and summed self time.
A few spans also keep size counters (matrix cells, constant operands, zero
results, repeated curvature) that the report turns into shares.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("ring", "linalg", "algebroid", "forms", "connections", "chernweil",
          "constructions", "problems", "cli")

# Operators that carry a layer's arithmetic; other dunders are plumbing.
_OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__",
                        "__mul__", "__rmul__", "__neg__", "__pow__", "__eq__"})

POLY_MUL = "ring.Poly.__mul__"
RREF = "linalg.rref"
ALGEBROID_D = "algebroid.Algebroid.d"
CURVATURES = ("connections.LinearConnection.curvature",
              "connections.ConnectionUpToHomotopy.curvature")


class Tracer:
    """Wrap the layers of an imported ``gradweil`` package on demand."""

    def __init__(self):
        modules = {layer: sys.modules[f"gradweil.{layer}"] for layer in LAYERS}
        # originals for the counters, taken before any wrapper is bound
        self._poly_is_constant = modules["ring"].Poly.is_constant
        self._form_is_zero = modules["forms"].Form.is_zero
        self.stats = {}          # span name -> [calls, self_ns]
        self.counters = {}       # counter name -> int
        self._stack = [0]        # child time (ns) of each open span
        self._curved = []        # instances curved in the current op
        self._curved_ids = set()
        self._patches = []       # (owner, attribute, original, wrapper)
        wrappers = {}            # id(original function) -> (original, wrapper)
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrapped(layer, obj, wrappers)
                    self._patches.append((module, name, obj, wrapper))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, wrappers)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "gradweil"
                                      or module_name.startswith("gradweil.")):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patch = (module, name, obj, hit[1])
                    if patch not in self._patches:
                        self._patches.append(patch)

    def _wrap_class(self, layer, cls, wrappers):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(self._wrapped(layer, raw.__func__, wrappers))
            elif inspect.isfunction(raw):
                wrapper = self._wrapped(layer, raw, wrappers)
            else:
                continue
            self._patches.append((cls, name, raw, wrapper))

    def _wrapped(self, layer, fn, wrappers):
        hit = wrappers.get(id(fn))
        if hit is not None:
            return hit[1]
        name = f"{layer}.{fn.__qualname__}"
        stat = self.stats.setdefault(name, [0, 0])
        hooks = {POLY_MUL: (self._count_constant_operands, None),
                 RREF: (self._count_matrix, None),
                 ALGEBROID_D: (None, self._count_zero_form)}.get(name)
        if name in CURVATURES:
            hooks = (self._count_repeat_curvature, None)
        wrapper = (_span(fn, stat, self._stack) if hooks is None
                   else _hooked_span(fn, stat, self._stack, *hooks))
        wrappers[id(fn)] = (fn, wrapper)
        return wrapper

    # -- size counters --------------------------------------------------------

    def _bump(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _count_constant_operands(self, args, kwargs):
        left, right = args[0], args[1]
        is_constant = self._poly_is_constant
        if is_constant(left) and (not isinstance(right, type(left))
                                  or is_constant(right)):
            self._bump("ring.poly_mul.const")

    def _count_matrix(self, args, kwargs):
        matrix = args[0] if args else kwargs["matrix"]
        rows = len(matrix)
        cells = rows * (len(matrix[0]) if rows else 0)
        self._bump("linalg.rref.cells", cells)
        self._bump("linalg.rref.nonzeros", sum(1 for row in matrix for v in row if v))
        self.counters["linalg.rref.max_cells"] = max(
            cells, self.counters.get("linalg.rref.max_cells", 0))

    def _count_zero_form(self, args, kwargs, result):
        if self._form_is_zero(result):
            self._bump("algebroid.d.zero")

    def _count_repeat_curvature(self, args, kwargs):
        instance = args[0]
        if id(instance) in self._curved_ids:
            self._bump("connections.curvature.repeat")
        else:
            # holding the instance keeps its id unique until the op ends
            self._curved.append(instance)
            self._curved_ids.add(id(instance))

    # -- lifecycle --------------------------------------------------------------

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    def begin_op(self):
        self._stack[:] = [0]
        self._curved.clear()
        self._curved_ids.clear()

    def end_op(self):
        self._curved.clear()
        self._curved_ids.clear()


def _span(fn, stat, stack):
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack.append(0)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stat[0] += 1
            stat[1] += elapsed - stack.pop()
            stack[-1] += elapsed

    return wrapper


def _hooked_span(fn, stat, stack, before, after):
    """A span whose size counters run outside every span's self time."""
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = clock()
        if before is not None:
            before(args, kwargs)
        stack.append(0)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stat[0] += 1
            stat[1] += elapsed - stack.pop()
            # the parent sees the counter as part of a child span
            stack[-1] += start - outer + elapsed
        if after is not None:
            after_start = clock()
            after(args, kwargs, result)
            stack[-1] += clock() - after_start
        return result

    return wrapper
