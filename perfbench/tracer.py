"""Spans around the package's public functions, installed from outside.

Tracer.install() replaces every public function of fuchsian where a module
binds it (so fuchsian.builder.eliminate and fuchsian.dimension.eliminate are
wrapped separately, and calls inside a module go through its own binding),
plus Polynomial.shift.  Each call records a span (name, start, end, parent
span, op id, size) that stays in memory until the run ends.  The
GaussianRational arithmetic methods (+ - * / and their reflections) are
counted and timed but record no span: there are tens of thousands per op.

A layer is the module that defines a function.  A layer's self time is the
time of its spans minus the time of their child spans, and arithmetic
self time belongs to the scalars layer.  Inclusive time of a name sums its
outermost calls only, so recursion is not counted twice.

uninstall() restores every original binding.  Nothing here touches the
package's files; the wrappers exist only while installed.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import Counter
from time import perf_counter

LAYERS = (
    "builder", "cli", "dimension", "frobenius", "linalg",
    "model", "polynomials", "sampling", "scalars",
)
SCALAR_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)


def _matrix_cells(matrix, *args, **kwargs) -> int:
    """Size recorded on an eliminate span."""
    return matrix.rows * matrix.cols


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id, size)
        self.calls = Counter()
        self.inclusive_s = Counter()
        self.self_s = Counter()  # by layer
        self.scalar_ops = 0
        self.op = None
        self._stack = []  # open frames: [span index, seconds spent in children]
        self._open = Counter()  # open spans per name
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from fuchsian.polynomials import Polynomial
        from fuchsian.scalars import GaussianRational

        modules = [importlib.import_module("fuchsian")]
        modules += [importlib.import_module(f"fuchsian.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("fuchsian."):
                    continue
                layer = value.__module__.rsplit(".", 1)[1]
                self._patch(module, attr, self._span(f"{layer}.{value.__name__}", layer, value))
        self._patch(
            Polynomial, "shift", self._span("polynomials.shift", "polynomials", Polynomial.shift)
        )
        for attr in SCALAR_METHODS:
            self._patch(GaussianRational, attr, self._scalar(vars(GaussianRational)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, layer: str, fn):
        spans, stack, open_ = self.spans, self._stack, self._open
        calls, inclusive, self_s = self.calls, self.inclusive_s, self.self_s
        size_of = _matrix_cells if name == "linalg.eliminate" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else None
            size = size_of(*args, **kwargs) if size_of else None
            frame = [index, 0.0]
            spans.append(None)
            stack.append(frame)
            open_[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_[name] -= 1
                elapsed = end - start
                spans[index] = (name, start, end, parent, self.op, size)
                calls[name] += 1
                if not open_[name]:
                    inclusive[name] += elapsed
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _scalar(self, fn):
        stack, self_s = self._stack, self.self_s

        @functools.wraps(fn)
        def wrapper(a, b):
            frame = [None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(a, b)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.scalar_ops += 1
                self_s["scalars"] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    # -- queries -------------------------------------------------------------

    def max_size(self, name: str) -> int:
        return max((s[5] for s in self.spans if s[0] == name and s[5] is not None), default=0)

    def calls_by_op(self, name: str) -> Counter:
        return Counter(s[4] for s in self.spans if s[0] == name)
