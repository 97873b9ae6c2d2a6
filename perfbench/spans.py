"""Spans and counters recorded at fdrelay's layer boundaries.

The tracer replaces module attributes with thin wrappers for the duration of
a ``with`` block.  Layers look each other up through module attributes at
call time (``solver.solve_network``, ``model._rate_exact_vals``, ...), so a
wrapper installed on the attribute sees every call that crosses the boundary
without any change to the package.  Each wrapped call appends one span
(id, parent id, name, start, end) to flat arrays kept in memory; hooks add
counts (points evaluated, iterations, bytes written) at the same boundary.
"""

from __future__ import annotations

import collections
import itertools
from array import array
from time import perf_counter

import numpy as np


class Patches:
    """Module attributes replaced until ``restore`` (or the ``with`` exit)."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer(Patches):
    """Span recorder.  One instance traces one pass; ``aggregate`` sums it."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._stack = [0]

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, module, attr, name, hook=None, span=True, name_of=None):
        """Wrap ``module.attr``.  ``hook(tracer, args, kwargs, result)`` adds
        counts; ``name_of(args, kwargs)`` picks the span name per call (used
        to split one function's spans by scenario).  ``span=False`` records
        counts only, so the caller's self time keeps the callee's cost."""
        original = getattr(module, attr)
        if not span:
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                hook(self, args, kwargs, result)
                return result
            self.replace(module, attr, counted)
            return

        fixed = None if name_of else self.code(name)
        stack, ids = self._stack, self._ids
        a_id, a_parent, a_name = self.span_id.append, self.parent.append, self.name.append
        a_start, a_end = self.start.append, self.end.append

        def traced(*args, **kwargs):
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            a_id(sid)
            a_parent(stack[-1])
            a_name(self.code(name_of(args, kwargs)) if name_of else fixed)
            a_start(t0)
            a_end(t1)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        self.replace(module, attr, traced)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (duration
        minus the part covered by direct child spans)."""
        ids = np.frombuffer(self.span_id, dtype=np.int64)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        # ids count up in call order; a call that raised leaves a gap
        child = np.zeros(int(ids.max(initial=0)) + 1)
        np.add.at(child, parents, dur)
        self_time = dur - child[ids]
        out = {}
        for code, name in enumerate(self.names):
            sel = names == code
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum())}
        return out

    def spans(self) -> dict[str, np.ndarray]:
        """The raw spans as arrays, for writing to disk at exit."""
        return {"id": np.frombuffer(self.span_id, dtype=np.int64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy()}
