"""Span shims installed from outside the program.

A :class:`Tracer` replaces public names where the library looks them up
(module globals such as ``slhforge.cli.integrate_master`` and class
attributes such as ``OpPolynomial.evaluate``) with wrappers that record a
span per call: name, parent span, start and end.  Spans stay in memory and
are written out once at the end.  A layer's self time is its spans'
duration minus the time covered by their child spans, so the self times of
every span under a root add up to the root's duration exactly.

An untraced run never constructs a Tracer, so it runs unmodified code.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one entry per span, in typed arrays to keep a long run's spans small
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def count(self, key: str, n: float = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key: str, value: int):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(tracer, args, result)``
        runs once the span has closed, so its cost lands in the parent."""
        nid = self._name_id(name)
        names, parents, t0s, t1s, stack = (self.span_name, self.span_parent,
                                           self.span_t0, self.span_t1, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0s)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def root(self, fn, *args):
        """Run ``fn(*args)`` as a root span ``harness``; return its value
        and the span's duration in seconds."""
        idx = len(self.span_t0)
        value = self.wrap("harness", fn)(*args)
        return value, self.span_t1[idx] - self.span_t0[idx]

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def counter(self, owner, attr: str, key: str):
        """Count calls of ``owner.attr`` without opening a span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def _durations(self) -> np.ndarray:
        return np.frombuffer(self.span_t1) - np.frombuffer(self.span_t0)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        if not self.span_t0:
            return {}
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = self._durations()
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return {n: float(own[k]) for k, n in enumerate(self.names)}

    def call_counts(self) -> dict[str, int]:
        hist = np.bincount(np.frombuffer(self.span_name, dtype=np.int32),
                           minlength=len(self.names))
        return {n: int(hist[k]) for k, n in enumerate(self.names)}

    def root_wall(self) -> float:
        roots = np.frombuffer(self.span_parent, dtype=np.int32) < 0
        return float(np.sum(self._durations()[roots]))

    def dump(self, path: str):
        """Write every span to an ``.npz`` file: ``name`` indexes ``names``,
        ``parent`` is the index of the parent span (-1 for a root), and
        ``start_s``/``end_s`` are perf_counter readings."""
        np.savez(path, names=np.array(self.names), name=np.asarray(self.span_name),
                 parent=np.asarray(self.span_parent), start_s=np.asarray(self.span_t0),
                 end_s=np.asarray(self.span_t1))
