"""Stdlib span recorder for the benchmark's traced runs.

Spans are recorded from outside the program: :func:`Recorder.wrap` replaces a
public function attribute (a module global or a class method) with a wrapper
that opens a span, calls the original, and closes the span. Each span is
``[name, start, end, parent]`` with ``parent`` the index of the enclosing span
(or -1). Spans stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the part of its interval covered by
its child spans (:func:`self_times`).
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict


class Recorder:
    """In-memory spans plus per-name lists of values noted by the wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.values: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(args, kwargs, result)``, when given, runs once the span has
        closed, inside a ``bench.check`` span of its own so the time it takes
        is charged to no layer.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                check = self.open("bench.check")
                try:
                    after(args, kwargs, result)
                finally:
                    self.close(check)
            return result

        setattr(owner, attr, wrapper)

    def mark_first_call(self, targets, name: str, then=None) -> None:
        """Record a zero-length span ``name`` at the first call to any of
        ``targets`` ((owner, attr) pairs), restore every target, and call
        ``then()`` (when given) before calling through."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]

        def restore():
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

        for owner, attr, fn in originals:
            def marker(*args, _fn=fn, **kwargs):
                now = self.clock()
                parent = self._stack[-1] if self._stack else -1
                self.spans.append([name, now, now, parent])
                restore()
                if then is not None:
                    then()
                return _fn(*args, **kwargs)
            setattr(owner, attr, marker)


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        intervals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(i, ()))
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
