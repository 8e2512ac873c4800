"""In-memory span tracer for the benchmark's traced runs.

A span is one call of a wrapped function: its name, start, end, the index
of the span that was open when it started (its parent) and an optional
note taken from the return value.  Spans stay in a list until the run
ends.  A span's self time is its duration minus the durations of its
direct children, so the self times of a tree add up to its root's
duration.
"""

from __future__ import annotations

import functools
import time

_now = time.perf_counter


class Tracer:
    """Records spans around wrapped callables; ``restore`` undoes the wraps."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, note]
        self._stack = []
        self._patches = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _now(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, note=None) -> None:
        span = self.spans[idx]
        span[2] = _now()
        span[4] = note
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``note(result)`` keeps a small summary of the return value.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer.close(idx, note(out) if note is not None and out is not None else None)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Self time of every span, in the order of ``spans``."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def root_of(self) -> list[int]:
        """Index of each span's root span."""
        roots = []
        for i, s in enumerate(self.spans):
            roots.append(i if s[3] < 0 else roots[s[3]])
        return roots


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    class Box:
        @staticmethod
        def f():
            return 1

    plain = Box.f
    t0 = _now()
    for _ in range(calls):
        plain()
    t_plain = _now() - t0
    tracer = Tracer()
    tracer.wrap(Box, "f", "noop")
    traced = Box.f
    t0 = _now()
    for _ in range(calls):
        traced()
    t_traced = _now() - t0
    tracer.restore()
    return max(t_traced - t_plain, 0.0) / calls
