"""In-memory call spans around module attributes, and self-time arithmetic.

The tracer replaces a module attribute (the name a caller looks up, such as
``illushape.solver.cg_solve``) with a wrapper that records one span per
call: name, start, end, the index of the enclosing span and the run id
shared by every span of one job.  Nothing in the
program changes; ``restore`` puts the original attributes back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run_id: str


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` wrapped to record a span; ``on_return`` sees each result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = Span(name, time.perf_counter(), float("nan"), parent, self.run_id)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, on_return=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_return))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed duration, summed self time and call count."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
    for s, own in zip(spans, selfs):
        row = table[s.name]
        row["total_s"] += s.end - s.start
        row["self_s"] += own
        row["calls"] += 1
    return dict(table)
