"""In-memory span recording and the arithmetic the traced run reports.

A span is one call: its name, start and end on ``time.perf_counter``, and
the index of the span that was open when it began (``-1`` for a root).
``Tracer.wrap`` turns a function into one that records a span per call;
nothing is written anywhere until the benchmark summarises the spans.

This module imports nothing from the program under test, so the
arithmetic here can be checked on hand-built spans.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for calls made through ``wrap``ped functions.

    One caller, one thread: the open-span stack is plain list state.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def current(self) -> str | None:
        """Name of the innermost open span, or None outside every span."""
        return self.spans[self._open[-1]].name if self._open else None

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self._open.pop()
        self.spans[index] = self.spans[index]._replace(end=self.clock())

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        index = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span minus the time its direct children cover.

    Children of one span run one after another (a single caller), so their
    durations add without overlap; the self times of all spans therefore
    sum to the total duration of the root spans.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    out: dict[str, float] = defaultdict(float)
    for span, child_time in zip(spans, covered):
        out[span.name] += span.duration - child_time
    return dict(out)


def call_counts(spans: list[Span]) -> Counter:
    return Counter(span.name for span in spans)


def overhead_frac(traced_s: list[float], untraced_s: list[float]) -> float:
    """Median traced task time over median untraced task time."""
    return statistics.median(traced_s) / statistics.median(untraced_s)


def tape_nodes(root) -> int:
    """Count the recorded operations in the autodiff graph below ``root``.

    The walk follows the same edges ``moce.tensor.backward`` replays: from a
    tensor to each entry of its ``_parents`` that has ``requires_grad`` set,
    visiting every tensor once. A tensor counts when it carries a backward
    rule (``_backward_fn`` is not None), which is exactly an operation the
    engine recorded on the tape; parameters and constants are leaves and do
    not count. An operation run without recording (no parents, no rule)
    counts zero, so skipping the tape at inference reads as 0. The walk only
    reads the graph; it must run before ``backward``, which consumes it.
    """
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        node = stack.pop()
        if getattr(node, "_backward_fn", None) is not None:
            count += 1
        for parent in getattr(node, "_parents", ()):
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count
