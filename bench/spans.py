"""Stdlib span recorder for the traced benchmark run.

Spans follow the OpenTelemetry trace model: each has a name, a start, an
end and the span that caused it (the one open when it started). They are
kept in memory and aggregated per name: calls, total time and self time
(duration minus the time covered by child spans). Counters are recorded
at the same boundaries, from each call's arguments and result.

Wrappers are installed from outside the program. A module that did
`from .x import f` holds its own binding of `f`, so every binding of the
original function in every smartconn module is replaced, which puts the
wrapper where each caller looks the name up.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    ns: int = 0
    self_ns: int = 0


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: Counter[str] = Counter()
        # per-call durations, in call order, of the spans whose growth is reported
        self.series: dict[str, list[int]] = defaultdict(list)
        self._child_ns: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.series.clear()

    def wrap(self, name, fn, on_result=None, timed=True, keep_series=False):
        """A wrapper around fn that records a span called `name` (or only
        a call count when timed is False) while the tracer is active.
        on_result(counts, result, args) adds the call's counters."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if not timed:
                result = fn(*args, **kwargs)
                tracer.spans[name].calls += 1
                if on_result is not None:
                    on_result(tracer.counts, result, args)
                return result
            stack = tracer._child_ns
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ns = time.perf_counter_ns() - start
                child = stack.pop()
                if stack:
                    stack[-1] += ns
                stats = tracer.spans[name]
                stats.calls += 1
                stats.ns += ns
                stats.self_ns += ns - child
                if keep_series:
                    tracer.series[name].append(ns)
            if on_result is not None:
                on_result(tracer.counts, result, args)
            return result

        traced.__wrapped__ = fn
        return traced


def install_function(tracer: Tracer, modules, origin, attr: str, name: str, **kw) -> int:
    """Replace every binding of origin.<attr> in `modules` with one wrapper;
    returns how many bindings were replaced."""
    original = getattr(origin, attr)
    wrapper = tracer.wrap(name, original, **kw)
    replaced = 0
    for module in modules:
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)
            replaced += 1
    return replaced


def install_method(tracer: Tracer, cls, attr: str, name: str, **kw) -> None:
    setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **kw))


def growth(durations: list[int]) -> float:
    """Mean of the last tenth of the calls over the mean of the first
    tenth; 0.0 when the span was never called."""
    if not durations:
        return 0.0
    k = max(1, len(durations) // 10)
    return (sum(durations[-k:]) / k) / (sum(durations[:k]) / k)
