"""Span tracing from outside the program.

The tracer replaces public entry points with timing wrappers for the length
of one traced repetition and puts the originals back afterwards; nothing in
the package is edited. Each name is patched where its callers look it up:
``netsim.plan_round`` rather than ``scanner.plan_round``, because the event
loop calls the name it imported. Private helpers are left alone, which keeps
the per-call cost off functions that run millions of times.

A span is ``(name, start, end, parent, op)``: ``parent`` indexes the
enclosing span (-1 at top level) and ``op`` numbers the workload operation
that caused it. Spans stay in memory until the run ends.
"""

import functools
import math
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = 0
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr with a span-recording wrapper.

        count(counts, result, args, kwargs) may add work counters taken
        from the call's own arguments and result.
        """
        original = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(counts, result, args, kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def span_totals(spans, first=0):
    """Per span name: calls, inclusive seconds, self seconds.

    Self time is a span's duration minus the time its direct children
    cover; children never outlive their parent in a single thread.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _op in spans[first:]:
        if parent >= first:
            child_time[parent] += end - start
    totals = {}
    for idx in range(first, len(spans)):
        name, start, end, _parent, _op = spans[idx]
        calls, incl, own = totals.get(name, (0, 0.0, 0.0))
        dur = end - start
        totals[name] = (calls + 1, incl + dur, own + dur - child_time[idx])
    return totals


def write_spans(path, spans, first=0):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start,end,parent,op\n")
        for idx in range(first, len(spans)):
            name, start, end, parent, op = spans[idx]
            fh.write("%d,%s,%.9f,%.9f,%d,%d\n" % (idx, name, start, end, parent, op))


def quantile_summary(samples):
    """Median plus the highest of p99.9/p99/p95/p90/p75 that still has at
    least ten samples above it (None when there are too few samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return {"n": 0, "median": None, "p": None, "p_value": None}
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(p / 100.0 * n) - 1
        if n - 1 - rank >= 10:
            return {"n": n, "median": median, "p": p, "p_value": ordered[rank]}
    return {"n": n, "median": median, "p": None, "p_value": None}
