"""In-memory spans and the order statistics the benchmark reports.

A span is (id, name, start, end, parent id, attrs). Spans live in a list
and are written out once, when the run ends. Parents come from a
per-thread stack, so a span opened on the streaming prefetch thread is a
root of its own and never a child of the main loop's spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self) -> int | None:
        st = self._stack()
        return st[-1] if st else None

    @contextmanager
    def span(self, name: str, **attrs):
        sp = Span(next(self._ids), name, 0.0, 0.0, self.current(), attrs)
        st = self._stack()
        st.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            st.pop()
            self.spans.append(sp)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records a span
        around every call; ``restore`` puts the original back."""
        orig = owner.__dict__[attr]

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def wrap_generator(self, owner: object, attr: str, name: str) -> None:
        """Like ``wrap`` for a generator function: the span is linked to
        the span open at creation and counts the items yielded in
        ``attrs["items"]``. It is not pushed on the stack, because the
        consumer runs between yields."""
        orig = owner.__dict__[attr]

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            sp = Span(next(self._ids), name, time.perf_counter(), 0.0,
                      self.current(), {"items": 0})
            try:
                for item in orig(*args, **kwargs):
                    sp.attrs["items"] += 1
                    yield item
            finally:
                sp.end = time.perf_counter()
                self.spans.append(sp)

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in sorted(self.spans, key=lambda s: s.id)], f)


def span_cost_s(n: int = 20_000) -> float:
    """Bookkeeping seconds one traced call adds, measured on a no-op."""

    class Probe:
        def noop(self):
            return None

    probe = Probe()
    t0 = time.perf_counter()
    for _ in range(n):
        probe.noop()
    bare = time.perf_counter() - t0
    tr = Tracer()
    tr.wrap(Probe, "noop", "noop")
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            probe.noop()
        traced = time.perf_counter() - t0
    finally:
        tr.restore()
    return max(0.0, (traced - bare) / n)


class Tree:
    """Parent/child index over a finished span list."""

    def __init__(self, spans: list[Span]) -> None:
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def ancestors(self, s: Span):
        p = s.parent
        while p is not None and p in self.by_id:
            yield self.by_id[p]
            p = self.by_id[p].parent

    def under(self, s: Span, prefix: str) -> bool:
        """True if an ancestor's name starts with ``prefix``."""
        return any(a.name.startswith(prefix) for a in self.ancestors(s))

    def self_time(self, s: Span) -> float:
        return self_time(s, self.children.get(s.id, []))


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of it its children cover.
    Overlapping children count once; parts outside the span not at all."""
    ivs = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    )
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in ivs:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span.dur - covered


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail_percentile(values, min_beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``min_beyond`` samples above
    it: (value, percentile). With n samples sorted ascending that is the
    sample at index n - 1 - min_beyond, the p = 100 * (n - min_beyond) / n
    percentile. When that would fall below the median (n < 2 * min_beyond)
    the sample supports no tail, and the median is returned, labelled p50."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    if n < 2 * min_beyond:
        return statistics.median(xs), 50.0
    return xs[n - 1 - min_beyond], 100.0 * (n - min_beyond) / n
