"""The three load loops.

Each loop drives the public API of ``pipelines/replay`` and
``sinks/lake`` on a primed lake, checks every result it reads against the
oracle, and returns what it measured. All of them run single-threaded in
the benchmark process; only the program's own prefetch thread and Ray
workers run beside them.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field

import pyarrow as pa

from . import data
from .config import DELETED_SHARE, RANGE_SHARE, Workload
from .host import RssSampler
from .spans import Tracer


@dataclass
class Ctx:
    w: Workload
    seed: int
    seconds: float
    lake: object
    rep: object
    log: pa.Table
    rss: RssSampler
    tracer: Tracer | None = None


@dataclass
class Measured:
    """What one run measured, before it is reduced to metrics."""

    t0: float = 0.0                 # ingest phase start (perf_counter)
    t1: float = 0.0                 # ingest phase end
    windows: int = 0
    events: int = 0                 # events applied in the ingest phase
    ingest_s: float = 0.0           # wall time of the ingest call(s)
    freshness: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    backlog: list[int] = field(default_factory=list)
    retried: int = 0
    spooled: int = 0
    compact_errors: int = 0
    lookup_s: list[float] = field(default_factory=list)
    lookup_stats: list[dict] = field(default_factory=list)
    lookups_wrong: int = 0
    lookups_failed: int = 0
    scan_s: list[float] = field(default_factory=list)
    scans_wrong: int = 0
    scans_failed: int = 0
    scan_files: int = 0
    range_s: list[float] = field(default_factory=list)
    range_stats: dict = field(default_factory=dict)
    t_end: float = 0.0              # end of the query phase


def _span(ctx: Ctx, name: str):
    return ctx.tracer.span(name) if ctx.tracer else contextlib.nullcontext()


def _lookup(ctx: Ctx, m: Measured, probe: dict) -> None:
    key = {"repo": probe["key"][0], "path": probe["key"][1]}
    t = time.perf_counter()
    try:
        res = ctx.lake.lookup([key])
    except Exception:  # noqa: BLE001 — counted as a failed operation
        m.lookups_failed += 1
        return
    m.lookup_s.append(time.perf_counter() - t)
    m.lookup_stats.append(dict(ctx.lake.last_lookup_stats))
    m.lookups_wrong += not data.lookup_matches(res, probe["expect"])


def _queries(ctx: Ctx, m: Measured, oracle: data.Oracle, hi: int) -> None:
    """Repeated full scans and newest-seq range scans, each checked."""
    m.scan_files = sum(len(fs) for fs in ctx.lake.live_files().values())
    for _ in range(ctx.w.scans):
        t = time.perf_counter()
        try:
            with _span(ctx, "scan"):
                n = ctx.lake.read().count()
        except Exception:  # noqa: BLE001
            m.scans_failed += 1
            continue
        m.scan_s.append(time.perf_counter() - t)
        m.scans_wrong += n != len(oracle.state)
    ctx.rss.sample()
    lo = hi - int(RANGE_SHARE * hi) + 1
    want = oracle.rows_with_seq_in(lo, hi)
    for _ in range(ctx.w.range_scans):
        t = time.perf_counter()
        try:
            with _span(ctx, "range_scan"):
                n = ctx.lake.scan_range("commit_seq", lo, hi).count()
        except Exception:  # noqa: BLE001
            m.scans_failed += 1
            continue
        m.range_s.append(time.perf_counter() - t)
        m.scans_wrong += n != want
    m.range_stats = dict(getattr(ctx.lake, "last_scan_stats", {}))
    ctx.rss.sample()


def _absorb(m: Measured, out: dict) -> None:
    m.retried += out.get("retried", 0)
    m.spooled += len(out.get("spooled", []))
    m.compact_errors += out.get("compact_errors", 0)


def stream_tail(ctx: Ctx, oracle: data.Oracle) -> Measured:
    """Open loop: window k is due at t0 + k * window / rate; at its due
    time, or at once when behind, apply it with one run_streaming call,
    then look up one of its keys (read-your-writes)."""
    w = ctx.w
    n = w.tail_windows(ctx.seconds)
    bounds = [(w.prime + k * w.window, w.prime + (k + 1) * w.window) for k in range(n)]
    probes = data.window_probes(ctx.log, bounds, ctx.seed)
    period = w.window / w.rate
    m = Measured()
    m.t0 = time.perf_counter()
    for k, (lo, hi) in enumerate(bounds, start=1):
        due = m.t0 + k * period
        now = time.perf_counter()
        if now < due:
            ctx.rss.sample()  # idle slack: sampling here delays nothing
            time.sleep(max(0.0, due - time.perf_counter()))
        start = time.perf_counter()
        m.late.append(start - due)
        m.backlog.append(int((start - m.t0) / period) - (k - 1))
        out = ctx.rep.run_streaming(max_seq=hi)
        ret = time.perf_counter()
        m.ingest_s += ret - start
        m.freshness.append(ret - due)
        _absorb(m, out)
        _lookup(ctx, m, probes[k - 1])
    m.t1 = time.perf_counter()
    m.windows = n
    m.events = n * w.window
    ctx.rss.sample()
    _queries(ctx, m, oracle, bounds[-1][1])
    m.t_end = time.perf_counter()
    return m


def _commit_gaps(lake, lo: int, t0_wall: float) -> list[float]:
    """Closed loops: a window is due when the loop is ready for it — at
    the start for the first, at the previous window's commit after that —
    so its freshness is the gap between consecutive ledger commits (the
    row file's mtime), maintenance stalls included."""
    commits = sorted(
        os.stat(os.path.join(lake.ledger.dir, f"{e['_seq']:08d}.json")).st_mtime
        for e in lake.ledger.entries()
        if e["kind"] == "window" and int(e["lo"]) >= lo
    )
    return [b - a for a, b in zip([t0_wall, *commits], commits)]


def _closed(ctx: Ctx, oracle: data.Oracle, ingest) -> Measured:
    w = ctx.w
    probes = data.final_probes(ctx.log, oracle, w.lookups, DELETED_SHARE, ctx.seed)
    m = Measured()
    t0_wall = time.time()
    m.t0 = time.perf_counter()
    out = ingest()
    m.t1 = time.perf_counter()
    m.ingest_s = m.t1 - m.t0
    m.events = w.backlog
    m.windows = out["windows"]
    _absorb(m, out)
    m.freshness = _commit_gaps(ctx.lake, w.prime, t0_wall)
    ctx.rss.sample()
    for p in probes:
        _lookup(ctx, m, p)
    ctx.rss.sample()
    _queries(ctx, m, oracle, w.prime + w.backlog)
    m.t_end = time.perf_counter()
    return m


def stream_catchup(ctx: Ctx, oracle: data.Oracle) -> Measured:
    """Closed loop: one run_streaming call replays the backlog in small
    windows with in-loop compaction, splitting and vacuum."""
    w = ctx.w
    return _closed(ctx, oracle, lambda: ctx.rep.run_streaming(
        max_seq=w.prime + w.backlog,
        compact_every=w.compact_every,
        compact_min_files=w.compact_min_files,
        split_over_bytes=w.split_over_bytes,
    ))


def batch_replay(ctx: Ctx, oracle: data.Oracle) -> Measured:
    """Closed loop: Replayer.run replays the backlog in large windows
    with its default compaction."""
    w = ctx.w
    return _closed(ctx, oracle, lambda: ctx.rep.run(max_seq=w.prime + w.backlog))


LOOPS = {"tail": stream_tail, "catchup": stream_catchup, "batch": batch_replay}
