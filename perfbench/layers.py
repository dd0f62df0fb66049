"""Per-layer metrics for the traced run.

``install`` wraps the public calls into each layer of the program —
``pipelines/replay``, ``sinks/lake`` and ``state/ledger`` — with spans
recorded from this file; the program itself carries no tracing.
``derive`` turns the finished spans and the lake's own ledger into the
per-layer metrics, and ``primitives`` times the prep and fold/write
primitives in-process on the workload's own windows.
"""

from __future__ import annotations

import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

from .spans import Tracer, Tree, median, tail_percentile

READ = "replay.read"
APPLY = "lake.apply"
SCHEMA = "lake.schema"
LEDGER = "ledger."
ITER = "ledger.iter_entries_desc"
NEXT_SEQ = "ledger.next_seq"
MAINT = "maint."
LOOKUP = "lookup"
SCAN = "scan"
RANGE_SCAN = "range_scan"

# per-layer metric -> unit, in BENCHMARK.json order; the first six are
# the user-facing timings, measured here with tracing on
PER_LAYER = {
    "events_per_s": "ev/s", "freshness_p50_s": "s", "freshness_tail_s": "s",
    "lookup_p50_s": "s", "scan_s": "s", "range_scan_s": "s",
    "replay.read_s": "s", "replay.read_rows_per_s": "rows/s", "replay.init_s": "s",
    "lake.apply_s": "s", "lake.apply_self_s": "s", "lake.schema_s": "s",
    "lake.files_per_window": "count", "lake.rows_out_per_event": "ratio",
    "lake.partition_skew": "ratio",
    "prep.pad_and_cast_rows_per_s": "rows/s", "prep.hash_route_rows_per_s": "rows/s",
    "prep.pre_reduce_rows_per_s": "rows/s", "write.parquet_mb_per_s": "MB/s",
    "write.bloom_s_per_file": "s", "write.zone_stats_s_per_file": "s",
    "ledger.s_per_window": "s", "ledger.rows_parsed_per_window": "count",
    "ledger.rows_parsed_last_window": "count", "ledger.dir_lists_per_window": "count",
    "ledger.append_s": "s", "ledger.s_per_lookup": "s", "ledger.rows_end": "count",
    "maint.calls": "count", "maint.s_total": "s", "maint.compact_s": "s",
    "maint.split_s": "s", "maint.vacuum_s": "s", "maint.bytes_rewritten": "bytes",
    "maint.files_removed": "count",
    "lookup.files_read": "count", "lookup.bloom_probes": "count", "lookup.self_s": "s",
    "lookup.tail_s": "s", "scan.files": "count", "range_scan.files_full": "count",
    "range_scan.files_narrow": "count",
    "tail.backlog_max_windows": "count", "tail.gen_late_p50_s": "s",
    "setup.ray_init_s": "s", "setup.warm_up_s": "s", "setup.lake_s": "s",
    "ray.task_rtt_s": "s", "host.membw_gbps": "GB/s", "trace.overhead": "ratio",
}

LEDGER_CALLS = ("append", "entries", "live_files", "splits",
                "last_committed_hi", "next_seq", "checkpoint")
MAINT_CALLS = {"maintain": "maint.maintain", "compact": "maint.compact",
               "split_partition": "maint.split", "vacuum": "maint.vacuum"}


def install(tracer: Tracer) -> None:
    import ray.data

    from jitsu_ray.pipelines.replay import Replayer
    from jitsu_ray.sinks.lake import LakeTable
    from jitsu_ray.state.ledger import Ledger

    tracer.wrap(Replayer, "__init__", "replay.init")
    tracer.wrap(Replayer, "window_dataset", READ)
    tracer.wrap(Replayer, "_window_dataset_fast", READ)
    tracer.wrap(Replayer, "run", "replay.run")
    tracer.wrap(Replayer, "run_streaming", "replay.run")
    tracer.wrap(LakeTable, "apply_window", APPLY)
    tracer.wrap(ray.data.Dataset, "schema", SCHEMA)
    for name in LEDGER_CALLS:
        tracer.wrap(Ledger, name, LEDGER + name)
    tracer.wrap_generator(Ledger, "iter_entries_desc", ITER)
    for name, span in MAINT_CALLS.items():
        tracer.wrap(LakeTable, name, span)
    tracer.wrap(LakeTable, "lookup", LOOKUP)


def committed_bytes(entries: list[dict]) -> tuple[int, int, set[str]]:
    """(window bytes, maintenance bytes, replaced files) over the ledger:
    bytes of the data files window rows and compaction/split rows
    committed, and every file a compaction or split replaced."""
    window = maint = 0
    replaced: set[str] = set()
    for e in entries:
        if e["kind"] == "window":
            window += e["metrics"]["bytes_written"]
        elif e["kind"] == "compact":
            for info in e["parts"].values():
                for one in info if isinstance(info, list) else [info]:
                    maint += int(one.get("bytes", 0))
                    replaced.update(one["replaces"])
        elif e["kind"] == "split":
            replaced.update(e["replaces"])
            for infos in e["parts"].values():
                maint += sum(int(one.get("bytes", 0)) for one in infos)
    return window, maint, replaced


def _outermost(tree: Tree, spans, prefix: str):
    return [s for s in spans if s.name.startswith(prefix) and not tree.under(s, prefix)]


def derive(tracer: Tracer, lake, run: dict) -> dict:
    """Per-layer metrics from the spans plus the lake's ledger.

    ``run`` carries what the workload loop counted itself: the ingest
    phase ``t0``..``t1``, its ``windows`` and ``events``, ``events_total``
    (priming included), ``lookups`` (last_lookup_stats per call),
    ``scan_files``, ``range_stats``, and for the open loop ``late`` and
    ``backlog``. Read, apply and per-window ledger figures cover the
    ingest phase only; lookups made inside it are excluded from them."""
    spans = tracer.spans
    tree = Tree(spans)
    windows = max(1, run["windows"])
    ingest = [s for s in spans if run["t0"] <= s.start and s.end <= run["t1"]
              and not tree.under(s, LOOKUP) and s.name != LOOKUP]
    m: dict[str, float] = {}

    reads = _outermost(tree, ingest, READ)
    read_time = sum(s.dur for s in reads)
    m["replay.read_s"] = median(s.dur for s in reads)
    m["replay.read_rows_per_s"] = run["events"] / read_time if read_time else 0.0
    m["replay.init_s"] = median(s.dur for s in spans if s.name == "replay.init")

    applies = [s for s in ingest if s.name == APPLY]
    m["lake.apply_s"] = median(s.dur for s in applies)
    m["lake.apply_self_s"] = median(tree.self_time(s) for s in applies)
    m["lake.schema_s"] = median(
        s.dur for s in ingest if s.name == SCHEMA and tree.under(s, APPLY))

    ents = lake.ledger.entries()
    wins = [e for e in ents if e["kind"] == "window"]
    m["lake.files_per_window"] = sum(len(e["files"]) for e in wins) / max(1, len(wins))
    rows_out = sum(e["metrics"]["rows_written"] for e in wins)
    m["lake.rows_out_per_event"] = rows_out / max(1, run["events_total"])
    skews = [max(rows) / median(rows) for rows in (
        [pp["rows"] for pp in e["metrics"]["per_partition"]] for e in wins) if rows]
    m["lake.partition_skew"] = median(skews)  # per window: max / median rows

    # ledger: outermost ledger calls made while ingesting, outside maintenance
    ingest_ledger = [s for s in _outermost(tree, ingest, LEDGER)
                     if not tree.under(s, MAINT) and s.name != ITER]
    m["ledger.s_per_window"] = sum(s.dur for s in ingest_ledger) / windows
    iters = [s for s in ingest if s.name == ITER]
    ingest_iters = [s for s in iters if not tree.under(s, MAINT)]
    m["ledger.rows_parsed_per_window"] = sum(s.attrs["items"] for s in ingest_iters) / windows
    last = max(applies, key=lambda s: s.start).id if applies else None
    m["ledger.rows_parsed_last_window"] = float(sum(
        s.attrs["items"] for s in iters if any(a.id == last for a in tree.ancestors(s))))
    lists = [s for s in ingest if s.name in (ITER, NEXT_SEQ)
             and not tree.under(s, MAINT)]
    m["ledger.dir_lists_per_window"] = len(lists) / windows
    m["ledger.append_s"] = median(s.dur for s in ingest if s.name == LEDGER + "append")
    lookups = [s for s in spans if s.name == LOOKUP]
    lookup_ledger = [s for s in _outermost(tree, spans, LEDGER)
                     if tree.under(s, LOOKUP) and s.name != ITER]
    m["ledger.s_per_lookup"] = sum(s.dur for s in lookup_ledger) / max(1, len(lookups))
    m["ledger.rows_end"] = float(len(ents))

    maint = _outermost(tree, spans, MAINT)
    m["maint.calls"] = float(len(maint))
    m["maint.s_total"] = sum(s.dur for s in maint)
    for key, name in (("compact", "maint.compact"), ("split", "maint.split"),
                      ("vacuum", "maint.vacuum")):
        m[f"maint.{key}_s"] = sum(s.dur for s in spans if s.name == name)
    _, rewritten, replaced = committed_bytes(ents)
    m["maint.bytes_rewritten"] = float(rewritten)
    m["maint.files_removed"] = float(sum(
        not os.path.exists(os.path.join(lake.dir, f)) for f in replaced))

    stats = run["lookups"]
    m["lookup.files_read"] = (
        sum(s["files_read"] for s in stats) / len(stats) if stats else 0.0)
    m["lookup.bloom_probes"] = (
        sum(s["files_read"] + s["files_bloom_skipped"] for s in stats) / len(stats)
        if stats else 0.0)
    m["lookup.self_s"] = median(tree.self_time(s) for s in lookups)
    m["lookup.tail_s"] = tail_percentile([s.dur for s in lookups])[0]
    m["scan.files"] = float(run["scan_files"])
    m["range_scan.files_full"] = float(run["range_stats"].get("files_full", 0))
    m["range_scan.files_narrow"] = float(run["range_stats"].get("files_narrow", 0))

    m["tail.backlog_max_windows"] = float(max(run.get("backlog", []), default=0))
    m["tail.gen_late_p50_s"] = median(run.get("late", []))
    return m


def _timed(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def primitives(lake, windows: list[pa.Table], scratch: str, reps: int = 3) -> dict:
    """Rows/s, MB/s and seconds per file of the prep and fold/write
    primitives, timed in-process on the workload's own window tables."""
    from jitsu_ray.sinks.lake import (
        PART_COL,
        _key_zone_stats,
        _write_key_bloom,
        resolve_keep_tombstones,
    )
    from jitsu_ray.util import hash_route_column, pad_and_cast

    target = lake.full_arrow_schema()
    keys = lake.key_cols
    splits = lake.ledger.splits()
    cols = keys + lake.stats_cols
    os.makedirs(scratch, exist_ok=True)
    acc = {k: [0.0, 0] for k in ("pad", "route", "reduce", "write", "bloom", "zone")}
    for i, win in enumerate(windows):
        n = win.num_rows
        padded = pad_and_cast(win, target)
        part = hash_route_column(padded, keys, lake.num_partitions, splits)
        routed = padded.set_column(0, PART_COL, part)
        reduced = resolve_keep_tombstones(routed, keys)
        path = os.path.join(scratch, f"w{i}.parquet")
        steps = {
            "pad": (lambda: pad_and_cast(win, target), n),
            "route": (lambda: hash_route_column(padded, keys, lake.num_partitions, splits), n),
            "reduce": (lambda: resolve_keep_tombstones(routed, keys), n),
            "write": (lambda: pq.write_table(reduced, path), 0),
            "bloom": (lambda: _write_key_bloom(reduced, keys, path), 1),
            "zone": (lambda: _key_zone_stats(reduced, cols), 1),
        }
        for k, (fn, units) in steps.items():
            acc[k][0] += _timed(fn, reps)
            acc[k][1] += units if k != "write" else os.path.getsize(path)
    rate = {k: (u / t if t else 0.0) for k, (t, u) in acc.items()}
    return {
        "prep.pad_and_cast_rows_per_s": rate["pad"],
        "prep.hash_route_rows_per_s": rate["route"],
        "prep.pre_reduce_rows_per_s": rate["reduce"],
        "write.parquet_mb_per_s": rate["write"] / (1 << 20),
        "write.bloom_s_per_file": acc["bloom"][0] / max(1, acc["bloom"][1]),
        "write.zone_stats_s_per_file": acc["zone"][0] / max(1, acc["zone"][1]),
    }
