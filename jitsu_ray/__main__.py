"""CLI entry points: replay / compact / report / read.

Owns the Ray session (the library never calls ray.init — the driver
contract); designed for `ray job submit -- python -m jitsu_ray ...` on
a cluster, `address="local"` here.

    python -m jitsu_ray replay  --log DIR --lake DIR [--window N] [--partitions P]
    python -m jitsu_ray stream  --log DIR --lake DIR [--window 1000] [--spool DIR]
    python -m jitsu_ray compact --lake DIR [--watermark N]
    python -m jitsu_ray report  --lake DIR
    python -m jitsu_ray read    --lake DIR --out DIR [--columns a,b]
    python -m jitsu_ray diff    --lake DIR --out DIR --from N [--to M] [--old]
    python -m jitsu_ray view-refresh --lake DIR --view DIR --group a,b --sum x,y
    python -m jitsu_ray query   <name> [--sf-dir D] [--out DIR] [--limit N] [--list]
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def merge_spooled_records(spool_dir: str, records: list[dict]) -> list[dict]:
    """Merge this run's spooled-window records into
    ``<spool_dir>/spooled.json`` and return the merged list. MERGE, not
    overwrite: a restarted stream resumes past the watermark, so an
    earlier run's still-unrecovered {lo, hi, dir} records must survive —
    they are the only shipped input to ``replay_spooled`` force-apply
    recovery. Records dedupe by spool ``dir`` (one dir per window).

    Durability matches what the file is FOR: the read-modify-write runs
    under a self-healing pid lock (two concurrent stream processes
    sharing a spool dir must not drop each other's records, and a
    SIGKILLed writer's stale lock must not block the restart-recovery
    path this file exists to serve — util.acquire_pid_lock breaks locks
    whose owner is verifiably dead), and the rewrite is tmp +
    os.replace so a crash mid-write can't truncate the only copy of
    earlier recovery bounds."""
    import tempfile

    from .util import acquire_pid_lock, release_pid_lock

    sp_path = os.path.join(spool_dir, "spooled.json")
    lock = sp_path + ".lock"
    acquire_pid_lock(lock)
    try:
        prior: list[dict] = []
        if os.path.exists(sp_path):
            with open(sp_path) as f:
                prior = json.load(f)
        seen_dirs = {e["dir"] for e in prior}
        prior.extend(e for e in records if e["dir"] not in seen_dirs)
        fd, tmp = tempfile.mkstemp(dir=spool_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            json.dump(prior, f)
        os.replace(tmp, sp_path)
        return prior
    finally:
        release_pid_lock(lock)


def _count_parquet_rows(out_dir: str) -> int:
    """Row count of a just-written parquet dir from the file footers —
    no second pipeline execution."""
    import glob

    import pyarrow.parquet as pq

    return sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(os.path.join(out_dir, "*.parquet"))
    )


def _require_fresh_dir(p, out_dir: str) -> None:
    """write_parquet appends uniquely-named files — a reused output dir
    would silently mix runs and inflate footer counts."""
    import glob

    if glob.glob(os.path.join(out_dir, "*.parquet")):
        p.error(f"output dir {out_dir!r} already holds parquet files — "
                "point --out at an empty or new directory")


def _session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            num_cpus=int(os.environ["RAY_GRAFT_CPUS"])
            if "RAY_GRAFT_CPUS" in os.environ
            else None,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv=None):
    p = argparse.ArgumentParser(prog="jitsu_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("replay", help="replay a changelog into a lake")
    r.add_argument("--log", required=True)
    r.add_argument("--lake", required=True)
    r.add_argument("--window", type=int, default=100_000)
    r.add_argument("--partitions", type=int, default=64)

    st = sub.add_parser(
        "stream", help="low-latency small-window replay (retry + spool)"
    )
    st.add_argument("--log", required=True)
    st.add_argument("--lake", required=True)
    st.add_argument("--window", type=int, default=1000)
    st.add_argument("--partitions", type=int, default=64)
    st.add_argument("--spool", default=None)
    st.add_argument("--compact-every", type=int, default=None,
                    help="auto-compact every N committed windows "
                         "(spool-aware tombstone watermark)")

    c = sub.add_parser(
        "compact", help="fold deltas into base files and vacuum what they replace"
    )
    c.add_argument("--lake", required=True)
    c.add_argument("--watermark", type=int, default=0)

    g = sub.add_parser("report", help="ledger lineage totals, live files and bytes")
    g.add_argument("--lake", required=True)

    d = sub.add_parser("read", help="materialize the resolved table to parquet")
    d.add_argument("--lake", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--columns", default=None)

    df = sub.add_parser(
        "diff", help="CDC changelog between two committed seqs, to parquet"
    )
    df.add_argument("--lake", required=True)
    df.add_argument("--out", required=True)
    df.add_argument("--from", dest="seq_a", type=int, required=True)
    df.add_argument("--to", dest="seq_b", type=int, default=None,
                    help="default: last committed seq")
    df.add_argument("--old", action="store_true",
                    help="emit <col>__old sibling columns")

    vr = sub.add_parser(
        "view-refresh",
        help="create/refresh an incremental aggregate view of the lake",
    )
    vr.add_argument("--lake", required=True)
    vr.add_argument("--view", required=True)
    vr.add_argument("--group", required=True, help="comma-separated group cols")
    vr.add_argument("--sum", dest="sums", required=True,
                    help="comma-separated numeric value cols")

    mt = sub.add_parser(
        "maintain",
        help="one policy pass: auto-split oversized partitions, "
             "size-tiered compact (optionally clustered), vacuum",
    )
    mt.add_argument("--lake", required=True)
    mt.add_argument("--max-partition-bytes", type=int, default=None,
                    help="split any active partition whose live bytes "
                         "exceed this (default: no splitting)")
    mt.add_argument("--max-input-bytes", type=int, default=None,
                    help="byte budget per compaction fold (defaults to "
                         "--max-partition-bytes)")
    mt.add_argument("--min-files", type=int, default=4)
    mt.add_argument("--watermark", type=int, default=0,
                    help="tombstone watermark (see compact)")
    mt.add_argument("--keep-history", type=int, default=None,
                    help="vacuum grace window in ledger rows "
                         "(omit: no vacuum — GC stays deferred)")
    mt.add_argument("--cluster-by", default=None,
                    help="comma-separated zone-map columns for a "
                         "clustered rewrite (key or stats columns)")

    q = sub.add_parser(
        "query", help="run a named pipeline from the query registry"
    )
    q.add_argument("name", nargs="?", default=None,
                   help="registry name (omit with --list)")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.01",
                   help="input table directory")
    q.add_argument("--out", default=None,
                   help="write the result to this parquet dir instead of "
                        "printing the first rows")
    q.add_argument("--limit", type=int, default=20,
                   help="rows printed without --out")
    q.add_argument("--list", action="store_true", dest="list_names",
                   help="print the registry names and exit")

    args = p.parse_args(argv)
    if args.cmd == "query":
        # list + name validation need no Ray session
        from .queries import QUERIES

        if args.list_names:
            print(json.dumps(sorted(QUERIES)))
            return
        if args.name not in QUERIES:
            p.error(
                f"unknown query {args.name!r} — `query --list` prints the "
                f"{len(QUERIES)} registered names"
            )
    ray = _session()
    from .sinks.lake import LakeTable

    if args.cmd == "replay":
        from .pipelines.replay import replay_changelog

        lake, metrics = replay_changelog(
            args.log,
            args.lake,
            num_partitions=args.partitions,
            window_size=args.window,
        )
        print(json.dumps(metrics))
    elif args.cmd == "stream":
        from .pipelines.replay import Replayer

        lake = LakeTable.create(args.lake, ["repo", "path"], args.partitions)
        rep = Replayer(args.log, lake, window_size=args.window)
        m = rep.run_streaming(spool_dir=args.spool,
                              compact_every=args.compact_every)
        # keep the {lo, hi, dir} records: replay_spooled needs them for
        # force-apply recovery at the ORIGINAL window bounds. Persist
        # them next to the spooled parquet too (merged with earlier
        # runs' still-unrecovered records), so recovery survives the
        # CLI process (round-3 ADVICE: the count-only summary shipped no
        # recovery path).
        if args.spool and m["spooled"]:
            merge_spooled_records(args.spool, m["spooled"])
        m["spooled_count"] = len(m["spooled"])
        print(json.dumps(m))
    elif args.cmd == "compact":
        lake = LakeTable.open(args.lake)
        out = lake.maintain(
            min_files=1, tombstone_watermark=args.watermark, keep_history=0
        )
        print(json.dumps({"compacted_parts": len(out["compact"].get("parts", {}))}))
    elif args.cmd == "maintain":
        lake = LakeTable.open(args.lake)
        out = lake.maintain(
            max_partition_bytes=args.max_partition_bytes,
            max_input_bytes=args.max_input_bytes,
            min_files=args.min_files,
            tombstone_watermark=args.watermark,
            keep_history=args.keep_history,
            cluster_by=args.cluster_by.split(",") if args.cluster_by else None,
        )
        # the pass's write cost: every file its splits and folds wrote
        infos = [i for s in out["splits"] for fs in s["parts"].values() for i in fs]
        for folds in out["compact"].get("parts", {}).values():
            infos.extend(folds)
        print(
            json.dumps(
                {
                    "splits": [
                        {"parent": s["parent"], "children": s["children"]}
                        for s in out["splits"]
                    ],
                    "compacted_parts": len(out["compact"].get("parts", {})),
                    "bytes_written": sum(i["bytes"] for i in infos),
                    "vacuumed": (out["vacuum"] or {}).get("removed_now", 0),
                }
            )
        )
    elif args.cmd == "report":
        lake = LakeTable.open(args.lake)
        rep = lake.ingest_report()
        rep["partitions"] = len(rep["partitions"])
        print(json.dumps(rep))
    elif args.cmd == "read":
        lake = LakeTable.open(args.lake)
        cols = args.columns.split(",") if args.columns else None
        # stream the write (no materialize — the resolved table may not
        # fit the object store); row count comes from the written files'
        # parquet footers, not a second pipeline execution
        _require_fresh_dir(p, args.out)
        lake.read(columns=cols).write_parquet(args.out)
        print(json.dumps({"rows": _count_parquet_rows(args.out), "out": args.out}))
    elif args.cmd == "diff":
        lake = LakeTable.open(args.lake)
        to = args.seq_b if args.seq_b is not None else lake.ledger.last_committed_hi()
        _require_fresh_dir(p, args.out)
        lake.diff_as_of(args.seq_a, to, include_old=args.old).write_parquet(
            args.out
        )
        print(json.dumps({"changes": _count_parquet_rows(args.out),
                          "from": args.seq_a, "to": to, "out": args.out}))
    elif args.cmd == "view-refresh":
        from .pipelines.matview import IncrementalAggView

        lake = LakeTable.open(args.lake)
        view = IncrementalAggView(
            args.view, lake, args.group.split(","), args.sums.split(",")
        )
        m = view.refresh()
        m["view_groups"] = view.read().num_rows
        print(json.dumps(m))
    elif args.cmd == "query":
        res = QUERIES[args.name](args.sf_dir)  # imported pre-session
        import pyarrow as _pa

        if args.out:
            _require_fresh_dir(p, args.out)
            if isinstance(res, _pa.Table):
                import pyarrow.parquet as _pq

                os.makedirs(args.out, exist_ok=True)
                _pq.write_table(res, os.path.join(args.out, "result.parquet"))
                n = res.num_rows
            else:
                res.write_parquet(args.out)  # streamed; count from footers
                n = _count_parquet_rows(args.out)
            print(json.dumps({"query": args.name, "rows": n, "out": args.out}))
        else:
            tbl = res if isinstance(res, _pa.Table) else _pa.Table.from_pylist(
                res.limit(args.limit).take_all()
            )
            print(json.dumps({"query": args.name, "rows_shown": min(tbl.num_rows, args.limit)}))
            print(tbl.slice(0, args.limit).to_pandas().to_string())
    ray.shutdown()


if __name__ == "__main__":
    main()
