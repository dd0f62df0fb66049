"""CDC replay driver: tail the change log in micro-batch windows.

The Ray-Data analog of the reference's batch ingest loop
(server/logfiles/uploader.go:50-151 — glob closed log files, process
each once, mark status, archive): here a "file" is a commit_seq window
of the Parquet change log, "status" is the lake's checkpoint ledger,
and processing is one streaming Dataset pipeline per window:

    read_parquet(log, filter=seq ∈ (lo, hi])      # pruned at the read
      -> map_batches(enrichment chain)            # M1..M5 equivalents
      -> lake.apply_window(...)                   # shuffle by key-hash,
                                                  # per-partition LWW delta

Resume: the next window starts after the ledger's max committed hi;
re-running a committed window is a no-op (apply_window skips), and a
window that crashed mid-apply is invisible and simply re-runs —
replay from any checkpoint reproduces identical table state because the
merge is idempotent and order-independent.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..sinks.lake import SEQ_COL, LakeTable
from ..sources.readers import read_parquet_clean

EnrichFn = Callable[[pa.Table], pa.Table]


def changelog_max_seq(log_path: str) -> int:
    """Max commit_seq from parquet footer stats — no data scan."""
    import glob

    files = (
        sorted(glob.glob(os.path.join(log_path, "*.parquet")))
        if os.path.isdir(log_path)
        else [log_path]
    )
    hi = 0
    for f in files:
        md = pq.ParquetFile(f).metadata
        idx = md.schema.to_arrow_schema().get_field_index(SEQ_COL)
        for rg in range(md.num_row_groups):
            stats = md.row_group(rg).column(idx).statistics
            if stats is not None and stats.max is not None:
                hi = max(hi, stats.max)
    return hi


class Replayer:
    def __init__(
        self,
        changelog_path: str,
        lake: LakeTable,
        window_size: int = 100_000,
        enrichers: list[EnrichFn] | None = None,
    ):
        self.changelog_path = changelog_path
        self.lake = lake
        self.window_size = window_size
        self.enrichers = enrichers or []
        self._file_stats = self._scan_file_stats()
        self._row_bytes = self._estimate_row_bytes()

    def _scan_file_stats(self) -> list[tuple[str, int, int]]:
        """(path, min_seq, max_seq) per log file from parquet footers —
        one metadata pass at startup, reused by every window to prune the
        file list BEFORE the read. Without this, Ray spreads read blocks
        over all files and a window's rows land on the few tasks that
        happen to own its files (measured: effective read parallelism 8
        of 32 on a 100-file log)."""
        import glob

        files = (
            sorted(glob.glob(os.path.join(self.changelog_path, "*.parquet")))
            if os.path.isdir(self.changelog_path)
            else [self.changelog_path]
        )
        out = []
        for f in files:
            md = pq.ParquetFile(f).metadata
            idx = md.schema.to_arrow_schema().get_field_index(SEQ_COL)
            mins, maxs = [], []
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(idx).statistics
                if st is not None and st.min is not None:
                    mins.append(st.min)
                    maxs.append(st.max)
            if mins:
                out.append((f, min(mins), max(maxs)))
        return out

    def _estimate_row_bytes(self) -> int:
        """Uncompressed bytes/row from the first log file's footer — used to
        size read blocks (Ray's default splits a window into hundreds of
        sub-MB blocks, and per-block overhead then dwarfs useful work)."""
        if not self._file_stats:
            return 512
        md = pq.ParquetFile(self._file_stats[0][0]).metadata
        total = sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
        return max(64, total // max(1, md.num_rows))

    def _window_num_blocks(self, n_rows: int, streaming: bool = False) -> int:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8))
        by_bytes = n_rows * self._row_bytes // (64 * 1024 * 1024) + 1
        if streaming:
            # latency mode: a ~1k-event window split into `cpus` blocks is
            # pure per-block overhead; size by bytes alone
            return int(min(by_bytes, 8 * cpus))
        return int(min(max(by_bytes, cpus), 8 * cpus))

    def window_dataset(self, lo: int, hi: int, streaming: bool = False) -> "ray.data.Dataset":
        paths = [f for f, mn, mx in self._file_stats if mx > lo and mn <= hi]
        if not paths:
            paths = [f for f, _, _ in self._file_stats] or self.changelog_path
        # plain read_parquet, NOT read_parquet_clean: the changelog is
        # written by this engine (testgen/write_changelog) with no schema
        # metadata, and the strip stage's extra operator costs a full
        # block materialization between read and prep (measured +50%
        # window wall — see BASELINE.md round-3 note)
        ds = ray.data.read_parquet(
            paths,
            filter=(pc.field(SEQ_COL) > lo) & (pc.field(SEQ_COL) <= hi),
            override_num_blocks=self._window_num_blocks(hi - lo, streaming),
        )
        for fn in self.enrichers:
            ds = ds.map_batches(fn, batch_format="pyarrow")
        return ds

    def run(
        self,
        max_seq: int | None = None,
        compact_every: int = 8,
        compact_at_end: bool = True,
    ) -> dict:
        """Replay all uncommitted windows; returns run metrics."""
        if max_seq is None:
            max_seq = changelog_max_seq(self.changelog_path)
        start_hi = self.lake.last_committed_hi()
        lo = start_hi
        t0 = time.perf_counter()
        n_windows = 0
        while lo < max_seq:
            hi = min(lo + self.window_size, max_seq)
            ds = self.window_dataset(lo, hi)
            self.lake.apply_window(ds, lo, hi)
            n_windows += 1
            # seq-range windows: nothing below `hi` can arrive later, so
            # compaction may drop tombstones up to the committed watermark
            if compact_every and n_windows % compact_every == 0:
                self.lake.compact(min_files=4, tombstone_watermark=hi)
            lo = hi
        if compact_at_end:
            self.lake.compact(min_files=2, tombstone_watermark=self.lake.last_committed_hi())
        wall = time.perf_counter() - t0
        events = max_seq - start_hi
        return {
            "windows": n_windows,
            "events": events,
            "wall_sec": wall,
            "events_per_sec": events / wall if wall > 0 else float("inf"),
        }


    # direct read once a window's estimated bytes fit comfortably in the
    # driver: Ray Data's read planning alone costs ~0.2-0.3s per window
    # (measured at 1k rows), which IS the latency floor otherwise
    STREAM_DIRECT_READ_BYTES = 32 << 20

    def _window_dataset_fast(self, lo: int, hi: int) -> "ray.data.Dataset":
        """Small-window streaming read: footer-pruned file list + one
        filtered driver-side parquet read (row groups pruned by seq
        stats), enrichers applied in-process. Semantically identical to
        window_dataset — proven by the streaming tests converging to the
        batch replay's state."""
        paths = [f for f, mn, mx in self._file_stats if mx > lo and mn <= hi]
        if not paths:
            return self.window_dataset(lo, hi, streaming=True)
        tables = [
            pq.read_table(f, filters=[(SEQ_COL, ">", lo), (SEQ_COL, "<=", hi)])
            for f in paths
        ]
        tbl = pa.concat_tables(tables).replace_schema_metadata(None)
        for fn in self.enrichers:
            tbl = fn(tbl)
        return ray.data.from_arrow(tbl)

    def _stream_window(self, lo: int, hi: int) -> "ray.data.Dataset":
        if (hi - lo) * self._row_bytes <= self.STREAM_DIRECT_READ_BYTES:
            return self._window_dataset_fast(lo, hi)
        return self.window_dataset(lo, hi, streaming=True)

    @staticmethod
    def _sweep_dead_spool_tmp(spool_dir: str) -> None:
        """Remove ``window-*.tmp.<host>:<pid>`` dirs whose owner token
        is VERIFIABLY dead (util.token_owner_dead — the one shared
        liveness predicate): crashed spool attempts (killed between
        write_parquet and the swap rename) would otherwise each leak a
        full window of parquet. Anything this host cannot verify is
        left alone: another node's in-progress dir on a shared spool
        (its pid means nothing in our /proc), a live local pid, and our
        own pid (two streams in one process must not sweep each other —
        a same-window retry rmtree's its exact tmp path itself)."""
        import glob as _glob
        import shutil as _shutil

        from ..util import token_owner_dead

        for d in _glob.glob(os.path.join(spool_dir, "window-*.tmp.*")):
            if token_owner_dead(d.rsplit(".tmp.", 1)[-1]):
                _shutil.rmtree(d, ignore_errors=True)

    def run_streaming(
        self,
        max_seq: int | None = None,
        max_attempts: int = 3,
        backoff_sec: float = 0.05,
        classify=None,
        spool_dir: str | None = None,
        compact_every: int | None = None,
        compact_min_files: int = 8,
        split_over_bytes: int | None = None,
    ) -> dict:
        """Low-latency streaming mode (§3.2): small windows (construct the
        Replayer with ``window_size~1000``), per-window commit latency
        tracked, and the stream-worker failure semantics of
        server/storages/streaming.go:108-122 — a window whose apply
        fails TRANSIENTLY is retried in place with bounded exponential
        backoff (the re-enqueue-with-deadline analog; windows must
        commit in seq order because the ledger checkpoint is a single
        watermark, so the retry blocks rather than reorders); a window
        that exhausts retries or fails permanently is SPOOLED to
        ``spool_dir`` as parquet and the stream advances. Spooled events
        are re-applied later by ``replay_spooled`` — correct because LWW
        merge is order-independent and tombstones are kept.

        ``split_over_bytes``: auto partition SPLITTING — at each
        auto-compaction trigger, run ``lake.maintain`` instead of a bare
        compact: any active partition whose live bytes exceed the budget
        is split into hash-refinement children — each child written
        once, already LWW-resolved under the same budget and the
        spool-aware tombstone watermark, so it needs no follow-up fold
        — then byte-bounded tiered compaction folds the remaining
        partitions and a keep_history=0 vacuum GCs replaced files
        (matching the immediate-GC disk bound of the plain path). The
        streaming loop is the lake's ONLY
        applier, so the split's no-concurrent-writer contract holds by
        construction — this is where a lake created at N partitions
        grows its topology while the stream keeps running.

        ``compact_every``: auto-compaction — every N committed windows,
        fold partitions holding >= ``compact_min_files`` files into one
        base (lake.compact), so a long-running 1k-event stream's file
        count (and read/probe cost) stays bounded instead of growing one
        delta per partition per window. The tombstone watermark passed
        to compact is SPOOL-AWARE: pending spooled windows will later
        force-apply events at their original low seqs, so tombstones are
        only dropped up to min(pending spool lo) — otherwise a compacted
        -away delete could be resurrected by the recovery replay. The
        compaction is its own atomic ledger row; as-of reads older than
        it raise FileNotFoundError once replaced files are unlinked (the
        documented time-travel-until-vacuum contract).

        WINDOW PIPELINING: window N+1's read+prep (the driver-side
        footer-pruned parquet read + enricher chain of
        ``_window_dataset_fast`` — the dominant non-merge cost at 1k
        events) runs on ONE background thread while window N's exchange
        and ledger commit proceed — the reads touch only immutable
        changelog files, and the APPLY stays in the main loop, so the
        watermark still commits strictly in seq order. A failed
        prefetch just falls back to the synchronous read (and retries
        re-derive the window fresh — a partially-consumed Dataset must
        never be re-applied).

        ENRICHERS therefore run on the prefetch thread, CONCURRENTLY
        with the apply of the previous window (and a retry re-derives
        window N on the main thread while window N+1's enrichers may be
        running on the prefetch thread): they must be pure and
        thread-safe — no shared mutable state, no reliance on running
        serially or in window order.

        Returns run metrics incl. per-window commit latency p50/p95/max
        (seconds) and retried/spooled counts."""
        import shutil
        from concurrent.futures import ThreadPoolExecutor

        from ..sinks.retry import default_classify

        classify = classify or default_classify
        if max_seq is None:
            max_seq = changelog_max_seq(self.changelog_path)
        start_hi = self.lake.last_committed_hi()
        lat: list[float] = []
        spooled: list[dict] = []
        counts = {"retried": 0, "compactions": 0, "compact_errors": 0}
        t0 = time.perf_counter()
        prefetcher = ThreadPoolExecutor(max_workers=1)
        try:
            self._run_streaming_loop(
                start_hi, max_seq, max_attempts, backoff_sec, classify,
                spool_dir, compact_every, compact_min_files, lat, spooled,
                prefetcher, shutil, counts, split_over_bytes,
            )
        finally:
            prefetcher.shutdown(wait=False, cancel_futures=True)
        wall = time.perf_counter() - t0
        events = max_seq - start_hi
        srt = sorted(lat)

        def pct(p: float) -> float:
            return srt[min(len(srt) - 1, int(p * len(srt)))] if srt else 0.0

        return {
            "windows": len(lat) + len(spooled),
            "events": events,
            "wall_sec": wall,
            "events_per_sec": events / wall if wall > 0 else float("inf"),
            "latency_p50_sec": round(pct(0.50), 4),
            "latency_p95_sec": round(pct(0.95), 4),
            "latency_max_sec": round(max(srt), 4) if srt else 0.0,
            "retried": counts["retried"],
            "spooled": spooled,
            "compactions": counts["compactions"],
            "compact_errors": counts["compact_errors"],
            "splits": counts.get("splits", 0),
        }

    def _run_streaming_loop(
        self, lo, max_seq, max_attempts, backoff_sec, classify, spool_dir,
        compact_every, compact_min_files, lat, spooled, prefetcher, shutil,
        counts, split_over_bytes=None,
    ) -> None:
        nxt = None  # (lo, hi, future) of the prefetched next window
        while lo < max_seq:
            hi = min(lo + self.window_size, max_seq)
            t_w = time.perf_counter()
            ds_window = None
            if nxt is not None and nxt[0] == lo and nxt[1] == hi:
                try:
                    ds_window = nxt[2].result()
                except Exception:  # noqa: BLE001 — prefetch is advisory;
                    ds_window = None  # the sync read below sees any real error
            if ds_window is None:
                ds_window = self._stream_window(lo, hi)
            if hi < max_seq:
                nlo, nhi = hi, min(hi + self.window_size, max_seq)
                nxt = (nlo, nhi, prefetcher.submit(self._stream_window, nlo, nhi))
            else:
                nxt = None
            attempts = 0
            committed = False
            while True:
                try:
                    self.lake.apply_window(ds_window, lo, hi)
                    lat.append(time.perf_counter() - t_w)
                    committed = True
                    break
                except Exception as e:  # noqa: BLE001 — sink boundary
                    attempts += 1
                    if classify(e) and attempts < max_attempts:
                        counts["retried"] += 1
                        time.sleep(backoff_sec * (2 ** (attempts - 1)))
                        # re-derive: a partially-consumed Dataset (the
                        # failed apply may have drained some blocks)
                        # must never be re-applied
                        ds_window = self._stream_window(lo, hi)
                        continue
                    if spool_dir is None:
                        raise
                    sub = os.path.join(spool_dir, f"window-{lo:012d}-{hi:012d}")
                    # idempotent AND crash-safe re-spool: write the fresh
                    # copy to a pid-suffixed tmp dir first, swap only once
                    # it is complete. Deleting the prior copy before (or
                    # while) writing the new one would destroy the only
                    # recovery data for this window if the write failed —
                    # and a restarted stream must not APPEND a second copy
                    # into the deterministic dir (Ray's write_parquet
                    # uuid-names files into an existing dir). Crashed
                    # attempts' tmp dirs (dead-pid suffix) are swept here
                    # so they can't accumulate a window of parquet each.
                    self._sweep_dead_spool_tmp(spool_dir)
                    from ..util import _lock_token

                    sub_tmp = f"{sub}.tmp.{_lock_token()}"
                    shutil.rmtree(sub_tmp, ignore_errors=True)
                    self._stream_window(lo, hi).write_parquet(sub_tmp)
                    shutil.rmtree(sub, ignore_errors=True)
                    os.rename(sub_tmp, sub)
                    spooled.append(
                        {"lo": lo, "hi": hi, "dir": sub, "error": f"{type(e).__name__}: {e}"}
                    )
                    break
            # compaction runs OUTSIDE the sink-retry loop: the window is
            # already committed, so a compaction failure must not be
            # retried as a window apply (that would double-count latency
            # samples / metrics and, with a spool_dir, could spool an
            # already-committed window). Compaction is best-effort lake
            # maintenance — on failure the same partitions still exceed
            # min_files, so the next trigger simply retries the fold.
            if committed and compact_every and len(lat) % compact_every == 0:
                try:
                    wm = self._safe_tombstone_watermark(hi, spooled, spool_dir)
                    if split_over_bytes:
                        out = self.lake.maintain(
                            max_partition_bytes=split_over_bytes,
                            min_files=compact_min_files,
                            tombstone_watermark=wm,
                            keep_history=0,
                        )
                        entry = out["compact"]
                        counts["splits"] = counts.get("splits", 0) + len(
                            out["splits"]
                        )
                    else:
                        entry = self.lake.compact(
                            min_files=compact_min_files, tombstone_watermark=wm
                        )
                    counts["compactions"] += bool(entry.get("parts"))
                except Exception:  # noqa: BLE001 — maintenance boundary
                    counts["compact_errors"] += 1
            lo = hi

    @staticmethod
    def _safe_tombstone_watermark(committed_hi: int, spooled: list[dict],
                                  spool_dir: str | None) -> int:
        """Highest seq below which tombstones may be physically dropped:
        the committed watermark, LOWERED to the smallest pending spooled
        window's lo — that window's force-apply will deliver events with
        seqs in (lo, hi], all > lo, so tombstones <= lo can never be
        out-argmaxed by them. Pending spools are this run's list PLUS
        any window-* dirs already on disk (a restarted stream must not
        vacuum tombstones an EARLIER run's spool still needs)."""
        pend = [int(s["lo"]) for s in spooled]
        if spool_dir and os.path.isdir(spool_dir):
            for name in os.listdir(spool_dir):
                if name.startswith("window-") and ".tmp." not in name:
                    try:
                        pend.append(int(name.split("-")[1]))
                    except (IndexError, ValueError):
                        pend.append(0)  # unparseable spool: never vacuum past it
        return min(pend, default=committed_hi)

    def replay_spooled(self, spooled: list[dict]) -> int:
        """Re-apply spooled windows once the sink has recovered — at
        their ORIGINAL (lo, hi] bounds with ``force=True`` (the stream
        already advanced the watermark past them; committing them as
        fresh higher windows would claim seq territory never read from
        the changelog, silently skipping a future real event with that
        seq). LWW order-independence makes the late apply exact; a forced
        window writes UNIQUE-tagged delta files (it may share bounds
        with an already-committed window it must never overwrite), so a
        re-crashed recovery converges by STATE (equal-content files tie
        to the same LWW result), not by path overwrite.
        A recovered window's spool dir is REMOVED after its force-apply
        commits: a leftover dir would count as pending in
        ``_safe_tombstone_watermark`` forever, permanently pinning the
        tombstone vacuum. Removal after commit is crash-safe — a crash
        between apply and rmtree leaves the dir, and the next recovery
        re-applies idempotently (equal-content forced re-apply) then
        removes it; a record whose dir is ALREADY gone was recovered by
        an earlier run (records are only written after the dir rename)
        and is skipped, so re-running with a stale spooled.json is safe.
        Recovered dirs are also pruned from their spool dir's
        ``spooled.json`` (atomic rewrite). Returns windows re-applied."""
        import json
        import shutil
        import tempfile

        n = 0
        recovered: dict[str, set[str]] = {}  # spool parent -> recovered dirs
        for item in spooled:
            if not os.path.isdir(item["dir"]):
                continue  # already recovered by an earlier run
            ds = read_parquet_clean(item["dir"])
            self.lake.apply_window(ds, item["lo"], item["hi"], force=True)
            shutil.rmtree(item["dir"], ignore_errors=True)
            recovered.setdefault(os.path.dirname(item["dir"]), set()).add(item["dir"])
            n += 1
        for parent, dirs in recovered.items():
            sp_path = os.path.join(parent, "spooled.json")
            if not os.path.isfile(sp_path):
                continue
            try:
                with open(sp_path) as f:
                    recs = json.load(f)
            except (OSError, ValueError):
                continue  # unreadable manifest: leave it; dirs are gone anyway
            keep = [r for r in recs if r.get("dir") not in dirs]
            fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
            with os.fdopen(fd, "w") as f:
                json.dump(keep, f)
            os.replace(tmp, sp_path)
        return n


def bootstrap_snapshot(lake: LakeTable, ds: "ray.data.Dataset",
                       as_of_seq: int = 0) -> dict:
    """Initial-load bootstrap: apply a FULL source snapshot that is
    consistent AS OF changelog position ``as_of_seq`` as one insert
    window, then ``Replayer.run()`` tails the changelog incrementally
    from exactly that position — the standard CDC bootstrap-then-tail
    lifecycle (reference semantics: a source driver's first full sync
    before interval syncs, server/drivers/base.go
    GetAllAvailableIntervals + the incremental path).

    The handoff is seam-free by construction: snapshot rows are
    stamped ``commit_seq = as_of_seq`` and the window commits with
    ``hi = as_of_seq``, so the replayer resumes at ``lo = as_of_seq``
    (events <= as_of_seq are already reflected IN the snapshot; every
    later event outranks it under LWW).

    ``ds`` carries the key + payload columns; ``op``/``commit_seq`` are
    stamped here, so any source Dataset works unmodified. Idempotent
    like any window: once any ledger row with hi >= as_of_seq exists a
    re-run is skipped, and a crashed bootstrap left no ledger row, so
    its staged files are invisible and the retry overwrites them. The
    one case apply_window's hi-watermark check can't see is
    ``as_of_seq == 0`` on a virgin lake (hi == last_committed_hi == 0),
    distinguished from an already-bootstrapped lake by the ledger being
    empty."""
    if as_of_seq < 0:
        raise ValueError("as_of_seq must be >= 0")
    force = as_of_seq == 0 and not lake.ledger.entries()
    committed = lake.last_committed_hi()
    if not force and committed >= max(as_of_seq, 1):
        return {"kind": "window", "lo": as_of_seq - 1, "hi": as_of_seq,
                "skipped": True}
    if not force and committed > 0:
        # Re-bootstrapping a PARTIALLY-tailed lake would silently merge:
        # a key deleted between `committed` and `as_of_seq` is absent
        # from the snapshot, its old row would stay the LWW winner, and
        # the replayer (resuming at as_of_seq) would never read the
        # delete — resurrected forever. Bootstrap only targets empty
        # lakes; continue the tail (Replayer.run) or rebuild instead.
        raise ValueError(
            f"lake already tailed to seq {committed} < as_of_seq "
            f"{as_of_seq}: bootstrapping over a partially-applied "
            "changelog would resurrect keys deleted in between; "
            "rebuild the lake or keep tailing instead"
        )

    def stamp(batch: pa.Table) -> pa.Table:
        cols = set(batch.column_names)
        if "op" not in cols:
            batch = batch.append_column(
                "op", pa.array(["insert"] * batch.num_rows, pa.string())
            )
        if SEQ_COL not in cols:
            batch = batch.append_column(
                SEQ_COL, pa.array([as_of_seq] * batch.num_rows, pa.int64())
            )
        return batch

    stamped = ds.map_batches(stamp, batch_format="pyarrow")
    return lake.apply_window(stamped, as_of_seq - 1, as_of_seq, force=force)


def replay_changelog(
    changelog_path: str,
    lake_dir: str,
    key_cols: tuple[str, ...] = ("repo", "path"),
    num_partitions: int = 64,
    window_size: int = 100_000,
    enrichers: list[EnrichFn] | None = None,
    **run_kw,
) -> tuple[LakeTable, dict]:
    """One-call convenience: create/open lake, replay to head, return both."""
    lake = LakeTable.create(lake_dir, list(key_cols), num_partitions)
    rep = Replayer(changelog_path, lake, window_size, enrichers)
    metrics = rep.run(**run_kw)
    return lake, metrics
