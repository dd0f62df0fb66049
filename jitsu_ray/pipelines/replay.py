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

There is ONE replay loop, ``Replayer.run_streaming``: small windows are
read directly in the driver and the next one is prefetched on a
background thread, large ones go through Ray Data; transient apply
failures are retried, and periodic ``lake.maintain`` passes compact and
vacuum. ``Replayer.run`` (batch replay) is that loop with large windows,
whose last window writes each touched partition's compacted base, plus
one final maintenance pass.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..sinks.lake import SEQ_COL, LakeTable, parquet_seq_bounds
from ..sources.readers import read_parquet_clean

EnrichFn = Callable[[pa.Table], pa.Table]


def changelog_seq_bounds(log_path: str) -> list[tuple[str, int, int]]:
    """(path, min_seq, max_seq) per change-log file (a directory of
    parquet files, or one file), from parquet footers with the
    fail-safe of ``parquet_seq_bounds``: a file whose footer lacks
    commit_seq statistics has that column read, so it is neither
    dropped nor under-reported. Files with no rows are left out."""
    import glob

    files = (
        sorted(glob.glob(os.path.join(log_path, "*.parquet")))
        if os.path.isdir(log_path)
        else [log_path]
    )
    return [(f, *b) for f in files if (b := parquet_seq_bounds(f))]


def changelog_max_seq(log_path: str) -> int:
    """Max commit_seq of the change log, from parquet footers."""
    return max([0, *(hi for _, _, hi in changelog_seq_bounds(log_path))])


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
        # (path, min_seq, max_seq) per log file: one metadata pass at
        # startup, reused by every window to prune the file list BEFORE
        # the read. Without it Ray spreads read blocks over all files
        # and a window's rows land on the few tasks that own its files
        # (measured: effective read parallelism 8 of 32 on a 100-file log)
        self._file_stats = changelog_seq_bounds(changelog_path)
        self._row_bytes = self._estimate_row_bytes()

    def _estimate_row_bytes(self) -> int:
        """Uncompressed bytes/row from the first log file's footer — used to
        size read blocks (Ray's default splits a window into hundreds of
        sub-MB blocks, and per-block overhead then dwarfs useful work)."""
        if not self._file_stats:
            return 512
        with pq.ParquetFile(self._file_stats[0][0]) as pf:
            md = pf.metadata
        total = sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
        return max(64, total // max(1, md.num_rows))

    def _window_num_blocks(self, n_rows: int) -> int:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8))
        by_bytes = n_rows * self._row_bytes // (64 * 1024 * 1024) + 1
        return int(min(max(by_bytes, cpus), 8 * cpus))

    def window_dataset(self, lo: int, hi: int) -> "ray.data.Dataset":
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
            override_num_blocks=self._window_num_blocks(hi - lo),
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
        """Batch replay: every uncommitted window, through the same loop
        as :meth:`run_streaming` (windows above
        ``STREAM_DIRECT_READ_BYTES`` read through Ray Data, transient
        apply failures retried with backoff, a window that exhausts its
        retries raises). Every ``compact_every`` windows a maintenance
        pass folds partitions holding >= 4 files and vacuums what it
        replaced. ``compact_at_end`` compacts the lake by the end of the
        run: the last window is applied with
        ``apply_window(compact=True)``, so each partition it touches is
        written once, as its compacted base, rather than as a delta that
        a compaction reads back and writes again; then one more pass
        compacts the untouched partitions holding >= 2 files and vacuums
        every replaced file. Seq-range windows mean nothing below the
        committed watermark can arrive later, so every fold drops
        tombstones up to it. Returns the :meth:`run_streaming` metrics,
        with the final pass counted in the wall time."""
        t0 = time.perf_counter()
        out = self.run_streaming(
            max_seq=max_seq, compact_every=compact_every, compact_min_files=4,
            _compact_last=compact_at_end,
        )
        if compact_at_end:
            self.lake.maintain(
                min_files=2,
                tombstone_watermark=self.lake.last_committed_hi(),
                keep_history=0,
            )
        out["wall_sec"] = wall = time.perf_counter() - t0
        out["events_per_sec"] = out["events"] / wall if wall > 0 else float("inf")
        return out

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
            return self.window_dataset(lo, hi)
        tables = [
            pq.read_table(f, filters=[(SEQ_COL, ">", lo), (SEQ_COL, "<=", hi)])
            for f in paths
        ]
        tbl = pa.concat_tables(tables).replace_schema_metadata(None)
        for fn in self.enrichers:
            tbl = fn(tbl)
        return ray.data.from_arrow(tbl)

    def _direct_read(self, lo: int, hi: int) -> bool:
        return (hi - lo) * self._row_bytes <= self.STREAM_DIRECT_READ_BYTES

    def _stream_window(self, lo: int, hi: int) -> "ray.data.Dataset":
        if self._direct_read(lo, hi):
            return self._window_dataset_fast(lo, hi)
        return self.window_dataset(lo, hi)

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
        _compact_last: bool = False,
    ) -> dict:
        """The replay loop (§3.2); :meth:`run` is this loop with large
        windows, and sets ``_compact_last`` (apply the window that
        reaches ``max_seq`` with ``apply_window(compact=True)``) for its
        ``compact_at_end``. Per-window commit latency is tracked, and a
        window gets the stream-worker failure semantics of
        server/storages/streaming.go:108-122: one whose apply fails
        TRANSIENTLY is retried in place with bounded exponential backoff
        (windows must commit in seq order because the ledger checkpoint
        is a single watermark, so the retry blocks rather than
        reorders); one that exhausts retries or fails permanently is
        SPOOLED to ``spool_dir`` as parquet and the stream advances
        (without a ``spool_dir`` the error is raised). Spooled events
        are re-applied later by ``replay_spooled`` — correct because LWW
        merge is order-independent and tombstones are kept.

        ``compact_every``: every N committed windows, one
        ``lake.maintain`` pass compacts partitions holding >=
        ``compact_min_files`` files and vacuums (keep_history=0) what it
        replaced, so file count, read cost and disk stay bounded. Its
        tombstone watermark is SPOOL-AWARE: pending spooled windows will
        later force-apply events at their original low seqs, so
        tombstones are only dropped up to min(pending spool lo) —
        otherwise the recovery replay could resurrect a compacted-away
        delete. The pass runs OUTSIDE the sink-retry loop and is
        best-effort: a failure is counted in ``compact_errors`` and the
        next trigger retries it. ``split_over_bytes`` makes the pass
        also SPLIT any active partition whose live bytes exceed the
        budget; this loop is the lake's ONLY applier, so the split's
        no-concurrent-writer contract holds by construction.

        READS AND PIPELINING: a window whose estimated bytes fit
        ``STREAM_DIRECT_READ_BYTES`` is read in the driver
        (``_window_dataset_fast``), and such a window N+1 is prefetched
        on ONE background thread while window N applies; the apply
        stays in this loop, so the watermark commits strictly in seq
        order. A larger window goes through Ray Data (``window_dataset``)
        and is not prefetched: holding a second large window raises
        peak memory. A failed prefetch falls back to the synchronous
        read, and retries re-derive the window fresh — a
        partially-consumed Dataset must never be re-applied.

        ENRICHERS therefore run on the prefetch thread, CONCURRENTLY
        with the apply of the previous window (and with a retry's
        re-read on the main thread) — in batch replay too, whenever its
        windows are direct reads: they must be pure and thread-safe, with
        no shared mutable state and no reliance on running serially or
        in window order.

        Returns run metrics incl. per-window commit latency p50/p95/max
        (seconds) and retried/spooled/compaction/split counts."""
        import shutil
        from concurrent.futures import ThreadPoolExecutor

        from ..sinks.retry import default_classify
        from ..util import _lock_token

        classify = classify or default_classify
        if max_seq is None:
            max_seq = changelog_max_seq(self.changelog_path)
        start_hi = lo = self.lake.last_committed_hi()
        lat: list[float] = []
        spooled: list[dict] = []
        counts = {"retried": 0, "compactions": 0, "compact_errors": 0, "splits": 0}
        t0 = time.perf_counter()
        prefetcher = ThreadPoolExecutor(max_workers=1)
        nxt = None  # future of this window's prefetched read
        try:
            while lo < max_seq:
                hi = min(lo + self.window_size, max_seq)
                t_w = time.perf_counter()
                ds_window = None
                if nxt is not None:
                    try:
                        ds_window = nxt.result()
                    except Exception:  # noqa: BLE001 — prefetch is advisory;
                        pass  # the sync read below sees any real error
                if ds_window is None:
                    ds_window = self._stream_window(lo, hi)
                nhi = min(hi + self.window_size, max_seq)
                nxt = (
                    prefetcher.submit(self._window_dataset_fast, hi, nhi)
                    if hi < max_seq and self._direct_read(hi, nhi)
                    else None
                )
                attempts = 0
                committed = False
                while True:
                    try:
                        if _compact_last and hi == max_seq:
                            self.lake.apply_window(ds_window, lo, hi, compact=True)
                        else:
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
                        # idempotent AND crash-safe re-spool: write the
                        # fresh copy to a pid-suffixed tmp dir first, swap
                        # only once it is complete. Deleting the prior copy
                        # before (or while) writing the new one would
                        # destroy the only recovery data for this window if
                        # the write failed — and a restarted stream must
                        # not APPEND a second copy into the deterministic
                        # dir (Ray's write_parquet uuid-names files into an
                        # existing dir). Crashed attempts' tmp dirs
                        # (dead-pid suffix) are swept here so they can't
                        # accumulate a window of parquet each.
                        self._sweep_dead_spool_tmp(spool_dir)
                        sub_tmp = f"{sub}.tmp.{_lock_token()}"
                        shutil.rmtree(sub_tmp, ignore_errors=True)
                        self._stream_window(lo, hi).write_parquet(sub_tmp)
                        shutil.rmtree(sub, ignore_errors=True)
                        os.rename(sub_tmp, sub)
                        spooled.append(
                            {"lo": lo, "hi": hi, "dir": sub,
                             "error": f"{type(e).__name__}: {e}"}
                        )
                        break
                # maintenance runs OUTSIDE the sink-retry loop: the window
                # is already committed, so a maintenance failure must not
                # be retried as a window apply (that would double-count
                # latency samples / metrics and, with a spool_dir, could
                # spool an already-committed window). On failure the same
                # partitions still exceed min_files, so the next trigger
                # simply retries the fold.
                if committed and compact_every and len(lat) % compact_every == 0:
                    try:
                        out = self.lake.maintain(
                            max_partition_bytes=split_over_bytes,
                            min_files=compact_min_files,
                            tombstone_watermark=self._safe_tombstone_watermark(
                                hi, spooled, spool_dir
                            ),
                            keep_history=0,
                        )
                        counts["compactions"] += bool(out["compact"].get("parts"))
                        counts["splits"] += len(out["splits"])
                    except Exception:  # noqa: BLE001 — maintenance boundary
                        counts["compact_errors"] += 1
                lo = hi
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
            "spooled": spooled,
            **counts,
        }

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
    force = as_of_seq == 0 and lake.ledger.max_seq() == 0
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
