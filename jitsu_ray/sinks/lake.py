"""Partitioned last-writer-wins Parquet lake table.

The sink half of the CDC engine. Semantics are lifted from the
reference's upsert destinations — ClickHouse ReplacingMergeTree with a
version column (server/adapters/clickhouse.go:155-190) and Postgres
``INSERT ... ON CONFLICT DO UPDATE`` (server/adapters/postgres.go:49,
511-551) — but made *exact* and order-independent: for every key the
row with the maximum ``commit_seq`` wins, and wins as a tombstone if
that row is a delete. A later re-insert (higher seq) resurrects the key.

Physical design (LSM-ish, append-only):

    lake_dir/
      _meta.json                    # key cols, partition count, hash algo
      _schema/v000001.json          # logical payload schema versions
      _ledger/00000001.json ...     # commit log (state/ledger.py)
      part=00007/delta-<lo>-<hi>.parquet   # one window's winners for part 7
      part=00007/base-<n>.parquet          # compacted state
      part=00007/base-<lo>-<hi>.parquet    # ... a compacting window's
      part=00007/<file>.parquet.bloom      # each data file's key Bloom filter

Applying a window only *appends* per-partition delta files containing
the window's per-key winners — O(window), never O(table) — so ingest
throughput is independent of accumulated table size. Resolution
(per-key argmax over base+deltas, drop tombstones) happens at read time
and is folded down by ``compact()`` (or by a compacting window,
``apply_window(compact=True)``); both are per-partition and
shuffle-free because every key hashes to exactly one partition for the
table's lifetime.

Scale notes (the 100 TB design points):
  * The only all-to-all exchange per window is the hash partition of
    the window's events — after a per-batch combiner has already
    collapsed duplicate keys, so the shuffle carries at most (unique
    keys in window) rows. The exchange is EXPLICIT rather than
    ``groupby("__part")``: Ray 2.49's sort-based shuffle partitions
    blocks into zero-copy slices whose serialization ships the whole
    parent block per slice — on wide large_string rows that is a
    ~40x shuffle write amplification (measured: 2M x 800B rows took
    30s at 32 CPUs and anti-scaled vs 8 CPUs), and the hash-shuffle
    strategy crashes on empty partitions in this version. Instead one
    stateless ``_fold_window`` task per group of partitions reads the
    window's prepped blocks zero-copy from plasma and folds only its
    own rows; the ledger's put-if-absent row is the only point of
    ordering, so no writer needs to be a long-lived actor.
  * Hot repos are handled by hashing the full (repo, path) key: a
    Zipf-heavy repo's files spread uniformly over partitions. A single
    hot *key* is irreducible (its events must meet in one group) but
    the per-key merge is a cheap argmax.
  * Wide rows (multi-MB ``content``) stay in Arrow large_string; every
    stage is ``batch_format="pyarrow"``; nothing converts to pandas.
  * Writes are resumable/idempotent: delta paths are deterministic per
    NORMAL window (forced windows get unique tags — they may share
    bounds with a committed window they must never overwrite) and
    invisible until the ledger row lands (state/ledger.py).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import struct
import tempfile

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import polars as pl
import ray
import ray.data

from ..schema.reconciler import LakeSchema, observed_payload
from ..state.ledger import Ledger, LedgerState
from ..types import DataType, from_arrow, to_arrow
from ..util import (
    HASH_ALGO,
    hash64_column,
    hash_mod_column,
    hash_route_column,
    pad_and_cast,
)


def _bounded_runs(items, sizes: list[float], budget: float) -> list[list]:
    """Consecutive runs of ``items`` whose ``sizes`` sum within
    ``budget``. The first item of a run always joins even when alone
    over budget, so an oversized item forms its own singleton run."""
    runs: list[list] = []
    cur: list = []
    cur_bytes = 0.0
    for item, sz in zip(items, sizes):
        if cur and cur_bytes + sz > budget:
            runs.append(cur)
            cur, cur_bytes = [], 0.0
        cur.append(item)
        cur_bytes += sz
    if cur:
        runs.append(cur)
    return runs


# On-disk bytes one read task resolves. ``read``, ``scan_range``,
# ``diff_as_of`` and ``lookup`` pack whole partitions, in partition
# order, into runs of at most this many bytes (``_read_runs``); a larger
# partition is a run of its own and reads as one task, as before. At the
# ~3.4x zstd expansion measured on ``content``, 32 MiB keeps a task's
# decompressed output under Ray Data's 128 MiB ``target_max_block_size``.
# There is deliberately no CPU-count floor: a small lake reads in one
# task, because splitting a few MB across workers costs a second worker
# process more than the bytes (Delta Lake bin-packs small files for the
# same reason). ``compact`` packs its folds' input bytes by the same
# budget, so a small lake also compacts in one task.
_READ_TASK_BYTES = 32 << 20


def _read_runs(units: list, files: list[list[str]]) -> list[list]:
    """Pack read ``units`` (one per partition, in partition order) into
    runs of at most ``_READ_TASK_BYTES`` on-disk bytes, ``files[i]``
    being the files unit ``i`` reads."""
    sizes = [sum(os.path.getsize(f) for f in fs) for fs in files]
    return _bounded_runs(units, sizes, _READ_TASK_BYTES)


_CHUNK_RE = re.compile(r"-c\d{3,}\.parquet$")  # a clustered fold's chunk file


def _chunk_runs(files: list[str]) -> list[list[str]]:
    """Group a partition's live ``files`` (ledger order) into tier
    UNITS: a clustered fold's anchored chunk run (``<stem>-cNNN``
    files, consecutive in the replay by ``insert_after``) is one unit,
    every other file its own. Maintenance folds whole units only, so a
    run cut at its target is never regrouped chunk by chunk."""
    units: list[list[str]] = []
    prev = None
    for f in files:
        m = _CHUNK_RE.search(f)
        stem = f[: m.start()] if m else None
        if stem is not None and stem == prev:
            units[-1].append(f)
        else:
            units.append([f])
        prev = stem
    return units


def active_moduli(base: int, splits: list) -> dict[int, int]:
    """{active partition id: its routing modulus} under a split
    topology — the base partitions minus split parents plus their
    children, folded in commit order (a child with the parent's id at
    the refined modulus is a distinct node; the dict keeps the deepest
    modulus, matching hash_route_column's descent)."""
    act = {p: base for p in range(base)}
    for sid, m, f in splits:
        if act.get(sid) == m:
            act.pop(sid)
            for j in range(f):
                act[sid + j * m] = m * f
    return act

OP_COL = "op"
SEQ_COL = "commit_seq"
PART_COL = "__part"
TOMBSTONE = "delete"


def parquet_seq_bounds(path: str) -> tuple[int, int] | None:
    """(min, max) ``commit_seq`` of one parquet file from its footer
    statistics — no data scan — or None when it holds no rows. Fails
    safe: when any row group lacks commit_seq min/max (a file from
    another writer, or one written without statistics), the file's
    commit_seq column is read instead, so the bounds are never too
    narrow and the file is never dropped."""
    with pq.ParquetFile(path) as pf:
        md = pf.metadata
        idx = md.schema.to_arrow_schema().get_field_index(SEQ_COL)
        stats = [md.row_group(rg).column(idx).statistics for rg in range(md.num_row_groups)]
        if stats and all(st is not None and st.has_min_max for st in stats):
            return min(st.min for st in stats), max(st.max for st in stats)
        mm = pc.min_max(pf.read(columns=[SEQ_COL])[SEQ_COL])
    lo, hi = mm["min"].as_py(), mm["max"].as_py()
    return None if lo is None else (lo, hi)


def resolve_arrow(tbl: pa.Table, key_cols: list[str]) -> pa.Table:
    """Read-side resolution: per-key LWW winners with tombstones dropped."""
    if tbl.num_rows == 0:
        return tbl
    win = resolve_keep_tombstones(tbl, key_cols)
    return win.filter(pc.not_equal(win[OP_COL], TOMBSTONE))


# Key Bloom sidecar ``<file>.parquet.bloom``: a 16-byte header (magic
# with the format version, ``m`` u64, ``k`` u32, little-endian), then the
# ``ceil(m / 8)`` filter bytes. Older lakes have ``.bloom.npz`` sidecars
# (~740 B of zip and .npy framing around ~60 B of bits on a small delta):
# nothing reads them, so their files fail open until compaction rewrites
# them. ``vacuum`` deletes a data file with every suffix here.
_BLOOM_SUFFIX = ".bloom"
_LEGACY_BLOOM_SUFFIX = ".bloom.npz"
_LAKE_FILE_SUFFIXES = ("", _BLOOM_SUFFIX, _LEGACY_BLOOM_SUFFIX)
_BLOOM_HEADER = struct.Struct("<4sQI")
_BLOOM_MAGIC = b"JRB\x01"


def _write_key_bloom(tbl: pa.Table, key_cols: list[str], parquet_path: str) -> str:
    """Per-file key Bloom sidecar (``<file>`` + ``_BLOOM_SUFFIX``) over
    the 64-bit composite-key hash — the point-lookup complement to zone
    maps: hash-partitioned string keys (repo/path) span the whole
    alphabet in EVERY delta file, so [min,max] never prunes them, while
    a ~10-bits/key Bloom skips a file for any absent key with ~1% false
    positives. Written tmp+rename next to the (already deterministic)
    data path, so idempotent window retries converge. A Bloom "maybe"
    still reads the parquet — pruning stays exact."""
    from ..ops.sketch import BloomFilter

    # ``tbl`` is resolved (one row per key), so its key rows are already
    # the distinct keys the filter is sized by
    bf = BloomFilter.build(hash64_column(tbl, key_cols).to_numpy(zero_copy_only=False))
    path = parquet_path + _BLOOM_SUFFIX
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    with os.fdopen(fd, "wb") as f:
        f.write(_BLOOM_HEADER.pack(_BLOOM_MAGIC, bf.m, bf.k) + bf.bits.tobytes())
    os.replace(tmp, path)
    return path


def _read_key_bloom(parquet_path: str):
    """The file's key ``BloomFilter``, or None when its sidecar is
    missing, truncated, of another format or otherwise unreadable."""
    import numpy as np

    from ..ops.sketch import BloomFilter

    try:
        with open(parquet_path + _BLOOM_SUFFIX, "rb") as f:
            buf = f.read()
        magic, m, k = _BLOOM_HEADER.unpack_from(buf)
    except (OSError, struct.error):
        return None
    n_bytes = len(buf) - _BLOOM_HEADER.size
    if magic != _BLOOM_MAGIC or m < 1 or k < 1 or n_bytes != (m + 7) // 8:
        return None
    return BloomFilter(np.frombuffer(buf, np.uint8, offset=_BLOOM_HEADER.size), m, k)


def _bloom_may_contain(parquet_path: str, key_hashes) -> bool:
    """Probe a file's Bloom sidecar; an unreadable one never prunes."""
    bf = _read_key_bloom(parquet_path)
    return bf is None or bool(bf.contains_many(key_hashes).any())


def _key_zone_stats(tbl: pa.Table, key_cols: list[str]) -> dict:
    """Per-key-column [min, max] zone map for one delta/base file —
    recorded in its ledger entry so key lookups can skip files whose
    range excludes every requested key (the lakehouse file-statistics
    idea, derived from the ledger instead of parquet footers: at 100 TB
    the ledger scan is one small-file read vs millions of footer
    fetches). A column with any NULL key or a non-JSON-serializable
    bound is recorded [None, None] = never prunable — pruning must only
    ever skip files that provably lack the key."""
    out = {}
    for c in key_cols:
        bounds = [None, None]
        # schema evolution: a window written before a stats column
        # existed simply records unprunable bounds for it
        if c in tbl.column_names:
            col = tbl[c]
            if len(col) and col.null_count == 0:
                mm = pc.min_max(col)
                lo, hi = mm["min"].as_py(), mm["max"].as_py()
                if isinstance(lo, (str, int, float, bool)):
                    bounds = [lo, hi]
        out[c] = bounds
    return out


def _drop_old_tombstones(tbl: pa.Table, watermark: int) -> pa.Table:
    """Physically drop tombstone winners with commit_seq <= watermark —
    legal only on a fold that covers ALL of a partition's rows (see
    :meth:`LakeTable.compact`, invariant (b))."""
    if watermark <= 0:
        return tbl
    drop = pc.and_(
        pc.equal(tbl[OP_COL], TOMBSTONE),
        pc.less_equal(tbl[SEQ_COL], watermark),
    )
    return tbl.filter(pc.invert(drop))


# Codec and encoding of every lake data file. On-disk bytes are what
# write and space amplification count. Parquet compresses each page on
# its own, so the format decides how far back zstd can find a repeat:
#
# * zstd level 3, not 1: level 1's small match tables miss most repeats
#   between rows of source-code text (-22% bytes on large files from
#   the level alone). Levels 4 and 5 were no smaller; 5 was larger.
# * plain encoding, no dictionary: ``content`` values are nearly all
#   unique, so a dictionary page holds the same bytes as the data and
#   splits the chunk in two streams the compressor sees apart.
# * data pages of 8 MB, larger than zstd-3's ~2 MB window, so a column
#   chunk is compressed as one stream; 4, 16 and 64 MB gave the same
#   bytes, pyarrow's default 1 MB restarts the compressor per page.
#
# Against zstd-1 with dictionaries and 1 MB pages, on the seed-42
# changelog: 100k-event window deltas -24% bytes, compacted bases -33%,
# 1k-event tail deltas -8%; write time stays within run-to-run noise
# and full-file reads of large files are ~23% faster. The
# generated ``content`` joins 1-6 fragments from a pool of 512, so
# rows repeat each other more than real source code does, and real
# corpora will gain less. Parquet records codec and encoding per column
# chunk, so a lake mixing older files (snappy, zstd-1, dictionaries)
# with these reads as it is, and its next compaction rewrites them.
#
# Min/max statistics (footer and page headers) only for ``commit_seq``,
# the one footer statistic code reads (``parquet_seq_bounds``); pruning
# uses the ledger's zone maps and the Bloom sidecars. Payload bounds
# were ~25% of a small delta's bytes, the zone columns' ~200 B more. No
# ``ARROW:schema`` footer key (~620 B a file): every lake type is native
# Parquet and every lake read passes ``schema=`` the reconciled schema.
# Files written with more statistics or with the key read as they are.
_LAKE_PARQUET = {
    "compression": "zstd",
    "compression_level": 3,
    "use_dictionary": False,
    "data_page_size": 8 << 20,
    "write_statistics": [SEQ_COL],
    "store_schema": False,
}

# maintain() splits a partition into ceil(bytes * headroom / budget)
# children: small zstd children compress worse than their parent and
# hashing spreads keys unevenly, so without headroom some land over the
# budget and the next pass splits them again. 1.5 was fitted on one
# lake at zstd-1 and still holds in the zstd-3 plain format (that
# lake's largest child went from 79% to 71% of the budget); the penalty
# is unbounded, so it is a margin, not a guarantee.
_SPLIT_HEADROOM = 1.5


def _write_lake_files(
    tbl: pa.Table,
    lake_dir: str,
    part: int,
    stem: str,
    key_cols: list[str],
    zone_cols: list[str],
    cluster_by: list[str] | None = None,
    rows_per_chunk: float | None = None,
) -> list[dict]:
    """Write one RESOLVED table (one row per key) as lake file(s) —
    zstd-3, plain-encoded, one page per column chunk up to 8 MB
    (``_LAKE_PARQUET``) — under ``part=<part>/`` and return one ledger
    info per file — the single writer behind window deltas, compaction
    folds and split children. Each file is written tmp+replace at a
    deterministic path (a retry converges), gets its key Bloom sidecar,
    and its info records ``file``, ``rows``, on-disk ``bytes`` and the
    zone-map ``key_stats`` over ``zone_cols``. A file's fixed cost is
    kept small, since a streaming lake holds many small deltas: Parquet
    statistics on ``commit_seq`` only, no ``ARROW:schema`` footer key,
    and a raw Bloom sidecar (``_write_key_bloom``).

    ``cluster_by``: CLUSTERED rewrite — sort by these columns and cut
    into range-disjoint chunk files ``<stem>-cNNN`` of about
    ``rows_per_chunk`` rows (one chunk when None), so each file's zone
    map covers a NARROW band and ``scan_range`` prunes most files
    (lexicographic Z-ordering; safe because the table holds one
    resolved row per key, so intra-table row order never decides an LWW
    tie). Folds size ``rows_per_chunk`` from their inputs' on-disk
    bytes per row (``_fold_and_write``), so a chunk lands near its
    on-disk byte target — the unit tiering counts. Chunk infos j >= 1
    ANCHOR to their predecessor (``insert_after``) so the whole chunk
    run replays at the first chunk's position, and maintenance treats
    the run as one unit (``_chunk_runs``)."""
    part_dir = os.path.join(lake_dir, f"part={part:05d}")
    os.makedirs(part_dir, exist_ok=True)
    chunks = [tbl]
    if cluster_by and tbl.num_rows:
        tbl = tbl.sort_by([(c, "ascending") for c in cluster_by])
        n_chunks = math.ceil(tbl.num_rows / (rows_per_chunk or tbl.num_rows))
        rows_per = -(-tbl.num_rows // n_chunks)
        chunks = [tbl.slice(i, rows_per) for i in range(0, tbl.num_rows, rows_per)]
    infos: list[dict] = []
    for j, chunk in enumerate(chunks):
        name = stem if len(chunks) == 1 else f"{stem}-c{j:03d}"
        rel = f"part={part:05d}/{name}.parquet"
        final = os.path.join(lake_dir, rel)
        fd, tmp = tempfile.mkstemp(dir=part_dir, suffix=".tmp")
        os.close(fd)
        chunk = chunk.combine_chunks()
        pq.write_table(chunk, tmp, **_LAKE_PARQUET)
        os.replace(tmp, final)
        _write_key_bloom(chunk, key_cols, final)
        info = {
            "file": rel,
            "rows": chunk.num_rows,
            "bytes": os.path.getsize(final),
            "key_stats": _key_zone_stats(chunk, zone_cols),
        }
        if j:
            info["insert_after"] = infos[-1]["file"]
        infos.append(info)
    return infos


# Ray tasks and map functions live at module level and take everything
# they need as arguments: a remote function defined per call registers a
# new task type each time, and a long-lived session accumulates them.


def _prep_window_batch(
    batch: pa.Table, target: pa.Schema, key_cols: list[str], num_parts: int,
    splits: list,
) -> pa.Table:
    """apply_window's combiner: pad/cast to the lake schema, tag each
    row's partition, and pre-reduce per key within the batch, so the
    exchange moves at most one row per (key, batch)."""
    batch = pad_and_cast(batch, target)
    part = hash_route_column(batch, key_cols, num_parts, splits)
    batch = batch.set_column(0, PART_COL, part)
    return resolve_keep_tombstones(batch, key_cols)


@ray.remote
def _fold_window(
    parts: list[int], window_tag: str, writer: dict, *blocks: pa.Table,
) -> list[dict]:
    """apply_window's fold for one group of partitions: take the
    group's rows from every prepped block of the window, LWW-resolve
    them once (tombstones kept), and write one ``delta-<window_tag>``
    file per touched partition through ``_write_lake_files``, whose
    other arguments ``writer`` holds. Returns one info row per file,
    each carrying the task's own fold+write time as ``fold_sec``.

    A COMPACTING window (``apply_window(compact=True)``) also carries
    ``live`` ({partition: its live files, ledger order}), ``target`` and
    ``watermark`` in ``writer``. A touched partition with live files is
    then folded whole, one partition at a time: its files are read in
    ledger order, the window's rows go after them, and the table is
    resolved, loses its tombstones at or below ``watermark`` and is
    written as ``base-<window_tag>``. That is the table a full
    compaction of the files plus the window's delta resolves, so the
    base has the same bytes. Its info gains ``replaces`` (the folded
    files); ``rows`` and ``tombstones`` still count the window's rows,
    ``bytes`` the base.

    Stateless, so a retry (a worker dying mid-fold) rewrites the same
    deterministic paths with the same bytes, and nothing outlives the
    window. Every group reads every block: zero-copy from plasma on one
    node, but a multi-node cluster would ship each block to every group
    (window x groups bytes)."""
    import time

    import numpy as np

    t0 = time.perf_counter()
    writer = dict(writer)
    live = writer.pop("live", {})
    target = writer.pop("target", None)
    watermark = writer.pop("watermark", 0)
    mine = []
    for block in blocks:
        # 0-row map outputs surface as schema-less blocks; nothing to own
        if block.num_rows == 0 or PART_COL not in block.column_names:
            continue
        pvals = block[PART_COL].to_numpy(zero_copy_only=False)
        idx = np.nonzero(np.isin(pvals, parts))[0]
        if idx.size:
            mine.append(block if idx.size == block.num_rows else block.take(idx))
    if not mine:
        return []
    tbl = resolve_keep_tombstones(pa.concat_tables(mine), writer["key_cols"])
    pvals = tbl[PART_COL].to_numpy(zero_copy_only=False)
    out = []
    for p in parts:
        idx = np.nonzero(pvals == p)[0]
        if idx.size == 0:
            continue
        merged = tbl.take(idx)
        n_tomb = pc.sum(pc.equal(merged[OP_COL], TOMBSTONE)).as_py() or 0
        files = live.get(p)
        if files:
            old = pq.ParquetDataset(
                [os.path.join(writer["lake_dir"], f) for f in files], schema=target
            ).read()
            # unclustered, so one file and no chunk size to estimate
            [info] = _fold_and_write(
                pa.concat_tables([old, merged.cast(target)]), p, f"base-{window_tag}",
                watermark, {**writer, "chunk_bytes": None}, 0,
            )
            info.update(rows=merged.num_rows, replaces=files)
        else:
            [info] = _write_lake_files(merged, part=p, stem=f"delta-{window_tag}", **writer)
        out.append({"part": p, "tombstones": n_tomb, **info})
    fold_sec = round(time.perf_counter() - t0, 3)
    return [{**r, "fold_sec": fold_sec} for r in out]


def _fold_and_write(
    tbl: pa.Table, part: int, stem: str, watermark: int, layout: dict,
    in_bytes: float,
) -> list[dict]:
    """LWW-resolve ``tbl`` (tombstones kept, then those at or below
    ``watermark`` dropped — pass 0 unless the fold covers the whole
    partition) and write it through ``_write_lake_files``, whose other
    arguments ``layout`` holds (``LakeTable._layout``).

    Clustered chunks are cut at ``layout["chunk_bytes"]`` (default
    64 MB) of ON-DISK bytes, estimated from the inputs: ``tbl`` came
    from ``in_bytes`` of lake files, so a chunk holds
    ``chunk_bytes / (in_bytes / tbl.num_rows)`` rows. The estimate
    carries the inputs' codec with it, and resolution only drops rows,
    so a fold whose input fits ``chunk_bytes`` writes one file."""
    writer = dict(layout)
    chunk_bytes = writer.pop("chunk_bytes") or (64 << 20)
    rows_per_chunk = chunk_bytes * tbl.num_rows / max(in_bytes, 1)
    merged = resolve_keep_tombstones(tbl, layout["key_cols"])
    return _write_lake_files(
        _drop_old_tombstones(merged, watermark), part=part, stem=stem,
        rows_per_chunk=rows_per_chunk, **writer,
    )


@ray.remote
def _compact_fold(folds: list[tuple], target: pa.Schema, layout: dict) -> list[list[dict]]:
    """A run of compaction folds, each ``(files, part, stem, watermark,
    fallback, in_bytes)``: fold ``files`` (ledger order, ``in_bytes``
    on disk) into ``part``. The folds run one after another, so the task
    holds one fold's table at a time. Returns each fold's infos."""
    out = []
    for files, part, stem, watermark, fallback, in_bytes in folds:
        infos = _fold_and_write(
            pq.ParquetDataset(files, schema=target).read(), part, stem, watermark,
            layout, in_bytes,
        )
        # only the first chunk replaces the inputs; later chunks anchor
        # to their predecessor (insert_after) so the chunk run sits at
        # the fold's replay position
        infos[0]["replaces"] = [os.path.relpath(f, layout["lake_dir"]) for f in files]
        for info in infos[1:]:
            info["replaces"] = []
        if fallback:
            infos[0]["fallback"] = True
        out.append(infos)
    return out


@ray.remote
def _route_group(
    files: list[str], target: pa.Schema, key_cols: list[str], part: int,
    modulus: int, factor: int,
) -> tuple[pa.Table, ...]:
    """Split routing: read a group of the parent's files and return one
    slice per child (run with ``num_returns=factor``). Child j owns the
    keys with ``hash % (modulus * factor) == part + j * modulus``; the
    stable argsort keeps each slice in input row order."""
    import numpy as np

    from ..util import group_take_indices

    tbl = pq.ParquetDataset(files, schema=target).read()
    ids = (
        hash_mod_column(tbl, key_cols, modulus * factor)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    return tuple(
        tbl.take(idx).set_column(
            0, PART_COL, pa.array(np.full(idx.size, part + j * modulus, np.int32))
        )
        for j, idx in enumerate(group_take_indices((ids - part) // modulus, factor))
    )


@ray.remote
def _fold_child(
    child: int, stem: str, watermark: int, layout: dict, in_bytes: float,
    *slices: pa.Table,
) -> list[dict]:
    """Split fold: concatenate one child's slices in parent file order
    and write the child once, resolved. ``in_bytes`` is the child's
    share of its source files' on-disk bytes."""
    tbl = pa.concat_tables(slices)
    if tbl.num_rows == 0:
        return []
    return _fold_and_write(tbl, child, stem, watermark, layout, in_bytes)


def _read_unit(
    files: list[str], target: pa.Schema, key_cols: list[str], cols: list[str],
    narrow: list[bool] | None = None, keys: pa.Table | None = None,
) -> pa.Table:
    """The one lake reader: ``files`` in ledger order (the LWW tie
    order) as one LWW-resolved table of ``cols``. A file flagged
    ``narrow`` contributes only its key, seq and op columns, its other
    columns NULL; each run of consecutive files with one column set is
    one parquet scan. With ``keys``, only those keys' rows are resolved
    (exact polars semi-join, composite-key safe): resolving a key's own
    rows equals global resolution, because all of its versions live in
    its one partition."""
    narrow_cols = sorted({OP_COL, SEQ_COL, *key_cols})
    tables = []
    for is_narrow, grp in itertools.groupby(
        zip(files, narrow or [False] * len(files)), key=lambda fn: fn[1]
    ):
        t = pq.ParquetDataset([f for f, _ in grp], schema=target).read(
            columns=narrow_cols if is_narrow else cols
        )
        tables.append(
            pa.table(
                {
                    c: t[c] if c in t.column_names else pa.nulls(t.num_rows, target.field(c).type)
                    for c in cols
                }
            )
        )
    t = pa.concat_tables(tables)
    if keys is not None:
        t = (
            pl.from_arrow(t)
            # nulls_equal: IS NOT DISTINCT FROM key equality — a requested
            # NULL key must match the lake's null-keyed row (partition
            # routing and the Bloom sidecar already treat it as a real key
            # via fill_null(''); the semi join must not drop it at the end)
            .join(pl.from_arrow(keys), on=key_cols, how="semi", nulls_equal=True)
            .to_arrow()
            .cast(t.schema)
        )
    return resolve_arrow(t, key_cols)


def _read_run(
    run: list[dict], target: pa.Schema, key_cols: list[str], cols: list[str],
    out_cols: list[str], out_schema: pa.Schema, rng: tuple | None = None,
    diff: dict | None = None,
) -> pa.Table:
    """Read one run of plan units (``LakeTable._plan``), unit by unit in
    run order. A unit's ``files`` are read and resolved by
    ``_read_unit`` with its ``narrow`` flags or ``keys``, filtered to
    ``rng = (col, lo, hi)`` for a range scan (NULL never matches), and
    cut to ``out_cols``. A DIFF unit (``diff`` holds ``base``,
    ``splits_b`` and ``include_old``) is an a-state resolved ONCE, then
    diffed against each of its ``children``' b-states; when ``route``
    (a split lies between the cutoffs) each child sees only the a-rows
    that b's topology routes to it."""

    def resolved(unit: dict) -> pa.Table:
        if not unit["files"]:  # a diff side with no files
            return pa.schema([target.field(c) for c in out_cols]).empty_table()
        t = _read_unit(unit["files"], target, key_cols, cols, unit.get("narrow"), unit.get("keys"))
        if rng is not None:
            col, lo, hi = rng
            keep = pc.and_kleene(pc.greater_equal(t[col], lo), pc.less_equal(t[col], hi))
            t = t.filter(pc.fill_null(keep, False))
        return t.select(out_cols)

    outs = []
    for unit in run:
        t = resolved(unit)
        if diff is None:
            outs.append(t)
            continue
        ids = (
            hash_route_column(t, key_cols, diff["base"], diff["splits_b"])
            if unit["route"] and t.num_rows
            else None
        )
        for child in unit["children"]:
            da = t if ids is None else t.filter(pc.equal(ids, child["part"]))
            outs.append(
                _diff_states(da, resolved(child), key_cols, diff["include_old"]).cast(out_schema)
            )
    return pa.concat_tables(outs) if outs else out_schema.empty_table()


def _read_plan(batch: pa.Table, **kw) -> pa.Table:
    """The map function of every planned Dataset read (``read``,
    ``scan_range``, ``diff_as_of``): each row of ``batch`` is one run,
    read by ``_read_run`` with ``kw``."""
    return pa.concat_tables([_read_run(run, **kw) for run in batch["units"].to_pylist()])


@ray.remote(num_cpus=0)
def _lookup_run(run: list[dict], **kw) -> pa.Table:
    """``lookup``'s task: one run of partitions read as ONE unit — one
    parquet scan over all their kept files (partition order, each
    partition's in ledger order) and one semi-join to all their keys.
    That equals resolving each partition apart, because keys never
    cross partitions. Zero-cpu: a handful of row-group reads, scheduled
    without starving pipeline stages."""
    unit = {
        "files": [f for u in run for f in u["files"]],
        "keys": pa.concat_tables([u["keys"] for u in run]),
    }
    return _read_run([unit], **kw)


def _diff_states(
    da: pa.Table, db: pa.Table, key_cols: list[str], include_old: bool,
) -> pa.Table:
    """One partition's diff of two resolved states of the same columns
    (``diff_as_of``); every non-key column is payload."""
    payload = [c for c in da.column_names if c not in key_cols]
    da = pl.from_arrow(da).with_columns(pl.lit(True).alias("__a"))
    db = pl.from_arrow(db).with_columns(pl.lit(True).alias("__b"))
    # nulls_equal: a null-keyed row present unchanged in both states
    # must JOIN (and emit nothing), not split into a same-seq
    # delete+insert pair whose LWW tie a downstream replication apply
    # resolves nondeterministically
    j = da.join(db, on=key_cols, how="full", suffix="__b", coalesce=True, nulls_equal=True)
    in_a = pl.col("__a").fill_null(False)
    in_b = pl.col("__b").fill_null(False)
    changed = (
        pl.any_horizontal([pl.col(c).ne_missing(pl.col(f"{c}__b")) for c in payload])
        if payload
        else pl.lit(False)
    )
    j = j.with_columns(
        pl.when(~in_a)
        .then(pl.lit("insert"))
        .when(~in_b)
        .then(pl.lit("delete"))
        .when(changed)
        .then(pl.lit("update"))
        .otherwise(pl.lit(None, pl.String))
        .alias("change")
    ).filter(pl.col("change").is_not_null())
    if include_old:
        # new values plain (a-side nulls for delete come from the
        # join), old values as <c>__old siblings
        vals = [pl.col(f"{c}__b").alias(c) for c in payload] + [
            pl.col(c).alias(f"{c}__old") for c in payload
        ]
    else:
        vals = [
            pl.when(pl.col("change") == "delete")
            .then(pl.col(c))
            .otherwise(pl.col(f"{c}__b"))
            .alias(c)
            for c in payload
        ]
    return j.select([*key_cols, *vals, "change"]).to_arrow()


def _tombstones_for(
    batch: pa.Table, predicate, key_cols: list[str], seq: int
) -> pa.Table:
    """``delete_where``'s map function: one tombstone at ``seq`` per row
    of ``batch`` that ``predicate`` (a ``pa.Table -> bool mask``) keeps."""
    keys = batch.filter(predicate(batch)).select(key_cols)
    n = keys.num_rows
    cols = {
        OP_COL: pa.array([TOMBSTONE] * n, pa.string()),
        SEQ_COL: pa.array([seq] * n, pa.int64()),
    }
    for k in key_cols:
        cols[k] = keys[k]
    return pa.table(cols)


def _zone_may_contain(stats: dict, keys: pa.Table) -> bool:
    """True unless the zone map proves NO requested key is in the file:
    a key matches iff every key column lies within that column's
    [min, max]; missing / None bounds never prune."""
    import numpy as np

    mask = np.ones(keys.num_rows, dtype=bool)
    for c in keys.column_names:
        b = stats.get(c)
        if not b or b[0] is None:
            continue
        v = keys[c]
        ge = pc.fill_null(pc.greater_equal(v, b[0]), False)
        le = pc.fill_null(pc.less_equal(v, b[1]), False)
        mask &= pc.and_(ge, le).to_numpy(zero_copy_only=False)
        if not mask.any():
            return False
    return bool(mask.any())


class LakeTable:
    def __init__(self, lake_dir: str):
        from ..util import hash_self_test

        self.dir = lake_dir
        with open(os.path.join(lake_dir, "_meta.json")) as f:
            meta = json.load(f)
        # a lake written under a different partition hash (or a polars
        # whose xxhash64 drifted) must not be opened: rows would be
        # routed to the wrong partition and LWW resolution would break
        if meta.get("hash_algo", HASH_ALGO) != HASH_ALGO:
            raise RuntimeError(
                f"lake {lake_dir} was written with hash_algo="
                f"{meta.get('hash_algo')!r}, this build uses {HASH_ALGO!r}"
            )
        hash_self_test()
        self.key_cols: list[str] = meta["key_cols"]
        # physical key-column types, frozen at creation / first window
        # (reference: server/adapters/table.go:13-23 — a Table preserves
        # its columns' physical types; keys are never retyped). Stored as
        # logical-lattice names; absent (legacy lakes) => STRING. Frozen
        # because the partition hash stringifies key values — retyping a
        # key (int 5 -> float 5.0) would re-route rows mid-table.
        self.key_types: dict[str, DataType] = {
            k: DataType[v] for k, v in meta.get("key_types", {}).items()
        }
        self.num_partitions: int = meta["num_partitions"]
        self.stats_cols: list[str] = list(meta.get("stats_cols", []))
        # creation UUID (None on legacy lakes created before it existed);
        # replication records it so a same-path recreated source is caught
        self.lake_id: str | None = meta.get("lake_id")
        self.schema_dir = os.path.join(lake_dir, "_schema")
        self.ledger = Ledger(os.path.join(lake_dir, "_ledger"))
        self.schema = LakeSchema.load(self.schema_dir)
        # cluster CPU count, read at this instance's first window
        # (_fold_groups): a GCS round trip not worth paying per window
        self._cpus: int | None = None

    def _fold_groups(self, active: list[int]) -> list[list[int]]:
        """Split the active partition ids into fold groups, one
        ``_fold_window`` task each: ``min(active, cpus // 2)`` groups
        (half the CPUs leaves slots for the read/prep stages of the next
        window), group ``g`` owning the ids ``p % n == g``. The grouping
        never changes a file: each partition's rows are resolved and
        written the same in any group."""
        if self._cpus is None:
            self._cpus = int(ray.cluster_resources().get("CPU", 8))
        n = max(1, min(len(active), self._cpus // 2))
        groups = [[p for p in active if p % n == g] for g in range(n)]
        return [g for g in groups if g]

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        lake_dir: str,
        key_cols: list[str],
        num_partitions: int = 64,
        key_types: dict[str, "DataType | str"] | None = None,
        stats_cols: list[str] | None = None,
    ) -> "LakeTable":
        """``key_types`` optionally pins the key columns' logical types at
        creation (DataType or its name); keys not listed are recorded from
        the first applied window's observed schema instead.

        ``stats_cols``: non-key columns whose per-file [min, max] zone
        maps are recorded in every ledger row alongside the key stats —
        the data-skipping input for ``scan_range``. Frozen at creation
        (files written before a column was tracked are simply never
        prunable on it)."""
        os.makedirs(lake_dir, exist_ok=True)
        os.makedirs(os.path.join(lake_dir, "_schema"), exist_ok=True)
        meta_path = os.path.join(lake_dir, "_meta.json")
        if not os.path.exists(meta_path):
            kt = {
                k: (v.name if isinstance(v, DataType) else DataType[str(v)].name)
                for k, v in (key_types or {}).items()
            }
            import uuid

            with open(meta_path, "w") as f:
                json.dump(
                    {
                        "key_cols": list(key_cols),
                        "key_types": kt,
                        "num_partitions": num_partitions,
                        "hash_algo": HASH_ALGO,
                        "stats_cols": list(stats_cols or []),
                        # creation identity: lets a replica detect a source
                        # lake DELETED AND RECREATED AT THE SAME PATH (path
                        # identity alone cannot — realpath matches and a
                        # fresh ledger's seqs can collide with the recorded
                        # position, turning every round into a silent noop)
                        "lake_id": uuid.uuid4().hex,
                    },
                    f,
                )
        return cls(lake_dir)

    @classmethod
    def open(cls, lake_dir: str) -> "LakeTable":
        return cls(lake_dir)

    # -- schema -------------------------------------------------------------

    @property
    def system_cols(self) -> set[str]:
        return {OP_COL, SEQ_COL, PART_COL, *self.key_cols}

    def full_arrow_schema(self) -> pa.Schema:
        fields = [
            pa.field(PART_COL, pa.int32()),
            pa.field(OP_COL, pa.string()),
            pa.field(SEQ_COL, pa.int64()),
        ]
        fields += [
            pa.field(k, to_arrow(self.key_types.get(k, DataType.STRING)))
            for k in self.key_cols
        ]
        fields += self.schema.to_arrow_fields()
        return pa.schema(fields)

    def _ensure_key_types(self, ds_schema: pa.Schema) -> None:
        """Record any still-unrecorded key column's logical type from the
        first window's observed schema, then freeze it in _meta.json.
        UNKNOWN (all-null) observations stay unrecorded so a later window
        with real values can still pin the type.

        A LEGACY lake (created before key_types existed) that already
        holds committed windows stored its keys stringified — pin STRING
        for those, never the incoming window's type, or
        full_arrow_schema() would conflict with the existing files."""
        missing = [k for k in self.key_cols if k not in self.key_types]
        if not missing:
            return
        if self.ledger.last_committed_hi() > 0:
            for k in missing:
                self.key_types[k] = DataType.STRING
            self._save_meta()
            return
        names = set(ds_schema.names)
        changed = False
        for k in missing:
            if k not in names:
                continue
            lt = from_arrow(ds_schema.field(k).type)
            if lt == DataType.UNKNOWN:
                continue
            self.key_types[k] = lt
            changed = True
        if changed:
            self._save_meta()

    def _save_meta(self) -> None:
        """Persist key_types into _meta.json under a self-healing pid
        lock (util.acquire_pid_lock — a crashed writer's stale lock is
        broken once its pid is verifiably dead): the read-modify-write
        would otherwise race between two concurrent FIRST-window writer
        processes (the documented T4 scenario) and pin different key
        dtypes into one lake's meta and delta files. Inside the lock,
        any key a concurrent writer already pinned wins
        (first-writer-wins, mirroring the frozen key-type contract) and
        this writer adopts it so its own deltas are cast to the same
        physical type."""
        from ..util import acquire_pid_lock, release_pid_lock

        meta_path = os.path.join(self.dir, "_meta.json")
        lock = meta_path + ".lock"
        acquire_pid_lock(lock)
        try:
            with open(meta_path) as f:
                meta = json.load(f)
            for k, v in meta.get("key_types", {}).items():
                self.key_types[k] = DataType[v]  # concurrent pin wins
            meta["key_types"] = {k: t.name for k, t in self.key_types.items()}
            fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
            with os.fdopen(fd, "w") as f:
                json.dump(meta, f)
            os.replace(tmp, meta_path)
        finally:
            release_pid_lock(lock)

    def use_shared_schema_actor(self, name: str | None = None) -> None:
        """Route schema reconciliation through a named SchemaReconcilerActor
        (get-or-create) — the T4 concurrent-writers path: several
        LakeTable writer processes sharing one lake serialize their
        schema widenings through the actor instead of racing on the
        _schema dir (reference: per-table etcd lock around DDL,
        server/storages/table_helper.go)."""
        from ..schema.reconciler import SchemaReconcilerActor

        actor_name = name or f"jitsu_schema::{os.path.abspath(self.dir)}"
        self._schema_actor = SchemaReconcilerActor.options(
            name=actor_name, get_if_exists=True, lifetime="detached"
        ).remote(self.schema_dir)

    def _reconcile_window_schema(self, ds_schema: pa.Schema) -> None:
        observed = observed_payload(ds_schema, self.system_cols)
        if getattr(self, "_schema_actor", None) is not None:
            state = ray.get(
                self._schema_actor.reconcile.remote({n: int(t) for n, t in observed.items()})
            )
            # a concurrent writer may have widened further between the
            # actor reply and this load — loading a NEWER (strictly
            # additive) version is safe; older would mean a lost write
            self.schema = LakeSchema.load(self.schema_dir)
            if self.schema.version < state["version"]:
                raise RuntimeError(
                    f"schema dir version {self.schema.version} behind actor "
                    f"version {state['version']} — non-atomic schema save?"
                )
            return
        if self.schema.reconcile(observed):
            # Additive + idempotent: persisting before the ledger commit is
            # safe (a crashed window leaves a wider schema, which re-running
            # the window reproduces).
            self.schema.save(self.schema_dir)

    # -- write path ---------------------------------------------------------

    def apply_window(
        self,
        ds: "pa.Table | ray.data.Dataset",
        lo: int,
        hi: int,
        extra_metrics: dict | None = None,
        force: bool = False,
        compact: bool = False,
    ) -> dict:
        """Apply one micro-batch window of change events.

        ``ds`` must contain op, commit_seq, the key columns, and any
        payload columns. Returns the committed ledger entry.

        ``ds`` is a ``pa.Table`` (a window read in the driver,
        ``Replayer._window_dataset_fast``) or a Dataset. A table is
        prepped (``_prep_window_batch``) here in the driver and put once,
        so the window runs no Ray Data execution and its only Ray tasks
        are the fold tasks. A Dataset keeps the fused ``read ->
        map_batches(_prep_window_batch)`` stage, so a large window's raw
        rows never pass through plasma. Either way ``stages.stream_sec``
        times the prep and the collection of the prepped block refs.

        ``force=True`` bypasses the already-committed skip — the
        RECOVERY path (Replayer.replay_spooled): a spooled window whose
        (lo, hi] the stream has already advanced past must still be
        applied at its ORIGINAL bounds so the watermark never claims seq
        territory that was never read. A forced window whose (lo, hi]
        collides with an already-committed window's gets a SUFFIXED
        file tag so it can never overwrite that window's delta files
        (a re-apply of the SAME content just adds an equal-content file
        the LWW fold resolves identically).

        ``compact=True`` folds each touched partition's live files into
        the window (``_fold_window``): such a partition gets one
        resolved ``base-<lo>-<hi>`` file, with tombstones at or below
        ``hi`` dropped, instead of a delta, and the window row records
        the files it replaces (per partition, ``replaces``) for
        :meth:`vacuum`; a checkpoint row follows. The base has the bytes
        a full :meth:`compact` with ``tombstone_watermark=hi`` would
        write after a plain window, which then never needs writing.
        Touched partitions without live files get their delta as usual.
        The contract is :meth:`maintain`'s: no concurrent applier, and
        no later event may carry a seq at or below ``hi`` (seq-range
        replay, ``Replayer.run``). A forced window may sit below
        committed windows, so ``compact`` with ``force`` raises
        ValueError.
        """
        if compact and force:
            raise ValueError(
                "a forced window cannot compact: it may land below committed windows")
        st = self.ledger.state()
        if not force and hi <= st.hi:
            # Idempotent replay: window already committed (M8 / D3 analog —
            # the "already uploaded" skip, logfiles/uploader.go:103-109).
            return {"kind": "window", "lo": lo, "hi": hi, "skipped": True}

        import time as _time

        _t0 = _time.perf_counter()

        table = isinstance(ds, pa.Table)
        in_schema = ds.schema if table else ds.schema()
        if in_schema is not None:
            # a zero-BLOCK window (e.g. a replication re-sync of an empty
            # source) has no schema; there is nothing to pin or reconcile,
            # but the window must still COMMIT so the watermark advances
            in_schema = in_schema if table else in_schema.base_schema
            self._ensure_key_types(in_schema)
            self._reconcile_window_schema(in_schema)
        target = self.full_arrow_schema()
        key_cols = self.key_cols
        num_parts = self.num_partitions
        # routing topology, read fresh per window: a partition split
        # committed since the last window must re-route THIS window's
        # rows (splits are maintenance ops — they must not interleave
        # with a concurrently-applying window, same contract as compact
        # + the topology break rule in LedgerState)
        splits = list(st.splits)
        window_tag = f"{lo:012d}-{hi:012d}"
        if force:
            # A forced window may share (lo, hi] with a DIFFERENT
            # previously-committed window (a late spool recovery at its
            # original bounds after the stream advanced past them, a
            # repeated resync repair at frm == to). The deterministic
            # tag would then OVERWRITE that window's delta files on
            # disk — silent data loss the ledger cannot see (both rows
            # would point at one file; found by the randomized
            # interleaving property test). Forced windows therefore get
            # an ALWAYS-UNIQUE tag: ledger position + random suffix.
            # Uniqueness (rather than a probe-until-free loop) also
            # rules out (a) resurrecting a VACUUMED plain
            # tag whose file is gone from disk but whose ledger row
            # still names the path under older time-travel views, and
            # (b) two CONCURRENT forced appliers racing one existence
            # probe to the same "free" tag — the ledger's optimistic
            # seq claim serializes rows, not the file writes a probe
            # races against. The costs: an orphan file set per CRASHED
            # forced attempt (invisible — no ledger row — exactly like
            # any crashed normal window's staging leftovers) and a
            # duplicate equal-content file per re-forced identical
            # window (the LWW fold's last-arrival tie resolves both to
            # the same state).
            import uuid as _uuid

            window_tag = (
                f"{window_tag}-f{st.seq}-{_uuid.uuid4().hex[:8]}"
            )

        groups = self._fold_groups(sorted(active_moduli(num_parts, splits)))
        _t_stream = _time.perf_counter()
        prep_kw = {"target": target, "key_cols": key_cols,
                   "num_parts": num_parts, "splits": splits}
        if table:
            # one block, prepped in the driver: a Ray Data execution for
            # one small map costs ~45 ms and puts the prep on a second
            # worker process, each of which holds ~170 MB once it has run
            # engine code. Prepping the whole table instead of Ray Data's
            # batches pre-reduces more rows, never others: the fold's
            # resolve keeps each key's winner in input order either way.
            refs = [ray.put(_prep_window_batch(ds, **prep_kw))] if ds.num_rows else []
        else:
            prepped = ds.map_batches(
                _prep_window_batch, batch_format="pyarrow", fn_kwargs=prep_kw,
            )
            # blocks in input order: a fold concatenates them in ref
            # order, and that order is the equal-seq tie order and the
            # row order of the files written; Ray Data otherwise emits
            # blocks as their tasks finish, so a retried window could
            # write other bytes
            prepped.context.execution_options.preserve_order = True
            refs = [
                ref
                for bundle in prepped.iter_internal_ref_bundles()
                for ref in bundle.block_refs
            ]
        # Exchange (module docstring): one stateless fold task per group
        # reads every prepped block and keeps its own rows. A failure
        # anywhere raises before the ledger row, so the lake is untouched
        # and the caller may simply retry; a fold task whose worker dies
        # is retried by Ray, and its deterministic paths make the retry
        # converge.
        stream_sec = _time.perf_counter() - _t_stream
        writer = {"lake_dir": self.dir, "key_cols": key_cols,
                  "zone_cols": key_cols + self.stats_cols}

        def group_writer(g: list[int]) -> dict:
            if not compact:
                return writer
            return {**writer, "target": target, "watermark": hi,
                    "live": {p: st.parts[p] for p in g if p in st.parts}}

        tasks = [_fold_window.remote(g, window_tag, group_writer(g), *refs) for g in groups if refs]
        stats_rows = [r for rows in ray.get(tasks) for r in rows]
        replaces = {str(r["part"]): r["replaces"] for r in stats_rows if "replaces" in r}

        entry = {
            "kind": "window",
            "lo": lo,
            "hi": hi,
            "schema_version": self.schema.version,
            "files": {str(r["part"]): r["file"] for r in stats_rows},
            "key_stats": {str(r["part"]): r["key_stats"] for r in stats_rows},
            **({"replaces": replaces} if replaces else {}),
            "metrics": {
                "partitions": len(stats_rows),
                "rows_written": int(sum(r["rows"] for r in stats_rows)),
                "tombstones": int(sum(r["tombstones"] for r in stats_rows)),
                "bytes_written": int(sum(r["bytes"] for r in stats_rows)),
                "window_sec": round(_time.perf_counter() - _t0, 3),
                "stages": {
                    "stream_sec": round(stream_sec, 3),
                    # the slowest group's own fold+write time
                    "fold_sec": max((r["fold_sec"] for r in stats_rows), default=0.0),
                },
                "events_per_sec": round(
                    (hi - lo) / max(1e-9, _time.perf_counter() - _t0)
                ),
                "per_partition": [
                    {k: r[k] for k in ("part", "rows", "tombstones", "bytes")}
                    for r in stats_rows
                ],
                **(extra_metrics or {}),
            },
        }
        self.ledger.append(entry)
        if replaces:
            self.ledger.checkpoint()  # as compact() does after its row
        if getattr(self, "_metrics", None) is not None:
            from ..state.metrics import record_window

            record_window(self._metrics, entry)  # fire-and-forget pushes
        return entry

    def attach_metrics(self, metrics_handle) -> None:
        """A3/A4: push per-window counters/gauges to a metrics registry
        (state/metrics.get_metrics) after every ledger commit."""
        self._metrics = metrics_handle

    # -- read path ----------------------------------------------------------

    def live_files(self, as_of: int | None = None) -> dict[int, list[str]]:
        return self._live_paths(self.ledger.state(as_of))

    def _live_paths(self, st: LedgerState, tag: str | None = None) -> dict[int, list[str]]:
        """{partition: [absolute file paths]} of one ledger state. With a
        ``tag`` (a time-travel read) every file must still exist, else
        the error names the vacuum row that removed it."""
        live = {p: [os.path.join(self.dir, f) for f in fs] for p, fs in st.parts.items()}
        missing = tag and [f for fs in live.values() for f in fs if not os.path.exists(f)]
        if missing:
            raise self._missing_files_error(tag, missing)
        return live

    def max_row_seq(self) -> int:
        """Max ROW-level commit_seq across live files (tombstones
        included) from parquet FOOTER stats — no data scan. Distinct
        from the ledger watermark: window bounds are feed offsets, so a
        window may legally carry rows above its own ``hi``.
        Replication's heal path uses this to prove a foreign write did
        not plant seqs its watermark-stamped repair could never beat.
        Cost is one footer read per live file, driver-side — live-file
        count is bounded by compaction, and a heal is a rare manual
        event; not for hot paths. A file with a row group whose footer
        lacks commit_seq bounds (another writer's) has its commit_seq
        column read instead (``parquet_seq_bounds``), so the result is
        never too low."""
        bounds = [parquet_seq_bounds(f) for fs in self.live_files().values() for f in fs]
        return max([0, *(b[1] for b in bounds if b)])

    def read(
        self, columns: list[str] | None = None, as_of: int | None = None
    ) -> "ray.data.Dataset":
        """Resolved view of the table as a streaming Dataset, NO shuffle:
        a partition's base+delta files are co-located by construction, so
        per-partition resolution equals global resolution. Whole
        partitions are packed into tasks of at most ``_READ_TASK_BYTES``
        on-disk bytes (one task for a small lake), each resolving its
        partitions one by one. Old files are null-padded / up-cast to the
        current reconciled schema by the parquet scanner (``schema=``).

        ``columns`` prunes at the read: only the requested payload
        columns plus the key/seq/op system columns leave storage.

        ``as_of``: TIME TRAVEL — the state as of the ledger commit whose
        window ``hi`` <= as_of (windows above it excluded by the bounded
        ledger replay, state/ledger.LedgerState). Valid until a later
        compaction vacuumed the requested history (raises then, with the
        missing files named); window files carry only their own (lo, hi]
        seqs, so no row-level seq filter is needed."""
        tag = None if as_of is None else f"time-travel as_of={as_of}"
        live = self._live_paths(self.ledger.state(as_of), tag)
        target = self.full_arrow_schema()
        units = [{"files": fs} for _, fs in sorted(live.items())]
        return self._plan_dataset(units, target, self._out_cols(target, columns))[0]

    def _out_cols(self, target: pa.Schema, columns: list[str] | None) -> list[str]:
        """A read's output columns: ``columns`` plus the key columns, or,
        when None, every payload column plus the key and ``commit_seq``
        columns."""
        out = [f.name for f in target if f.name not in (PART_COL, OP_COL)]
        if columns:
            out = [c for c in out if c in columns or c in self.key_cols]
        return out

    def _plan(
        self, units: list[dict], target: pa.Schema, out_cols: list[str],
        rng: tuple | None = None, diff: dict | None = None,
    ) -> tuple[list[list[dict]], dict]:
        """The read planner's packer, behind every lake read. ``units``
        come one per partition (a diff: one per a-parent), in partition
        order, each holding its ``files`` in ledger order plus ``narrow``
        flags (``scan_range``), ``keys`` (``lookup``) or ``children``
        (``diff_as_of``). They are packed whole, by the on-disk bytes of
        their files (a diff unit's children included), into runs of at
        most ``_READ_TASK_BYTES``. Returns the runs and ``_read_run``'s
        keyword arguments; their ``out_schema`` (``out_cols``, plus a
        diff's ``<col>__old`` and ``change`` columns) gives the empty
        result."""
        runs = _read_runs(
            units,
            [u["files"] + [f for c in u.get("children", ()) for f in c["files"]] for u in units],
        )
        fields = [target.field(c) for c in out_cols]
        if diff is not None:
            if diff["include_old"]:
                fields += [
                    pa.field(f"{c}__old", target.field(c).type)
                    for c in out_cols if c not in self.key_cols
                ]
            fields.append(pa.field("change", pa.string()))
        return runs, dict(
            target=target, key_cols=self.key_cols,
            cols=sorted({OP_COL, SEQ_COL, *out_cols, *(rng or ())[:1]}),
            out_cols=out_cols, out_schema=pa.schema(fields), rng=rng, diff=diff,
        )

    def _plan_dataset(
        self, units: list[dict], target: pa.Schema, out_cols: list[str], **post,
    ) -> tuple["ray.data.Dataset", int]:
        """A planned read (``_plan``) as a Dataset, and its task count:
        one Ray Data item and one ``_read_plan`` call per run."""
        runs, kw = self._plan(units, target, out_cols, **post)
        if not runs:
            return ray.data.from_arrow(kw["out_schema"].empty_table()), 0
        ds = ray.data.from_items([{"units": r} for r in runs]).map_batches(
            _read_plan, batch_size=1, batch_format="pyarrow", fn_kwargs=kw,
        )
        return ds, len(runs)

    def scan_range(
        self, col: str, lo, hi, columns: list[str] | None = None
    ) -> "ray.data.Dataset":
        """Zone-map-pruned resolved RANGE scan: rows of the CURRENT
        state with ``lo <= col <= hi`` (NULL never matches), reading the
        wide payload ONLY from files whose recorded [min, max] for
        ``col`` (a ``stats_cols`` entry or a key column) overlaps the
        range — the data-skipping scan a 100-TB lake runs for
        time/score-band queries over content-heavy tables.

        Merge-on-read makes naive file skipping UNSOUND: dropping an
        excluded file could drop the newest version of a key and
        resurrect an older in-range row. The sound two-phase shape used
        here: excluded files still contribute their (key, seq, op)
        columns — a narrow columnar read that skips the payload bytes —
        padded with NULL payload, so LWW resolution sees every version.
        Every file is read in its ledger position with its own column
        set, so equal-seq ties resolve as in ``read``. A winner padded
        from an excluded file then fails the residual range filter,
        which is CORRECT: its true value is provably outside the range
        (that is what its zone bounds excluded). Files with no recorded
        bounds for ``col`` are read in full (never pruned). Partitions
        are packed into byte-bounded tasks as in ``read``.
        ``self.last_scan_stats`` records files_total / files_full /
        files_narrow / tasks for observability and tests."""
        st = self.ledger.state()
        live = self._live_paths(st)
        target = self.full_arrow_schema()
        out_cols = self._out_cols(target, columns)

        def overlaps(f_abs: str) -> bool:
            rel = os.path.relpath(f_abs, self.dir)
            mn, mx = st.zones.get(rel, {}).get(col, [None, None])
            if mn is None:
                return True  # no bounds recorded -> never prunable
            return not (mx < lo or mn > hi)

        units = []
        n_full = n_narrow = 0
        for p, fs in sorted(live.items()):
            narrow = [not overlaps(f) for f in fs]
            if all(narrow):
                continue  # no in-range version can exist in this partition
            n_narrow += sum(narrow)
            n_full += len(fs) - sum(narrow)
            units.append({"files": fs, "narrow": narrow})
        ds, tasks = self._plan_dataset(units, target, out_cols, rng=(col, lo, hi))
        self.last_scan_stats = {
            "files_total": sum(len(fs) for fs in live.values()),
            "files_full": n_full,
            "files_narrow": n_narrow,
            "tasks": tasks,
        }
        return ds

    def _missing_files_error(self, tag: str, missing: list[str]) -> FileNotFoundError:
        """Build the precise time-travel error: name the ledger VACUUM
        row (if any) that removed the needed files. Without one, the
        files were deleted by older code (whose compaction unlinked what
        it replaced) or outside any vacuum."""
        rels = {os.path.relpath(f, self.dir) for f in missing}
        culprit = None
        for e in self.ledger.iter_entries_desc():
            if e["kind"] == "vacuum" and rels & set(e.get("removed", [])):
                culprit = e
                break
        if culprit is not None:
            return FileNotFoundError(
                f"{tag} history was removed by vacuum ledger row "
                f"{culprit['_seq']} (through_seq={culprit.get('through_seq')}, "
                f"keep_history={culprit.get('keep_history')}); "
                f"missing: {sorted(rels)[:3]}"
            )
        return FileNotFoundError(
            f"{tag} history is missing files that no vacuum ledger row "
            "removed (deleted by an older compaction that unlinked "
            f"replaced files, or outside vacuum); missing: {sorted(rels)[:3]}"
        )

    def lookup(
        self,
        keys,
        columns: list[str] | None = None,
        as_of: int | None = None,
    ) -> pa.Table:
        """Resolved rows for an explicit key set, with TWO-LEVEL file
        pruning — the point-lookup path a 100-TB lake needs (a full
        ``read()`` would stream every partition for a handful of keys):

        1. PARTITION pruning: each key hashes to exactly one partition
           (hash_mod_column is the same function the write path uses),
           so only |keys| of num_partitions partitions are touched.
        2. FILE pruning, two independent proofs of absence: the
           ledger-recorded per-key-column [min, max] zone map (wins on
           range-correlated keys: sequence ids, timestamps), then the
           per-file Bloom sidecar over the composite-key hash (wins on
           hash-like string keys, where every file spans the whole
           alphabet and min/max never excludes). Sound either way: a
           skipped file provably holds no version of the key, and LWW
           resolution only needs the key's own rows — all of which
           live in its one partition.

        The touched partitions' kept files are packed, in partition
        order, into runs of at most ``_READ_TASK_BYTES`` on-disk bytes,
        and each run is ONE zero-cpu ``_lookup_run`` task that reads its
        files and semi-joins its keys through the shared reader
        (``_read_unit``) — one task for a small lake, however many
        partitions the keys span. A direct task, not a Dataset: a
        streaming loop looks up once per window, and the task's latency
        is the lookup's.

        ``keys``: list[dict] or pa.Table holding exactly the key
        columns. Returns a pa.Table (point lookups are small by
        contract; use ``read()`` for scans). Tombstoned keys return no
        row. ``self.last_lookup_stats`` records files_total /
        files_read / partitions_read / tasks for observability and
        tests."""
        if isinstance(keys, list):
            keys = pa.Table.from_pylist(keys)
        target = self.full_arrow_schema()
        key_cols = self.key_cols
        units, live = [], {}
        zone_skipped = bloom_skipped = 0
        if keys.num_rows:
            keys = pa.table({c: pc.cast(keys[c], target.field(c).type) for c in key_cols})
            st = self.ledger.state(as_of)  # ONE state feeds all three views
            live = self._live_paths(st, None if as_of is None else f"time-travel as_of={as_of}")
            parts = hash_route_column(keys, key_cols, self.num_partitions, st.splits)
            by_part: dict[int, list[int]] = {}
            for i, p in enumerate(parts.to_numpy(zero_copy_only=False)):
                by_part.setdefault(int(p), []).append(i)
            for p, idx in sorted(by_part.items()):
                ktab = keys.take(idx)
                kh = hash64_column(ktab, key_cols).to_numpy(zero_copy_only=False)
                kept = []
                for f in live.get(p, []):
                    if not _zone_may_contain(st.zones.get(os.path.relpath(f, self.dir), {}), ktab):
                        zone_skipped += 1
                    elif not _bloom_may_contain(f, kh):
                        bloom_skipped += 1
                    else:
                        kept.append(f)
                if kept:
                    units.append({"files": kept, "keys": ktab})
        runs, kw = self._plan(units, target, self._out_cols(target, columns))
        tasks = [_lookup_run.remote(run, **kw) for run in runs]
        self.last_lookup_stats = {
            "keys": keys.num_rows,
            "files_total": sum(len(fs) for fs in live.values()),
            "files_read": sum(len(u["files"]) for u in units),
            "files_zone_skipped": zone_skipped,
            "files_bloom_skipped": bloom_skipped,
            "partitions_total": len(live),
            "partitions_read": len(units),
            "tasks": len(tasks),
        }
        empty = kw["out_schema"].empty_table()
        got = [t for t in ray.get(tasks) if t.num_rows]
        return pa.concat_tables([empty, *got]) if got else empty

    def diff_as_of(
        self,
        seq_a: int,
        seq_b: int,
        columns: list[str] | None = None,
        include_old: bool = False,
    ) -> "ray.data.Dataset":
        """CDC diff: the changelog between two committed states — every
        key whose VISIBLE VALUE differs between ``as_of=seq_a`` and
        ``as_of=seq_b``, classified in a ``change`` column as ``insert``
        (key only in b), ``delete`` (key only in a; the row carries its
        last-known a-side values), or ``update`` (present in both with
        any payload column differing, null-safe). Value-level semantics:
        a re-upsert that leaves every payload value identical is NOT a
        change (compare ``read(as_of=...)`` twice if you want seq-level
        provenance).

        ``include_old=True`` switches to the both-sides contract that
        incremental view maintenance needs: payload columns carry the
        NEW (b-side) values (null for delete) and each gains a
        ``<col>__old`` sibling with the OLD (a-side) value (null for
        insert) — so a consumer can retract the old contribution and
        add the new one without a second state read.

        Scale shape: like :meth:`read`, NO shuffle, and whole
        partitions packed into tasks of at most ``_READ_TASK_BYTES``
        on-disk bytes — a partition's files at both cutoffs are
        co-located by construction, so a task resolves both states of
        each of its partitions locally (``_read_unit``) and diffs them
        with one vectorized polars full join (``_read_run``). Cost is O(|state_a| +
        |state_b|), never a cross-partition exchange. Subject to the same
        vacuumed-history rule as time travel.
        """
        if seq_a > seq_b:
            raise ValueError(f"diff needs seq_a <= seq_b, got {seq_a} > {seq_b}")
        st_a, st_b = self.ledger.state(seq_a), self.ledger.state(seq_b)
        live_a = self._live_paths(st_a, "diff at seq_a")
        live_b = self._live_paths(st_b, "diff at seq_b")
        target = self.full_arrow_schema()
        key_cols = self.key_cols
        out_cols = [c for c in self._out_cols(target, columns) if c != SEQ_COL]
        payload = [c for c in out_cols if c not in key_cols]
        # output/suffix name collisions would silently shadow user data
        # (a payload literally named "change") or mis-pair the changed
        # detection (payload x alongside x__b): reject them up front
        reserved = {"change", "__a", "__b"}
        names = set(out_cols)
        clashes = [c for c in out_cols if c in reserved] + [
            c
            for c in payload
            if f"{c}__b" in names or (include_old and f"{c}__old" in names)
        ]
        if clashes:
            raise ValueError(
                f"diff_as_of cannot operate on columns named {sorted(set(clashes))}: "
                f"'change'/'__a'/'__b' are output/flag names and '<col>__b'/"
                f"'<col>__old' are join-suffix names — rename or prune via "
                f"columns=[...]"
            )
        splits_a, splits_b = st_a.splits, st_b.splits
        base = self.num_partitions
        if splits_a == splits_b:
            units = [
                {
                    "files": live_a.get(p, []),
                    "route": False,
                    "children": [{"part": p, "files": live_b.get(p, [])}],
                }
                for p in sorted(set(live_a) | set(live_b))
            ]
        else:
            # a PARTITION SPLIT lies between the cutoffs: pairing by raw
            # partition id would compare a parent's a-state against an
            # (empty or partial) child b-state and emit a spurious
            # delete+insert pair for every key whose partition moved —
            # at equal seqs, a nondeterministic LWW coin flip for a
            # downstream replica. Instead each b-active partition c is
            # diffed against ITS SLICE of the a-state: splits only
            # refine (splits_a is a prefix of splits_b), so c's hash
            # class lives in exactly one a-active partition; the task
            # re-routes the resolved a-rows under b's topology and keeps
            # only c's — a key that merely moved partitions then joins
            # its unchanged value and emits nothing.
            a_act = active_moduli(base, splits_a)
            b_act = active_moduli(base, splits_b)

            def a_part_of(c: int) -> int | None:
                for ia, ma in a_act.items():
                    if c % ma == ia:
                        return ia
                return None

            # ONE unit (= one read + one LWW resolve of the parent's
            # a-state) per a-parent, diffing all of its b-children from
            # the same resolved table — a maintain() split at factor 16
            # would otherwise re-read and re-resolve the parent 16x
            by_parent: dict[int | None, list[dict]] = {}
            for c in sorted(set(b_act) | set(live_b)):
                fb = live_b.get(c, [])
                pa_id = a_part_of(c)
                if live_a.get(pa_id) or fb:
                    by_parent.setdefault(pa_id, []).append({"part": c, "files": fb})
            # a split's a-parent and all its b-children stay one unit
            units = [
                {"files": live_a.get(pa_id, []), "route": True, "children": children}
                for pa_id, children in sorted(
                    by_parent.items(), key=lambda kv: (kv[0] is None, kv[0])
                )
            ]
        diff = {"base": base, "splits_b": splits_b, "include_old": include_old}
        return self._plan_dataset(units, target, out_cols, diff=diff)[0]

    # -- maintenance --------------------------------------------------------

    def _check_cluster_by(self, cluster_by: list[str] | None) -> None:
        """Fail fast on clustering columns without zone maps: those are
        only recorded for key/stats columns, so clustering on anything
        else pays the sort + extra files and prunes NOTHING, silently."""
        zone = set(self.key_cols) | set(self.stats_cols)
        bad = [c for c in cluster_by or [] if c not in zone]
        if bad:
            raise ValueError(
                f"cluster_by columns {bad} are not zone-map columns; "
                f"usable: key_cols {self.key_cols} + stats_cols "
                f"{self.stats_cols} (declare stats_cols at create)"
            )

    def _layout(self, cluster_by: list[str] | None, chunk_bytes: int | None) -> dict:
        """The ``_write_lake_files`` arguments a maintenance fold passes."""
        return {"lake_dir": self.dir, "key_cols": self.key_cols,
                "zone_cols": self.key_cols + self.stats_cols,
                "cluster_by": cluster_by, "chunk_bytes": chunk_bytes}

    def compact(
        self,
        min_files: int = 2,
        tombstone_watermark: int = 0,
        max_input_bytes: int | None = None,
        cluster_by: list[str] | None = None,
    ) -> dict:
        """Fold each partition's base+deltas into fewer base files.

        Compaction only COMMITS: the replaced files stay on disk, so
        ``as_of`` reads older than this compaction keep working until
        :meth:`vacuum` (the one delete path) removes them — the
        Delta Lake OPTIMIZE/VACUUM split. :meth:`maintain` runs both.

        ``tombstone_watermark``: tombstone winners with commit_seq <= the
        watermark are physically dropped. Only pass a nonzero watermark
        when no future window can deliver an event with a lower seq (the
        seq-range replayer guarantees this; arrival-ordered ingest with
        cross-window disorder must keep tombstones, else a late lower-seq
        update would wrongly resurrect a deleted key).

        ``max_input_bytes``: SIZE-TIERED mode — the 100-TB scale fix for
        whole-partition single-task folds (a partition's accumulated
        state eventually outgrows one worker's heap). Each fold task
        reads at most this many compressed ON-DISK input bytes (like
        every byte budget of the lake): a partition's live files are
        grouped into units (a clustered fold's chunk run counts as ONE
        unit, so a run cut at its target is never regrouped chunk by
        chunk) and the units into CONSECUTIVE runs (ledger order) under
        the budget; each run of >= 2 units folds into one base,
        single-unit runs pass through untouched. A partition whose groups are ALL singletons
        (adjacent units each near or over the budget) would never fold,
        so its cheapest adjacent unit pair folds instead — one
        over-budget fold per partition, marked ``"fallback": true`` in
        its ledger info — unless that fold would raise the file count
        (a clustered pair cut into more chunks than it has files).
        ``min_files`` counts units too. Repeated tiered compactions
        converge geometrically (N small deltas -> N/k tier bases -> ...)
        while every task stays byte-bounded, and with no new windows
        they reach a pass that commits nothing. Correctness under
        partial folds relies on two invariants: (a) the ledger replay INSERTS a
        fold's output at its first replaced file's position, so
        equal-seq LWW tie order is preserved; (b) the tombstone
        watermark is only applied when a single fold covers ALL of a
        partition's live files — a later-committed file may legally
        carry a LOWER seq (forced recovery windows), and dropping a
        tombstone from a prefix fold could let such a row resurrect.

        ``cluster_by``: CLUSTERED rewrite (the lakehouse OPTIMIZE/
        Z-ORDER idea, lexicographic): each fold's output is sorted by
        these columns and cut into range-disjoint chunk files of about
        ``max_input_bytes`` on-disk bytes (default 64 MB), estimated
        from the inputs' bytes per row (``_fold_and_write``; a fold
        whose input fits the budget writes one file) — so every file's
        ledger zone map covers a narrow band of the clustering columns
        and ``scan_range`` over them prunes most files; without it a
        random-ordered base spans the whole domain and nothing ever
        prunes. Use the partition's dominant range-scan column(s)
        (``stats_cols`` entries, typically a time or score band). Only the first chunk carries the fold's
        ``replaces``; the rest anchor to it (``insert_after``).

        Raw Ray tasks (not Dataset) by design: this is per-partition file
        maintenance with no cross-partition dataflow — each fold reads
        only its own partition's files. The folds, in (partition, tier)
        order, are packed into consecutive runs of at most
        ``_READ_TASK_BYTES`` input bytes (``_bounded_runs``), and each
        run is ONE ``_compact_fold`` task that folds one after another;
        a fold over the budget is a task of its own. So a small lake
        compacts in one task on one worker process, as it reads (Delta
        Lake's OPTIMIZE bin-packs small-file compaction the same way).
        One ledger row commits all folds atomically; a crash
        mid-compaction leaves only orphaned tmp files.
        """
        self._check_cluster_by(cluster_by)
        target = self.full_arrow_schema()
        layout = self._layout(cluster_by, max_input_bytes)
        st = self.ledger.state()
        gen = st.seq + 1
        todo = {p: _chunk_runs(fs) for p, fs in self._live_paths(st).items()}
        todo = {p: units for p, units in todo.items() if len(units) >= min_files}
        if not todo:
            return {"kind": "compact", "parts": {}}
        folds = []
        for p, units in sorted(todo.items()):
            # tiers group whole UNITS (a chunk run counts once), so a
            # run already cut at the budget is a singleton and stays
            sizes = [sum(os.path.getsize(f) for f in u) for u in units]
            groups = (
                [units]
                if max_input_bytes is None
                else _bounded_runs(units, sizes, max_input_bytes)
            )
            full_fold = len(groups) == 1 and len(groups[0]) == len(units)
            # a lone (possibly huge) tier passes through; a FULL
            # single-unit fold still runs (min_files=1 +
            # tombstone_watermark relies on it)
            part_folds = [
                (t, grp, full_fold)
                for t, grp in enumerate(groups)
                if len(grp) >= 2 or full_fold
            ]
            fallback = not part_folds and len(units) >= 2
            if fallback:
                # TIER STALL: every byte-bounded group is a singleton
                # (adjacent units each near or over the budget), so no
                # fold would ever run. Fold the adjacent unit pair with
                # the fewest bytes — one over-budget fold per partition
                # per pass, so the unit count still converges — among
                # pairs whose fold does not raise the file count: an
                # unclustered fold writes one file, a clustered one up
                # to ceil(bytes / budget) chunks
                pairs = [sizes[k] + sizes[k + 1] for k in range(len(units) - 1)]
                cands = [
                    k for k, b in enumerate(pairs)
                    if not cluster_by
                    or -(-b // max_input_bytes) <= len(units[k]) + len(units[k + 1])
                ]
                if not cands:
                    continue
                i = min(cands, key=pairs.__getitem__)
                part_folds = [(i, units[i : i + 2], len(units) == 2)]
            for t, grp, full in part_folds:
                files = [f for u in grp for f in u]
                folds.append((
                    files, p,
                    f"base-{gen:08d}" if full_fold else f"base-{gen:08d}-{t:03d}",
                    tombstone_watermark if full else 0, fallback,
                    sum(os.path.getsize(f) for f in files),
                ))
        if not folds:
            return {"kind": "compact", "parts": {}}
        runs = _bounded_runs(folds, [f[-1] for f in folds], _READ_TASK_BYTES)
        done = ray.get([_compact_fold.remote(run, target, layout) for run in runs])
        # folds run in (partition, tier) order, so each partition's
        # infos concatenate in replay order
        by_part: dict[int, list[dict]] = {}
        for (_, p, *_), infos in zip(folds, itertools.chain.from_iterable(done)):
            by_part.setdefault(p, []).extend(infos)
        # single-fold partitions keep the legacy single-dict shape
        entry = {
            "kind": "compact",
            "parts": {str(p): fl[0] if len(fl) == 1 else fl for p, fl in by_part.items()},
        }
        self.ledger.append(entry)
        # fold the ledger so the next apply/read replays O(rows since
        # here), not O(all windows) — long-running streaming lakes
        # otherwise reopen thousands of window JSONs per window
        # (best-effort: a lost multi-writer claim just tries next time)
        self.ledger.checkpoint()
        return entry

    def split_partition(
        self,
        part: int,
        factor: int = 2,
        max_input_bytes: int | None = None,
        tombstone_watermark: int = 0,
        cluster_by: list[str] | None = None,
    ) -> dict:
        """LEDGER-RECORDED partition split: rewrite one active
        partition's live files into ``factor`` children so a lake
        created at N partitions survives 100x growth — the second half
        of the scale fix (tiered compaction bounds a fold's memory;
        splitting bounds a PARTITION's total state).

        Child routing refines the parent's hash class: the parent owns
        keys with ``h % modulus == part``; children own
        ``h % (modulus * factor)`` in ``{part + j * modulus}`` — a pure
        refinement, so every existing key stays derivable from the same
        64-bit hash and per-partition resolution stays equal to global
        resolution. The split row commits atomically in the ledger;
        ``apply_window`` re-reads the topology each window and groups
        the children into its fold tasks, ``lookup`` routes through the
        same refinement, and reads just see the children's files.

        Mechanics — ROUTE AND FOLD in one rewrite, so each byte of a
        split partition is written once, already resolved (a same-pass
        compaction then has nothing left to fold): the parent's live
        files are read in LEDGER ORDER in byte-bounded groups
        (``max_input_bytes``, default one group per file); each group's
        routing task returns its per-child slices as separate Ray
        objects. One fold task per child then concatenates its slices
        in group order — so the last-arrival equal-seq tie rule sees
        the parent's file order — LWW-resolves them (keeping
        tombstones) and writes the child through the same writer as
        compaction. Task input stays bounded: a child's slices fold in
        consecutive runs whose on-disk source bytes (group bytes /
        factor) fit ``max_input_bytes``; a child whose input fits gets
        exactly one file, otherwise one file per run (in run order).
        ``max_input_bytes`` counts compressed on-disk bytes.

        ``tombstone_watermark`` follows compaction's full-fold rule:
        tombstones at or below it are dropped only when ONE run covers
        all of a child's rows. ``cluster_by`` sorts each child's fold
        and cuts it into range-disjoint chunk files exactly like
        :meth:`compact`, at ``max_input_bytes`` of on-disk bytes
        estimated from the child's share of its source files.

        Parent files are NOT deleted (a split always defers GC):
        time travel to pre-split state keeps working until an explicit
        :meth:`vacuum`. Splits are maintenance ops — do not run one
        concurrently with apply_window (same exclusivity contract as
        the reference's DDL lock, server/storages/table_helper.go).
        """
        if factor < 2:
            raise ValueError("factor must be >= 2")
        self._check_cluster_by(cluster_by)
        st = self.ledger.state()
        act = active_moduli(self.num_partitions, st.splits)
        if part not in act:
            raise ValueError(
                f"partition {part} is not an active partition "
                f"(active: {sorted(act)[:8]}{'...' if len(act) > 8 else ''})"
            )
        modulus = act[part]
        children = [part + j * modulus for j in range(factor)]
        live = self._live_paths(st).get(part, [])
        target = self.full_arrow_schema()
        layout = self._layout(cluster_by, max_input_bytes)
        gen = st.seq + 1

        groups = (
            [[f] for f in live]  # default: one routing task per file
            if max_input_bytes is None
            else _bounded_runs(
                live, [os.path.getsize(f) for f in live], max_input_bytes
            )
        )

        slices = [
            _route_group.options(num_returns=factor).remote(
                grp, target, self.key_cols, part, modulus, factor
            )
            for grp in groups
        ]
        # every child receives ~1/factor of each group's on-disk bytes
        shares = [sum(os.path.getsize(f) for f in grp) / factor for grp in groups]
        runs = _bounded_runs(
            range(len(groups)),
            shares,
            math.inf if max_input_bytes is None else max_input_bytes,
        )
        folds = {
            child: [
                _fold_child.remote(
                    child,
                    f"split-{gen:08d}" if len(runs) == 1 else f"split-{gen:08d}-{ri:04d}",
                    tombstone_watermark if len(runs) == 1 else 0,
                    layout,
                    sum(shares[g] for g in run),
                    *(slices[g][j] for g in run),
                )
                for ri, run in enumerate(runs)
            ]
            for j, child in enumerate(children)
        }
        parts = {
            str(child): [info for infos in ray.get(refs) for info in infos]
            for child, refs in folds.items()
        }
        entry = {
            "kind": "split",
            "parent": part,
            "modulus": modulus,
            "factor": factor,
            "children": children,
            "replaces": [os.path.relpath(f, self.dir) for f in live],
            # per-child infos in RUN order = parent file order: the
            # replay appends them in this order, preserving LWW ties
            "parts": {c: infos for c, infos in parts.items() if infos},
        }
        self.ledger.append(entry)
        self.ledger.checkpoint()
        return entry

    def maintain(
        self,
        max_partition_bytes: int | None = None,
        max_input_bytes: int | None = None,
        min_files: int = 4,
        tombstone_watermark: int = 0,
        keep_history: int | None = None,
        max_split_factor: int = 16,
        cluster_by: list[str] | None = None,
    ) -> dict:
        """ONE policy-driven maintenance pass — the operational loop a
        long-running lake schedules instead of hand-picking mechanisms.
        Both byte budgets count compressed ON-DISK bytes (zstd-3 plain
        files, ``_LAKE_PARQUET``), so a partition holds about 3.3x more
        rows of generated source-code text before it splits than it did
        as snappy (real text, with fewer repeats, somewhat less):

        1. SPLIT every active partition whose live bytes exceed
           ``max_partition_bytes`` (factor = ceil(bytes *
           ``_SPLIT_HEADROOM`` / budget), clamped to
           ``max_split_factor``, so children usually land under the
           budget in one pass and the next identical pass splits
           nothing; a child the headroom misses is split again). The
           split routes AND folds:
           each child is written once, LWW-resolved, under
           ``max_input_bytes``, with this pass's
           ``tombstone_watermark`` and ``cluster_by`` — so a child whose
           input fits the budget is already a single compacted file.
        2. Size-tiered COMPACT partitions holding >= ``min_files`` live
           files under ``max_input_bytes`` (defaults to the partition
           budget). Like a split, compaction never deletes a file.
        3. VACUUM with ``keep_history`` (skipped when None — retention
           stays an explicit policy choice); ``keep_history=0`` deletes
           every file this pass replaced, so the pass frees disk.

        Splits before compaction: folding an oversized partition first
        would burn a byte-bounded fold pass on files the split is about
        to rewrite anyway, and the split's children need no fold
        afterwards. Returns {"splits", "compact", "vacuum"}.
        Same exclusivity contract as split_partition (no concurrent
        window applier)."""
        splits_done = []
        if max_partition_bytes is not None:
            st = self.ledger.state()
            sizes = {
                p: sum(os.path.getsize(f) for f in fs)
                for p, fs in self._live_paths(st).items()
            }
            act = active_moduli(self.num_partitions, st.splits)
            for p, nbytes in sorted(sizes.items()):
                if p in act and nbytes > max_partition_bytes:
                    factor = min(
                        max_split_factor,
                        max(2, math.ceil(nbytes * _SPLIT_HEADROOM / max_partition_bytes)),
                    )
                    splits_done.append(
                        self.split_partition(
                            p,
                            factor=factor,
                            max_input_bytes=max_input_bytes or max_partition_bytes,
                            tombstone_watermark=tombstone_watermark,
                            cluster_by=cluster_by,
                        )
                    )
        compact_entry = self.compact(
            min_files=min_files,
            tombstone_watermark=tombstone_watermark,
            max_input_bytes=max_input_bytes or max_partition_bytes,
            cluster_by=cluster_by,
        )
        vac = self.vacuum(keep_history) if keep_history is not None else None
        return {"splits": splits_done, "compact": compact_entry, "vacuum": vac}

    def vacuum(self, keep_history: int = 0) -> dict:
        """Retention pass: physically delete files that no CURRENT view
        references and whose replacing compaction/split committed at or
        before ``max_seq - keep_history`` ledger rows ago — the archive
        step of the reference's uploader
        (server/logfiles/uploader.go:138-145) done as policy. This is
        the lake's ONLY delete path for data files and their Bloom
        sidecars, legacy ``.bloom.npz`` ones included: compaction and
        splits just commit ledger rows.

        ``keep_history=N`` is the GRACE WINDOW in ledger rows: any
        ``as_of`` whose bounded replay only needs files replaced within
        the last N rows keeps working; older time travel raises
        FileNotFoundError naming the vacuum row that removed its files
        (the ledger row makes the error precise and auditable). The
        vacuum row commits BEFORE any unlink, so a crash mid-delete
        leaves recorded-but-present files that the next vacuum sweeps.
        Returns the committed entry plus {"removed": n} counts."""
        st = self.ledger.state()
        cutoff = st.seq - keep_history
        remove = [f for f, s in st.pending.items() if s <= cutoff and f not in st.live]
        # stragglers: files the newest vacuum row named that STILL EXIST
        # (a crash between that row and its unlinks); this pass's row
        # names them again, so the state keeps one pass's names only.
        stragglers = [
            f
            for f in st.vacuumed
            # any leftover counts: a crash between the parquet unlink and
            # the sidecar unlinks must not orphan a sidecar forever
            if f not in st.live
            and any(os.path.exists(os.path.join(self.dir, f + x)) for x in _LAKE_FILE_SUFFIXES)
        ]
        entry = {
            "kind": "vacuum",
            "removed": [*remove, *stragglers],
            "through_seq": cutoff,
            "keep_history": keep_history,
        }
        if remove:
            self.ledger.append(entry)
        removed_now = 0
        for f in entry["removed"]:
            for x in _LAKE_FILE_SUFFIXES:
                try:
                    os.unlink(os.path.join(self.dir, f + x))
                    removed_now += not x
                except OSError:
                    pass
        entry["removed_now"] = removed_now
        return entry

    def last_committed_hi(self) -> int:
        return self.ledger.last_committed_hi()

    def delete_where(self, predicate, commit_seq: int | None = None) -> dict:
        """Interval refresh-replace, delete half (SURVEY §2.7 D2 — the
        reference's ``DELETE WHERE eventn_ctx_time_interval = X`` before a
        re-sync, adapters/delete_condition.go:24-33): emit tombstones for
        every live key matching ``predicate`` (a ``pa.Table -> bool mask``
        over the resolved table) as one maintenance window. A follow-up
        insert window completes the refresh; LWW keeps it idempotent.

        ``commit_seq`` must exceed every applied event's seq (defaults to
        last_committed_hi + 1 — correct when the caller owns the global
        sequencer).
        """
        hi0 = self.ledger.last_committed_hi()
        seq = commit_seq if commit_seq is not None else hi0 + 1
        if seq <= hi0:
            raise ValueError(f"tombstone seq {seq} must exceed committed hi {hi0}")
        ds = self.read().map_batches(
            _tombstones_for,
            batch_format="pyarrow",
            fn_kwargs=dict(predicate=predicate, key_cols=self.key_cols, seq=seq),
        )
        return self.apply_window(ds, seq - 1, seq)

    def ingest_report(self) -> dict:
        """T7/A3 analog: fold the ledger's per-window lineage into run
        totals (success counters; per-partition detail preserved)."""
        windows = self.ledger.window_metrics()
        per_part: dict[int, dict] = {}
        for w in windows:
            for pp in w.get("metrics", {}).get("per_partition", []):
                d = per_part.setdefault(
                    int(pp["part"]), {"rows": 0, "tombstones": 0, "bytes": 0, "windows": 0}
                )
                d["rows"] += pp["rows"]
                d["tombstones"] += pp["tombstones"]
                d["bytes"] += pp["bytes"]
                d["windows"] += 1
        return {
            "windows": len(windows),
            "last_committed_hi": self.ledger.last_committed_hi(),
            "rows_written": sum(w["metrics"]["rows_written"] for w in windows if "metrics" in w),
            "tombstones": sum(w["metrics"]["tombstones"] for w in windows if "metrics" in w),
            "bytes_written": sum(w["metrics"]["bytes_written"] for w in windows if "metrics" in w),
            "schema_version": self.schema.version,
            "partitions": per_part,
        }


def resolve_keep_tombstones(tbl: pa.Table, key_cols: list[str]) -> pa.Table:
    """Per-key argmax(commit_seq) keeping tombstone winners (needed while
    later windows may still merge against this state).

    Implemented as an int64 key-hash lexsort instead of a string-keyed
    sort+unique: the hot loop touches (hash, seq) int columns only
    (~16 B/row) rather than row-encoded string keys, and the final
    ``take`` gathers winner rows once. Exactness is preserved under hash
    collisions: any sort run whose adjacent rows hash equal but compare
    key-unequal (a real 64-bit collision, ~2^-64 per pair) is re-resolved
    exactly via polars on just those rows.

    EQUAL-seq tie rule: the LAST row in table order wins. Within a lake
    read the concatenation order is the ledger-replay file order, so a
    later-COMMITTED window beats an earlier one at the same commit_seq —
    this is what makes a replication re-sync (pipelines/replicate, which
    stamps its repair rows at the watermark seq) deterministically
    authoritative over rows an earlier window wrote at that same seq.
    Normal CDC feeds never emit two seqs for one key, so the rule only
    ever decides repair/heal windows and malformed duplicate feeds.
    """
    if tbl.num_rows == 0:
        return tbl
    import numpy as np

    from ..util import hash64_column

    h = hash64_column(tbl, key_cols).to_numpy(zero_copy_only=False)
    seq = tbl[SEQ_COL].to_numpy(zero_copy_only=False)
    idx = np.arange(len(h))
    # by hash asc, then seq desc, then position desc (last arrival wins
    # equal-seq ties — see the tie rule in the docstring)
    order = np.lexsort((-idx, -seq, h))
    hs = h[order]
    run_start = np.ones(len(hs), dtype=bool)
    run_start[1:] = hs[1:] != hs[:-1]

    # rows that continue a run must share the key with their predecessor;
    # verify with one vectorized compare over just those pairs
    cont = np.nonzero(~run_start)[0]
    dirty_runs: set[int] = set()
    if cont.size:
        cur = pa.array(order[cont])
        prev = pa.array(order[cont - 1])
        same = np.ones(cont.size, dtype=bool)
        for k in key_cols:
            col = tbl[k]
            a = col.take(cur)
            b = col.take(prev)
            eq = pc.equal(a, b)
            same &= pc.fill_null(eq, False).to_numpy(zero_copy_only=False)
        if not same.all():
            # real hash collision: find the run ids affected
            run_id = np.cumsum(run_start) - 1
            for i in cont[~same]:
                dirty_runs.add(int(run_id[i]))

    if not dirty_runs:
        winners = order[run_start]
        return tbl.take(pa.array(np.sort(winners)))

    # rare exact path: resolve dirty runs with full string keys
    run_id = np.cumsum(run_start) - 1
    dirty_mask_sorted = np.isin(run_id, list(dirty_runs))
    clean_winners = order[run_start & ~dirty_mask_sorted]
    dirty_rows = order[dirty_mask_sorted]
    sub = tbl.take(pa.array(dirty_rows))
    # helper-name collision guard: this path is generic over payload
    # columns (reachable whenever a null key and an empty-string key
    # share a batch — they hash equal), so a user column literally
    # named "__pos" must survive untouched
    pos_col = "__pos"
    while pos_col in sub.column_names:
        pos_col += "_"
    df = pl.from_arrow(sub).with_columns(pl.Series(pos_col, dirty_rows))
    fixed = (
        # seq desc then original position desc: polars sort is not
        # guaranteed stable, and the tie rule (docstring) needs the
        # LAST-arriving row to win equal-seq ties here too
        df.sort([SEQ_COL, pos_col], descending=[True, True])
        .unique(subset=key_cols, keep="first", maintain_order=True)
        .drop(pos_col)
        .to_arrow()
        .cast(tbl.schema)
    )
    main = tbl.take(pa.array(np.sort(clean_winners)))
    return pa.concat_tables([main, fixed])
