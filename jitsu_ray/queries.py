"""Driver-facing query implementations (one per SURVEY.md §2 operator
family) + their DuckDB oracle SQL.

Each `q_*` takes `sf_dir` and returns a lazy `ray.data.Dataset` (or a
small pyarrow Table for driver-side folds). Column names and value
definitions are shared EXACTLY with the oracle SQL — including
float-to-int cent conversion via floor(x*100+0.5) so aggregate
comparisons are exact integer math on both sides.

None of these call ray.init(); the caller owns the session.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Min, Sum

from .ops.dedup import exact_dedup_hash_stage, minhash_dedup, ngram_jaccard_pairs, SimHasher
from .ops.search import TOKEN_RE
from .ops.multimodal import decode_media
from .ops.similarity import ann_ivf, knn_cosine
from .ops.text import DocAnalyzer, TextStats
from .stages.enrich import hash_pii
from .stages.flatten import explode_json_column
from .stages.mapping import compile_mapping
from .sources.readers import read_parquet_clean
from .stages.router import TABLE_COL, route_stage
from .types import DataType

CACHE_DIR = "/tmp/jitsu_ray_cache"



def _sweep_stale_lakes(prefix: str) -> None:
    """Remove leftover per-pid cache lakes from EARLIER runs only: a dir
    whose trailing _<pid> belongs to a live process is another run
    mid-query — deleting it out from under that process would corrupt
    its result (round-3 review)."""
    import glob as _glob

    for stale in _glob.glob(os.path.join(CACHE_DIR, prefix + "*")):
        pid_part = stale.rsplit("_", 1)[-1]
        # another pid that is still alive is a run mid-query: keep it.
        # our OWN pid is a prior leftover (pid reuse across runs): sweep.
        if (
            pid_part.isdigit()
            and pid_part != str(os.getpid())
            and os.path.exists(f"/proc/{pid_part}")
        ):
            continue
        shutil.rmtree(stale, ignore_errors=True)



def _read_sized(path: str, columns: list[str]):
    """read_parquet_clean with explicitly sized blocks: Ray's 200-block
    read default splits a single-file table into sub-MB blocks whose
    per-block overhead dominates every stage at test scale (measured at
    sf0.1/32cpus: asof join 9.2->1.9s, geo 0.77->0.45s), and a finer
    split also multiplies per-batch partial-agg output rows. Sizing:
    one block per ~64 MB of file bytes, floored at cluster CPUs (full
    parallelism even for tiny tables), capped at 16x CPUs (huge inputs
    keep bounded task counts; Ray's dynamic block splitting caps the
    per-block memory regardless)."""
    import ray as _ray

    # cluster_resources() raises before ray.init(); read_parquet would
    # auto-init — keep that behavior for external callers by defaulting
    cpus = (
        int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
    )
    try:
        by_bytes = os.path.getsize(path) // (64 << 20) + 1
    except OSError:
        by_bytes = 1
    nb = int(min(max(cpus, by_bytes), 16 * cpus))
    return read_parquet_clean(path, columns=columns, override_num_blocks=nb)


def _t(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _materialize_or_stage(ds, input_bytes_hint: int, tag: str):
    """Pin an intermediate that several downstream consumers will read.

    Under ``JITSU_STAGE_BUDGET_BYTES`` (default 4 GiB, judged by the
    INPUT size — the filtered output is never larger, and the decision
    must land before the pipeline executes): one object-store
    ``materialize()`` (zero-copy reads, spillable). Above it: ONE
    streaming ``write_parquet`` to a per-process staging dir plus a
    sized re-read — the 100-TB shape, where a corpus-wide intermediate
    belongs in durable columnar storage, not pinned plasma. Both paths
    execute the upstream pipeline exactly once."""
    budget = int(os.environ.get("JITSU_STAGE_BUDGET_BYTES", str(4 << 30)))
    if input_bytes_hint <= budget:
        return ds.materialize()
    # stale-sweep dead processes' staging dirs (live-pid protected) so
    # above-budget runs can't accumulate corpus-sized parquet on disk;
    # our own same-tag leftover (incl. pid reuse) is swept and rebuilt
    _sweep_stale_lakes(f"stage_{tag}_")
    stage_dir = os.path.join(CACHE_DIR, f"stage_{tag}_{os.getpid()}")
    shutil.rmtree(stage_dir, ignore_errors=True)
    os.makedirs(stage_dir, exist_ok=True)
    ds.write_parquet(stage_dir)
    import ray as _ray

    cpus = int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
    files = [
        os.path.join(stage_dir, f)
        for f in os.listdir(stage_dir)
        if f.endswith(".parquet")
    ]
    total = sum(os.path.getsize(f) for f in files)
    nb = int(min(max(cpus, total // (64 << 20) + 1), 16 * cpus))
    # engine-written parquet: no pandas metadata, plain read keeps the
    # schema-hash fast path (round-3 pitfall)
    return ray.data.read_parquet(
        stage_dir, partitioning=None, override_num_blocks=nb
    )


# ---------------------------------------------------------------------------
# Jitsu-parity operators over the events/customer tables


def _cents(batch: pa.Table, col: str):
    """Repo-wide money convention — CAST(floor(x*100 + 0.5) AS BIGINT),
    byte-identical to the expression every oracle SQL uses; single-
    sourced so a rounding-rule change cannot drift per query."""
    return pc.cast(
        pc.floor(pc.add(pc.multiply(batch[col], 100.0), 0.5)), pa.int64()
    )


def _value_cents(batch: pa.Table) -> pa.Table:
    """events.value -> appended ``value_c`` cents column (the per-query
    pre-aggregate projection shared by the window/join queries)."""
    return batch.append_column("value_c", _cents(batch, "value"))


def _day_s(ts_col):
    """timestamp column -> int64 epoch-seconds day bucket (floor
    division so pre-1970 rows land in the day that CONTAINS them) —
    the cheap int shuffle-key idiom from ops/window.py, single-sourced
    for every per-day query."""
    from .ops.window import _floor_div

    return pc.multiply(
        _floor_div(pc.cast(ts_col, pa.int64()), 86400 * 1_000_000), 86400
    )


def _lineitem_cents(batch: pa.Table) -> pa.Table:
    """lineitem -> (l_returnflag, l_linestatus, qty, revenue) cents
    projection shared by the ROLLUP / CUBE queries."""
    rev = pc.cast(
        pc.floor(
            pc.add(
                pc.multiply(
                    pc.multiply(
                        batch["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), batch["l_discount"]),
                    ),
                    100.0,
                ),
                0.5,
            )
        ),
        pa.int64(),
    )
    return pa.table(
        {
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "qty": _cents(batch, "l_quantity"),
            "revenue": rev,
        }
    )


def q_lww_latest_by_user(sf_dir: str):
    """K4/J3/O1: last-writer-wins upsert state — per user the max-(ts,
    event_id) event. Per-batch combiner collapses to one row per user
    per batch before the shuffle."""

    from .ops.join import hash_shard_finalize

    def reduce_batch(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = df.sort(["ts", "event_id"], descending=True).unique(
            subset=["user_id"], keep="first", maintain_order=True
        )
        return out.to_arrow().cast(batch.schema)

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_type", "value", "event_id"]
    )
    # combiner per batch, then the shared hash-shard finalize (ONE
    # vectorized polars pass per shard instead of per user)
    return hash_shard_finalize(
        ds.map_batches(reduce_batch, batch_format="pyarrow"), ["user_id"], reduce_batch
    )


SQL_LWW = """
WITH r AS (
  SELECT user_id, ts, event_type, value, event_id,
         row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) rn
  FROM events
)
SELECT user_id, ts, event_type, value, event_id FROM r WHERE rn = 1
"""


def q_dedup_exact_events(sf_dir: str):
    """D1: exact dedup by natural key, keep lowest event_id + dup count.
    Per-batch polars partial (one row per key per batch into the
    exchange), then a 32-way hash-shard groupby with one vectorized
    polars final agg per shard — Ray's sort shuffle orders ONE int
    shard column instead of the 3-column natural key (the lww shape;
    measured ~2x cheaper than groupby(keys).aggregate at sf0.1)."""
    from .ops.join import hash_shard_finalize

    KEYS = ["user_id", "event_type", "value"]

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = df.group_by(KEYS).agg(
            pl.min("event_id").alias("event_id"), pl.len().cast(pl.Int64).alias("n")
        )
        return out.to_arrow()

    def final_shard(group: pa.Table) -> pa.Table:
        df = pl.from_arrow(group)
        out = df.group_by(KEYS).agg(
            pl.min("event_id").alias("event_id"), pl.sum("n").alias("n")
        )
        return out.to_arrow()

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["user_id", "event_type", "value", "event_id"]
    )
    return hash_shard_finalize(
        ds.map_batches(partial, batch_format="pyarrow"), KEYS, final_shard
    )


SQL_DEDUP_EVENTS = """
SELECT user_id, event_type, value, min(event_id) AS event_id, count(*) AS n
FROM events GROUP BY user_id, event_type, value
"""


def q_route_tables(sf_dir: str):
    """M6+A2: template routing with empty-name skip ('error' events are
    unroutable, as the reference's ErrTableNameParse) + per-table counts."""

    def router(batch: pa.Table) -> pa.Array:
        et = pc.cast(batch["event_type"], pa.string())
        prefix = pa.array(["evt_"] * batch.num_rows, pa.string())
        joined = pc.binary_join_element_wise(prefix, et, "")
        out = pc.if_else(pc.equal(et, "error"), pa.scalar("", pa.string()), joined)
        return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select([TABLE_COL]))
        out = df.group_by(TABLE_COL).agg(pl.len().cast(pl.Int64).alias("n"))
        return out.rename({TABLE_COL: "table_name"}).to_arrow()

    ds = _read_sized(_t(sf_dir, "events"), columns=["event_type"])
    return (
        ds.map_batches(route_stage(router), batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("table_name")
        .aggregate(Sum("n", alias_name="n"))
    )


SQL_ROUTE = """
SELECT 'evt_' || event_type AS table_name, count(*) AS n
FROM events WHERE event_type <> 'error' GROUP BY 1
"""


def q_mapping_project(sf_dir: str):
    """M2: mapping DSL — move/constant/cast with keep_unmapped=false."""
    fn = compile_mapping(
        [
            {"action": "move", "src": "/user_id", "dst": "/uid"},
            {"action": "constant", "dst": "/src", "value": "api"},
            {"action": "move", "src": "/event_id", "dst": "/event_id_f", "type": "float64"},
            {"action": "move", "src": "/event_type", "dst": "/etype"},
        ],
        keep_unmapped=False,
    )
    ds = _read_sized(
        _t(sf_dir, "events"), columns=["user_id", "event_id", "event_type"]
    )
    return ds.map_batches(fn, batch_format="pyarrow")


SQL_MAPPING = """
SELECT user_id AS uid, 'api' AS src, CAST(event_id AS DOUBLE) AS event_id_f,
       event_type AS etype
FROM events
"""


def q_flatten_props(sf_dir: str):
    """M3/M4/S4: JSON props column exploded to a typed column."""
    ds = _read_sized(_t(sf_dir, "events"), columns=["event_id", "props"])
    return ds.map_batches(
        explode_json_column("props", {"k": DataType.INT64}), batch_format="pyarrow"
    ).select_columns(["event_id", "props_k"])


SQL_FLATTEN = """
SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS props_k FROM events
"""


def q_pii_hash(sf_dir: str):
    """M9/K8: lowercase+trim+sha256 PII normalizer."""
    stage = hash_pii(["c_name"])

    def run(batch: pa.Table) -> pa.Table:
        out = stage(batch)
        return pa.table(
            {"c_custkey": out["c_custkey"], "email_hash": out["c_name"]}
        )

    ds = _read_sized(_t(sf_dir, "customer"), columns=["c_custkey", "c_name"])
    return ds.map_batches(run, batch_format="pyarrow")


SQL_PII = """
SELECT c_custkey, sha256(trim(lower(c_name))) AS email_hash FROM customer
"""


def q_anti_join_inactive_customers(sf_dir: str):
    """M8/J4 anti-join: customers with no events — broadcast the (small)
    distinct-user set, filter per batch. At 100 TB the broadcast side is
    a Bloom filter via ray.put; same shape."""
    seen = set(
        _read_sized(_t(sf_dir, "events"), columns=["user_id"]).unique("user_id")
    )
    value_set = pa.array(sorted(seen), pa.int64())

    def anti(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(pc.is_in(batch["c_custkey"], value_set=value_set)))

    ds = _read_sized(_t(sf_dir, "customer"), columns=["c_custkey", "c_name"])
    return ds.map_batches(anti, batch_format="pyarrow")


SQL_ANTI = """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN (SELECT DISTINCT user_id FROM events)
"""


def q_top_events_recent(sf_dir: str):
    """O2: time-range + limit (events-cache debug query)."""
    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "ts", "user_id", "value"]
    )
    return ds.sort(["ts", "event_id"], descending=True).limit(100)


SQL_TOP = """
SELECT event_id, ts, user_id, value FROM events
ORDER BY ts DESC, event_id DESC LIMIT 100
"""


def q_q1_pricing_summary(sf_dir: str):
    """A1-family aggregate machinery (TPC-H Q1 shape) in exact integer
    cents: cent(x) = floor(x*100 + 0.5), identical IEEE ops on both
    sides, so value-hash comparison is exact."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = (
            df.with_columns(
                (pl.col("l_quantity") * 100 + 0.5).floor().cast(pl.Int64).alias("q"),
                (pl.col("l_extendedprice") * 100 + 0.5).floor().cast(pl.Int64).alias("p"),
                ((pl.col("l_extendedprice") * (1 - pl.col("l_discount"))) * 100 + 0.5)
                .floor()
                .cast(pl.Int64)
                .alias("d"),
            )
            .group_by(["l_returnflag", "l_linestatus"])
            .agg(
                pl.sum("q").alias("sum_qty_c"),
                pl.sum("p").alias("sum_base_c"),
                pl.sum("d").alias("sum_disc_c"),
                pl.len().cast(pl.Int64).alias("n"),
            )
        )
        return out.to_arrow()

    ds = _read_sized(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty_c", alias_name="sum_qty_c"),
            Sum("sum_base_c", alias_name="sum_base_c"),
            Sum("sum_disc_c", alias_name="sum_disc_c"),
            Sum("n", alias_name="n"),
        )
    )


SQL_Q1 = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(floor(l_quantity*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty_c,
       CAST(sum(CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_c,
       CAST(sum(CAST(floor((l_extendedprice*(1 - l_discount))*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_c,
       count(*) AS n
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q_timestamp_format(sf_dir: str):
    """§2.8 scalar parity: RFC3339-micros timestamp rendering, identical
    to the reference's timestamp/format.go layout and to DuckDB strftime."""
    from .types import DataType, cast_array

    def fmt(batch: pa.Table) -> pa.Table:
        iso = cast_array(batch["ts"], DataType.STRING)
        return pa.table({"event_id": batch["event_id"], "ts_iso": pc.cast(iso, pa.string())})

    ds = _read_sized(_t(sf_dir, "events"), columns=["event_id", "ts"])
    return ds.map_batches(fmt, batch_format="pyarrow")


SQL_TS_FORMAT = """
SELECT event_id, strftime(ts, '%Y-%m-%dT%H:%M:%S.%fZ') AS ts_iso FROM events
"""


def q_user_segment_join(sf_dir: str):
    """J1/J2: broadcast lookup join — events enriched with the customer's
    market segment (small side ray.put once, arrow hash join per batch)."""
    import pyarrow.parquet as _pq

    from .ops.join import broadcast_join

    small = _pq.read_table(_t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"])
    small = small.rename_columns(["user_id", "segment"])
    ds = _read_sized(_t(sf_dir, "events"), columns=["event_id", "user_id"])
    return broadcast_join(ds, small, "user_id", ["segment"])


SQL_USER_SEGMENT = """
SELECT e.event_id, e.user_id, c.c_mktsegment AS segment
FROM events e JOIN customer c ON e.user_id = c.c_custkey
"""


def q_order_revenue_join(sf_dir: str):
    """Big-big partitioned hash join: per-order lineitem revenue.
    Per-batch partial aggregate, then ONE bucket shuffle co-locates
    both sides (ops/join.bucket_hash_join); the final per-order Sum
    happens INSIDE each bucket via the right_pre_join hook — no
    separate global groupby pass over the lineitem side."""
    from .ops.join import bucket_hash_join

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = (
            df.with_columns(
                ((pl.col("l_extendedprice") * (1 - pl.col("l_discount"))) * 100 + 0.5)
                .floor()
                .cast(pl.Int64)
                .alias("r")
            )
            .group_by("l_orderkey")
            .agg(pl.sum("r").alias("revenue_c"))
        )
        return out.to_arrow()

    def sum_per_order(rg: pa.Table) -> pa.Table:
        df = pl.from_arrow(rg)
        out = df.group_by("l_orderkey").agg(pl.col("revenue_c").sum())
        return out.to_arrow().cast(rg.schema)

    li = _read_sized(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    ).map_batches(partial, batch_format="pyarrow")
    orders = _read_sized(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_orderstatus"]
    )
    return bucket_hash_join(
        orders, li, "o_orderkey", "l_orderkey", num_buckets=16,
        right_pre_join=sum_per_order,
    )


SQL_ORDER_REVENUE = """
SELECT o.o_orderkey, o.o_orderstatus,
       CAST(sum(CAST(floor((l.l_extendedprice*(1 - l.l_discount))*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_c
FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
GROUP BY o.o_orderkey, o.o_orderstatus
"""


def q_rollup_revenue(sf_dir: str):
    """Multi-level aggregate (ops/rollup.rollup_aggregate): GROUP BY
    ROLLUP(l_returnflag, l_linestatus) over lineitem — finest level
    pays the only input-sized shuffle; subtotal and grand-total levels
    re-aggregate the finest result (partial-aggregate reuse)."""
    from .ops.rollup import rollup_aggregate

    cents = _lineitem_cents

    ds = _read_sized(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(cents, batch_format="pyarrow")
    return rollup_aggregate(ds, ["l_returnflag", "l_linestatus"], ["qty", "revenue"])


SQL_ROLLUP = """
SELECT l_returnflag, l_linestatus, count(*) AS n,
       CAST(sum(CAST(floor(l_quantity*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(floor((l_extendedprice*(1 - l_discount))*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_revenue
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def q_cube_revenue(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus): all 4 grouping sets
    via ops.rollup.grouping_sets_aggregate — ONE input pass builds the
    finest level, every other set re-aggregates that aggregate-sized
    result (partial-aggregate reuse, same 100-TB shape as ROLLUP)."""
    from .ops.rollup import cube_aggregate

    cents = _lineitem_cents

    ds = _read_sized(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(cents, batch_format="pyarrow")
    return cube_aggregate(ds, ["l_returnflag", "l_linestatus"], ["qty", "revenue"])


SQL_CUBE = """
SELECT l_returnflag, l_linestatus, count(*) AS n,
       CAST(sum(CAST(floor(l_quantity*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(floor((l_extendedprice*(1 - l_discount))*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_revenue
FROM lineitem
GROUP BY CUBE(l_returnflag, l_linestatus)
"""


def q_tumbling_daily(sf_dir: str):
    """§2.9 windowed aggregate: daily tumbling count/sum(value cents)/min/max
    per event_type (vectorized bucket + partial agg before the shuffle)."""
    from .ops.window import tumbling_aggregate

    cents = _value_cents

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["ts", "event_type", "value"]
    ).map_batches(cents, batch_format="pyarrow")
    return tumbling_aggregate(ds, "ts", 86400, ["event_type"], "value_c")


SQL_TUMBLING = """
SELECT event_type,
       make_timestamp((CAST(floor(epoch(ts) / 86400) AS BIGINT) * 86400) * 1000000) AS window_start,
       count(*) AS n,
       CAST(sum(CAST(floor(value*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value,
       min(CAST(floor(value*100 + 0.5) AS BIGINT)) AS min_value,
       max(CAST(floor(value*100 + 0.5) AS BIGINT)) AS max_value
FROM events GROUP BY event_type, window_start
"""


def q_hopping_hourly(sf_dir: str):
    """§2.9 hopping windows: hourly windows advancing every 15 min
    (each event lands in 4 windows) — count/sum/min/max of value cents
    per event_type, fan-out collapsed by a per-batch partial agg."""
    from .ops.window import hopping_aggregate

    cents = _value_cents

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["ts", "event_type", "value"]
    ).map_batches(cents, batch_format="pyarrow")
    return hopping_aggregate(ds, "ts", 3600, 900, ["event_type"], "value_c")


SQL_HOPPING = """
SELECT event_type,
       make_timestamp(((CAST(floor(epoch(ts) / 900) AS BIGINT) - t.k) * 900) * 1000000) AS window_start,
       count(*) AS n,
       CAST(sum(CAST(floor(value*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value,
       min(CAST(floor(value*100 + 0.5) AS BIGINT)) AS min_value,
       max(CAST(floor(value*100 + 0.5) AS BIGINT)) AS max_value
FROM events, range(4) t(k)
GROUP BY event_type, window_start
"""


def q_campaign_attribution(sf_dir: str):
    """Generic interval/range join (ops.join.interval_join): attribute
    each event to EVERY campaign whose [ts_start, ts_end) covers its ts
    (overlapping campaigns — genuinely many-to-many), then count/sum
    value cents per campaign. Runs the BUCKETED plan (1-day buckets,
    one union shuffle) — the 100-TB shape; the broadcast plan is
    asserted equal in tests."""
    import pyarrow.parquet as _pq

    from .ops.join import interval_join
    from .testgen import ensure_campaigns_parquet

    campaigns = _pq.read_table(
        ensure_campaigns_parquet(os.path.join(CACHE_DIR, "campaigns"))
    )

    cents = _value_cents

    ds = _read_sized(_t(sf_dir, "events"), columns=["ts", "value"]).map_batches(
        cents, batch_format="pyarrow"
    )
    joined = interval_join(
        ds, campaigns, "ts", "ts_start", "ts_end",
        mode="bucketed", bucket_width=86400 * 1_000_000,
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(["campaign_id", "channel", "value_c"]))
        out = df.group_by(["campaign_id", "channel"]).agg(
            pl.len().cast(pl.Int64).alias("n"),
            pl.sum("value_c").alias("sum_value"),
        )
        return out.to_arrow()

    return (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby(["campaign_id", "channel"])
        .aggregate(Sum("n", alias_name="n"), Sum("sum_value", alias_name="sum_value"))
    )


def campaigns_oracle_sql() -> str:
    from .testgen import ensure_campaigns_parquet

    path = ensure_campaigns_parquet(os.path.join(CACHE_DIR, "campaigns"))
    return f"""
SELECT c.campaign_id, c.channel, count(*) AS n,
       CAST(sum(CAST(floor(e.value*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value
FROM events e JOIN '{path}' c
  ON e.ts >= c.ts_start AND e.ts < c.ts_end
GROUP BY c.campaign_id, c.channel
"""


def q_session_windows(sf_dir: str):
    """§2.9 session windows: per-user sessions split at >30 min gaps."""
    from .ops.window import session_windows

    ds = _read_sized(_t(sf_dir, "events"), columns=["user_id", "ts"])
    return session_windows(ds, "user_id", "ts", 1800)


SQL_SESSIONS = """
WITH g AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 1800 SECOND THEN 1 ELSE 0 END AS new_sess
  FROM events
), s AS (
  SELECT user_id, ts,
         sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts
                             ROWS UNBOUNDED PRECEDING) AS sid
  FROM g
)
SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
       count(*) AS n_events
FROM s GROUP BY user_id, sid
"""


def q_running_user_spend(sf_dir: str):
    """SQL window functions (ROW_NUMBER + running SUM OVER (PARTITION BY
    user ORDER BY ts, event_id)): one shuffle on hash-sharded user_id,
    per-shard vectorized polars sort + cumulative .over() pass
    (ops.window.ordered_window_fns). event_id is the deterministic
    per-key tiebreaker the running sum needs."""
    from .ops.window import ordered_window_fns

    cents = _value_cents

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["user_id", "event_id", "ts", "value"]
    ).map_batches(cents, batch_format="pyarrow")
    return ordered_window_fns(ds, "user_id", ["ts", "event_id"], "value_c")


SQL_RUNNING = """
SELECT user_id, ts, event_id,
       CAST(floor(value*100 + 0.5) AS BIGINT) AS value_c,
       CAST(row_number() OVER w AS BIGINT) AS rn,
       CAST(sum(CAST(floor(value*100 + 0.5) AS BIGINT)) OVER w AS BIGINT)
         AS running_value
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS UNBOUNDED PRECEDING)
"""


def q_spend_rolling7(sf_dir: str):
    """Bounded-frame rolling window (SUM OVER ROWS BETWEEN 6 PRECEDING
    AND CURRENT ROW) + NTILE(4) spend-quartile per user — the
    trailing-window smoothing every metrics pipeline runs, via
    ops.window.ordered_window_fns (rolling_k/ntile_n opt-ins, same
    single shard shuffle)."""
    from .ops.window import ordered_window_fns

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["user_id", "event_id", "ts", "value"]
    ).map_batches(_value_cents, batch_format="pyarrow")
    return ordered_window_fns(
        ds, "user_id", ["ts", "event_id"], "value_c",
        fns=("rolling_value", "ntile"), rolling_k=7, ntile_n=4,
    )


SQL_ROLLING7 = """
SELECT user_id, ts, event_id,
       CAST(floor(value*100 + 0.5) AS BIGINT) AS value_c,
       CAST(sum(CAST(floor(value*100 + 0.5) AS BIGINT)) OVER
            (w ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS BIGINT)
         AS rolling7_value,
       CAST(ntile(4) OVER w AS BIGINT) AS ntile
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_revenue_grouping_sets(sf_dir: str):
    """GROUPING SETS with the SQL GROUPING() id column
    (ops.rollup.grouping_sets_aggregate grouping_id=...): revenue at
    (returnflag, linestatus), (linestatus), and grand total, each row
    tagged with its grouping bitmask so rolled-up NULLs are
    distinguishable from genuine null dims."""
    from .ops.rollup import grouping_sets_aggregate

    ds = _read_sized(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda b: _lineitem_cents(b).drop_columns(["qty"]),
        batch_format="pyarrow",
    )
    return grouping_sets_aggregate(
        ds,
        [["l_returnflag", "l_linestatus"], ["l_linestatus"], []],
        ["revenue"],
        grouping_id=["l_returnflag", "l_linestatus"],
    )


SQL_GROUPING_SETS = """
WITH t AS (
  SELECT l_returnflag, l_linestatus,
         CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT) AS revenue
  FROM lineitem
)
SELECT l_returnflag, l_linestatus,
       CAST(grouping(l_returnflag, l_linestatus) AS BIGINT) AS grouping_id,
       count(*) AS n,
       CAST(sum(revenue) AS BIGINT) AS sum_revenue
FROM t
GROUP BY GROUPING SETS ((l_returnflag, l_linestatus), (l_linestatus), ())
"""


def q_spend_with_prev(sf_dir: str):
    """LAG/LEAD window functions (the CDC-adjacent "previous/next value
    per key" primitive): per user-event row, the prior and next event's
    value cents in (ts, event_id) order — ops.window.ordered_window_fns
    with the opt-in lag/lead expressions (same one-shuffle shard shape
    as running_user_spend)."""
    from .ops.window import ordered_window_fns

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["user_id", "event_id", "ts", "value"]
    ).map_batches(_value_cents, batch_format="pyarrow")
    return ordered_window_fns(
        ds, "user_id", ["ts", "event_id"], "value_c",
        fns=("lag_value", "lead_value"),
    )


SQL_SPEND_PREV = """
SELECT user_id, ts, event_id,
       CAST(floor(value*100 + 0.5) AS BIGINT) AS value_c,
       lag(CAST(floor(value*100 + 0.5) AS BIGINT)) OVER w AS lag_value,
       lead(CAST(floor(value*100 + 0.5) AS BIGINT)) OVER w AS lead_value
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_value_rank_dist(sf_dir: str):
    """PERCENT_RANK + CUME_DIST per event type over (value, event_id)
    order — distribution-position features whose float64 values are
    integer-ratio exact across engines (same rank and count integers,
    one division). NULL values filtered on both sides (ordering nulls
    diverges between polars struct-rank and SQL NULLS LAST)."""
    from .ops.window import ordered_window_fns

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_type", "event_id", "value"]
    ).map_batches(
        lambda b: b.filter(pc.is_valid(b["value"])), batch_format="pyarrow"
    )
    return ordered_window_fns(
        ds, "event_type", ["value", "event_id"], "value",
        fns=("percent_rank", "cume_dist"),
    )


SQL_RANK_DIST = """
SELECT event_type, event_id, value,
       percent_rank() OVER w AS percent_rank,
       cume_dist() OVER w AS cume_dist
FROM events
WHERE value IS NOT NULL
WINDOW w AS (PARTITION BY event_type ORDER BY value, event_id)
"""


def q_value_mean_var(sf_dir: str):
    """Per-event-type count/mean/variance with EXACT float parity —
    integer cents moments distributed, one shared float64 derivation
    (ops/corpus.group_moments docstring has the trick)."""
    from .ops.corpus import group_moments

    ds = _read_sized(_t(sf_dir, "events"), columns=["event_type", "value"])
    return group_moments(ds, "event_type", "value")


SQL_MEAN_VAR = """
WITH m AS (
  SELECT event_type,
         CAST(count(*) AS BIGINT) AS n,
         CAST(sum(c) AS BIGINT) AS s1,
         CAST(sum(c * c) AS BIGINT) AS s2
  FROM (
    SELECT event_type, CAST(floor(value*100 + 0.5) AS BIGINT) AS c
    FROM events WHERE value IS NOT NULL AND event_type IS NOT NULL
  )
  GROUP BY event_type
)
SELECT event_type, n,
       CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS mean_c,
       CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE)
         - (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))
           * (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE)) AS var_c
FROM m ORDER BY event_type
"""


def q_unpivot_lineitem(sf_dir: str):
    """UNPIVOT (wide -> long melt, ops.pivot.unpivot): every 100th
    order's lineitem measures (quantity/extendedprice/discount/tax) as
    (id cols, measure, value) rows — a pure per-batch flat transform,
    no shuffle. DuckDB UNPIVOT NULL-exclusion parity."""
    from .ops.pivot import unpivot

    def pick(batch: pa.Table) -> pa.Table:
        keep = pc.equal(
            pc.subtract(
                batch["l_orderkey"],
                pc.multiply(pc.divide(batch["l_orderkey"], 100), 100),
            ),
            0,
        )
        return batch.filter(keep)

    ds = _read_sized(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax"],
    ).map_batches(pick, batch_format="pyarrow")
    return unpivot(
        ds, ["l_orderkey", "l_linenumber"],
        ["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    )


SQL_UNPIVOT = """
SELECT l_orderkey, l_linenumber, measure, value
FROM (
  UNPIVOT (
    SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice,
           l_discount, l_tax
    FROM lineitem WHERE l_orderkey % 100 = 0
  ) ON l_quantity, l_extendedprice, l_discount, l_tax
  INTO NAME measure VALUE value
)
"""


def _user_day_side(event_type: str):
    """events -> distinct-able (user_id, day_s) pairs for one side of a
    set op; int64 epoch-seconds day key via the shared ``_day_s``
    bucketing rule."""

    def run(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["event_type"], event_type))
        return pa.table({"user_id": b["user_id"], "day_s": _day_s(b["ts"])})

    return run


def _day_s_to_timestamp(batch: pa.Table) -> pa.Table:
    return pa.table(
        {
            "user_id": batch["user_id"],
            "day": pc.cast(
                pc.multiply(batch["day_s"], 1_000_000), pa.timestamp("us")
            ),
        }
    )


def q_browse_no_buy_days(sf_dir: str):
    """EXCEPT DISTINCT set op (ops.setops): (user_id, day) pairs with a
    'view' event but NO 'purchase' that day — the snapshot-diff
    primitive. Each side is a pruned re-read of the same parquet with a
    per-batch local distinct; one shuffle total (hash-shard finalize on
    the unioned sides)."""
    from .ops.setops import except_distinct

    def side(et: str):
        return _read_sized(
            _t(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
        ).map_batches(_user_day_side(et), batch_format="pyarrow")

    out = except_distinct(side("view"), side("purchase"), ["user_id", "day_s"])
    return out.map_batches(_day_s_to_timestamp, batch_format="pyarrow")


SQL_EXCEPT_DAYS = """
SELECT user_id,
       make_timestamp((CAST(floor(epoch(ts) / 86400) AS BIGINT) * 86400) * 1000000) AS day
FROM events WHERE event_type = 'view'
EXCEPT
SELECT user_id,
       make_timestamp((CAST(floor(epoch(ts) / 86400) AS BIGINT) * 86400) * 1000000) AS day
FROM events WHERE event_type = 'purchase'
"""


def q_view_and_buy_days(sf_dir: str):
    """INTERSECT DISTINCT set op (ops.setops): (user_id, day) pairs
    that saw BOTH a 'view' and a 'purchase' — same one-shuffle shape as
    q_browse_no_buy_days."""
    from .ops.setops import intersect_distinct

    def side(et: str):
        return _read_sized(
            _t(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
        ).map_batches(_user_day_side(et), batch_format="pyarrow")

    out = intersect_distinct(
        side("view"), side("purchase"), ["user_id", "day_s"]
    )
    return out.map_batches(_day_s_to_timestamp, batch_format="pyarrow")


SQL_INTERSECT_DAYS = """
SELECT user_id,
       make_timestamp((CAST(floor(epoch(ts) / 86400) AS BIGINT) * 86400) * 1000000) AS day
FROM events WHERE event_type = 'view'
INTERSECT
SELECT user_id,
       make_timestamp((CAST(floor(epoch(ts) / 86400) AS BIGINT) * 86400) * 1000000) AS day
FROM events WHERE event_type = 'purchase'
"""


def q_pivot_event_values(sf_dir: str):
    """Categorical pivot (crosstab): per-day wide row of count + summed
    value cents per event_type (ops.pivot.pivot_aggregate). Category
    domain discovered with one pruned pre-pass over just event_type
    (Dataset.unique); the per-batch partial collapses input rows to one
    wide row per (day, batch) before the single groupby shuffle."""
    from .ops.pivot import pivot_aggregate

    cats = _read_sized(_t(sf_dir, "events"), columns=["event_type"]).unique(
        "event_type"
    )

    # group on the INT64 day-seconds key and cast to a timestamp after
    # the aggregate (cheaper shuffle key; day-aligned datetime keys trip
    # Ray's numpy-datetime rebuild — see ops/window.py)
    def day_cents(batch: pa.Table) -> pa.Table:
        day_s = _day_s(batch["ts"])
        v = _cents(batch, "value")
        return pa.table(
            {"__day_s": day_s, "event_type": batch["event_type"], "value_c": v}
        )

    def day_ts(batch: pa.Table) -> pa.Table:
        day = pc.cast(
            pc.multiply(batch["__day_s"], 1_000_000), pa.timestamp("us")
        )
        return batch.append_column("day", day).drop_columns(["__day_s"])

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["ts", "event_type", "value"]
    ).map_batches(day_cents, batch_format="pyarrow")
    return pivot_aggregate(
        ds, ["__day_s"], "event_type", "value_c", categories=cats
    ).map_batches(day_ts, batch_format="pyarrow")


SQL_PIVOT = """
WITH e AS (
  SELECT make_timestamp((CAST(floor(epoch(ts) / 86400) AS BIGINT) * 86400) * 1000000) AS day,
         event_type, CAST(floor(value*100 + 0.5) AS BIGINT) AS vc
  FROM events
)
SELECT day,
  CAST(count(*) FILTER (WHERE event_type = 'click')    AS BIGINT) AS n_click,
  CAST(coalesce(sum(vc) FILTER (WHERE event_type = 'click'), 0)    AS BIGINT) AS v_click,
  CAST(count(*) FILTER (WHERE event_type = 'error')    AS BIGINT) AS n_error,
  CAST(coalesce(sum(vc) FILTER (WHERE event_type = 'error'), 0)    AS BIGINT) AS v_error,
  CAST(count(*) FILTER (WHERE event_type = 'purchase') AS BIGINT) AS n_purchase,
  CAST(coalesce(sum(vc) FILTER (WHERE event_type = 'purchase'), 0) AS BIGINT) AS v_purchase,
  CAST(count(*) FILTER (WHERE event_type = 'signup')   AS BIGINT) AS n_signup,
  CAST(coalesce(sum(vc) FILTER (WHERE event_type = 'signup'), 0)   AS BIGINT) AS v_signup,
  CAST(count(*) FILTER (WHERE event_type = 'view')     AS BIGINT) AS n_view,
  CAST(coalesce(sum(vc) FILTER (WHERE event_type = 'view'), 0)     AS BIGINT) AS v_view
FROM e GROUP BY day
"""


def q_funnel_views(sf_dir: str):
    """Ordered funnel (view -> click -> purchase, 1-day conversion
    window per step): per-user greedy earliest-match step times, counts
    of users reaching each step (ops.window.funnel_steps). Rows
    pre-filtered to funnel events and pruned to 3 columns before the
    one hash-shard shuffle; each shard resolves all its users in K-1
    vectorized polars passes."""
    from .ops.window import funnel_steps

    ds = _read_sized(_t(sf_dir, "events"), columns=["user_id", "ts", "event_type"])
    return funnel_steps(ds, "user_id", "ts", "event_type",
                        ["view", "click", "purchase"],
                        within=86400 * 1_000_000)


SQL_FUNNEL = """
WITH s1 AS (
  SELECT user_id, min(ts) AS t1 FROM events
  WHERE event_type = 'view' GROUP BY user_id
), s2 AS (
  SELECT e.user_id, min(e.ts) AS t2 FROM events e JOIN s1 USING (user_id)
  WHERE e.event_type = 'click' AND e.ts > s1.t1
    AND e.ts <= s1.t1 + INTERVAL 86400 SECOND GROUP BY e.user_id
), s3 AS (
  SELECT e.user_id, min(e.ts) AS t3 FROM events e JOIN s2 USING (user_id)
  WHERE e.event_type = 'purchase' AND e.ts > s2.t2
    AND e.ts <= s2.t2 + INTERVAL 86400 SECOND GROUP BY e.user_id
)
SELECT (SELECT count(*) FROM s1) AS n_step1,
       (SELECT count(*) FROM s2) AS n_step2,
       (SELECT count(*) FROM s3) AS n_step3
"""


# ---------------------------------------------------------------------------
# Training-data ops over documents / embeddings


def q_doc_text_stats(sf_dir: str):
    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return ds.map_batches(TextStats(), batch_format="pyarrow").select_columns(
        ["doc_id", "n_chars2", "n_tokens"]
    )


SQL_TEXT_STATS = """
SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars2,
       CAST(length(text) - length(replace(text, ' ', '')) + 1 AS BIGINT) AS n_tokens
FROM documents
"""


def q_dedup_exact_docs(sf_dir: str):
    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return (
        ds.map_batches(exact_dedup_hash_stage(), batch_format="pyarrow")
        .select_columns(["text_md5", "doc_id"])
        .groupby("text_md5")
        .aggregate(Min("doc_id", alias_name="doc_id"), Count(alias_name="n"))
    )


SQL_DEDUP_DOCS = """
SELECT md5(text) AS text_md5, min(doc_id) AS doc_id, count(*) AS n
FROM documents GROUP BY 1
"""


def q_embedding_label_counts(sf_dir: str):
    ds = _read_sized(_t(sf_dir, "embeddings"), columns=["label"])
    return ds.groupby("label").aggregate(Count(alias_name="n"))


SQL_LABEL_COUNTS = "SELECT label, count(*) AS n FROM embeddings GROUP BY label"


def _load_queries(sf_dir: str, n: int = 10):
    tbl = (
        _read_sized(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
        .filter(expr=f"vec_id < {n}")
        .take_all()
    )
    tbl.sort(key=lambda r: r["vec_id"])
    qids = np.array([r["vec_id"] for r in tbl])
    qmat = np.array([r["embedding"] for r in tbl], dtype=np.float32)
    return qids, qmat


def q_knn_cosine_topk(sf_dir: str):
    """Brute-force exact cosine top-5 for the first 10 vectors (ids only:
    cosine values differ in ulps between numpy and duckdb summation)."""
    qids, qmat = _load_queries(sf_dir)
    ds = _read_sized(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = knn_cosine(ds, qids, qmat, k=5)
    return out.select(["query_id", "neighbor_id"])


SQL_KNN = """
WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 10),
s AS (
  SELECT q.vec_id AS query_id, d.vec_id AS neighbor_id,
         list_cosine_similarity(q.embedding, d.embedding) AS c
  FROM q, embeddings d WHERE d.vec_id <> q.vec_id
)
SELECT query_id, neighbor_id
FROM (SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY c DESC, neighbor_id) rn FROM s)
WHERE rn <= 5
"""


def q_kmeans_clusters(sf_dir: str):
    """Deterministic distributed k-means over the embeddings table
    (ops/cluster.kmeans_assign): md5-hash-order init, 2 fixed Lloyd
    iterations, final per-point assignment. No shuffle — centroids are
    a broadcast (k x d) array and each iteration is one linear
    map_batches pass emitting k-row partial sums. The oracle replays
    the identical fixed schedule as chained CTEs in DOUBLE arithmetic,
    so assignments match exactly (boundary gaps are orders of magnitude
    above the ~1e-16 summation-order noise)."""
    from .ops.cluster import kmeans_assign

    ds = _read_sized(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    return kmeans_assign(ds, "vec_id", "embedding", k=10, iters=2)


from .ops.cluster import kmeans_oracle_sql as _kmeans_oracle_sql  # noqa: E402

SQL_KMEANS = _kmeans_oracle_sql("embeddings", "vec_id", "embedding", k=10, iters=2)


def q_cluster_balanced_sample(sf_dir: str):
    """Diversity-aware corpus sampling — the step LLM data recipes run
    AFTER clustering: cap every semantic cluster at the same budget (30
    ids here, picked in deterministic md5 order) so skewed topics can't
    dominate the sample. Composition of two proven stages: kmeans_assign
    (broadcast centroids, partial-sum combiner, zero shuffle) feeding
    top_k_per_group (per-batch partial top-k before the one group
    exchange — <= k rows per (cluster, batch) move)."""
    from .ops.cluster import kmeans_assign
    from .ops.corpus import _md5_lower64_column, top_k_per_group

    ds = _read_sized(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    assigns = kmeans_assign(ds, "vec_id", "embedding", k=10, iters=2)

    def add_hash(batch: pa.Table) -> pa.Table:
        hv, _ = _md5_lower64_column(batch["vec_id"])
        return batch.append_column("__h", pa.array(hv, pa.uint64()))

    capped = top_k_per_group(
        assigns.map_batches(add_hash, batch_format="pyarrow"),
        "cluster",
        30,
        [("__h", False), ("vec_id", False)],
    )
    return capped.select_columns(["vec_id", "cluster"])


SQL_CLUSTER_SAMPLE = f"""
SELECT vec_id, cluster FROM (
  SELECT vec_id, cluster,
         row_number() OVER (PARTITION BY cluster
           ORDER BY md5_number_lower(CAST(vec_id AS VARCHAR)), vec_id) AS rn
  FROM ({SQL_KMEANS}) a) WHERE rn <= 30
"""


def q_semantic_dedup(sf_dir: str):
    """SemDeDup-shape semantic deduplication (ops/cluster.semantic_dedup,
    the published Abbas et al. 2023 recipe): deterministic k-means
    semantic clusters, then WITHIN each cluster a vector is a duplicate
    iff a lower-id neighbor sits at cosine >= 0.4. The cluster is the
    parallel unit (one groupby exchange; tiled numpy pairwise inside),
    exactly how the recipe runs at corpus scale with large k. Threshold
    0.4 inherits the >=1e-4 margin from every actual pair cosine in the
    testdata (q_embedding_near_dup's verified gap — within-cluster pairs
    are a subset of global pairs), so float64-vs-DuckDB summation noise
    (~1e-15) cannot flip the oracle boundary."""
    from .ops.cluster import semantic_dedup

    ds = _read_sized(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    return semantic_dedup(ds, "vec_id", "embedding", k=10, iters=2, threshold=0.4)


SQL_SEMANTIC_DEDUP = f"""
WITH A AS ({SQL_KMEANS}),
V AS (SELECT a.vec_id, a.cluster, e.embedding
      FROM A a JOIN embeddings e USING (vec_id)),
P AS (SELECT x.vec_id, list_cosine_similarity(x.embedding, y.embedding) AS c
      FROM V x JOIN V y
        ON y.cluster = x.cluster AND y.vec_id < x.vec_id),
-- NOT isnan: a zero vector makes list_cosine_similarity 0/0 = NaN and
-- DuckDB's total order puts NaN ABOVE every threshold; the engine's
-- _normalize zero-guard treats a zero vector as cosine 0 (matches
-- nothing), so the oracle must pin the same semantics explicitly
D AS (SELECT DISTINCT vec_id FROM P WHERE (NOT isnan(c)) AND c >= 0.4)
SELECT v.vec_id, v.cluster,
       (v.vec_id IN (SELECT vec_id FROM D)) AS is_dup
FROM V v
"""


def q_normalize_docs(sf_dir: str):
    """Unicode pre-shingling normalization (ops/text.normalize_text):
    NFC + whitespace-run collapse + trim over documents.text, one fused
    pyarrow kernel pass. lowercase=False here because SQL lower() is the
    SIMPLE case mapping while Arrow/Python lower is the FULL mapping
    (divergent on e.g. U+0130) — the lowercase path is pinned by pytest
    against Python semantics instead of relying on ASCII-only data."""
    from .ops.text import normalize_text

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return normalize_text(ds, "text", lowercase=False).select_columns(
        ["doc_id", "norm_text"]
    )


SQL_NORMALIZE = r"""
SELECT doc_id,
       trim(regexp_replace(nfc_normalize(text), '[ \t\n\f\r\v]+', ' ', 'g'), ' ') AS norm_text
FROM documents
"""


def q_geo_enrich(sf_dir: str):
    """T1 geo-IP dictionary enricher: deterministic per-user IP (md5
    twin of the SQL derivation) -> binary-search range lookup against
    the broadcast CIDR table (stages/lookup.GeoIpEnricher; reference
    server/enrichment/ip_lookup.go:32-64). Misses stay null."""
    import pyarrow.parquet as _pq

    from .stages.lookup import derive_ip_column, ensure_geo_parquet, geo_enrich

    geo_tbl = _pq.read_table(ensure_geo_parquet(os.path.join(CACHE_DIR, "geo")))

    def add_ip(batch: pa.Table) -> pa.Table:
        return batch.append_column("ip", derive_ip_column(batch["user_id"]))

    ds = _read_sized(_t(sf_dir, "events"), columns=["event_id", "user_id"])
    out = geo_enrich(ds.map_batches(add_ip, batch_format="pyarrow"), geo_tbl)
    return out.select_columns(["event_id", "ip", "country", "city"])


def geo_oracle_sql() -> str:
    from .stages.lookup import ensure_geo_parquet

    geo_path = ensure_geo_parquet(os.path.join(CACHE_DIR, "geo"))
    return f"""
WITH e AS (
  SELECT event_id,
         CAST(md5_number_lower(CAST(user_id AS VARCHAR)) & 4294967295 AS BIGINT) AS ipnum
  FROM events
)
SELECT e.event_id,
       CAST((ipnum >> 24) & 255 AS VARCHAR) || '.' || CAST((ipnum >> 16) & 255 AS VARCHAR)
         || '.' || CAST((ipnum >> 8) & 255 AS VARCHAR) || '.' || CAST(ipnum & 255 AS VARCHAR) AS ip,
       g.country, g.city
FROM e LEFT JOIN '{geo_path}' g ON e.ipnum BETWEEN g.ip_from AND g.ip_to
"""


def q_ua_parse(sf_dir: str):
    """T2 user-agent parser: deterministic UA per event (md5-mod pick
    from the fixed corpus) -> ordered regex-rule extraction of browser/
    version/os (stages/lookup.UserAgentParser; reference
    server/useragent/resolver.go:24-80)."""
    from .stages.lookup import UserAgentParser, derive_ua_column

    def add_ua(batch: pa.Table) -> pa.Table:
        return batch.append_column("ua", derive_ua_column(batch["event_id"]))

    ds = _read_sized(_t(sf_dir, "events"), columns=["event_id"])
    return ds.map_batches(add_ua, batch_format="pyarrow").map_batches(
        UserAgentParser(), batch_format="pyarrow"
    ).select_columns(["event_id", "ua", "browser", "browser_version", "os"])


def _ua_oracle_sql() -> str:
    from .stages.lookup import UA_BROWSER_RULES, UA_CORPUS, UA_OS_RULES

    def q(s: str) -> str:
        return "'" + s.replace("'", "''") + "'"

    ua_list = "[" + ", ".join(q(u) for u in UA_CORPUS) + "]"
    browser_case = " ".join(
        f"WHEN regexp_matches(ua, {q(pat)}) THEN '{name}'" for name, pat in UA_BROWSER_RULES
    )
    version_case = " ".join(
        f"WHEN regexp_matches(ua, {q(pat)}) THEN regexp_extract(ua, {q(pat)}, 1)"
        for _, pat in UA_BROWSER_RULES
    )
    os_case = " ".join(
        f"WHEN regexp_matches(ua, {q(pat)}) THEN '{name}'" for name, pat in UA_OS_RULES
    )
    return f"""
WITH e AS (
  SELECT event_id,
         {ua_list}[CAST(md5_number_lower(CAST(event_id AS VARCHAR)) % {len(UA_CORPUS)} AS INT) + 1] AS ua
  FROM events
)
SELECT event_id, ua,
       CASE {browser_case} ELSE NULL END AS browser,
       CASE {version_case} ELSE NULL END AS browser_version,
       CASE {os_case} ELSE NULL END AS os
FROM e
"""


def _ensure_event_ndjson(sf_dir: str) -> str:
    """Write-once NDJSON derivation of the events table (+2 malformed
    lines exercising the dead-letter path) — the S3 log-file source's
    deterministic input; the oracle reads the same file with
    read_json_auto(ignore_errors)."""
    import pyarrow.parquet as _pq

    tag = os.path.basename(sf_dir.rstrip("/"))
    d = os.path.join(CACHE_DIR, "ndjson")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"events_{tag}.ndjson")
    if not os.path.exists(path):
        t = _pq.read_table(_t(sf_dir, "events"), columns=["event_id", "user_id", "event_type"])
        import json as _json

        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            for i, r in enumerate(t.to_pylist()):
                f.write(_json.dumps(r, sort_keys=True) + "\n")
                if i == 3:
                    f.write("{not json at all\n")  # dead-letter line
                if i == 7:
                    f.write("[1,2,3]\n")  # non-object event -> dead-letter
        os.replace(tmp, path)
    return path


def _ensure_singer_file(sf_dir: str) -> str:
    """Write-once Singer-protocol derivation of the events table:
    SCHEMA + one RECORD per event + periodic STATE checkpoints."""
    import json as _json

    import pyarrow.parquet as _pq

    tag = os.path.basename(sf_dir.rstrip("/"))
    d = os.path.join(CACHE_DIR, "singer")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"events_{tag}.ndjson")
    if not os.path.exists(path):
        t = _pq.read_table(
            _t(sf_dir, "events"), columns=["event_id", "event_type", "value"]
        )
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            f.write(_json.dumps({
                "type": "SCHEMA", "stream": "events",
                "schema": {"properties": {
                    "event_id": {"type": "integer"},
                    "event_type": {"type": "string"},
                    "value": {"type": "number"}}},
                "key_properties": ["event_id"]}) + "\n")
            for i, r in enumerate(t.to_pylist()):
                f.write(_json.dumps({"type": "RECORD", "stream": "events",
                                     "record": r}, sort_keys=True) + "\n")
                if i % 5000 == 4999:
                    f.write(_json.dumps({"type": "STATE", "value": {"last": i}}) + "\n")
        os.replace(tmp, path)
    return path


def q_singer_read(sf_dir: str):
    """S7 Singer bridge: parse a tap-protocol stream into the 'events'
    stream Dataset with schema-driven casts (sources/singer.py;
    reference server/drivers/singer.go:26-80)."""
    from .sources.singer import read_singer_output

    path = _ensure_singer_file(sf_dir)
    out = read_singer_output([path])

    def cents(batch: pa.Table) -> pa.Table:
        v = _cents(batch, "value")
        return pa.table(
            {"event_id": batch["event_id"], "event_type": batch["event_type"], "value_c": v}
        )

    return out.streams["events"].map_batches(cents, batch_format="pyarrow")


def singer_oracle_sql(sf_dir: str = "/root/testdata/sf0.01") -> str:
    path = _ensure_singer_file(sf_dir)
    return f"""
SELECT record.event_id AS event_id,
       record.event_type AS event_type,
       CAST(floor(record.value*100 + 0.5) AS BIGINT) AS value_c
FROM read_json('{path}', format='newline_delimited', records=true,
               columns={{'type': 'VARCHAR', 'stream': 'VARCHAR',
                         'record': 'STRUCT(event_id BIGINT, event_type VARCHAR, value DOUBLE)'}})
WHERE type = 'RECORD' AND stream = 'events'
"""


def q_ndjson_read(sf_dir: str):
    """S3 NDJSON log source: line-parse + flatten + dead-letter split;
    valid rows out, malformed lines excluded (both sides)."""
    from .sources.readers import read_ndjson_events
    from .stages.transform import TABLE_COL as _TC

    path = _ensure_event_ndjson(sf_dir)
    ds = read_ndjson_events([path])

    def valid(batch: pa.Table) -> pa.Table:
        keep = pc.not_equal(batch[_TC], "")
        return batch.filter(keep).select(["event_id", "user_id", "event_type"])

    return ds.map_batches(valid, batch_format="pyarrow")


def ndjson_oracle_sql(sf_dir: str = "/root/testdata/sf0.01") -> str:
    path = _ensure_event_ndjson(sf_dir)
    return f"""
SELECT event_id, user_id, event_type
FROM read_json('{path}', format='newline_delimited', records=true, ignore_errors=true,
               columns={{'event_id': 'BIGINT', 'user_id': 'BIGINT', 'event_type': 'VARCHAR'}})
WHERE event_id IS NOT NULL
"""


def _ensure_customer_csv(sf_dir: str) -> str:
    """Write-once CSV derivation of the customer table with messy
    headers (the S5 header-normalization case)."""
    import csv as _csv

    import pyarrow.parquet as _pq

    tag = os.path.basename(sf_dir.rstrip("/"))
    d = os.path.join(CACHE_DIR, "csv")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"customer_{tag}.csv")
    if not os.path.exists(path):
        t = _pq.read_table(
            _t(sf_dir, "customer"), columns=["c_custkey", "c_name", "c_acctbal", "c_mktsegment"]
        )
        tmp = path + ".tmp"
        with open(tmp, "w", newline="") as f:
            w = _csv.writer(f)
            w.writerow(["C CustKey", "Name", "Acct-Bal", "MktSegment"])
            for r in t.to_pylist():
                w.writerow([r["c_custkey"], r["c_name"], r["c_acctbal"], r["c_mktsegment"]])
        os.replace(tmp, path)
    return path


def q_csv_read(sf_dir: str):
    """S5 CSV source: header normalization ('C CustKey' -> c_custkey)
    + declarative casts (acct_bal -> FLOAT64, c_custkey -> INT64)."""
    from .sources.readers import read_csv_events

    path = _ensure_customer_csv(sf_dir)
    ds = read_csv_events(
        [path], casts={"c_custkey": DataType.INT64, "acct_bal": DataType.FLOAT64}
    )
    return ds


def csv_oracle_sql(sf_dir: str = "/root/testdata/sf0.01") -> str:
    path = _ensure_customer_csv(sf_dir)
    return f"""
SELECT CAST("C CustKey" AS BIGINT) AS c_custkey,
       "Name" AS name,
       CAST("Acct-Bal" AS DOUBLE) AS acct_bal,
       "MktSegment" AS mktsegment
FROM read_csv('{path}', header=true, all_varchar=true)
"""


def q_rule_chain(sf_dir: str):
    """T3 conditional rule chain: constant source marker for every row,
    'channel'='paid' only for purchase events (stages/enrich.when —
    rows failing the condition pass through with null)."""
    from .stages.enrich import add_constant, chain, when

    rules = chain(
        add_constant("src", "s2s"),
        when(
            lambda b: pc.equal(b["event_type"], "purchase"),
            add_constant("channel", "paid", pa.string()),
        ),
    )
    ds = _read_sized(_t(sf_dir, "events"), columns=["event_id", "event_type"])
    return ds.map_batches(rules, batch_format="pyarrow").select_columns(
        ["event_id", "event_type", "src", "channel"]
    )


SQL_RULE_CHAIN = """
SELECT event_id, event_type, 's2s' AS src,
       CASE WHEN event_type = 'purchase' THEN 'paid' ELSE NULL END AS channel
FROM events
"""


def q_user_recognition(sf_dir: str):
    """T5/J2 retrospective user recognition: derive an anonymous id per
    event plus a user id only on 'identify' rows (event_id % 3 == 0);
    recognition builds the anon->user map (max user id, deterministic)
    and backfills the rest (pipelines/recognition.py; reference
    server/users/service.go:134-149,207-265)."""
    from .pipelines.recognition import recognize_users

    def derive(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"]
        anon = pc.binary_join_element_wise(
            pa.array(["anon_"] * batch.num_rows),
            pc.cast(pc.cast(pc.bit_wise_and(eid, 127), pa.int64()), pa.string()),
            "",
        )
        has_user = pc.equal(pc.cast(pc.subtract(eid, pc.multiply(pc.divide(eid, 3), 3)), pa.int64()), 0)
        user = pc.if_else(has_user, batch["user_id"], pa.nulls(batch.num_rows, pa.int64()))
        return pa.table({"event_id": eid, "anon_id": anon, "user_id": user})

    ds = _read_sized(_t(sf_dir, "events"), columns=["event_id", "user_id"])
    derived = ds.map_batches(derive, batch_format="pyarrow")
    return recognize_users(derived, "anon_id", "user_id")


SQL_RECOGNITION = """
WITH e AS (
  SELECT event_id,
         'anon_' || CAST(event_id & 127 AS VARCHAR) AS anon_id,
         CASE WHEN event_id % 3 = 0 THEN user_id ELSE NULL END AS user_id
  FROM events
),
m AS (SELECT anon_id, max(user_id) AS mapped FROM e WHERE user_id IS NOT NULL GROUP BY anon_id)
SELECT e.event_id, e.anon_id, coalesce(e.user_id, m.mapped) AS user_id
FROM e LEFT JOIN m USING (anon_id)
"""


def q_interval_refresh(sf_dir: str):
    """D2 interval refresh-replace: load events into a lake keyed by
    event_id (commit_seq = event_id), tombstone every 'click' row via
    delete_where, read the resolved survivor set back
    (sinks/lake.delete_where; reference adapters/delete_condition.go:24-33)."""
    from .sinks.lake import LakeTable

    def prep(batch: pa.Table) -> pa.Table:
        v = _cents(batch, "value")
        return pa.table(
            {
                "commit_seq": batch["event_id"],
                "op": pa.array(["insert"] * batch.num_rows, pa.string()),
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "value_c": v,
            }
        )

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    ).map_batches(prep, batch_format="pyarrow")
    # per-pid dir (concurrent runs can't collide) + sweep of DEAD
    # prior runs' leftovers so CACHE_DIR doesn't accumulate stale lakes
    _sweep_stale_lakes("lake_refresh_")
    lake_dir = os.path.join(CACHE_DIR, f"lake_refresh_{os.path.basename(sf_dir)}_{os.getpid()}")
    lake = LakeTable.create(lake_dir, ["event_id"], 8)
    hi = 20_000_000  # > any event_id at every sf
    lake.apply_window(ds, 0, hi)
    lake.delete_where(lambda b: pc.equal(b["event_type"], "click"))
    out = lake.read().select_columns(["event_id", "event_type", "value_c"])
    return out


SQL_INTERVAL_REFRESH = """
SELECT event_id, event_type,
       CAST(floor(value*100 + 0.5) AS BIGINT) AS value_c
FROM events WHERE event_type <> 'click'
"""


# -- flagship + LLM-data ops ------------------------------------------------


def cdc_replay_oracle_sql(sf: float = 0.01) -> str:
    """DuckDB oracle for q_cdc_replay at the driver's sf: the changelog is
    NOT one of the driver's registered views, so the SQL reads the cached
    changelog parquet directly (ensure_changelog makes the path exist and
    is deterministic in (n_events, n_repos, seed)). Mirrors the window-fn
    oracle proven at tests/test_replay_golden.py:52-61, plus the replay
    enrichment chain: src='cdc' constant and _timestamp =
    epoch(2024-01-01) + commit_seq seconds (stages/enrich.py:52-61)."""
    from .stages.enrich import _BASE_US
    from .testgen import ensure_changelog

    n_events = max(4000, int(2_000_000 * sf))
    n_repos = max(10, int(500 * sf))
    log_dir = ensure_changelog(os.path.join(CACHE_DIR, "changelog"), n_events, n_repos)
    return f"""
WITH r AS (
  SELECT *, row_number() OVER (PARTITION BY repo, path ORDER BY commit_seq DESC) rn
  FROM '{log_dir}/*.parquet'
)
SELECT commit_seq, repo, path, commit, lang,
       make_timestamp(commit_seq * 1000000 + {_BASE_US}) AS _timestamp,
       'cdc' AS src,
       sha256(content) AS content_sha256
FROM r WHERE rn = 1 AND op <> 'delete'
"""


def q_scd2_history(sf_dir: str):
    """SCD Type-2 versioned history over the sf-scaled changelog
    (ops/window.scd2_history): every non-delete event becomes a version
    row with [valid_from_seq, valid_to_seq) bounds and an is_current
    flag — the full-history complement to cdc_replay's LWW-latest
    state. One composite-key hash shuffle; per-shard vectorized
    lead."""
    from .ops.window import scd2_history
    from .testgen import ensure_changelog

    sf = _sf_of(sf_dir)
    n_events = max(4000, int(2_000_000 * sf))
    n_repos = max(10, int(500 * sf))
    log_dir = ensure_changelog(os.path.join(CACHE_DIR, "changelog"), n_events, n_repos)
    ds = _read_sized(log_dir, columns=["repo", "path", "commit_seq", "op", "commit"])
    return scd2_history(
        ds, ["repo", "path"], "commit_seq", op_col="op", attr_cols=["commit"]
    )


def q_pack_docs(sf_dir: str):
    """Greedy sequence packing (ops/corpus.pack_sequences): documents
    fill (shard, pack) bins of <= 2000 chars in doc_id order within
    md5-hash shards — the context-window packing step before
    tokenization. Oracle: a recursive CTE walking each shard in row
    order with the identical fill rule."""
    from .ops.corpus import pack_sequences

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "n_chars"])
    return pack_sequences(ds, "doc_id", "n_chars", budget=2000, num_shards=8)


SQL_PACK = """
WITH RECURSIVE s AS (
  SELECT doc_id, n_chars,
         CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 8 AS BIGINT) AS shard
  FROM documents WHERE doc_id IS NOT NULL
),
o AS (
  SELECT *, row_number() OVER (PARTITION BY shard ORDER BY doc_id) AS rn FROM s
),
p AS (
  SELECT shard, rn, doc_id, n_chars, CAST(0 AS BIGINT) AS pack_id,
         greatest(n_chars, 0) AS fill
  FROM o WHERE rn = 1
  UNION ALL
  SELECT o.shard, o.rn, o.doc_id, o.n_chars,
         CASE WHEN p.fill > 0 AND p.fill + greatest(o.n_chars, 0) > 2000
              THEN p.pack_id + 1 ELSE p.pack_id END,
         CASE WHEN p.fill > 0 AND p.fill + greatest(o.n_chars, 0) > 2000
              THEN greatest(o.n_chars, 0)
              ELSE p.fill + greatest(o.n_chars, 0) END
  FROM p JOIN o ON o.shard = p.shard AND o.rn = p.rn + 1
)
SELECT doc_id, n_chars, shard, pack_id FROM p ORDER BY shard, doc_id
"""


def q_validate_events(sf_dir: str):
    """Data-contract validation over the events stream
    (ops/quality.validate_constraints — the dbt-test family as
    distributed jobs): event_id uniqueness (holds), user_id uniqueness
    (violated — the interesting non-zero row), not_null, an
    accepted_values enum that excludes 'error' events, and the
    user_id -> customer.c_custkey relationship (holds). Returns the
    small violations report the ingest driver would gate a publish
    on."""
    import pyarrow.parquet as _pq

    from .ops.quality import validate_constraints

    keys = _pq.read_table(_t(sf_dir, "customer"), columns=["c_custkey"])["c_custkey"]
    ds = _read_sized(_t(sf_dir, "events"), columns=["event_id", "user_id", "event_type"])
    return validate_constraints(
        ds,
        unique=("event_id", "user_id"),
        not_null=("user_id",),
        accepted_values={"event_type": ["view", "click", "purchase", "signup"]},
        fk={"user_id": keys},
    )


SQL_VALIDATE = """
SELECT * FROM (
  SELECT 'accepted_values' AS "constraint", 'event_type' AS "column",
         count(*) FILTER (event_type IS NOT NULL AND event_type NOT IN
           ('view','click','purchase','signup')) AS violations FROM events
  UNION ALL
  SELECT 'fk', 'user_id',
         count(*) FILTER (user_id IS NOT NULL AND user_id NOT IN
           (SELECT c_custkey FROM customer WHERE c_custkey IS NOT NULL))
    FROM events
  UNION ALL
  SELECT 'not_null', 'user_id', count(*) FILTER (user_id IS NULL) FROM events
  UNION ALL
  SELECT 'unique', 'event_id', count(event_id) - count(DISTINCT event_id)
    FROM events
  UNION ALL
  SELECT 'unique', 'user_id', count(user_id) - count(DISTINCT user_id)
    FROM events
) ORDER BY "constraint", "column"
"""


def q_profile_events(sf_dir: str):
    """Per-column profile of the events table
    (ops/profile.profile_table): rows / nulls / exact distinct / exact
    most-frequent value (smallest-value tie-break, string-cast; float
    columns report null top — cross-engine float formatting is not
    portable). The publish-gate report a data platform runs next to
    validate_events."""
    from .ops.profile import profile_table

    ds = _read_sized(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "event_type", "ts", "value"],
    )
    return profile_table(ds)


SQL_PROFILE = """
WITH prof AS (
  SELECT 'event_id' AS "column", count(*) AS n_rows,
         count(*) - count(event_id) AS n_null,
         count(DISTINCT event_id) AS n_distinct,
         (SELECT CAST(event_id AS VARCHAR) FROM events WHERE event_id IS NOT NULL
            GROUP BY event_id ORDER BY count(*) DESC, event_id ASC LIMIT 1) AS top_value,
         (SELECT count(*) FROM events WHERE event_id IS NOT NULL
            GROUP BY event_id ORDER BY count(*) DESC, event_id ASC LIMIT 1) AS top_count
  FROM events
  UNION ALL
  SELECT 'event_type', count(*), count(*) - count(event_type),
         count(DISTINCT event_type),
         (SELECT event_type FROM events WHERE event_type IS NOT NULL
            GROUP BY event_type ORDER BY count(*) DESC, event_type ASC LIMIT 1),
         (SELECT count(*) FROM events WHERE event_type IS NOT NULL
            GROUP BY event_type ORDER BY count(*) DESC, event_type ASC LIMIT 1)
  FROM events
  UNION ALL
  SELECT 'ts', count(*), count(*) - count(ts), count(DISTINCT ts),
         (SELECT CAST(ts AS VARCHAR) FROM events WHERE ts IS NOT NULL
            GROUP BY ts ORDER BY count(*) DESC, ts ASC LIMIT 1),
         (SELECT count(*) FROM events WHERE ts IS NOT NULL
            GROUP BY ts ORDER BY count(*) DESC, ts ASC LIMIT 1)
  FROM events
  UNION ALL
  SELECT 'user_id', count(*), count(*) - count(user_id),
         count(DISTINCT user_id),
         (SELECT CAST(user_id AS VARCHAR) FROM events WHERE user_id IS NOT NULL
            GROUP BY user_id ORDER BY count(*) DESC, user_id ASC LIMIT 1),
         (SELECT count(*) FROM events WHERE user_id IS NOT NULL
            GROUP BY user_id ORDER BY count(*) DESC, user_id ASC LIMIT 1)
  FROM events
  UNION ALL
  SELECT 'value', count(*), count(*) - count(value),
         count(DISTINCT value), NULL, NULL
  FROM events
)
SELECT * FROM prof ORDER BY "column"
"""


def q_point_in_time_join(sf_dir: str):
    """Point-in-time (feature-store) join (ops/join.temporal_join):
    deterministic probe points (one seq past every 5th changelog event,
    including probes landing in delete gaps) LEFT-join the SCD2 version
    of (repo, path) valid at that seq. The gap semantics are the point:
    a probe after a delete matches NOTHING — a plain as-of join would
    leak the deleted version (label leakage in a training set)."""
    from .ops.join import temporal_join
    from .ops.window import scd2_history
    from .testgen import ensure_changelog

    sf = _sf_of(sf_dir)
    n_events = max(4000, int(2_000_000 * sf))
    n_repos = max(10, int(500 * sf))
    log_dir = ensure_changelog(os.path.join(CACHE_DIR, "changelog"), n_events, n_repos)
    dim = scd2_history(
        _read_sized(log_dir, columns=["repo", "path", "commit_seq", "op", "commit"]),
        ["repo", "path"],
        "commit_seq",
        op_col="op",
        attr_cols=["commit"],
    ).drop_columns(["is_current"])  # derivable from valid_to_seq; keep
    # the joined output minimal (and oracle-matched)

    def probes(batch: pa.Table) -> pa.Table:
        seq = batch["commit_seq"].to_numpy(zero_copy_only=False)
        keep = batch.filter(pa.array(seq % 5 == 0))
        probe = pc.add(keep["commit_seq"], 1)
        return keep.append_column("probe_seq", probe).drop_columns(["commit_seq"])

    facts = _read_sized(log_dir, columns=["repo", "path", "commit_seq"]).map_batches(
        probes, batch_format="pyarrow"
    )
    return temporal_join(facts, dim, ["repo", "path"], "probe_seq")


def point_in_time_oracle_sql(sf: float = 0.01) -> str:
    """Oracle for q_point_in_time_join: explicit interval LEFT JOIN
    over the lead()-derived version table (dynamic — embeds the cached
    changelog path)."""
    from .testgen import ensure_changelog

    n_events = max(4000, int(2_000_000 * sf))
    n_repos = max(10, int(500 * sf))
    log_dir = ensure_changelog(os.path.join(CACHE_DIR, "changelog"), n_events, n_repos)
    return f"""
WITH h AS (
  SELECT repo, path, commit, op, commit_seq AS valid_from_seq,
         lead(commit_seq) OVER (PARTITION BY repo, path ORDER BY commit_seq)
           AS valid_to_seq
  FROM '{log_dir}/*.parquet'
),
dim AS (SELECT * FROM h WHERE op <> 'delete'),
f AS (
  SELECT repo, path, commit_seq + 1 AS probe_seq
  FROM '{log_dir}/*.parquet' WHERE commit_seq % 5 = 0
)
SELECT f.repo, f.path, f.probe_seq,
       d.commit, d.valid_from_seq, d.valid_to_seq
FROM f LEFT JOIN dim d
  ON d.repo = f.repo AND d.path = f.path
 AND f.probe_seq >= d.valid_from_seq
 AND (d.valid_to_seq IS NULL OR f.probe_seq < d.valid_to_seq)
"""


def scd2_oracle_sql(sf: float = 0.01) -> str:
    """Oracle for q_scd2_history: plain SQL lead() over the same cached
    changelog parquet (dynamic — the path embeds the sf-scaled params)."""
    from .testgen import ensure_changelog

    n_events = max(4000, int(2_000_000 * sf))
    n_repos = max(10, int(500 * sf))
    log_dir = ensure_changelog(os.path.join(CACHE_DIR, "changelog"), n_events, n_repos)
    return f"""
WITH h AS (
  SELECT repo, path, commit, op, commit_seq AS valid_from_seq,
         lead(commit_seq) OVER (PARTITION BY repo, path ORDER BY commit_seq)
           AS valid_to_seq
  FROM '{log_dir}/*.parquet'
)
SELECT repo, path, commit, valid_from_seq, valid_to_seq,
       valid_to_seq IS NULL AS is_current
FROM h WHERE op <> 'delete'
"""


def q_cdc_replay(sf_dir: str):
    """Flagship: deterministic synthetic changelog scaled to sf, replayed
    through the lake; returns the converged table with sha256(content).
    Oracle: cdc_replay_oracle_sql() (reads the same generated changelog
    parquet directly — not a registered driver view); also pinned by
    tests/test_replay_golden.py."""
    from .pipelines.replay import replay_changelog
    from .stages.enrich import add_constant, add_timestamp, chain
    from .testgen import ensure_changelog
    from .util import sha256_hex_column

    sf = _sf_of(sf_dir)
    n_events = max(4000, int(2_000_000 * sf))
    n_repos = max(10, int(500 * sf))
    log_dir = ensure_changelog(os.path.join(CACHE_DIR, "changelog"), n_events, n_repos)
    lake_dir = os.path.join(CACHE_DIR, f"lake_q_{n_events}_{os.getpid()}")
    shutil.rmtree(lake_dir, ignore_errors=True)

    # Jitsu-style enrichment chain in the replay path (M1 context
    # enrichment: deterministic _timestamp from commit order + source
    # marker; zero-copy arrow, fused into the window read)
    enrichment = chain(add_timestamp(), add_constant("src", "cdc"))
    lake, _ = replay_changelog(
        log_dir,
        lake_dir,
        num_partitions=32,
        window_size=max(n_events // 8, 2000),
        enrichers=[enrichment],
    )

    def add_sha(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "content_sha256", sha256_hex_column(batch["content"])
        ).drop_columns(["content"])

    return lake.read().map_batches(add_sha, batch_format="pyarrow")


def q_minhash_dedup_docs(sf_dir: str):
    """MinHash+LSH near-dup clusters, fully distributed (candidates,
    exact-Jaccard verify, min-label-propagation components). Oracle:
    exact char-5-gram Jaccard >= 0.8 + recursive-CTE closure — valid
    because the (deterministic, seeded) LSH has 100% recall on the
    testdata corpus (P(miss) per true pair at s=0.8 is ~2e-4)."""
    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return minhash_dedup(ds, threshold=0.8, cluster_mode="distributed")


SQL_MINHASH = r"""
WITH RECURSIVE t AS (SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS s FROM documents),
sh AS (
  SELECT doc_id,
         list(DISTINCT substr(s, CAST(i AS INT), 5)) AS gs,
         count(DISTINCT substr(s, CAST(i AS INT), 5)) AS n
  FROM t CROSS JOIN UNNEST(range(1, greatest(len(s) - 3, 2))) AS g(i)
  GROUP BY doc_id
),
p AS (
  SELECT x.doc_id AS a, y.doc_id AS b,
         len(list_intersect(x.gs, y.gs)) AS c, x.n + y.n AS sn
  FROM sh x JOIN sh y ON x.doc_id < y.doc_id
),
pairs AS (SELECT a, b FROM p WHERE c * 1.0 / (sn - c) >= 0.8),
edges AS (SELECT a AS x, b AS y FROM pairs UNION SELECT b, a FROM pairs),
reach(x, y) AS (
  SELECT x, y FROM edges
  UNION
  SELECT r.x, e.y FROM reach r JOIN edges e ON r.y = e.x
)
SELECT x AS doc_id, least(x, min(y)) AS cluster FROM reach GROUP BY x ORDER BY doc_id
"""


def q_ngram_jaccard_docs(sf_dir: str):
    """Word-3-gram Jaccard pairs (LSH candidates + distributed exact
    verification); jaccard_ppm = floor(inter*1e6/union + 0.5) — integer
    so the oracle hash is float-format-proof."""
    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, n=3, threshold=0.6)


SQL_NGRAM = r"""
WITH t AS (SELECT doc_id, string_split(trim(regexp_replace(text, '\s+', ' ', 'g')), ' ') AS w FROM documents),
lg AS (
  SELECT doc_id,
         list(DISTINCT w[CAST(i AS INT)] || ' ' || w[CAST(i AS INT)+1] || ' ' || w[CAST(i AS INT)+2]) AS gs
  FROM t CROSS JOIN UNNEST(range(1, len(w) - 1)) AS r(i)
  WHERE len(w) >= 3 GROUP BY doc_id
),
g AS (
  SELECT * FROM lg
  UNION ALL
  SELECT doc_id, [array_to_string(w, ' ')] AS gs FROM t WHERE len(w) < 3
),
sized AS (SELECT doc_id, gs, len(gs) AS n FROM g),
p AS (
  SELECT x.doc_id AS a, y.doc_id AS b,
         len(list_intersect(x.gs, y.gs)) AS c, x.n + y.n AS sn
  FROM sized x JOIN sized y ON x.doc_id < y.doc_id
)
SELECT a, b, CAST(floor(c * 1000000.0 / (sn - c) + 0.5) AS BIGINT) AS jaccard_ppm
FROM p WHERE c * 1.0 / (sn - c) >= 0.6 ORDER BY a, b
"""


def q_incremental_near_dup(sf_dir: str):
    """STREAMING near-dup (ops/lsh_index): docs < 400 are the already-
    ingested corpus (persisted LSH band index + text lake), docs >= 400
    arrive as one ingestion window and are checked incrementally — the
    index is only scanned at its touched buckets, old candidate texts
    come through the lake's pruned point lookup, and the window's own
    pairs are found with the in-window LSH pass. Oracle: exact
    char-5-gram Jaccard >= 0.8 over (new x old) + (new x new, a < b)
    pairs — valid for the same reason as SQL_MINHASH (the seeded LSH
    has ~100% recall at s=0.8 on this corpus)."""
    from .ops.lsh_index import MinHashIndex, incremental_near_dup
    from .sinks.lake import LakeTable

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    old = ds.filter(expr="doc_id < 400")
    new = ds.filter(expr="doc_id >= 400")
    _sweep_stale_lakes("lsh_inc_")
    base = os.path.join(
        CACHE_DIR, f"lsh_inc_{os.path.basename(sf_dir)}_{os.getpid()}"
    )
    shutil.rmtree(base, ignore_errors=True)
    idx = MinHashIndex.create(os.path.join(base, "idx"), num_perm=64, bands=16)
    lake = LakeTable.create(os.path.join(base, "corpus"), ["doc_id"], 8)

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "commit_seq": batch["doc_id"],
                "op": pa.array(["insert"] * batch.num_rows, pa.string()),
                "doc_id": batch["doc_id"],
                "text": batch["text"],
            }
        )

    idx.add(old)
    lake.apply_window(old.map_batches(prep, batch_format="pyarrow"), -1, 400)
    pairs, _stats = incremental_near_dup(new, idx, lake, threshold=0.8)
    return pairs


SQL_INCREMENTAL_NEAR_DUP = r"""
WITH t AS (SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS s FROM documents),
sh AS (
  SELECT doc_id,
         list(DISTINCT substr(s, CAST(i AS INT), 5)) AS gs,
         count(DISTINCT substr(s, CAST(i AS INT), 5)) AS n
  FROM t CROSS JOIN UNNEST(range(1, greatest(len(s) - 3, 2))) AS g(i)
  GROUP BY doc_id
),
p AS (
  SELECT x.doc_id AS a, y.doc_id AS b,
         len(list_intersect(x.gs, y.gs)) AS c, x.n + y.n AS sn
  FROM sh x JOIN sh y
    ON x.doc_id >= 400 AND (y.doc_id < 400 OR y.doc_id > x.doc_id)
)
SELECT a, b, CAST(floor(c * 1000000.0 / (sn - c) + 0.5) AS BIGINT) AS jaccard_ppm
FROM p WHERE c * 1.0 / (sn - c) >= 0.8 ORDER BY a, b
"""


def q_simhash_docs(sf_dir: str):
    """64-bit SimHash per doc (md5-lower64 token hashes, batch-level
    vectorized bit voting). Oracle: the same vote in SQL via
    md5_number_lower + bit arithmetic."""
    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    # stateless stage: plain tasks on warm workers beat an actor pool
    # (no per-query actor startup; cf. minhash_stage)
    return ds.map_batches(SimHasher(), batch_format="pyarrow").select_columns(
        ["doc_id", "simhash"]
    )


SQL_SIMHASH = r"""
WITH tok AS (
  SELECT doc_id, CAST(md5_number_lower(x) AS UBIGINT) AS h
  FROM (SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS toks FROM documents),
       UNNEST(toks) AS u(x)
),
votes AS (
  SELECT doc_id, k,
         sum(CASE WHEN (h >> CAST(k AS INT)) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM tok CROSS JOIN UNNEST(range(0, 64)) AS r(k)
  GROUP BY doc_id, k
),
sim AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN v > 0 THEN
             CASE WHEN k = 63 THEN -9223372036854775808
                  ELSE (CAST(1 AS BIGINT) << CAST(k AS INT)) END
             ELSE 0 END) AS BIGINT) AS simhash
  FROM votes GROUP BY doc_id
)
SELECT d.doc_id, coalesce(s.simhash, 0) AS simhash
FROM documents d LEFT JOIN sim s ON d.doc_id = s.doc_id ORDER BY d.doc_id
"""


def q_doc_quality(sf_dir: str):
    """Fused text-quality stage: ONE polars pass per batch computes
    stopword/punct ratios, mean word length, BPE-ish token count,
    language vote and rolling md5 fingerprint (ops/text.DocAnalyzer) —
    replaces the former QualityScore->LangId->Fingerprint actor chain
    (3x text serialization). Every column has an exact SQL twin."""
    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return ds.map_batches(DocAnalyzer(), batch_format="pyarrow").select_columns(
        ["doc_id", "stopword_ratio", "punct_ratio", "mean_word_len", "n_bpe_tokens",
         "quality_ok", "lang_pred", "fingerprint"]
    )


# NOTE (round-2 ADVICE): the engine's \w in DocAnalyzer is polars'
# Unicode word class while DuckDB's RE2 \w is ASCII-only — the right
# behavior for real multilingual corpora diverges from this oracle on
# non-ASCII text. The testdata documents are ASCII, where both agree;
# char shingles (minhash/ngram) were moved to codepoints so THEY agree
# with substr() on any text.
SQL_DOC_QUALITY = r"""
WITH t AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
feat AS (
  SELECT doc_id, text,
         regexp_extract_all(text, '[A-Za-z]+') AS ws,
         list_transform(regexp_extract_all(text, '[A-Za-zÀ-ÿ]+')[1:200], x -> lower(x)) AS lws,
         len(regexp_extract_all(text, '[^\w\s]')) AS np,
         greatest(length(text), 1) AS nc,
         len(regexp_extract_all(text, '\w+|[^\w\s]')) AS n_bpe_tokens
  FROM t
),
scored AS (
  SELECT doc_id, text, n_bpe_tokens,
         len(list_filter(ws, x -> list_contains(['the','and','of','a','to','in','is','for','on','with','that','this'], lower(x)))) AS stop_hits,
         len(ws) AS nw,
         list_sum(list_transform(ws, x -> length(x))) AS wlen,
         np, nc,
         len(list_filter(lws, x -> list_contains(['der','die','das','und','ist','nicht','mit','ein','eine','zu','den'], x))) AS s_de,
         len(list_filter(lws, x -> list_contains(['the','and','of','a','to','in','is','for','on','with','that','this'], x))) AS s_en,
         len(list_filter(lws, x -> list_contains(['el','la','de','que','y','en','un','una','los','las','por'], x))) AS s_es,
         len(list_filter(lws, x -> list_contains(['le','la','de','et','un','une','les','des','est','dans','pour'], x))) AS s_fr
  FROM feat
)
SELECT doc_id,
       stop_hits * 1.0 / greatest(nw, 1) AS stopword_ratio,
       np * 1.0 / nc AS punct_ratio,
       CASE WHEN nw > 0 THEN wlen * 1.0 / nw ELSE 0.0 END AS mean_word_len,
       CAST(n_bpe_tokens AS BIGINT) AS n_bpe_tokens,
       (stop_hits * 1.0 / greatest(nw, 1)) > 0.01 AND (np * 1.0 / nc) < 0.3 AS quality_ok,
       CASE WHEN greatest(s_de, s_en, s_es, s_fr) = 0 THEN 'und'
            WHEN s_fr >= greatest(s_de, s_en, s_es) THEN 'fr'
            WHEN s_es >= greatest(s_de, s_en) THEN 'es'
            WHEN s_en >= s_de THEN 'en'
            ELSE 'de' END AS lang_pred,
       CAST(CASE WHEN r > 1152921504606846975 THEN r - 2305843009213693951 ELSE r END AS BIGINT) AS fingerprint
FROM scored,
LATERAL (
  SELECT list_reduce(
           list_prepend(CAST(0 AS HUGEINT),
             list_transform(list_filter(string_split_regex(trim(text), '\s+'), x -> x <> ''),
                            tok -> CAST(md5_number_lower(tok) AS HUGEINT))),
           (h, x) -> (h * 1000003 + x) % 2305843009213693951) AS r
) fp
ORDER BY doc_id
"""


def q_ann_ivf_topk(sf_dir: str):
    """IVF-bucketed top-5 for the first 10 vectors, run at FULL probe
    (n_probe = n_centroids): probing every bucket makes the result
    mathematically identical to exact brute force — so the driver can
    hash-check it against SQL_KNN — while still exercising the entire
    IVF machinery (seeded centroid training, bucket assignment,
    physical per-bucket splits, partition-parallel probe tasks, global
    merge). The approximate operating point (n_probe < n_centroids) is
    covered by the recall assertion in tests/test_ops.py."""
    qids, qmat = _load_queries(sf_dir)
    ds = _read_sized(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = ann_ivf(ds, qids, qmat, k=5, n_centroids=16, n_probe=16)
    return out.select(["query_id", "neighbor_id"])


def q_embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-dup pairs over the embeddings table (exact
    tiled self-join). Threshold 0.4 sits >=1e-4 away from every actual
    pair cosine in the testdata draws, so float32-vs-float64 rounding
    cannot flip a pair across the oracle boundary."""
    from .ops.similarity import embedding_near_dup_auto

    ds = _read_sized(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    # auto-router: at sf block counts this stays on the exact (oracle-
    # checkable) tile path; a many-block corpus routes to the IVF variant
    return embedding_near_dup_auto(ds, threshold=0.4)


SQL_NEAR_DUP = """
SELECT x.vec_id AS a, y.vec_id AS b
FROM embeddings x, embeddings y
WHERE x.vec_id < y.vec_id
  AND list_cosine_similarity(x.embedding, y.embedding) >= 0.4
ORDER BY a, b
"""


def q_semantic_decontaminate(sf_dir: str):
    """Semantic benchmark decontamination (ops/similarity.
    semantic_decontaminate): the first 10 embeddings stand in for a
    benchmark set; every remaining corpus vector is flagged when its
    cosine against ANY eval vector reaches 0.4 (the margin-verified
    threshold). One broadcast + one linear pass, zero shuffle — the
    embedding sibling of decontaminate_ngram."""
    from .ops.similarity import semantic_decontaminate

    _, qmat = _load_queries(sf_dir)
    ds = _read_sized(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    ).filter(expr="vec_id >= 10")
    return semantic_decontaminate(ds, qmat, "vec_id", "embedding", threshold=0.4)


SQL_SEMANTIC_DECON = """
WITH q AS (SELECT embedding FROM embeddings WHERE vec_id < 10)
SELECT d.vec_id,
       EXISTS (SELECT 1 FROM q
               WHERE (NOT isnan(list_cosine_similarity(d.embedding, q.embedding)))
                 AND list_cosine_similarity(d.embedding, q.embedding) >= 0.4)
         AS is_contaminated
FROM embeddings d WHERE d.vec_id >= 10
"""


def q_multimodal_decode(sf_dir: str):
    """Binary-media plumbing: documents' text bytes stand in for image
    payloads; FakeDecoder derives deterministic metadata (ops/multimodal
    docstring: codec stubbed, Ray plumbing real)."""

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "media_id": batch["doc_id"],
                "media": pc.cast(batch["text"], pa.large_binary()),
                "mime": pa.array(["image/png"] * batch.num_rows, pa.string()),
            }
        )

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return decode_media(ds.map_batches(to_media, batch_format="pyarrow"), batch_size=128)


def _hexbyte(k: int) -> str:
    """SQL for byte k (0-indexed) of the hex digest string `h`."""
    c1 = f"substr(h, {2 * k + 1}, 1)"
    c2 = f"substr(h, {2 * k + 2}, 1)"
    return (
        f"((strpos('0123456789abcdef', {c1}) - 1) * 16"
        f" + (strpos('0123456789abcdef', {c2}) - 1))"
    )


SQL_MULTIMODAL = f"""
WITH m AS (
  SELECT doc_id AS media_id, 'image/png' AS mime,
         sha256(text) AS h, octet_length(encode(text)) AS n_bytes
  FROM documents
)
SELECT media_id, mime,
       CAST(64 + ({_hexbyte(0)} + 256 * {_hexbyte(1)}) % 1984 AS INT) AS width,
       CAST(64 + ({_hexbyte(2)} + 256 * {_hexbyte(3)}) % 1984 AS INT) AS height,
       CAST(n_bytes AS BIGINT) AS n_bytes,
       CAST(1 + {_hexbyte(4)} % 4 AS INT) AS channels,
       h AS content_sha256
FROM m
"""


def q_frame_sample(sf_dir: str):
    """Multimodal frame sampling: documents' bytes stand in for video
    payloads; every 10th frame of the (sha-derived) frame count fans
    out to its own row — the flat-map plumbing a real decoder drops
    into (ops/multimodal.sample_frames)."""
    from .ops.multimodal import sample_frames

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "media_id": batch["doc_id"],
                "media": pc.cast(batch["text"], pa.large_binary()),
            }
        )

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return sample_frames(ds.map_batches(to_media, batch_format="pyarrow"), every_n=10)


SQL_FRAME_SAMPLE = f"""
WITH m AS (SELECT doc_id AS media_id, sha256(coalesce(text, '')) AS h FROM documents),
n AS (SELECT media_id, 1 + ({_hexbyte(5)} + 256 * {_hexbyte(6)}) % 300 AS n_frames FROM m)
SELECT media_id, CAST(f AS INT) AS frame_idx, CAST(f AS DOUBLE) / 25.0 AS frame_ts
FROM n CROSS JOIN UNNEST(range(0, n_frames, 10)) AS r(f)
"""


def q_schema_infer(sf_dir: str):
    """M5/A1: logical-schema inference over two tables (metadata result)."""
    from .types import from_arrow

    rows = []
    for name in ("events", "documents"):
        # plain read_parquet: .schema() resolves from parquet footers
        # alone; the clean wrapper's strip stage would force block
        # execution for a metadata-only answer (round-3 review)
        schema = ray.data.read_parquet(_t(sf_dir, name)).schema().base_schema
        for f in schema:
            try:
                lt = from_arrow(f.type).name
            except TypeError:
                lt = "NESTED"
            rows.append({"table_name": name, "column": f.name, "logical_type": lt})
    return pa.Table.from_pylist(sorted(rows, key=lambda r: (r["table_name"], r["column"])))


SQL_SCHEMA_INFER = """
WITH d AS (
  SELECT 'documents' AS table_name, column_name, column_type FROM (DESCRIBE documents)
  UNION ALL
  SELECT 'events', column_name, column_type FROM (DESCRIBE events)
)
SELECT table_name, column_name AS "column",
       CASE column_type
            WHEN 'BIGINT' THEN 'INT64'
            WHEN 'VARCHAR' THEN 'STRING'
            WHEN 'DOUBLE' THEN 'FLOAT64'
            WHEN 'BOOLEAN' THEN 'BOOL'
            WHEN 'TIMESTAMP' THEN 'TIMESTAMP'
            ELSE 'NESTED' END AS logical_type
FROM d ORDER BY table_name, "column"
"""


def q_time_travel(sf_dir: str):
    """Lakehouse time travel over the ledger: load all events, tombstone
    every 'click' in a later window, then read the table AS OF the
    commit point BEFORE the delete — the pre-delete state must come back
    exactly (sinks/lake.read(as_of=...); ledger-replay file selection in
    state/ledger.live_files)."""
    from .sinks.lake import LakeTable

    def prep(batch: pa.Table) -> pa.Table:
        v = _cents(batch, "value")
        return pa.table(
            {
                "commit_seq": batch["event_id"],
                "op": pa.array(["insert"] * batch.num_rows, pa.string()),
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "value_c": v,
            }
        )

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    ).map_batches(prep, batch_format="pyarrow")
    _sweep_stale_lakes("lake_tt_")
    lake_dir = os.path.join(CACHE_DIR, f"lake_tt_{os.path.basename(sf_dir)}_{os.getpid()}")
    lake = LakeTable.create(lake_dir, ["event_id"], 8)
    hi = 20_000_000
    lake.apply_window(ds, 0, hi)
    lake.delete_where(lambda b: pc.equal(b["event_type"], "click"))
    # current state excludes clicks; the as-of view must NOT
    return lake.read(as_of=hi).select_columns(["event_id", "event_type", "value_c"])


def q_point_lookup_users(sf_dir: str):
    """Zone-map point lookup (sinks/lake.LakeTable.lookup): build the
    per-user LWW lake in THREE windows (so each partition holds several
    delta files with distinct commit-seq — and key — ranges), then fetch
    users with user_id % 37 == 5 via the pruned lookup path: partition
    pruning by the write-side hash + per-file [min,max] zone maps from
    the ledger. The full requested-key range 0..4999 includes absent
    keys (they must return no row, exactly like the SQL filter)."""
    from .sinks.lake import LakeTable

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value"]
    ).map_batches(_user_lww_prep, batch_format="pyarrow")
    _sweep_stale_lakes("lake_pl_")
    lake_dir = os.path.join(
        CACHE_DIR, f"lake_pl_{os.path.basename(sf_dir)}_{os.getpid()}"
    )
    lake = LakeTable.create(lake_dir, ["user_id"], 8)
    c1, c2, hi = 3000, 6000, 20_000_000

    def upto(c_lo, c_hi):
        def f(b: pa.Table) -> pa.Table:
            m = pc.and_(
                pc.greater(b["commit_seq"], c_lo), pc.less_equal(b["commit_seq"], c_hi)
            )
            return b.filter(m)

        return f

    # first window lower bound -1: event_id 0 is a real row in the
    # testdata and windows are (lo, hi]
    lake.apply_window(ds.map_batches(upto(-1, c1), batch_format="pyarrow"), -1, c1)
    lake.apply_window(ds.map_batches(upto(c1, c2), batch_format="pyarrow"), c1, c2)
    lake.apply_window(ds.map_batches(upto(c2, hi), batch_format="pyarrow"), c2, hi)
    keys = [{"user_id": u} for u in range(0, 5000) if u % 37 == 5]
    return lake.lookup(keys, columns=["event_type", "value_c"]).select(
        ["user_id", "event_type", "value_c"]
    )


SQL_POINT_LOOKUP = """
SELECT user_id,
       arg_max(event_type, event_id) AS event_type,
       arg_max(CAST(floor(value*100 + 0.5) AS BIGINT), event_id) AS value_c
FROM events WHERE user_id % 37 = 5 GROUP BY user_id
"""


def q_range_scan_values(sf_dir: str):
    """Zone-map range scan (sinks/lake.LakeTable.scan_range): the
    point-lookup lake rebuilt with value_c as a tracked stats column,
    then one data-skipping band scan 1000 <= value_c <= 5000 over the
    resolved LWW state. At test scale every window spans the whole
    value range so nothing prunes (the pruning mechanics and the
    merge-on-read resurrection guard are pinned by pytest); the oracle
    checks the resolved-band SEMANTICS: per-user LWW winner first, band
    filter second — a row whose latest value left the band must vanish
    even though an older in-band version exists."""
    from .sinks.lake import LakeTable

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value"]
    ).map_batches(_user_lww_prep, batch_format="pyarrow")
    _sweep_stale_lakes("lake_rs_")
    lake_dir = os.path.join(
        CACHE_DIR, f"lake_rs_{os.path.basename(sf_dir)}_{os.getpid()}"
    )
    lake = LakeTable.create(lake_dir, ["user_id"], 8, stats_cols=["value_c"])
    c1, c2, hi = 3000, 6000, 20_000_000

    def upto(c_lo, c_hi):
        def f(b: pa.Table) -> pa.Table:
            m = pc.and_(
                pc.greater(b["commit_seq"], c_lo), pc.less_equal(b["commit_seq"], c_hi)
            )
            return b.filter(m)

        return f

    lake.apply_window(ds.map_batches(upto(-1, c1), batch_format="pyarrow"), -1, c1)
    lake.apply_window(ds.map_batches(upto(c1, c2), batch_format="pyarrow"), c1, c2)
    lake.apply_window(ds.map_batches(upto(c2, hi), batch_format="pyarrow"), c2, hi)
    scan = lake.scan_range("value_c", 1000, 5000).select_columns(
        ["user_id", "event_type", "value_c"]
    )
    tabs = list(scan.iter_batches(batch_format="pyarrow"))
    if not tabs:  # iter_batches yields ZERO batches on an empty result
        return scan.schema().base_schema.empty_table()
    return pa.concat_tables(tabs)


SQL_RANGE_SCAN = """
WITH s AS (
  SELECT user_id,
         arg_max(event_type, event_id) AS event_type,
         arg_max(CAST(floor(value*100 + 0.5) AS BIGINT), event_id) AS value_c
  FROM events GROUP BY user_id
)
SELECT user_id, event_type, value_c FROM s
WHERE value_c BETWEEN 1000 AND 5000
"""


SQL_TIME_TRAVEL = """
SELECT event_id, event_type,
       CAST(floor(value*100 + 0.5) AS BIGINT) AS value_c
FROM events
"""


def q_lake_maintenance(sf_dir: str):
    """Round-5 lake maintenance surface as one pipeline
    (sinks/lake.split_partition / compact(max_input_bytes) / vacuum):
    the per-user LWW lake built in FOUR windows with a size-tiered
    compaction (which deletes nothing) and a 2-way partition split
    (plus a nested child split) interleaved between them — so both
    pre- and post-split windows route through the refined topology —
    then a keep_history=0 vacuum GCs the replaced files. Every
    maintenance op is state-invariant, so the resolved state must equal
    the plain per-user LWW fold (SQL_LAKE_MAINT — the same arg_max
    oracle the unsplit lake would have)."""
    from .sinks.lake import LakeTable

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value"]
    ).map_batches(_user_lww_prep, batch_format="pyarrow")
    _sweep_stale_lakes("lake_mx_")
    lake_dir = os.path.join(
        CACHE_DIR, f"lake_mx_{os.path.basename(sf_dir)}_{os.getpid()}"
    )
    lake = LakeTable.create(lake_dir, ["user_id"], 8)
    c1, c2, c3, hi = 2000, 4000, 6000, 20_000_000

    def upto(c_lo, c_hi):
        def f(b: pa.Table) -> pa.Table:
            m = pc.and_(
                pc.greater(b["commit_seq"], c_lo), pc.less_equal(b["commit_seq"], c_hi)
            )
            return b.filter(m)

        return f

    lake.apply_window(ds.map_batches(upto(-1, c1), batch_format="pyarrow"), -1, c1)
    lake.apply_window(ds.map_batches(upto(c1, c2), batch_format="pyarrow"), c1, c2)
    # byte-bounded tiered fold of the two windows; GC waits for vacuum
    lake.compact(max_input_bytes=256 * 1024)
    lake.split_partition(0, factor=2)
    lake.apply_window(ds.map_batches(upto(c2, c3), batch_format="pyarrow"), c2, c3)
    lake.split_partition(8, factor=2)  # child 0+8 of the first split
    lake.apply_window(ds.map_batches(upto(c3, hi), batch_format="pyarrow"), c3, hi)
    lake.vacuum(keep_history=0)
    return lake.read().select_columns(["user_id", "event_type", "value_c"])


SQL_LAKE_MAINT = """
SELECT user_id,
       arg_max(event_type, event_id) AS event_type,
       arg_max(CAST(floor(value*100 + 0.5) AS BIGINT), event_id) AS value_c
FROM events GROUP BY user_id
"""


def q_cdc_diff(sf_dir: str):
    """CDC changelog between two lake states (sinks/lake.diff_as_of):
    per-user LWW state is built in two windows (events up to seq 5000,
    then the rest), users with user_id % 7 == 0 are tombstoned, and the
    diff between the first window's state and the final state classifies
    every changed user as insert / update / delete (value-level
    semantics; delete rows carry their last-known values). Per-partition
    full-join diff, NO shuffle — partition files at both cutoffs are
    co-located by construction."""
    from .sinks.lake import LakeTable

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value"]
    ).map_batches(_user_lww_prep, batch_format="pyarrow")
    CUT, HI = 5000, 20_000_000
    _sweep_stale_lakes("lake_diff_")
    lake_dir = os.path.join(
        CACHE_DIR, f"lake_diff_{os.path.basename(sf_dir)}_{os.getpid()}"
    )
    lake = LakeTable.create(lake_dir, ["user_id"], 8)
    lake.apply_window(ds.filter(expr=f"commit_seq <= {CUT}"), 0, CUT)
    lake.apply_window(ds.filter(expr=f"commit_seq > {CUT}"), CUT, HI)
    lake.delete_where(_uid_mod7_is0)
    return lake.diff_as_of(CUT, lake.ledger.last_committed_hi())


def _user_lww_prep(batch: pa.Table) -> pa.Table:
    """events -> per-user LWW change rows (commit_seq = event_id) — the
    shared lake-build projection for the CDC diff / matview queries."""
    return pa.table(
        {
            "commit_seq": batch["event_id"],
            "op": pa.array(["insert"] * batch.num_rows, pa.string()),
            "user_id": batch["user_id"],
            "event_type": batch["event_type"],
            "value_c": _cents(batch, "value"),
        }
    )


def _uid_mod7_is0(batch: pa.Table) -> pa.Array:
    """user_id % 7 == 0 — the shared tombstone-wave predicate."""
    uid = batch["user_id"]
    return pc.equal(pc.subtract(uid, pc.multiply(pc.divide(uid, 7), 7)), 0)


_SQL_LWW_SA = """SELECT user_id,
         arg_max(event_type, event_id) AS event_type,
         arg_max(CAST(floor(value*100 + 0.5) AS BIGINT), event_id) AS value_c
  FROM events WHERE event_id <= 5000 GROUP BY user_id"""

_SQL_LWW_SB = """SELECT user_id,
         arg_max(event_type, event_id) AS event_type,
         arg_max(CAST(floor(value*100 + 0.5) AS BIGINT), event_id) AS value_c
  FROM events GROUP BY user_id
  HAVING user_id % 7 <> 0"""


def q_matview_revenue(sf_dir: str):
    """Incrementally-maintained aggregate view (pipelines/matview):
    per-event_type count + summed cents over the lake's LWW user state,
    refreshed ONCE after the first window (full build from the empty
    watermark) and ONCE after the second window + tombstone wave — the
    second refresh folds only the CDC diff forward (O(changes), never a
    table rescan). The result must equal a direct GROUP BY over the
    final state, which is exactly what the oracle computes."""
    from .pipelines.matview import IncrementalAggView
    from .sinks.lake import LakeTable

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value"]
    ).map_batches(_user_lww_prep, batch_format="pyarrow")
    CUT, HI = 5000, 20_000_000
    _sweep_stale_lakes("lake_mv_")
    base = os.path.join(CACHE_DIR, f"lake_mv_{os.path.basename(sf_dir)}_{os.getpid()}")
    lake = LakeTable.create(os.path.join(base, "lake"), ["user_id"], 8)
    view = IncrementalAggView(
        os.path.join(base, "view"), lake, ["event_type"], ["value_c"]
    )
    lake.apply_window(ds.filter(expr=f"commit_seq <= {CUT}"), 0, CUT)
    view.refresh()  # initial build (diff from the empty state)
    lake.apply_window(ds.filter(expr=f"commit_seq > {CUT}"), CUT, HI)
    lake.delete_where(_uid_mod7_is0)
    view.refresh()  # incremental: folds only the (CUT, hi] CDC diff
    return view.read()


def q_lake_replica(sf_dir: str):
    """Lake -> lake incremental replication (pipelines/replicate): a
    downstream replica on a DIFFERENT partition count is maintained from
    the source's change data feed — one round after the first window
    (bootstrap = diff from the empty watermark), one after the second
    window + tombstone wave (folds only the new changes; deletes
    propagate as anti-entropy tombstones). The replica's resolved state
    must equal a direct LWW query over the source events, which is what
    the oracle computes. The replica's ledger is the watermark, so
    re-running a round is an idempotent window skip."""
    from .pipelines.replicate import replicate
    from .sinks.lake import LakeTable

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value"]
    ).map_batches(_user_lww_prep, batch_format="pyarrow")
    CUT, HI = 5000, 20_000_000
    _sweep_stale_lakes("lake_rep_")
    base = os.path.join(CACHE_DIR, f"lake_rep_{os.path.basename(sf_dir)}_{os.getpid()}")
    src = LakeTable.create(os.path.join(base, "src"), ["user_id"], 8)
    dst = LakeTable.create(os.path.join(base, "dst"), ["user_id"], 4)
    src.apply_window(ds.filter(expr=f"commit_seq <= {CUT}"), 0, CUT)
    replicate(src, dst)  # bootstrap round (diff from the empty state)
    src.apply_window(ds.filter(expr=f"commit_seq > {CUT}"), CUT, HI)
    src.delete_where(_uid_mod7_is0)
    replicate(src, dst)  # incremental round: only the (CUT, hi] changes
    return dst.read(
        columns=["user_id", "event_type", "value_c"]
    ).select_columns(["user_id", "event_type", "value_c"])


SQL_REPLICA = f"""
WITH sb AS (
  {_SQL_LWW_SB}
)
SELECT user_id, event_type, value_c FROM sb
"""


def q_lake_replica_filtered(sf_dir: str):
    """PARTIAL replica (pipelines/replicate where=/columns=): the
    logical-replication publication shape — dst receives only rows whose
    LWW state satisfies the predicate and only the listed payload
    columns; a key whose state LEAVES the predicate between rounds
    propagates as a delete. Predicate: ``value_c >= 5000`` — it
    references a payload column that is NOT replicated (columns=
    ['event_type']), exercising the filter-column/projection split; the
    second window rewrites most users' value_c, so keys cross the
    predicate in both directions. The replica must equal
    ``SELECT user_id, event_type FROM state WHERE value_c >= 5000``,
    which is what the oracle computes."""
    from .pipelines.replicate import replicate
    from .sinks.lake import LakeTable

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value"]
    ).map_batches(_user_lww_prep, batch_format="pyarrow")
    CUT, HI = 5000, 20_000_000
    _sweep_stale_lakes("lake_repf_")
    base = os.path.join(
        CACHE_DIR, f"lake_repf_{os.path.basename(sf_dir)}_{os.getpid()}"
    )
    src = LakeTable.create(os.path.join(base, "src"), ["user_id"], 8)
    dst = LakeTable.create(os.path.join(base, "dst"), ["user_id"], 4)
    WHERE = [("value_c", ">=", 5000)]
    COLS = ["event_type"]
    src.apply_window(ds.filter(expr=f"commit_seq <= {CUT}"), 0, CUT)
    replicate(src, dst, where=WHERE, columns=COLS)  # bootstrap round
    src.apply_window(ds.filter(expr=f"commit_seq > {CUT}"), CUT, HI)
    src.delete_where(_uid_mod7_is0)
    replicate(src, dst, where=WHERE, columns=COLS)  # incremental round
    return dst.read(columns=["user_id", "event_type"]).select_columns(
        ["user_id", "event_type"]
    )


# the WHERE clause is pipelines.replicate.where_sql([("value_c", ">=", 5000)])
SQL_REPLICA_FILTERED = f"""
WITH sb AS (
  {_SQL_LWW_SB}
)
SELECT user_id, event_type FROM sb WHERE value_c >= 5000
"""


def q_lake_replica_fanout(sf_dir: str):
    """One source fanned out to TWO replicas (plain + filtered/projected)
    with `replicate_many` — the reference's one-stream -> N-destinations
    loop with the CDC diff computed ONCE per round instead of once per
    replica. Both rounds (bootstrap, then incremental over the second
    window + tombstone wave) drive both replicas from one shared scan.
    Output = both replicas' resolved states stacked with a `replica`
    label (the filtered replica's dropped value_c padded NULL), which
    the oracle reproduces as a UNION ALL over the LWW state."""
    from .pipelines.replicate import replicate_many
    from .sinks.lake import LakeTable

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value"]
    ).map_batches(_user_lww_prep, batch_format="pyarrow")
    CUT, HI = 5000, 20_000_000
    _sweep_stale_lakes("lake_repm_")
    base = os.path.join(
        CACHE_DIR, f"lake_repm_{os.path.basename(sf_dir)}_{os.getpid()}"
    )
    src = LakeTable.create(os.path.join(base, "src"), ["user_id"], 8)
    plain = LakeTable.create(os.path.join(base, "plain"), ["user_id"], 4)
    filt = LakeTable.create(os.path.join(base, "filt"), ["user_id"], 4)
    targets = [
        {"dst": plain},
        {"dst": filt, "where": [("value_c", ">=", 5000)], "columns": ["event_type"]},
    ]
    src.apply_window(ds.filter(expr=f"commit_seq <= {CUT}"), 0, CUT)
    replicate_many(src, targets)  # bootstrap both from one shared diff
    src.apply_window(ds.filter(expr=f"commit_seq > {CUT}"), CUT, HI)
    src.delete_where(_uid_mod7_is0)
    replicate_many(src, targets)  # incremental round, one shared diff

    def label(name: str, pad_value_c: bool):
        def run(batch: pa.Table) -> pa.Table:
            out = batch.append_column(
                "replica", pa.array([name] * batch.num_rows, pa.string())
            )
            if pad_value_c:
                out = out.append_column(
                    "value_c", pa.nulls(batch.num_rows, pa.int64())
                )
            return out.select(["replica", "user_id", "event_type", "value_c"])

        return run

    p = plain.read(columns=["user_id", "event_type", "value_c"]).map_batches(
        label("plain", False), batch_format="pyarrow"
    )
    f = filt.read(columns=["user_id", "event_type"]).map_batches(
        label("filtered", True), batch_format="pyarrow"
    )
    return p.union(f)


SQL_REPLICA_FANOUT = f"""
WITH sb AS (
  {_SQL_LWW_SB}
)
SELECT 'plain' AS replica, user_id, event_type, value_c FROM sb
UNION ALL
SELECT 'filtered' AS replica, user_id, event_type, CAST(NULL AS BIGINT) AS value_c
FROM sb WHERE value_c >= 5000
"""


SQL_MATVIEW = f"""
WITH sb AS (
  {_SQL_LWW_SB}
)
SELECT event_type, count(*) AS n,
       CAST(sum(value_c) AS BIGINT) AS sum_value_c
FROM sb GROUP BY event_type
"""


# presence flags + IS NOT DISTINCT FROM mirror the engine exactly:
# diff_as_of's full join is NULL-SAFE on keys (a null key is a
# first-class lake key), so the oracle must not classify a null-keyed
# row present in both states as insert+delete via key-null tests
SQL_CDC_DIFF = f"""
WITH sa AS (
  SELECT *, TRUE AS in_a FROM ({_SQL_LWW_SA})
), sb AS (
  SELECT *, TRUE AS in_b FROM ({_SQL_LWW_SB})
)
SELECT coalesce(sa.user_id, sb.user_id) AS user_id,
       CASE WHEN sb.in_b IS NULL THEN sa.event_type ELSE sb.event_type END AS event_type,
       CASE WHEN sb.in_b IS NULL THEN sa.value_c ELSE sb.value_c END AS value_c,
       CASE WHEN sa.in_a IS NULL THEN 'insert'
            WHEN sb.in_b IS NULL THEN 'delete'
            ELSE 'update' END AS change
FROM sa FULL OUTER JOIN sb ON sa.user_id IS NOT DISTINCT FROM sb.user_id
WHERE sa.in_a IS NULL OR sb.in_b IS NULL
   OR sa.event_type IS DISTINCT FROM sb.event_type
   OR sa.value_c IS DISTINCT FROM sb.value_c
"""


def q_corpus_pipeline(sf_dir: str):
    """Flagship LLM-data composition — the full corpus-assembly chain in
    one lazy pipeline, every stage an operator proven above on its own:
    quality filter (DocAnalyzer quality_ok) -> language filter (en) ->
    MinHash near-dup removal (keep cluster representatives) -> 50%
    deterministic hash sample -> overlapping 50-word chunking. Output =
    the training chunks (doc_id, chunk_id, n_words, chunk_md5); the
    oracle composes the same SQL pieces end-to-end."""
    from .ops.corpus import chunk_documents, hash_sample
    from .ops.dedup import minhash_drop_ids
    from .ops.join import semi_anti_filter

    analyzer = DocAnalyzer(("quality_ok", "lang_pred"))

    def keep_fn(batch: pa.Table) -> pa.Table:
        out = analyzer(batch)
        mask = pc.and_(
            pc.fill_null(out["quality_ok"], False),
            pc.equal(out["lang_pred"], "en"),
        )
        return out.filter(mask).select(["doc_id", "text"])

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    # pinned once: the filtered corpus feeds the signature pass, the
    # shingle/verify pass and the final sample/chunk pass — without
    # this the analyzer regex stages re-run for each consumer. Small
    # inputs pin in the object store; above the staging budget the
    # intermediate streams to parquet instead (round-3 verdict #5: at
    # 100 TB the right spill target is a durable staging write, not a
    # pinned object-store copy).
    kept = _materialize_or_stage(
        ds.map_batches(keep_fn, batch_format="pyarrow"),
        input_bytes_hint=os.path.getsize(_t(sf_dir, "documents")),
        tag="corpus_kept",
    )
    drop = minhash_drop_ids(kept, threshold=0.8)
    uniq = semi_anti_filter(kept, drop, "doc_id", anti=True)
    sampled = hash_sample(uniq, "doc_id", 50)
    return chunk_documents(sampled, chunk_words=50, stride=40)


SQL_CORPUS_PIPELINE = r"""
WITH RECURSIVE t0 AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
feat AS (
  SELECT doc_id, text,
         regexp_extract_all(text, '[A-Za-z]+') AS ws,
         list_transform(regexp_extract_all(text, '[A-Za-zÀ-ÿ]+')[1:200], x -> lower(x)) AS lws,
         len(regexp_extract_all(text, '[^\w\s]')) AS np,
         greatest(length(text), 1) AS nc
  FROM t0
),
scored AS (
  SELECT doc_id, text,
         len(list_filter(ws, x -> list_contains(['the','and','of','a','to','in','is','for','on','with','that','this'], lower(x)))) AS stop_hits,
         len(ws) AS nw, np, nc,
         len(list_filter(lws, x -> list_contains(['der','die','das','und','ist','nicht','mit','ein','eine','zu','den'], x))) AS s_de,
         len(list_filter(lws, x -> list_contains(['the','and','of','a','to','in','is','for','on','with','that','this'], x))) AS s_en,
         len(list_filter(lws, x -> list_contains(['el','la','de','que','y','en','un','una','los','las','por'], x))) AS s_es,
         len(list_filter(lws, x -> list_contains(['le','la','de','et','un','une','les','des','est','dans','pour'], x))) AS s_fr
  FROM feat
),
kept AS (
  SELECT doc_id, text FROM scored
  WHERE (stop_hits * 1.0 / greatest(nw, 1)) > 0.01 AND (np * 1.0 / nc) < 0.3
    AND CASE WHEN greatest(s_de, s_en, s_es, s_fr) = 0 THEN 'und'
             WHEN s_fr >= greatest(s_de, s_en, s_es) THEN 'fr'
             WHEN s_es >= greatest(s_de, s_en) THEN 'es'
             WHEN s_en >= s_de THEN 'en'
             ELSE 'de' END = 'en'
),
ksh AS (
  SELECT doc_id,
         list(DISTINCT substr(s, CAST(i AS INT), 5)) AS gs,
         count(DISTINCT substr(s, CAST(i AS INT), 5)) AS n
  FROM (SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS s FROM kept) k
  CROSS JOIN UNNEST(range(1, greatest(len(s) - 3, 2))) AS g(i)
  GROUP BY doc_id
),
kp AS (
  SELECT x.doc_id AS a, y.doc_id AS b,
         len(list_intersect(x.gs, y.gs)) AS c, x.n + y.n AS sn
  FROM ksh x JOIN ksh y ON x.doc_id < y.doc_id
),
kpairs AS (SELECT a, b FROM kp WHERE c * 1.0 / (sn - c) >= 0.8),
kedges AS (SELECT a AS x, b AS y FROM kpairs UNION SELECT b, a FROM kpairs),
kreach(x, y) AS (
  SELECT x, y FROM kedges
  UNION
  SELECT r.x, e.y FROM kreach r JOIN kedges e ON r.y = e.x
),
kdrop AS (
  SELECT x AS doc_id FROM (SELECT x, least(x, min(y)) AS c FROM kreach GROUP BY x)
  WHERE x <> c
),
final_docs AS (
  SELECT doc_id, text FROM kept
  WHERE doc_id NOT IN (SELECT doc_id FROM kdrop)
    AND md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 50
),
w AS (
  SELECT doc_id,
         list_filter(string_split_regex(trim(text), '\s+'), x -> x <> '') AS words
  FROM final_docs
),
s2 AS (
  SELECT doc_id, words, unnest(generate_series(0, len(words) - 1, 40)) AS start
  FROM w WHERE len(words) > 0
)
SELECT doc_id,
       CAST(start / 40 AS BIGINT) AS chunk_id,
       CAST(least(50, len(words) - start) AS BIGINT) AS n_words,
       md5(array_to_string(words[start + 1 : least(start + 50, len(words))], ' ')) AS chunk_md5
FROM s2
"""


def q_stratified_sample(sf_dir: str):
    """Domain-mixing downsample (ops/corpus.stratified_sample): keep 10%
    of 'click' events, 50% of 'view', everything else — per-group rates
    over the same deterministic id-hash rule as doc_sample."""
    from .ops.corpus import stratified_sample

    ds = _read_sized(_t(sf_dir, "events"), columns=["event_id", "event_type"])
    return stratified_sample(
        ds, "event_id", "event_type", {"click": 10, "view": 50}
    )


SQL_STRATIFIED = """
SELECT event_id, event_type FROM events
WHERE md5_number_lower(CAST(event_id AS VARCHAR)) % 100 <
      CASE event_type WHEN 'click' THEN 10 WHEN 'view' THEN 50 ELSE 100 END
"""


def q_doc_repetition(sf_dir: str):
    """Repetition-based quality signals (ops/text.RepetitionSignals —
    the Gopher/MassiveText filter family at word level): duplicate-word
    fraction, top-bigram fraction, and the pass/fail flag, all in one
    vectorized numpy pass per batch."""
    from .ops.text import RepetitionSignals

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return ds.map_batches(
        RepetitionSignals(), batch_format="pyarrow"
    ).select_columns(["doc_id", "dup_word_frac", "top_bigram_frac", "repetition_ok"])


SQL_REPETITION = r"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS ws
  FROM documents
),
uni AS (
  SELECT doc_id, len(ws) AS nw,
         CASE WHEN len(ws) = 0 THEN 0.0
              ELSE 1.0 - len(list_distinct(ws)) * 1.0 / len(ws) END AS dup_word_frac
  FROM w
),
bg AS (
  SELECT doc_id, ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT) + 1] AS b
  FROM w, UNNEST(range(1, greatest(len(ws), 1))) AS t(i)
),
top AS (
  SELECT doc_id, max(c) * 1.0 / sum(c) AS top_bigram_frac
  FROM (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY doc_id, b)
  GROUP BY doc_id
)
SELECT u.doc_id, u.dup_word_frac,
       coalesce(t.top_bigram_frac, 0.0) AS top_bigram_frac,
       u.dup_word_frac <= 0.9 AND coalesce(t.top_bigram_frac, 0.0) <= 0.18
         AS repetition_ok
FROM uni u LEFT JOIN top t USING (doc_id) ORDER BY u.doc_id
"""


def q_redact_pii(sf_dir: str):
    """Text-level PII redaction (ops/text.PiiRedactor): scrub emails /
    IPv4s / phone numbers from corpus text, counting per-rule matches.
    The documents table is synthetic and PII-free, so every third doc is
    first SEEDED with a deterministic contact line (doc_id-derived email
    + IP + phone) — the same expression the oracle builds in SQL — so
    the redactor has real matches to prove itself on, while the
    unseeded docs exercise the no-match path."""
    from .ops.text import PiiRedactor

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def seed(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"]
        dv = did.to_numpy(zero_copy_only=False)  # no pc.mod kernel exists
        contact = pc.binary_join_element_wise(
            batch["text"],
            " Contact doc",
            pc.cast(did, pa.string()),
            "@example.com from 10.",
            pa.array((dv % 256).astype("U"), pa.string()),
            ".0.1 or +1415555",
            pa.array((dv % 9000 + 1000).astype("U"), pa.string()),
            "",
        )
        seeded = pc.if_else(pa.array(dv % 3 == 0), contact, batch["text"])
        return batch.set_column(batch.schema.get_field_index("text"), "text", seeded)

    return ds.map_batches(seed, batch_format="pyarrow").map_batches(
        PiiRedactor(), batch_format="pyarrow"
    ).select_columns(
        ["doc_id", "text_redacted", "n_email", "n_ipv4", "n_phone", "pii_found"]
    )


def _pii_redact_sql() -> str:
    """Oracle for q_redact_pii, generated from ops.text.PII_PATTERNS so
    the rule list is single-sourced: a chain of one CTE per rule, each
    counting matches on the PREVIOUS rule's output then replacing —
    exactly the redactor's sequential semantics."""
    from .ops.text import PII_PATTERNS

    seeded = (
        "SELECT doc_id, CASE WHEN doc_id % 3 = 0 THEN text || ' Contact doc' "
        "|| CAST(doc_id AS VARCHAR) || '@example.com from 10.' "
        "|| CAST(doc_id % 256 AS VARCHAR) || '.0.1 or +1415555' "
        "|| CAST(doc_id % 9000 + 1000 AS VARCHAR) ELSE text END AS t0 "
        "FROM documents"
    )
    ctes = [f"s0 AS ({seeded})"]
    for i, (name, pat, tok) in enumerate(PII_PATTERNS):
        p = pat.replace("'", "''")
        ctes.append(
            f"s{i + 1} AS (SELECT *, "
            f"len(regexp_extract_all(t{i}, '{p}')) AS n_{name}, "
            f"regexp_replace(t{i}, '{p}', '{tok}', 'g') AS t{i + 1} FROM s{i})"
        )
    n = len(PII_PATTERNS)
    counts = ", ".join(f"n_{name}" for name, _, _ in PII_PATTERNS)
    total = " + ".join(f"n_{name}" for name, _, _ in PII_PATTERNS)
    return (
        "WITH " + ", ".join(ctes) + f" SELECT doc_id, t{n} AS text_redacted, "
        f"{counts}, ({total}) > 0 AS pii_found FROM s{n} ORDER BY doc_id"
    )


SQL_REDACT_PII = _pii_redact_sql()


def q_decontaminate_docs(sf_dir: str):
    """Benchmark decontamination: flag every document that contains a
    held-out eval snippet verbatim (ops/decontam, substring mode — the
    oracle semantics; the n-gram scale mode is pytest-checked). The
    benchmark here is derived deterministically from the corpus (every
    29th doc donates words 4..11) because the sandbox has no external
    eval set; in production ``bench_texts`` is the external benchmark
    file — small by definition, read driver-side."""
    import pyarrow.parquet as pq

    from .ops.decontam import decontaminate_substring

    bt = pq.read_table(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    snippets = [
        " ".join(t.split(" ")[3:11])
        for i, t in zip(bt["doc_id"].to_pylist(), bt["text"].to_pylist())
        if i % 29 == 3 and t is not None and len(t.split(" ")) >= 11
    ]
    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "lang", "text"])
    # substring mode EXPLICITLY (not _auto): this query is paired with a
    # contains() oracle, and _auto legally switches to n-gram semantics
    # above its snippet bound — which would silently diverge at large sf
    return decontaminate_substring(ds, "text", snippets).select_columns(
        ["doc_id", "lang", "contaminated"]
    )


SQL_DECONTAMINATE = r"""
WITH bench AS (
  SELECT array_to_string((string_split(text, ' '))[4:11], ' ') AS snip
  FROM documents
  WHERE doc_id % 29 = 3 AND text IS NOT NULL
    AND len(string_split(text, ' ')) >= 11
)
SELECT d.doc_id, d.lang,
       EXISTS (SELECT 1 FROM bench b WHERE contains(d.text, b.snip))
         AS contaminated
FROM documents d ORDER BY d.doc_id
"""


def q_dedup_keep_docs(sf_dir: str):
    """The END of the dedup story: the deduplicated corpus. MinHash
    clusters computed fully distributed, then every cluster member
    except its min-id representative is dropped from the documents table
    via the broadcast anti-filter (ops/join.semi_anti_filter — the
    duplicate set is orders of magnitude smaller than the corpus;
    bucket_hash_join anti is the over-budget fallback shape)."""
    from .ops.dedup import minhash_drop_ids
    from .ops.join import semi_anti_filter

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    drop = minhash_drop_ids(ds, threshold=0.8)
    ids = _read_sized(_t(sf_dir, "documents"), columns=["doc_id"])
    return semi_anti_filter(ids, drop, "doc_id", anti=True)


SQL_DEDUP_KEEP = (
    "SELECT doc_id FROM documents WHERE doc_id NOT IN ("
    "SELECT doc_id FROM (" + SQL_MINHASH + ") WHERE doc_id <> cluster)"
)


def q_value_quantiles(sf_dir: str):
    """Exact per-group value distribution: p50/p90/p99 of the cent value
    per event_type (ops/corpus.group_quantiles_auto, quantile_disc
    rule). The distribution-QA shape a data pipeline runs over token
    counts per source. Routed: groups at test scale stay under the
    exact limit so the oracle-exact sort path runs; a skewed giant
    group would route to the mergeable sketch instead of sorting on
    one worker (round-3 verdict #3)."""
    from .ops.corpus import group_quantiles_auto

    def cents(batch: pa.Table) -> pa.Table:
        v = _cents(batch, "value")
        return pa.table({"event_type": batch["event_type"], "value_c": v})

    import pyarrow.parquet as pq

    path = _t(sf_dir, "events")
    ds = _read_sized(path, columns=["event_type", "value"])
    return group_quantiles_auto(
        ds.map_batches(cents, batch_format="pyarrow"), "event_type", "value_c",
        [0.5, 0.9, 0.99],
        # footer num_rows bounds every group: at small scale this settles
        # routing for free instead of a counting pass that doubled the job
        total_rows_hint=pq.ParquetFile(path).metadata.num_rows,
    )


SQL_QUANTILES = """
WITH t AS (
  SELECT event_type, CAST(floor(value*100 + 0.5) AS BIGINT) AS value_c FROM events
)
SELECT event_type,
       quantile_disc(value_c, 0.5) AS q50,
       quantile_disc(value_c, 0.9) AS q90,
       quantile_disc(value_c, 0.99) AS q99
FROM t GROUP BY event_type
"""


def q_value_quantiles_cont(sf_dir: str):
    """Interpolated (quantile_cont / PERCENTILE_CONT) per-group value
    distribution — the continuous sibling of value_quantiles
    (exact_group_quantiles interpolation='cont'). Both sides round to 2
    decimals: interpolated quantiles of integer cents are exact
    multiples of 0.01, so the rounding makes the float comparison
    bit-stable without losing information."""
    from .ops.corpus import exact_group_quantiles

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"event_type": batch["event_type"], "value_c": _cents(batch, "value")}
        )

    ds = _read_sized(_t(sf_dir, "events"), columns=["event_type", "value"])
    out = exact_group_quantiles(
        ds.map_batches(cents, batch_format="pyarrow"),
        "event_type",
        "value_c",
        [0.5, 0.9, 0.99],
        interpolation="cont",
    )

    def rnd(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                **{
                    c: pc.round(batch[c], ndigits=2)
                    for c in ("q50", "q90", "q99")
                },
            }
        )

    return out.map_batches(rnd, batch_format="pyarrow")


SQL_QUANTILES_CONT = """
WITH t AS (
  SELECT event_type, CAST(floor(value*100 + 0.5) AS BIGINT) AS value_c FROM events
)
SELECT event_type,
       ROUND(quantile_cont(value_c, 0.5), 2) AS q50,
       ROUND(quantile_cont(value_c, 0.9), 2) AS q90,
       ROUND(quantile_cont(value_c, 0.99), 2) AS q99
FROM t GROUP BY event_type
"""


def q_distinct_users(sf_dir: str):
    """Per-type distinct-user cardinality — the audience/coverage QA a
    pipeline runs per source (ops/corpus.group_distinct_auto). Routed:
    at test scale the footer row count settles the oracle-exact
    distributed distinct (per-batch pair combiner + int-shard distinct
    fold + tiny Sum groupby) for free; corpus-scale inputs route to the
    mergeable HyperLogLog (ops/sketch, ~1.6% at p=12) so the shuffle
    carries 4 KB sketch states instead of the pair set."""
    import pyarrow.parquet as pq

    from .ops.corpus import group_distinct_auto

    path = _t(sf_dir, "events")
    ds = _read_sized(path, columns=["event_type", "user_id"])
    return group_distinct_auto(
        ds, "event_type", "user_id",
        total_rows_hint=pq.ParquetFile(path).metadata.num_rows,
    )


SQL_DISTINCT_USERS = """
SELECT event_type, COUNT(DISTINCT user_id) AS n_distinct
FROM events GROUP BY event_type
"""


def _partial_word_counts(batch: pa.Table) -> pa.Table:
    """Per-batch word-count combiner (the vocab/CMS shuffle reducer):
    one polars explode+count per batch, so the shuffle carries one row
    per (word, batch) instead of one per token."""
    df = pl.from_arrow(batch.select(["text"]))
    out = (
        df.select(
            # explicit class = RE2 \s+ split twin (Rust \S also
            # breaks on NBSP/U+2028; see ops/search module doc)
            pl.col("text")
            .fill_null("")
            .str.extract_all(TOKEN_RE)
            .alias("w")
        )
        .explode("w")
        .drop_nulls("w")
        .group_by("w")
        .agg(pl.len().cast(pl.Int64).alias("n"))
        .rename({"w": "word"})
    )
    return out.to_arrow()


def _global_word_topk(counts, k: int = 20) -> pa.Table:
    """Top-k (word, n) from a word-count Dataset: global Sum groupby,
    per-block partial top-k, driver fold of the tiny partials (knn
    top-k pattern). Total order (n DESC, word ASC) makes the cut
    deterministic."""

    def block_topk(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        return (
            df.sort(["n", "word"], descending=[True, False]).head(k).to_arrow()
        )

    agg = counts.groupby("word").aggregate(Sum("n", alias_name="n"))
    partials = agg.map_batches(block_topk, batch_format="pyarrow").take_all()
    final = (
        pl.from_arrow(
            pa.Table.from_pylist(
                partials, schema=pa.schema([("word", pa.string()), ("n", pa.int64())])
            )
        )
        .sort(["n", "word"], descending=[True, False])
        .head(k)
    )
    return final.to_arrow().cast(pa.schema([("word", pa.string()), ("n", pa.int64())]))


def q_vocab_top20(sf_dir: str):
    """Corpus-wide vocabulary top-k: per-batch partial word counts
    (polars explode+count — the combiner), then the shared global
    top-k fold (`_global_word_topk`)."""
    ds = _read_sized(_t(sf_dir, "documents"), columns=["text"])
    return _global_word_topk(
        ds.map_batches(_partial_word_counts, batch_format="pyarrow"), k=20
    )


def q_cms_word_freq(sf_dir: str):
    """Count-Min frequency estimates for the exact top-20 vocabulary
    words — the sketch whose registers a 100-TB corpus run maintains
    incrementally (ops/sketch.CountMinSketch.merge is a register ADD,
    so each CDC window folds its delta sketch in and any key's
    frequency-so-far is answerable without a rescan or vocab shuffle).
    One tokenize pass feeds both consumers (probe keys + registers) via
    a justified materialize of the per-batch combiner output (bounded
    by vocab x batches, object store, spillable). The row hash is the
    md5 SQL twin, so registers and min-estimates are integer-exact in
    DuckDB — a fully oracle-checkable approximate operator. At w=8192
    >> sf-test vocab, estimates typically equal exact counts; the
    oracle computes the same CMS min, NOT the exact count, so parity
    holds at any collision rate."""
    from .ops.sketch import cms_from_counts

    d, w = 4, 8192
    ds = _read_sized(_t(sf_dir, "documents"), columns=["text"])
    counts = ds.map_batches(_partial_word_counts, batch_format="pyarrow").materialize()
    top = _global_word_topk(counts, k=20)
    sk = cms_from_counts(counts, "word", "n", d=d, w=w)
    words = sorted(top["word"].to_pylist())
    return pa.table(
        {
            "word": pa.array(words, pa.string()),
            "n_est": pa.array(sk.estimate_many(words), pa.int64()),
        }
    )


SQL_VOCAB = r"""
WITH words AS (
  SELECT unnest(list_filter(string_split_regex(trim(coalesce(text, ''), ' '), '\s+'), x -> x <> '')) AS w
  FROM documents
)
SELECT w AS word, CAST(count(*) AS BIGINT) AS n
FROM words GROUP BY w ORDER BY n DESC, w LIMIT 20
"""


# The same Count-Min registers and min-estimates as
# ops/sketch.CountMinSketch (d=4, w=8192): md5_number_lower('<i>|<key>')
# is the exact value of util.md5_lower64, and register adds are
# integer-exact regardless of fold order — approximate operator, exact
# oracle. Verified twin: see the hash check in tests/test_ops.py.
SQL_CMS = r"""
WITH words AS (
  SELECT unnest(list_filter(string_split_regex(trim(coalesce(text, ''), ' '), '\s+'), x -> x <> '')) AS w
  FROM documents
),
counts AS (SELECT w, CAST(count(*) AS BIGINT) AS n FROM words GROUP BY w),
cells AS (
  SELECT i, CAST(md5_number_lower(CAST(i AS VARCHAR) || '|' || w) % 8192 AS BIGINT) AS b,
         CAST(SUM(n) AS BIGINT) AS reg
  FROM counts CROSS JOIN range(4) t(i) GROUP BY 1, 2
),
topw AS (SELECT w FROM counts ORDER BY n DESC, w LIMIT 20),
probes AS (
  SELECT w, i, CAST(md5_number_lower(CAST(i AS VARCHAR) || '|' || w) % 8192 AS BIGINT) AS b
  FROM topw CROSS JOIN range(4) t(i)
)
SELECT p.w AS word, CAST(MIN(c.reg) AS BIGINT) AS n_est
FROM probes p JOIN cells c ON p.i = c.i AND p.b = c.b
GROUP BY p.w ORDER BY word
"""


def q_strip_boilerplate(sf_dir: str):
    """Line-level boilerplate removal (ops/text.strip_repeated_lines):
    the documents corpus has no newlines, so both engines derive lines
    by splitting on the literal ' a ' separator (measured identical
    leftmost non-overlapping semantics across polars / Python / DuckDB
    string_split, including '' -> ['']). A line repeated across >= 2
    distinct documents of one source is boilerplate — at sf0.01 this
    catches the generator's planted near-dup segments."""
    from .ops.text import strip_repeated_lines

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "source", "text"])
    return strip_repeated_lines(
        ds, text_col="text", group_col="source", id_col="doc_id",
        line_sep=" a ", min_docs=2,
    )


# Zipped equal-length unnests (parts + generate_series) give per-doc
# line ordinals; ANTI JOIN strips (g, line) pairs crossing the
# distinct-doc threshold; string_agg(... ORDER BY ord) re-joins in
# original order. coalesce('') keeps all-boilerplate docs as empty
# strings, matching the Ray side's left join + fill_null('').
SQL_STRIP_BOILER = r"""
WITH d AS (
  SELECT doc_id, coalesce(source, '') AS g,
         string_split(coalesce(text, ''), ' a ') AS parts
  FROM documents
),
lines AS (
  SELECT doc_id, g, unnest(parts) AS line,
         unnest(generate_series(1, len(parts))) AS ord
  FROM d
),
boiler AS (
  SELECT g, line FROM lines GROUP BY g, line
  HAVING count(DISTINCT doc_id) >= 2
),
kept AS (
  SELECT l.doc_id, l.line, l.ord
  FROM lines l ANTI JOIN boiler b ON l.g = b.g AND l.line = b.line
),
folded AS (
  SELECT doc_id, string_agg(line, ' a ' ORDER BY ord) AS clean_text,
         CAST(count(*) AS BIGINT) AS kept_n
  FROM kept GROUP BY doc_id
)
SELECT d.doc_id, coalesce(f.clean_text, '') AS clean_text,
       CAST(len(d.parts) - coalesce(f.kept_n, 0) AS BIGINT) AS removed
FROM d LEFT JOIN folded f USING (doc_id)
"""


def q_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape over the full six-table chain (region → nation →
    {customer, supplier} → orders → lineitem) — the canonical multi-way
    join plan at 100 TB. Dimension sides collapse to broadcast lookups
    applied INSIDE the big-side map_batches: region (5 rows) and nation
    (25) prune driver-side; supplier and customer are pruned to the
    region and shipped once via ray.put + once_per_process (the
    broadcast-under-64MB guard of pipelines/recognition.py applies when
    a dimension outgrows a ref — orders⋈customer would then become a
    second bucket join). The single big-big edge (orders × lineitem) is
    ONE bucket shuffle (ops/join.bucket_hash_join), with lineitem
    pre-aggregated per (l_orderkey, supplier-nation) per batch so the
    exchange carries partials, not rows. Revenue in integer cents
    (floor(x*100+0.5)) — the established float-free oracle twin of
    SQL_ORDER_REVENUE."""
    import datetime

    import pyarrow.parquet as pq

    from .ops.join import bucket_hash_join

    region = pq.read_table(_t(sf_dir, "region"))
    rkeys = region.filter(pc.equal(region["r_name"], "ASIA"))["r_regionkey"]
    nation = pq.read_table(_t(sf_dir, "nation"))
    nation = nation.filter(pc.is_in(nation["n_regionkey"], value_set=rkeys.combine_chunks()))
    nkeys = nation["n_nationkey"].combine_chunks()
    supplier = pq.read_table(_t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    supplier = supplier.filter(pc.is_in(supplier["s_nationkey"], value_set=nkeys)).combine_chunks()
    customer = pq.read_table(_t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"])
    customer = customer.filter(pc.is_in(customer["c_nationkey"], value_set=nkeys)).combine_chunks()
    supp_ref = ray.put(supplier)
    cust_ref = ray.put(customer)

    lo = pa.scalar(datetime.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1998, 1, 1), pa.timestamp("us"))

    def orders_stage(batch: pa.Table, _ref=cust_ref) -> pa.Table:
        from .util import once_per_process

        cust = once_per_process("q5_customer_dim", _ref)
        pos = pc.index_in(batch["o_custkey"], value_set=cust["c_custkey"])
        nat = cust["c_nationkey"].take(pos)  # null pos -> null nation
        keep = pc.and_(
            pc.is_valid(pos),
            pc.and_(
                pc.greater_equal(batch["o_orderdate"], lo),
                pc.less(batch["o_orderdate"], hi),
            ),
        )
        return pa.table(
            {"o_orderkey": batch["o_orderkey"], "cust_nation": nat}
        ).filter(keep)

    def lineitem_stage(batch: pa.Table, _ref=supp_ref) -> pa.Table:
        from .util import once_per_process

        supp = once_per_process("q5_supplier_dim", _ref)
        pos = pc.index_in(batch["l_suppkey"], value_set=supp["s_suppkey"])
        nat = supp["s_nationkey"].take(pos)
        cents = pc.cast(
            pc.floor(
                pc.add(
                    pc.multiply(
                        pc.multiply(
                            batch["l_extendedprice"],
                            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
                        ),
                        pa.scalar(100.0),
                    ),
                    pa.scalar(0.5),
                )
            ),
            pa.int64(),
        )
        part = pa.table(
            {"l_orderkey": batch["l_orderkey"], "supp_nation": nat, "revenue_c": cents}
        ).filter(pc.is_valid(pos))
        # per-batch partial: the bucket exchange ships one row per
        # (order, nation) per batch, not one per lineitem
        df = pl.from_arrow(part)
        return (
            df.group_by(["l_orderkey", "supp_nation"])
            .agg(pl.col("revenue_c").sum())
            .to_arrow()
            .cast(part.schema)
        )

    orders_f = _read_sized(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(orders_stage, batch_format="pyarrow")
    li_part = _read_sized(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(lineitem_stage, batch_format="pyarrow")

    joined = bucket_hash_join(
        orders_f, li_part, "o_orderkey", "l_orderkey", num_buckets=16
    )

    def local_only(batch: pa.Table) -> pa.Table:
        # Q5's c_nationkey = s_nationkey: customer and supplier in the
        # SAME nation; partial per-nation sums before the tiny groupby
        sel = batch.filter(pc.equal(batch["cust_nation"], batch["supp_nation"]))
        df = pl.from_arrow(sel.select(["supp_nation", "revenue_c"]))
        out = df.group_by("supp_nation").agg(pl.col("revenue_c").sum())
        return out.to_arrow().cast(
            pa.schema([("supp_nation", pa.int64()), ("revenue_c", pa.int64())])
        )

    totals = (
        joined.map_batches(local_only, batch_format="pyarrow")
        .groupby("supp_nation")
        .aggregate(Sum("revenue_c", alias_name="revenue_c"))
        .take_all()
    )
    names = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )
    rows = sorted(
        ((names[r["supp_nation"]], r["revenue_c"]) for r in totals),
        key=lambda t: (-t[1], t[0]),
    )
    return pa.table(
        {
            "n_name": pa.array([r[0] for r in rows], pa.string()),
            "revenue_c": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


# Same integer-cents revenue twin as SQL_ORDER_REVENUE; bare 0.5/1 are
# exact in binary so the DECIMAL-literal trap doesn't bite here.
SQL_Q5_VOLUME = """
SELECT n_name,
       CAST(SUM(CAST(floor((l_extendedprice*(1 - l_discount))*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_c
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01' AND o_orderdate < TIMESTAMP '1998-01-01'
GROUP BY n_name
ORDER BY revenue_c DESC, n_name
"""


def q_classifier_scores(sf_dir: str):
    """Hashed-bag-of-words linear classifier over every document — the
    batched-model-inference pattern (ops/ml module doc): int64 weight
    vector broadcast ONCE via ray.put + once_per_process, one polars
    tokenize/count pass + numpy weight gather per batch. Integer
    weights make the score bit-exact in SQL via the md5 feature-hash
    twin, so a model-scoring stage gets a fully green oracle. The
    weight vector here is the documented rule stand-in for a learned
    quantized model (ops/ml.rule_weights)."""
    import ray

    from .ops.ml import rule_weights, score_text_hashed

    dim = 65536
    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return score_text_hashed(
        ds, ray.put(rule_weights(dim)), dim=dim, bias=0, threshold=1
    )


# w[b] = (b % 7) - 3 over bucket b = md5_number_lower(token) % 65536 —
# the exact ops/ml.rule_weights rule; score sums are integer-exact in
# any order. CAST to BIGINT BEFORE % 7: md5_number_lower is UBIGINT and
# an unsigned 0..6 minus 3 would underflow/error.
SQL_CLASSIFIER = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(trim(coalesce(text, ''), ' '), '\s+'), x -> x <> '')) AS t
  FROM documents
),
scored AS (
  SELECT doc_id,
         CAST(SUM(CAST(md5_number_lower(t) % 65536 AS BIGINT) % 7 - 3) AS BIGINT) AS score
  FROM toks GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(s.score, 0) AS score, COALESCE(s.score, 0) >= 1 AS keep
FROM documents d LEFT JOIN scored s USING (doc_id)
"""


def q_entity_resolution(sf_dir: str):
    """Fuzzy entity resolution over part names (ops/linkage
    record_linkage — blocking on the last name token, batched-DP
    Levenshtein <= 2 inside each block, transitive closure, entity =
    min p_partkey of the merged entity). All pairwise work runs on the
    DISTINCT-name table (64 names at any sf), never on rows; the rows
    are labeled by one broadcast index_in gather. Oracle: DuckDB
    levenshtein() blocked self-join + recursive-CTE closure."""
    from .ops.linkage import record_linkage

    ds = _read_sized(_t(sf_dir, "part"), columns=["p_partkey", "p_name"])
    return record_linkage(
        ds, "p_partkey", "p_name", block_pattern=r"([^ ]+)$", max_dist=2
    ).sort("p_partkey")


SQL_ENTITY_RESOLUTION = r"""
WITH RECURSIVE n AS (
  SELECT p_name AS name, min(p_partkey) AS mid,
         regexp_extract(p_name, '([^ ]+)$', 1) AS blk
  FROM part GROUP BY p_name
),
e AS (
  SELECT x.mid AS a, y.mid AS b
  FROM n x JOIN n y ON x.blk = y.blk AND x.mid < y.mid
  WHERE levenshtein(x.name, y.name) <= 2
),
edges AS (SELECT a AS x, b AS y FROM e UNION SELECT b, a FROM e),
reach(x, y) AS (
  SELECT x, y FROM edges
  UNION
  SELECT r.x, e2.y FROM reach r JOIN edges e2 ON r.y = e2.x
),
lab AS (SELECT x AS mid, least(x, min(y)) AS entity FROM reach GROUP BY x)
SELECT p.p_partkey, coalesce(l.entity, n.mid) AS entity_id
FROM part p JOIN n ON p.p_name = n.name LEFT JOIN lab l ON n.mid = l.mid
ORDER BY p.p_partkey
"""


def q_inverted_search(sf_dir: str):
    """Conjunctive term search via the distributed inverted index
    (ops/search): one tokenizing combiner pass, ONE shuffle keyed
    (term, doc-bucket) builds bounded posting rows — a hot term's
    postings spread across buckets so no task holds its full doc list —
    then the probe filters index rows to the three query terms and ANDs
    sorted postings per bucket with intersect1d. Tokenization: explicit
    class [^ \\t\\n\\f\\r]+ <-> string_split_regex('\\s+') with the
    ASCII-pinned trim(x, ' ') — exact on ANY corpus (bare trim() is
    Unicode-aware and would strip the NBSP the tokenizer keeps)."""
    from .ops.search import build_inverted_index, conjunctive_search

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    idx = build_inverted_index(ds, "doc_id", "text", bucket_span=200)
    hits = conjunctive_search(idx, ["merge", "window", "scan"]).materialize()
    # Ray's sort drops the schema of a fully-empty dataset; the typed
    # no-hit result IS the answer then (materialize makes count free)
    return hits.sort("doc_id") if hits.count() else hits


SQL_INVERTED_SEARCH = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(trim(coalesce(text, ''), ' '), '\s+'),
                            x -> x <> '')) AS t
  FROM documents
),
tf AS (SELECT doc_id, t, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY doc_id, t)
SELECT a.doc_id, a.n AS tf_merge, b.n AS tf_window, c.n AS tf_scan
FROM tf a JOIN tf b ON a.doc_id = b.doc_id JOIN tf c ON a.doc_id = c.doc_id
WHERE a.t = 'merge' AND b.t = 'window' AND c.t = 'scan'
ORDER BY a.doc_id
"""


def q_phrase_search(sf_dir: str):
    """Exact 3-word phrase match (ops/search.phrase_search): a biword
    (bigram) inverted index narrows to docs with both phrase bigrams,
    then one vectorized token-stream verify pass over the size-routed
    candidates rejects the 'a b ... b c' false positives bigram
    conjunction admits. Oracle: contains() over the space-rejoined
    token stream."""
    from .ops.search import phrase_search

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    hits = phrase_search(ds, "join part filter", bucket_span=200).materialize()
    # see q_inverted_search: sort only a non-empty result (schema-safe)
    return hits.sort("doc_id") if hits.count() else hits


SQL_PHRASE = r"""
SELECT doc_id FROM documents
WHERE contains(
  ' ' || array_to_string(
           list_filter(string_split_regex(trim(coalesce(text, ''), ' '), '\s+'),
                       x -> x <> ''), ' ') || ' ',
  ' join part filter ')
ORDER BY doc_id
"""


def q_retention_cohorts(sf_dir: str):
    """Weekly cohort retention matrix (ops/window.retention_cohorts):
    cohort = a user's first-activity week (epoch-floored), n_active =
    distinct users of that cohort active k weeks later. ONE user-hash
    shuffle; per-shard distinct counts are disjoint partials so the
    global fold is a tiny Sum groupby — the distinct never reshuffles."""
    from .ops.window import retention_cohorts

    ds = _read_sized(_t(sf_dir, "events"), columns=["user_id", "ts"])
    return retention_cohorts(ds, "user_id", "ts", period_seconds=7 * 86400).sort(
        ["cohort_period", "period_offset"]
    )


SQL_RETENTION = """
WITH p AS (
  -- floor(), not //: DuckDB // truncates toward zero while polars //
  -- floors, so pre-1970 timestamps would land in different periods.
  -- e-notation keeps the divisor DOUBLE (bare decimals are DECIMAL);
  -- quotients are ~1e4 so the double division can't cross an integer.
  SELECT user_id, CAST(floor(epoch_us(ts) / 604800000000.0e0) AS BIGINT) AS per
  FROM events
  WHERE user_id IS NOT NULL AND ts IS NOT NULL
),
c AS (SELECT user_id, min(per) AS cohort FROM p GROUP BY user_id)
SELECT c.cohort AS cohort_period, p.per - c.cohort AS period_offset,
       CAST(count(DISTINCT p.user_id) AS BIGINT) AS n_active
FROM p JOIN c ON p.user_id = c.user_id
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_top_event_paths(sf_dir: str):
    """Most common 5-step user journeys (ops/window.top_event_paths):
    per user, the first five events by (ts, event_id) joined ' > ';
    top-20 paths by user count. Whole-history-per-shard makes per-path
    counts addable partials; final cut is the vocab_top20 partial-top-k
    fold with total order (n DESC, path ASC)."""
    from .ops.window import top_event_paths

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type"]
    )
    return top_event_paths(
        ds, "user_id", "ts", "event_type", path_len=5, k=20, tiebreak_col="event_id"
    )


SQL_TOP_PATHS = """
WITH e AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL
),
p AS (
  SELECT user_id, string_agg(event_type, ' > ' ORDER BY rn) AS path
  FROM e WHERE rn <= 5 GROUP BY user_id
)
SELECT path, CAST(count(*) AS BIGINT) AS n_users
FROM p GROUP BY path ORDER BY n_users DESC, path LIMIT 20
"""


def q_bm25_topk(sf_dir: str):
    """Disjunctive BM25 top-50 ranked retrieval (ops/search.bm25_topk)
    over the bucketed inverted index with its NULL-term doc-length
    sidecar rows. Float-hash parity is engineered, not hoped for: the
    Lucene-style idf is ln-based but computed once per term, and every
    doc-side factor is a rational float64 expression whose tree matches
    SQL_BM25 token for token, with per-term contributions added in
    fixed query order (see the operator docstring)."""
    from .ops.search import bm25_topk, build_inverted_index

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    idx = build_inverted_index(
        ds, "doc_id", "text", bucket_span=200, with_lengths=True
    )
    return bm25_topk(idx, ["merge", "window", "scan"], k=50)


SQL_BM25 = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(trim(coalesce(text, ''), ' '), '\s+'),
                            x -> x <> '')) AS t
  FROM documents
),
tf AS (SELECT doc_id, t, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY doc_id, t),
dl AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT CAST(count(*) AS BIGINT) AS nd, CAST(sum(dl) AS BIGINT) AS tot FROM dl),
dfreq AS (
  SELECT t, CAST(count(*) AS BIGINT) AS df FROM tf
  WHERE t IN ('merge', 'window', 'scan') GROUP BY t
),
contrib AS (
  -- e-notation literals force DOUBLE: a bare 1.2 parses as DECIMAL(2,1),
  -- making tf.n * (1.2 + 1.0) EXACT decimal arithmetic that lands 1 ULP
  -- off the engine's float64 multiply (measured on this host)
  SELECT tf.doc_id, tf.t,
         ln(1.0e0 + (st.nd - dfreq.df + 0.5e0) / (dfreq.df + 0.5e0))
           * ((tf.n * (1.2e0 + 1.0e0))
              / (tf.n + 1.2e0 * ((1.0e0 - 0.75e0) + (0.75e0 * dl.dl) / (st.tot / st.nd)))) AS s
  FROM tf JOIN dfreq ON tf.t = dfreq.t
  JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN st
),
scored AS (
  SELECT doc_id,
         coalesce(max(CASE WHEN t = 'merge' THEN s END), 0.0e0)
         + coalesce(max(CASE WHEN t = 'window' THEN s END), 0.0e0)
         + coalesce(max(CASE WHEN t = 'scan' THEN s END), 0.0e0) AS score
  FROM contrib GROUP BY doc_id
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, score
FROM scored ORDER BY score DESC, doc_id LIMIT 50
"""


def q_term_doc_freq(sf_dir: str):
    """Global per-term document frequency off the inverted index:
    bucket-local df partials are mergeable by construction (each doc
    lives in exactly one bucket), so global df is ONE small Sum groupby
    over index rows (ops/search.term_df) — no second pass over text."""
    from .ops.search import build_inverted_index, term_df

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    idx = build_inverted_index(ds, "doc_id", "text", bucket_span=200)
    return term_df(idx).sort("term")


SQL_TERM_DF = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(trim(coalesce(text, ''), ' '), '\s+'),
                            x -> x <> '')) AS t
  FROM documents
)
SELECT t AS term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
FROM toks GROUP BY t ORDER BY term
"""


def q_dedup_spans(sf_dir: str):
    """Exact duplicate-SPAN dedup (ops/spans.duplicate_span_stats, Lee
    et al. ACL 2022 style): every word 8-gram occurring more than once
    in the corpus marks all occurrences except the corpus-wide first
    (ordered by doc, pos); per doc, the covered-token count and the md5
    of the document AFTER span removal. Two shuffles: gram-keyed (with
    a per-batch distinct-gram combiner) then doc-keyed."""
    from .ops.spans import duplicate_span_stats

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return duplicate_span_stats(ds, "doc_id", "text", n=8).sort("doc_id")


SQL_DEDUP_SPANS = r"""
WITH w AS (
  SELECT doc_id,
         list_filter(string_split_regex(trim(coalesce(text, ''), ' '), '\s+'),
                     x -> x <> '') AS words
  FROM documents
),
t AS (
  SELECT doc_id, i AS pos, words[i] AS tok
  FROM w, unnest(generate_series(1, len(words))) AS s(i)
),
g AS (
  SELECT doc_id, i AS pos, array_to_string(words[i : i + 7], ' ') AS gram
  FROM w, unnest(generate_series(1, len(words) - 7)) AS s(i)
),
d AS (
  SELECT doc_id, pos FROM (
    SELECT doc_id, pos,
           row_number() OVER (PARTITION BY gram ORDER BY doc_id, pos) AS rn
    FROM g
  ) WHERE rn > 1
),
cov AS (
  SELECT DISTINCT doc_id, p
  FROM d, unnest(generate_series(pos, pos + 7)) AS s(p)
)
SELECT t.doc_id,
       CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(count(cov.p) AS BIGINT) AS n_dup_tokens,
       md5(string_agg(t.tok, ' ' ORDER BY t.pos) FILTER (WHERE cov.p IS NULL))
         AS cleaned_md5
FROM t LEFT JOIN cov ON t.doc_id = cov.doc_id AND t.pos = cov.p
GROUP BY t.doc_id ORDER BY t.doc_id
"""


def _eval_split_side(keep_eval: bool):
    """Deterministic held-out benchmark cut shared by the two
    decontamination queries: doc_id % 97 == 0 is the eval slice,
    everything else trains. One definition so the rule can only ever
    change in lockstep with BOTH SQL oracles (which spell the same
    predicate inline)."""

    def f(b: pa.Table) -> pa.Table:
        df = pl.from_arrow(b)
        m = pl.col("doc_id") % 97 == 0
        return df.filter(m if keep_eval else ~m).to_arrow()

    return f


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (ops/decontam.decontaminate_exact_ngram): the held-out
    eval slice is the deterministic doc_id % 97 == 0 cut; every train
    document sharing a word 4-gram with it is flagged (n=4 so the
    planted near-dup segments actually collide at sf0.01 — 8 hits).
    Zero-shuffle probe: eval grams fold driver-side (benchmark-sized by
    nature) and broadcast once. Exact-gram complement of the hash-probe
    decontaminate_ngram scale mode exercised by decontaminate_docs."""
    from .ops.decontam import decontaminate_exact_ngram

    side = _eval_split_side
    cols = ["doc_id", "text"]
    train = _read_sized(_t(sf_dir, "documents"), columns=cols).map_batches(
        side(False), batch_format="pyarrow"
    )
    ev = _read_sized(_t(sf_dir, "documents"), columns=cols).map_batches(
        side(True), batch_format="pyarrow"
    )
    return decontaminate_exact_ngram(train, ev, "doc_id", "text", n=4).select_columns(
        ["doc_id", "contaminated", "n_matched"]
    )


SQL_DECONTAM_NGRAM = r"""
WITH w AS (
  SELECT doc_id,
         list_filter(string_split_regex(trim(coalesce(text, ''), ' '), '\s+'),
                     x -> x <> '') AS words
  FROM documents
),
ev AS (
  SELECT DISTINCT array_to_string(words[i : i + 3], ' ') AS g
  FROM w, unnest(generate_series(1, len(words) - 3)) AS s(i)
  WHERE doc_id % 97 = 0
),
tg AS (
  SELECT doc_id, array_to_string(words[i : i + 3], ' ') AS g
  FROM w, unnest(generate_series(1, len(words) - 3)) AS s(i)
  WHERE doc_id % 97 <> 0
),
hits AS (
  SELECT tg.doc_id, CAST(count(DISTINCT tg.g) AS BIGINT) AS n_matched
  FROM tg JOIN ev USING (g) GROUP BY tg.doc_id
)
SELECT d.doc_id,
       coalesce(h.n_matched, 0) > 0 AS contaminated,
       CAST(coalesce(h.n_matched, 0) AS BIGINT) AS n_matched
FROM (SELECT doc_id FROM documents WHERE doc_id % 97 <> 0) d
LEFT JOIN hits h USING (doc_id)
"""


def q_mixture_sample(sf_dir: str):
    """Corpus mixture assembly (ops/corpus.mixture_sample): downsample
    each language toward a 200-row corpus at en 50% / zh 20% / de 15% /
    es 10% / fr 5%. Rates are DERIVED (tiny count groupby -> integer
    ppm thresholds, bit-exact in SQL) and applied by the shuffle-free
    md5 id-hash filter, so the draw is reproducible across runs, batch
    boundaries and cluster sizes."""
    from .ops.corpus import mixture_sample

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "lang"])
    return mixture_sample(
        ds,
        "doc_id",
        "lang",
        {"en": 500_000, "zh": 200_000, "de": 150_000, "es": 100_000, "fr": 50_000},
        budget_rows=200,
    ).sort("doc_id")


SQL_MIXTURE = """
WITH c AS (SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY lang),
w(lang, ppm) AS (VALUES ('en', 500000), ('zh', 200000), ('de', 150000),
                        ('es', 100000), ('fr', 50000)),
thr AS (
  SELECT c.lang, least(1000000, (CAST(200 AS BIGINT) * w.ppm) // c.n) AS t
  FROM c JOIN w ON c.lang = w.lang
)
SELECT d.doc_id, d.lang
FROM documents d JOIN thr ON d.lang = thr.lang
WHERE md5_number_lower(CAST(d.doc_id AS VARCHAR)) % 1000000 < thr.t
ORDER BY d.doc_id
"""


def q_cap_per_source(sf_dir: str):
    """Hot-domain capping (ops/corpus.cap_per_key): keep at most 10
    docs per source, chosen as the 10 smallest (md5(id), id) within the
    source — a stable pseudo-random survivor set, order- and
    partitioning-independent. Per-batch partial top-k bounds the
    shuffle at k rows per (source, batch)."""
    from .ops.corpus import cap_per_key

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "source"])
    return cap_per_key(ds, "source", "doc_id", k=10).sort("doc_id")


SQL_CAP_PER_SOURCE = """
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY source
           ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id) AS rn
  FROM documents
) WHERE rn <= 10 ORDER BY doc_id
"""


def q_index_refresh(sf_dir: str):
    """CDC-maintained search index (ops/search.refresh_index_buckets):
    build the inverted index over the original corpus, apply a CDC-style
    update (docs with doc_id % 500 < 50 get ' zzz update' appended — a
    CLUSTERED change set, so with bucket_span=200 most buckets stay
    untouched and the splice path is actually exercised, not a
    degenerate full rebuild), refresh ONLY the affected buckets and
    splice them into the untouched rows. Result = global term df off
    the refreshed index; the oracle tokenizes the UPDATED corpus from
    scratch — equality proves incremental == full rebuild."""
    from .ops.search import build_inverted_index, refresh_index_buckets, term_df

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    idx = build_inverted_index(ds, "doc_id", "text", bucket_span=200)

    def changed_mask(b: pa.Table):
        # doc_id % 500 < 50 (ids are >= 0, so trunc == floor)
        m500 = pc.multiply(pc.divide(b["doc_id"], 500), 500)
        return pc.less(pc.subtract(b["doc_id"], m500), 50)

    def mutate(b: pa.Table) -> pa.Table:
        # null text stays null, like SQL's NULL || ' zzz update'
        appended = pc.binary_join_element_wise(
            pc.cast(b["text"], pa.string()), pa.scalar(" zzz update"), ""
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "text": pc.if_else(changed_mask(b), appended, b["text"]),
            }
        )

    v2 = ds.map_batches(mutate, batch_format="pyarrow")
    changed = [
        r["doc_id"]
        for r in ds.map_batches(
            lambda b: b.filter(changed_mask(b)).select(["doc_id"]),
            batch_format="pyarrow",
        ).take_all()
    ]
    refreshed = refresh_index_buckets(idx, v2, changed, bucket_span=200)
    return term_df(refreshed).sort("term")


SQL_INDEX_REFRESH = r"""
WITH v2 AS (
  SELECT doc_id,
         CASE WHEN doc_id % 500 < 50 THEN text || ' zzz update' ELSE text END AS text
  FROM documents
),
toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(trim(coalesce(text, ''), ' '), '\s+'),
                            x -> x <> '')) AS t
  FROM v2
)
SELECT t AS term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
FROM toks GROUP BY t ORDER BY term
"""


def q_asof_last_order(sf_dir: str):
    """Distributed backward AS-OF join (ops/join.bucket_asof_join — an
    operator Ray Data lacks natively): each event picks the same user's
    most recent order activation at-or-before the event time. Order
    activations are mapped deterministically into the event era
    (2024-01-01 + (o_orderkey % 720) hours) and pre-aggregated per
    (user, ts) INSIDE the bucket via right_pre_join, so the as-of match
    is unambiguous. One union shuffle total; DuckDB's native ASOF LEFT
    JOIN is the oracle."""
    from .ops.join import bucket_asof_join

    BASE_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in epoch us

    def prep_orders(batch: pa.Table) -> pa.Table:
        okey = batch["o_orderkey"]
        mod = pc.subtract(okey, pc.multiply(pc.divide(okey, 720), 720))
        us = pc.add(pc.multiply(pc.cast(mod, pa.int64()), 3_600_000_000), BASE_US)
        spend = _cents(batch, "o_totalprice")
        return pa.table(
            {
                "user_id": batch["o_custkey"],
                "order_ts": pc.cast(us, pa.timestamp("us")),
                "spend_c": spend,
            }
        )

    def agg_right(rg: pa.Table) -> pa.Table:
        df = pl.from_arrow(rg)
        out = df.group_by(["user_id", "order_ts"]).agg(
            pl.sum("spend_c").alias("spend_c")
        )
        return out.to_arrow().cast(rg.schema)

    events = _read_sized(_t(sf_dir, "events"), columns=["event_id", "user_id", "ts"])
    orders = _read_sized(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_totalprice"]
    ).map_batches(prep_orders, batch_format="pyarrow")
    out = bucket_asof_join(
        events, orders, "user_id", "ts", "order_ts", right_pre_join=agg_right
    )
    return out.map_batches(
        lambda b: b.select(["event_id", "user_id", "spend_c"]), batch_format="pyarrow"
    )


SQL_ASOF = """
WITH o AS (
  SELECT o_custkey AS user_id,
         TIMESTAMP '2024-01-01' + (o_orderkey % 720) * INTERVAL 1 HOUR AS order_ts,
         CAST(sum(CAST(floor(o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS spend_c
  FROM orders GROUP BY 1, 2
)
SELECT e.event_id, e.user_id, o.spend_c
FROM events e ASOF LEFT JOIN o
  ON e.user_id = o.user_id AND e.ts >= o.order_ts
"""


# -- training-corpus construction (ops/corpus) ------------------------------


def q_weighted_sample_docs(sf_dir: str):
    """Deterministic weighted sampling without replacement
    (ops/corpus.weighted_sample, Efraimidis–Spirakis keys on the
    md5-uniform of doc_id, weight = n_chars): longer docs
    proportionally likelier, yet fully reproducible and SQL-auditable.
    Partial top-k per batch; the final sort sees partials only."""
    from .ops.corpus import weighted_sample

    ds = _read_sized(
        _t(sf_dir, "documents"), columns=["doc_id", "lang", "n_chars"]
    )
    return weighted_sample(ds, "doc_id", "n_chars", 100)


SQL_WEIGHTED_SAMPLE = """
SELECT doc_id, lang, n_chars FROM documents
WHERE n_chars > 0
ORDER BY pow((md5_number_lower(CAST(doc_id AS VARCHAR)) + 0.5) / 18446744073709551616.0,
             1.0 / n_chars) DESC, doc_id DESC
LIMIT 100
"""


def q_doc_sample(sf_dir: str):
    """Deterministic 20% holdout sample of the documents table by id
    hash (ops/corpus.hash_sample): reproducible across runs, cluster
    sizes and batch boundaries; SQL-auditable via md5_number_lower."""
    from .ops.corpus import hash_sample

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        n = _pc.utf8_length(
            _pc.coalesce(batch["text"], pa.scalar("", batch.schema.field("text").type))
        )
        return pa.table(
            {"doc_id": batch["doc_id"], "n_chars": _pc.cast(n, pa.int64())}
        )

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return hash_sample(ds, "doc_id", rate_pct=20).map_batches(
        project, batch_format="pyarrow"
    )


SQL_DOC_SAMPLE = """
SELECT doc_id, CAST(length(coalesce(text, '')) AS BIGINT) AS n_chars
FROM documents
WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 20
"""


def q_chunk_docs(sf_dir: str):
    """Fixed word-window chunking with overlap (50-word chunks every 40
    words — ops/corpus.chunk_documents): the context-window packing
    precursor, exercising the 1->N flat-map fan-out shape."""
    from .ops.corpus import chunk_documents

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return chunk_documents(ds, chunk_words=50, stride=40)


SQL_CHUNK_DOCS = r"""
WITH w AS (
  SELECT doc_id,
         list_filter(string_split_regex(trim(coalesce(text, '')), '\s+'), x -> x <> '') AS words
  FROM documents
),
s AS (
  SELECT doc_id, words, unnest(generate_series(0, len(words) - 1, 40)) AS start
  FROM w
  WHERE len(words) > 0
)
SELECT doc_id,
       CAST(start / 40 AS BIGINT) AS chunk_id,
       CAST(least(50, len(words) - start) AS BIGINT) AS n_words,
       md5(array_to_string(words[start + 1 : least(start + 50, len(words))], ' ')) AS chunk_md5
FROM s
"""


def q_top_docs_per_lang(sf_dir: str):
    """Per-group selection: the 3 longest (by BPE-ish token count)
    documents per predicted language (ops/corpus.top_k_per_group over
    ops/text.DocAnalyzer features) — the best-k-per-domain curation
    step. Partial top-k per batch before the group shuffle."""
    from .ops.corpus import top_k_per_group

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    feats = ds.map_batches(DocAnalyzer(), batch_format="pyarrow").map_batches(
        lambda b: b.select(["lang_pred", "doc_id", "n_bpe_tokens"]),
        batch_format="pyarrow",
    )
    return top_k_per_group(
        feats, "lang_pred", k=3, sort_keys=[("n_bpe_tokens", True), ("doc_id", False)]
    )


SQL_TOP_PER_LANG = r"""
WITH t AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
feat AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(text, '[A-Za-zÀ-ÿ]+')[1:200], x -> lower(x)) AS lws,
         CAST(len(regexp_extract_all(text, '\w+|[^\w\s]')) AS BIGINT) AS n_bpe_tokens
  FROM t
),
scored AS (
  SELECT doc_id, n_bpe_tokens,
         len(list_filter(lws, x -> list_contains(['der','die','das','und','ist','nicht','mit','ein','eine','zu','den'], x))) AS s_de,
         len(list_filter(lws, x -> list_contains(['the','and','of','a','to','in','is','for','on','with','that','this'], x))) AS s_en,
         len(list_filter(lws, x -> list_contains(['el','la','de','que','y','en','un','una','los','las','por'], x))) AS s_es,
         len(list_filter(lws, x -> list_contains(['le','la','de','et','un','une','les','des','est','dans','pour'], x))) AS s_fr
  FROM feat
),
lng AS (
  SELECT doc_id, n_bpe_tokens,
         CASE WHEN greatest(s_de, s_en, s_es, s_fr) = 0 THEN 'und'
              WHEN s_fr >= greatest(s_de, s_en, s_es) THEN 'fr'
              WHEN s_es >= greatest(s_de, s_en) THEN 'es'
              WHEN s_en >= s_de THEN 'en'
              ELSE 'de' END AS lang_pred
  FROM scored
),
r AS (
  SELECT lang_pred, doc_id, n_bpe_tokens,
         row_number() OVER (PARTITION BY lang_pred ORDER BY n_bpe_tokens DESC, doc_id) rn
  FROM lng
)
SELECT lang_pred, doc_id, n_bpe_tokens FROM r WHERE rn <= 3
"""


def _sf_of(sf_dir: str) -> float:
    base = os.path.basename(sf_dir.rstrip("/"))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return 0.01


# -- S6 concrete pull connector ---------------------------------------------


def _serve_events_api(sf_dir: str):
    """Local stub of the paginated SaaS endpoint (the container has no
    network): serves the events table as JSON pages filtered by
    [start, end) on ts — the shape HttpPullSource speaks. Returns
    (server, base_url); caller must shutdown()."""
    import http.server
    import threading
    import urllib.parse as _up
    from datetime import datetime as _dt

    import pyarrow.parquet as _pq

    tbl = _pq.read_table(
        _t(sf_dir, "events"), columns=["event_id", "ts", "event_type", "value"]
    )
    df = pl.from_arrow(tbl).sort("event_id")
    import json as _json

    class H(http.server.BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def do_GET(self):
            u = _up.urlparse(self.path)
            q = dict(_up.parse_qsl(u.query))
            sel = df
            if "start" in q:
                sel = sel.filter(
                    (pl.col("ts") >= _dt.fromisoformat(q["start"]))
                    & (pl.col("ts") < _dt.fromisoformat(q["end"]))
                )
            total = sel.height
            off = int(q.get("offset", 0))
            lim = int(q.get("limit", 1000))
            rows = sel.slice(off, lim).select(["event_id", "event_type", "value"]).to_dicts()
            body = _json.dumps({"rows": rows, "total": total}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), H)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    return srv, f"http://127.0.0.1:{srv.server_address[1]}"


def q_pull_sync(sf_dir: str):
    """S6 end-to-end: a concrete HTTP pull driver (offset-paginated JSON,
    interval params — sources/http_pull.HttpPullSource, the
    drivers/google_analytics.go:109-148 contract) synced through
    sync_collections + SignatureStore into an int64-keyed lake, four DAY
    intervals (2024-01-01..04). A second sweep is run to prove the
    UPTODATE skip (it must move nothing). Result: the synced lake state."""
    from datetime import datetime as _dt

    from .pipelines.sync import Collection, sync_collections
    from .sinks.lake import LakeTable
    from .sources.http_pull import HttpPullSource
    from .state.signatures import DAY, SignatureStore, TimeInterval

    _sweep_stale_lakes("lake_pull_")
    root = os.path.join(CACHE_DIR, f"lake_pull_{os.path.basename(sf_dir)}_{os.getpid()}")
    lake = LakeTable.create(os.path.join(root, "lake"), ["event_id"], 8)
    store = SignatureStore(os.path.join(root, "sigs"))
    days = [TimeInterval(DAY, _dt(2024, 1, d)) for d in (1, 2, 3, 4)]
    page_schema = pa.schema(
        [("event_id", pa.int64()), ("event_type", pa.string()), ("value", pa.float64())]
    )

    srv, base = _serve_events_api(sf_dir)
    try:
        src = HttpPullSource(
            base,
            "/api/events",
            page_size=500,
            to_table=lambda rows: pa.Table.from_pylist(rows, schema=page_schema),
        )

        def prep(batch: pa.Table) -> pa.Table:
            v = _cents(batch, "value")
            return pa.table(
                {
                    "commit_seq": batch["event_id"],
                    "op": pa.array(["insert"] * batch.num_rows, pa.string()),
                    "event_id": batch["event_id"],
                    "event_type": batch["event_type"],
                    "value_c": v,
                }
            )

        def sink(ds, col, interval):
            day = interval.time.day
            prepped = ds.map_batches(prep, batch_format="pyarrow")
            lake.apply_window(prepped, (day - 1) * 20_000_000, day * 20_000_000)

        col = Collection(
            source="stub_api",
            name="events",
            table="evt",
            intervals=lambda: days,
            loader=src.objects_for,
        )
        first = sync_collections([col], store, sink)
        assert first["synced"] == 4, first
        second = sync_collections([col], store, sink)
        assert second["synced"] == 0 and second["skipped"] == 4, second
    finally:
        srv.shutdown()
    return lake.read().select_columns(["event_id", "event_type", "value_c"])


SQL_PULL_SYNC = """
SELECT event_id, event_type,
       CAST(floor(value*100 + 0.5) AS BIGINT) AS value_c
FROM events
WHERE ts >= TIMESTAMP '2024-01-01' AND ts < TIMESTAMP '2024-01-05'
"""


def q_value_histogram(sf_dir: str):
    """Exact 16-bucket equi-width histogram of events.value over
    [0, 400] — distribution QA with bins x batches shuffle volume
    (ops/profile.value_histogram docstring has the bucket rule and the
    float64-parity argument)."""
    from .ops.profile import value_histogram

    ds = _read_sized(_t(sf_dir, "events"), columns=["value"])
    return value_histogram(ds, "value", bins=16, lo=0.0, hi=400.0)


# same float64 expression order as the numpy side: (v - lo) * bins /
# (hi - lo), floored, top edge folded into the last bucket; e-notation
# literals keep DuckDB in DOUBLE (a bare 400.0 would too, but 0/400
# as INTEGER would make (value - 0) DOUBLE-from-int — same value, kept
# explicit for the next reader)
SQL_HISTOGRAM = """
WITH hits AS (
  SELECT least(CAST(floor((value - 0.0e0) * 16 / 400.0e0) AS BIGINT), 15) AS bucket
  FROM events WHERE value >= 0.0e0 AND value <= 400.0e0
)
SELECT CAST(t.i AS BIGINT) AS bucket, CAST(coalesce(c.n, 0) AS BIGINT) AS n
FROM range(16) t(i)
LEFT JOIN (SELECT bucket, count(*) AS n FROM hits GROUP BY bucket) c
  ON t.i = c.bucket
ORDER BY bucket
"""


def q_embedding_dim_stats(sf_dir: str):
    """Per-dimension (count, min, max) over the 64-dim embedding
    column — dead-dimension QA; min/max are exact across engines (no
    float summation; float32 -> float64 widening is lossless)."""
    from .ops.profile import embedding_dim_stats

    ds = _read_sized(_t(sf_dir, "embeddings"), columns=["embedding"])
    return embedding_dim_stats(ds, "embedding", dim=64)


SQL_DIM_STATS = """
SELECT CAST(t.i AS BIGINT) AS dim,
       CAST(count(*) AS BIGINT) AS n,
       CAST(min(embedding[CAST(t.i AS BIGINT) + 1]) AS DOUBLE) AS vmin,
       CAST(max(embedding[CAST(t.i AS BIGINT) + 1]) AS DOUBLE) AS vmax
FROM embeddings, range(64) t(i)
WHERE embedding IS NOT NULL AND len(embedding) = 64
GROUP BY 1 ORDER BY 1
"""


def q_doc_splits(sf_dir: str):
    """Deterministic 80/10/10 train/val/test assignment over doc_id —
    the md5 split rule of ops/corpus.assign_splits, auditable via the
    SQL CASE twin."""
    from .ops.corpus import assign_splits

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id"])
    return assign_splits(
        ds, "doc_id", [("train", 80), ("val", 10), ("test", 10)], mod=100
    ).select_columns(["doc_id", "split"])


SQL_SPLITS = """
SELECT doc_id,
       CASE WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 80 THEN 'train'
            WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 90 THEN 'val'
            ELSE 'test' END AS split
FROM documents WHERE doc_id IS NOT NULL
"""


def q_shuffle_positions(sf_dir: str):
    """Deterministic training-data shuffle: every doc gets a (shard,
    pos) slot that is a pure function of its id
    (ops/corpus.global_shuffle_positions) — reproducible across
    re-runs/cluster sizes, auditable via the SQL row_number twin."""
    from .ops.corpus import global_shuffle_positions

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id"])
    return global_shuffle_positions(ds, "doc_id", num_shards=16)


SQL_SHUFFLE = """
WITH h AS (
  SELECT doc_id,
         CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 16 AS BIGINT) AS shard,
         md5_number_lower(CAST(doc_id AS VARCHAR) || '|shuffle') AS h2
  FROM documents WHERE doc_id IS NOT NULL
)
SELECT doc_id, shard,
       CAST(row_number() OVER (PARTITION BY shard ORDER BY h2, doc_id) AS BIGINT) AS pos
FROM h
"""


def q_training_export(sf_dir: str):
    """END-TO-END training-export prep — the modern corpus recipe
    composed from three proven stages: (1) line-level boilerplate
    removal per source (strip_repeated_lines, ' a ' line derivation),
    dropping documents emptied by cleaning; (2) benchmark
    decontamination of the CLEANED text against the raw held-out eval
    slice (doc_id % 97 == 0, exact 4-grams), dropping contaminated
    docs; (3) the deterministic (shard, pos) export layout over the
    survivors (global_shuffle_positions), clean text joined back with
    ONE bucket shuffle. Output: (doc_id, shard, pos, clean_text). The
    filtered corpus is pinned once (_materialize_or_stage) because two
    consumers read it (the id-only shuffle + the join's right side).
    Oracle: every stage recomputed in one chained-CTE statement."""
    from .ops.corpus import global_shuffle_positions
    from .ops.decontam import decontaminate_exact_ngram
    from .ops.join import bucket_hash_join
    from .ops.text import strip_repeated_lines

    side = _eval_split_side
    train = _read_sized(
        _t(sf_dir, "documents"), columns=["doc_id", "source", "text"]
    ).map_batches(side(False), batch_format="pyarrow")
    ev = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"]).map_batches(
        side(True), batch_format="pyarrow"
    )
    cleaned = strip_repeated_lines(
        train, text_col="text", group_col="source", id_col="doc_id",
        line_sep=" a ", min_docs=2,
    )
    surv = cleaned.map_batches(
        lambda b: b.filter(pc.invert(pc.equal(b["clean_text"], ""))),
        batch_format="pyarrow",
    )
    flagged = decontaminate_exact_ngram(
        surv, ev, "doc_id", "clean_text", n=4, eval_text_col="text"
    )
    kept = flagged.map_batches(
        lambda b: b.filter(pc.invert(b["contaminated"])).select(
            ["doc_id", "clean_text"]
        ),
        batch_format="pyarrow",
    )
    kept = _materialize_or_stage(
        kept, os.path.getsize(_t(sf_dir, "documents")), "train_export"
    )
    pos = global_shuffle_positions(
        kept.select_columns(["doc_id"]), "doc_id", num_shards=8
    )
    return bucket_hash_join(pos, kept, "doc_id", "doc_id")


SQL_TRAINING_EXPORT = r"""
WITH d AS (
  SELECT doc_id, coalesce(source, '') AS g,
         string_split(coalesce(text, ''), ' a ') AS parts
  FROM documents WHERE doc_id % 97 <> 0
),
lines AS (
  SELECT doc_id, g, unnest(parts) AS line,
         unnest(generate_series(1, len(parts))) AS ord
  FROM d
),
boiler AS (
  SELECT g, line FROM lines GROUP BY g, line
  HAVING count(DISTINCT doc_id) >= 2
),
keptl AS (
  SELECT l.doc_id, l.line, l.ord
  FROM lines l ANTI JOIN boiler b ON l.g = b.g AND l.line = b.line
),
cleaned AS (
  SELECT doc_id, string_agg(line, ' a ' ORDER BY ord) AS clean_text
  FROM keptl GROUP BY doc_id
),
surv AS (SELECT doc_id, clean_text FROM cleaned WHERE clean_text <> ''),
evw AS (
  SELECT list_filter(string_split_regex(trim(coalesce(text, ''), ' '), '\s+'),
                     x -> x <> '') AS words
  FROM documents WHERE doc_id % 97 = 0
),
evg AS (
  SELECT DISTINCT array_to_string(words[i : i + 3], ' ') AS gm
  FROM evw, unnest(generate_series(1, len(words) - 3)) AS s(i)
),
tw AS (
  SELECT doc_id,
         list_filter(string_split_regex(trim(clean_text, ' '), '\s+'),
                     x -> x <> '') AS words
  FROM surv
),
tg AS (
  SELECT doc_id, array_to_string(words[i : i + 3], ' ') AS gm
  FROM tw, unnest(generate_series(1, len(words) - 3)) AS s(i)
),
cont AS (SELECT DISTINCT tg.doc_id FROM tg JOIN evg USING (gm)),
keep AS (
  SELECT s.doc_id, s.clean_text
  FROM surv s ANTI JOIN cont c ON s.doc_id = c.doc_id
),
h AS (
  SELECT doc_id, clean_text,
         CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 8 AS BIGINT) AS shard,
         md5_number_lower(CAST(doc_id AS VARCHAR) || '|shuffle') AS h2
  FROM keep
)
SELECT doc_id, shard,
       CAST(row_number() OVER (PARTITION BY shard ORDER BY h2, doc_id) AS BIGINT) AS pos,
       clean_text
FROM h
"""


def _partial_bigram_counts(batch: pa.Table) -> pa.Table:
    """Per-batch word-BIGRAM count combiner: the vocab combiner's shape
    one n-gram order up — tokenize once (shared TOKEN_RE twin), pair
    each token with its successor INSIDE the document (polars shift
    over the row index), and pre-count so the shuffle carries one row
    per (bigram, batch)."""
    df = pl.from_arrow(batch.select(["text"])).with_row_index("d")
    out = (
        df.select(
            "d",
            pl.col("text").fill_null("").str.extract_all(TOKEN_RE).alias("w"),
        )
        .explode("w")
        .drop_nulls("w")
        .with_columns(pl.col("w").shift(-1).over("d").alias("w2"))
        .drop_nulls("w2")
        .select((pl.col("w") + " " + pl.col("w2")).alias("word"))
        .group_by("word")
        .agg(pl.len().cast(pl.Int64).alias("n"))
    )
    return out.to_arrow().cast(
        pa.schema([("word", pa.string()), ("n", pa.int64())])
    )


def q_bigram_top20(sf_dir: str):
    """Corpus-wide top-20 word bigrams — phrase-level vocabulary stats
    (collocation mining / boilerplate detection). Rides the vocab
    top-k fold; output column named ``bigram``."""
    ds = _read_sized(_t(sf_dir, "documents"), columns=["text"])
    top = _global_word_topk(
        ds.map_batches(_partial_bigram_counts, batch_format="pyarrow"), k=20
    )
    return top.rename_columns(["bigram", "n"])


# ts[i] || ' ' || ts[i+1]: DuckDB list indexing is 1-based;
# generate_series(1, len-1) enumerates the n-1 adjacent pairs (empty
# for 0/1-token docs) — range() can't take lateral column params here,
# the SQL_DEDUP_SPANS unnest(generate_series(...)) pattern can
SQL_BIGRAMS = r"""
WITH toks AS (
  SELECT list_filter(string_split_regex(trim(coalesce(text, ''), ' '), '\s+'), x -> x <> '') AS ts
  FROM documents
),
pairs AS (
  SELECT ts[i] || ' ' || ts[i + 1] AS w
  FROM toks, unnest(generate_series(1, len(ts) - 1)) AS s(i)
)
SELECT w AS bigram, CAST(count(*) AS BIGINT) AS n
FROM pairs GROUP BY w ORDER BY n DESC, w LIMIT 20
"""


def q_value_outliers(sf_dir: str):
    """Per-event-type IQR outlier report (Tukey fences): exact q25/q75
    via the oracle-checked group-quantile operator (tiny 5-row result,
    driver-folded), fences q25/75 -/+ 1.5*(q75-q25) computed with the
    same float64 expression on both sides (quantile_disc returns actual
    data values, so the arithmetic inputs are bit-identical), then ONE
    vectorized counting pass — bounds gathered per row via index_in,
    partial per-group counts before the tiny Sum groupby. NaN caveat
    (absent from the test tables): DuckDB sorts NaN greatest so
    ``v > hi_fence`` would count it; numpy comparisons drop it."""
    from ray.data.aggregate import Sum as _Sum

    from .ops.corpus import exact_group_quantiles

    ds = _read_sized(_t(sf_dir, "events"), columns=["event_type", "value"])
    # NULL group keys are dropped by the oracle's JOIN — drop them before
    # the quantile groupby (Ray's sort shuffle can't order None vs str)
    nonnull = ds.map_batches(
        lambda b: b.filter(pc.is_valid(b["event_type"])), batch_format="pyarrow"
    )
    q = (
        exact_group_quantiles(nonnull, "event_type", "value", [0.25, 0.75])
        .take_all()
    )
    # all-null-value groups have no bounds row in the oracle (WHERE ..
    # GROUP BY drops them before the join)
    q = [r for r in q if r["q25"] is not None]
    groups = sorted(r["event_type"] for r in q)
    q25 = {r["event_type"]: float(r["q25"]) for r in q}
    q75 = {r["event_type"]: float(r["q75"]) for r in q}
    lo_f = {g: q25[g] - 1.5 * (q75[g] - q25[g]) for g in groups}
    hi_f = {g: q75[g] + 1.5 * (q75[g] - q25[g]) for g in groups}
    keys = pa.array(groups, pa.string())
    lo_v = np.asarray([lo_f[g] for g in groups], dtype=np.float64)
    hi_v = np.asarray([hi_f[g] for g in groups], dtype=np.float64)

    def count_partial(batch: pa.Table) -> pa.Table:
        idx = (
            pc.fill_null(pc.index_in(batch["event_type"], value_set=keys), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        v = pc.cast(batch["value"], pa.float64()).to_numpy(zero_copy_only=False)
        ok = (idx >= 0) & ~np.isnan(v)
        i, vv = idx[ok], v[ok]
        out = (vv < lo_v[i]) | (vv > hi_v[i])
        cnt = np.bincount(i[out], minlength=len(groups))
        return pa.table(
            {
                "event_type": keys,
                "n_outliers": pa.array(cnt, pa.int64()),
            }
        )

    counts = {
        r["event_type"]: int(r["n_outliers"])
        for r in (
            ds.map_batches(count_partial, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(_Sum("n_outliers", alias_name="n_outliers"))
            .take_all()
        )
    }
    return pa.table(
        {
            "event_type": pa.array(groups, pa.string()),
            "q25": pa.array([q25[g] for g in groups], pa.float64()),
            "q75": pa.array([q75[g] for g in groups], pa.float64()),
            "n_outliers": pa.array([counts.get(g, 0) for g in groups], pa.int64()),
        }
    )


SQL_OUTLIERS = """
WITH b AS (
  SELECT event_type,
         quantile_disc(value, 0.25) AS q25,
         quantile_disc(value, 0.75) AS q75
  FROM events WHERE value IS NOT NULL GROUP BY event_type
)
SELECT b.event_type, b.q25, b.q75,
       CAST(count(*) FILTER (
         WHERE e.value < b.q25 - 1.5e0 * (b.q75 - b.q25)
            OR e.value > b.q75 + 1.5e0 * (b.q75 - b.q25)
       ) AS BIGINT) AS n_outliers
FROM b JOIN events e USING (event_type)
WHERE e.value IS NOT NULL
GROUP BY 1, 2, 3 ORDER BY 1
"""


def q_top_unshipped_orders(sf_dir: str):
    """TPC-H Q3 shape: top-10 highest-revenue orders in the BUILDING
    segment, ordered before the cutoff with lineitems shipped after it.
    Plan: segment customers collapse to a broadcast key set applied
    inside the orders read (semi filter — no dimension shuffle);
    lineitem pre-aggregates revenue cents per order per batch (the
    combiner); ONE bucket shuffle joins them with the right side folded
    per key inside its bucket; the top-10 cut is per-block partial
    top-k + a driver fold of the tiny partials (vocab pattern) — never
    a global sort. Revenue in integer cents (floor(x*100+0.5)), the
    float-free oracle twin."""
    import datetime

    import pyarrow.parquet as pq

    from .ops.join import bucket_hash_join

    cut = pa.scalar(datetime.datetime(1998, 7, 1), pa.timestamp("us"))
    cust = pq.read_table(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )
    ckeys = (
        cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))["c_custkey"]
        .combine_chunks()
    )
    ckeys_ref = ray.put(ckeys)

    def orders_stage(batch: pa.Table, _ref=ckeys_ref) -> pa.Table:
        from .util import once_per_process

        ks = once_per_process("q3_building_custkeys", _ref)
        keep = pc.and_(
            pc.is_in(batch["o_custkey"], value_set=ks),
            pc.less(batch["o_orderdate"], cut),
        )
        return batch.select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"]
        ).filter(keep)

    def lineitem_stage(batch: pa.Table) -> pa.Table:
        sel = batch.filter(pc.greater(batch["l_shipdate"], cut))
        cents = pc.cast(
            pc.floor(
                pc.add(
                    pc.multiply(
                        pc.multiply(
                            sel["l_extendedprice"],
                            pc.subtract(pa.scalar(1.0), sel["l_discount"]),
                        ),
                        pa.scalar(100.0),
                    ),
                    pa.scalar(0.5),
                )
            ),
            pa.int64(),
        )
        part = pa.table({"l_orderkey": sel["l_orderkey"], "revenue_c": cents})
        df = pl.from_arrow(part)
        return (
            df.group_by("l_orderkey")
            .agg(pl.col("revenue_c").sum())
            .to_arrow()
            .cast(part.schema)
        )

    orders_f = _read_sized(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(orders_stage, batch_format="pyarrow")
    li_part = _read_sized(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(lineitem_stage, batch_format="pyarrow")

    def fold_right(rg: pa.Table) -> pa.Table:
        df = pl.from_arrow(rg)
        return df.group_by("l_orderkey").agg(
            pl.col("revenue_c").sum()
        ).to_arrow().cast(rg.schema)

    joined = bucket_hash_join(
        orders_f,
        li_part,
        "o_orderkey",
        "l_orderkey",
        num_buckets=16,
        right_pre_join=fold_right,
    )

    out_schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("revenue_c", pa.int64()),
            ("o_orderdate", pa.timestamp("us")),
            ("o_orderpriority", pa.string()),
        ]
    )

    def block_topk(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(out_schema.names))
        return (
            df.drop_nulls("revenue_c")  # inner join leaves none; belt+braces
            .sort(
                ["revenue_c", "o_orderdate", "o_orderkey"],
                descending=[True, False, False],
            )
            .head(10)
            .to_arrow()
            .cast(out_schema)
        )

    partials = joined.map_batches(block_topk, batch_format="pyarrow").take_all()
    final = (
        pl.from_arrow(pa.Table.from_pylist(partials, schema=out_schema))
        .sort(
            ["revenue_c", "o_orderdate", "o_orderkey"],
            descending=[True, False, False],
        )
        .head(10)
    )
    return final.to_arrow().cast(out_schema)


SQL_Q3_TOPORDERS = """
SELECT o_orderkey,
       CAST(sum(CAST(floor(l_extendedprice * (1.0e0 - l_discount) * 100.0e0 + 0.5e0) AS BIGINT)) AS BIGINT) AS revenue_c,
       o_orderdate, o_orderpriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING'
  AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < TIMESTAMP '1998-07-01'
  AND l_shipdate > TIMESTAMP '1998-07-01'
GROUP BY o_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue_c DESC, o_orderdate, o_orderkey LIMIT 10
"""


def q_customer_order_counts(sf_dir: str):
    """LEFT OUTER bucket join: AUTOMOBILE-segment customers with their
    order counts INCLUDING zero-order customers — the outer-join mode
    of ops/join.bucket_hash_join (per-bucket Arrow 'left outer', right
    side pre-folded to one count row per key inside its bucket, so the
    exchange carries per-batch partial counts, never order rows)."""
    from .ops.join import bucket_hash_join

    cust = _read_sized(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )

    def cust_stage(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(batch["c_mktsegment"], "AUTOMOBILE")
        ).select(["c_custkey"])

    def order_partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(["o_custkey"]))
        out = df.group_by("o_custkey").agg(pl.len().cast(pl.Int64).alias("n"))
        return out.to_arrow().cast(
            pa.schema([("o_custkey", pa.int64()), ("n", pa.int64())])
        )

    def fold_right(rg: pa.Table) -> pa.Table:
        df = pl.from_arrow(rg)
        return df.group_by("o_custkey").agg(pl.col("n").sum()).to_arrow().cast(
            rg.schema
        )

    joined = bucket_hash_join(
        cust.map_batches(cust_stage, batch_format="pyarrow"),
        _read_sized(_t(sf_dir, "orders"), columns=["o_custkey"]).map_batches(
            order_partial, batch_format="pyarrow"
        ),
        "c_custkey",
        "o_custkey",
        num_buckets=16,
        how="left outer",
        right_pre_join=fold_right,
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "n_orders": pc.fill_null(batch["n"], 0),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


SQL_CUST_ORDER_COUNTS = """
SELECT c_custkey, CAST(coalesce(o.n, 0) AS BIGINT) AS n_orders
FROM customer c
LEFT JOIN (SELECT o_custkey, count(*) AS n FROM orders GROUP BY 1) o
  ON c_custkey = o.o_custkey
WHERE c_mktsegment = 'AUTOMOBILE'
"""


def q_value_quartiles_assign(sf_dir: str):
    """Per-event-type quartile discretization of value — the
    feature-engineering bucketizer (ops/corpus.quantile_bucketize):
    bucket = #quantile_disc bounds exceeded, bit-exact across engines
    because disc bounds are actual data values."""
    from .ops.corpus import quantile_bucketize

    ds = _read_sized(
        _t(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )
    return quantile_bucketize(
        ds, "event_type", "value", qs=[0.25, 0.5, 0.75]
    ).select_columns(["event_id", "event_type", "bucket"])


def q_sentence_chunks(sf_dir: str):
    """Sentence-level 1→N chunk fan-out (ops/corpus.split_sentences) —
    every piece, untrimmed, md5-narrowed, with its 1-based index. The
    synthetic corpus has no sentence punctuation, so the query passes a
    boundary that actually occurs ('table ' / 'value ' word breaks) to
    exercise a real multi-piece fan-out; the operator's default stays
    the punctuation rule (pytest-covered)."""
    from .ops.corpus import split_sentences

    ds = _read_sized(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return split_sentences(ds, "doc_id", "text", boundary=r"(table|value) ")


SQL_SENTENCES = r"""
WITH s AS (
  SELECT doc_id,
         string_split_regex(coalesce(text, ''), '(table|value) ') AS ps
  FROM documents
)
SELECT doc_id, CAST(i AS BIGINT) AS piece_id,
       md5(ps[i]) AS sent_md5,
       CAST(length(ps[i]) AS BIGINT) AS n_chars
FROM s, unnest(generate_series(1, len(ps))) AS t(i)
"""


SQL_QUARTILE_ASSIGN = """
WITH b AS (
  SELECT event_type,
         quantile_disc(value, 0.25) AS b1,
         quantile_disc(value, 0.50) AS b2,
         quantile_disc(value, 0.75) AS b3
  FROM events WHERE value IS NOT NULL GROUP BY event_type
)
SELECT e.event_id, e.event_type,
       CAST((e.value > b.b1) AS BIGINT) + CAST((e.value > b.b2) AS BIGINT)
         + CAST((e.value > b.b3) AS BIGINT) AS bucket
FROM events e JOIN b USING (event_type)
WHERE e.value IS NOT NULL
"""


# ---------------------------------------------------------------------------

QUERIES = {
    "lww_latest_by_user": q_lww_latest_by_user,
    "dedup_exact_events": q_dedup_exact_events,
    "route_tables": q_route_tables,
    "mapping_project": q_mapping_project,
    "flatten_props": q_flatten_props,
    "pii_hash": q_pii_hash,
    "anti_join_inactive_customers": q_anti_join_inactive_customers,
    "top_events_recent": q_top_events_recent,
    "q1_pricing_summary": q_q1_pricing_summary,
    "timestamp_format": q_timestamp_format,
    "user_segment_join": q_user_segment_join,
    "order_revenue_join": q_order_revenue_join,
    "tumbling_daily": q_tumbling_daily,
    "hopping_hourly": q_hopping_hourly,
    "campaign_attribution": q_campaign_attribution,
    "weighted_sample_docs": q_weighted_sample_docs,
    "rollup_revenue": q_rollup_revenue,
    "session_windows": q_session_windows,
    "running_user_spend": q_running_user_spend,
    "spend_with_prev": q_spend_with_prev,
    "spend_rolling7": q_spend_rolling7,
    "revenue_grouping_sets": q_revenue_grouping_sets,
    "unpivot_lineitem": q_unpivot_lineitem,
    "browse_no_buy_days": q_browse_no_buy_days,
    "view_and_buy_days": q_view_and_buy_days,
    "pivot_event_values": q_pivot_event_values,
    "funnel_views": q_funnel_views,
    "cube_revenue": q_cube_revenue,
    "geo_enrich": q_geo_enrich,
    "ua_parse": q_ua_parse,
    "ndjson_read": q_ndjson_read,
    "csv_read": q_csv_read,
    "singer_read": q_singer_read,
    "rule_chain": q_rule_chain,
    "user_recognition": q_user_recognition,
    "interval_refresh": q_interval_refresh,
    "pull_sync": q_pull_sync,
    "doc_text_stats": q_doc_text_stats,
    "dedup_exact_docs": q_dedup_exact_docs,
    "embedding_label_counts": q_embedding_label_counts,
    "knn_cosine_topk": q_knn_cosine_topk,
    "scd2_history": q_scd2_history,
    "point_in_time_join": q_point_in_time_join,
    "validate_events": q_validate_events,
    "profile_events": q_profile_events,
    "pack_docs": q_pack_docs,
    # rows-only checks (non-SQL-expressible):
    "cdc_replay": q_cdc_replay,
    "minhash_dedup_docs": q_minhash_dedup_docs,
    "ngram_jaccard_docs": q_ngram_jaccard_docs,
    "incremental_near_dup": q_incremental_near_dup,
    "simhash_docs": q_simhash_docs,
    "doc_quality": q_doc_quality,
    "strip_boilerplate": q_strip_boilerplate,
    "decontaminate_ngram": q_decontaminate,
    "ann_ivf_topk": q_ann_ivf_topk,
    "embedding_near_dup": q_embedding_near_dup,
    "multimodal_decode": q_multimodal_decode,
    "frame_sample": q_frame_sample,
    "schema_infer": q_schema_infer,
    "time_travel": q_time_travel,
    "lake_maintenance": q_lake_maintenance,
    "point_lookup_users": q_point_lookup_users,
    "cdc_diff": q_cdc_diff,
    "matview_revenue": q_matview_revenue,
    "lake_replica": q_lake_replica,
    "lake_replica_filtered": q_lake_replica_filtered,
    "lake_replica_fanout": q_lake_replica_fanout,
    "corpus_pipeline": q_corpus_pipeline,
    "stratified_sample": q_stratified_sample,
    "dedup_keep_docs": q_dedup_keep_docs,
    "decontaminate_docs": q_decontaminate_docs,
    "redact_pii": q_redact_pii,
    "doc_repetition": q_doc_repetition,
    "value_quantiles": q_value_quantiles,
    "value_quantiles_cont": q_value_quantiles_cont,
    "vocab_top20": q_vocab_top20,
    "cms_word_freq": q_cms_word_freq,
    "classifier_scores": q_classifier_scores,
    "local_supplier_volume": q_local_supplier_volume,
    "asof_last_order": q_asof_last_order,
    "entity_resolution": q_entity_resolution,
    "inverted_search": q_inverted_search,
    "term_doc_freq": q_term_doc_freq,
    "bm25_topk": q_bm25_topk,
    "retention_cohorts": q_retention_cohorts,
    "top_event_paths": q_top_event_paths,
    "phrase_search": q_phrase_search,
    "doc_sample": q_doc_sample,
    "chunk_docs": q_chunk_docs,
    "top_docs_per_lang": q_top_docs_per_lang,
    "distinct_users_by_type": q_distinct_users,
    "kmeans_clusters": q_kmeans_clusters,
    "semantic_dedup": q_semantic_dedup,
    "semantic_decontaminate": q_semantic_decontaminate,
    "cluster_balanced_sample": q_cluster_balanced_sample,
    "normalize_docs": q_normalize_docs,
    "dedup_spans": q_dedup_spans,
    "mixture_sample_docs": q_mixture_sample,
    "cap_per_source": q_cap_per_source,
    "index_refresh": q_index_refresh,
    "value_histogram": q_value_histogram,
    "embedding_dim_stats": q_embedding_dim_stats,
    "doc_splits": q_doc_splits,
    "shuffle_positions": q_shuffle_positions,
    "training_export": q_training_export,
    "bigram_top20": q_bigram_top20,
    "value_outliers": q_value_outliers,
    "top_unshipped_orders": q_top_unshipped_orders,
    "customer_order_counts": q_customer_order_counts,
    "value_quartiles_assign": q_value_quartiles_assign,
    "sentence_chunks": q_sentence_chunks,
    "range_scan_values": q_range_scan_values,
    "value_rank_dist": q_value_rank_dist,
    "value_mean_var": q_value_mean_var,
}

ORACLES = {
    "lww_latest_by_user": SQL_LWW,
    "dedup_exact_events": SQL_DEDUP_EVENTS,
    "route_tables": SQL_ROUTE,
    "mapping_project": SQL_MAPPING,
    "flatten_props": SQL_FLATTEN,
    "pii_hash": SQL_PII,
    "anti_join_inactive_customers": SQL_ANTI,
    "top_events_recent": SQL_TOP,
    "q1_pricing_summary": SQL_Q1,
    "timestamp_format": SQL_TS_FORMAT,
    "user_segment_join": SQL_USER_SEGMENT,
    "order_revenue_join": SQL_ORDER_REVENUE,
    "tumbling_daily": SQL_TUMBLING,
    "hopping_hourly": SQL_HOPPING,
    "weighted_sample_docs": SQL_WEIGHTED_SAMPLE,
    "rollup_revenue": SQL_ROLLUP,
    "session_windows": SQL_SESSIONS,
    "running_user_spend": SQL_RUNNING,
    "spend_with_prev": SQL_SPEND_PREV,
    "spend_rolling7": SQL_ROLLING7,
    "revenue_grouping_sets": SQL_GROUPING_SETS,
    "unpivot_lineitem": SQL_UNPIVOT,
    "browse_no_buy_days": SQL_EXCEPT_DAYS,
    "view_and_buy_days": SQL_INTERSECT_DAYS,
    "pivot_event_values": SQL_PIVOT,
    "funnel_views": SQL_FUNNEL,
    "cube_revenue": SQL_CUBE,
    "doc_text_stats": SQL_TEXT_STATS,
    "dedup_exact_docs": SQL_DEDUP_DOCS,
    "embedding_label_counts": SQL_LABEL_COUNTS,
    "knn_cosine_topk": SQL_KNN,
    # full-probe IVF == exact brute force (q_ann_ivf_topk docstring), so
    # it shares the exact-kNN oracle: same query set, same k, same order
    "ann_ivf_topk": SQL_KNN,
    "embedding_near_dup": SQL_NEAR_DUP,
    "minhash_dedup_docs": SQL_MINHASH,
    "ngram_jaccard_docs": SQL_NGRAM,
    "incremental_near_dup": SQL_INCREMENTAL_NEAR_DUP,
    "doc_quality": SQL_DOC_QUALITY,
    "strip_boilerplate": SQL_STRIP_BOILER,
    "decontaminate_ngram": SQL_DECONTAM_NGRAM,
    "simhash_docs": SQL_SIMHASH,
    "multimodal_decode": SQL_MULTIMODAL,
    "frame_sample": SQL_FRAME_SAMPLE,
    "schema_infer": SQL_SCHEMA_INFER,
    "rule_chain": SQL_RULE_CHAIN,
    "user_recognition": SQL_RECOGNITION,
    "interval_refresh": SQL_INTERVAL_REFRESH,
    "pull_sync": SQL_PULL_SYNC,
    "time_travel": SQL_TIME_TRAVEL,
    "lake_maintenance": SQL_LAKE_MAINT,
    "point_lookup_users": SQL_POINT_LOOKUP,
    "cdc_diff": SQL_CDC_DIFF,
    "matview_revenue": SQL_MATVIEW,
    "lake_replica": SQL_REPLICA,
    "lake_replica_filtered": SQL_REPLICA_FILTERED,
    "lake_replica_fanout": SQL_REPLICA_FANOUT,
    "corpus_pipeline": SQL_CORPUS_PIPELINE,
    "stratified_sample": SQL_STRATIFIED,
    "dedup_keep_docs": SQL_DEDUP_KEEP,
    "decontaminate_docs": SQL_DECONTAMINATE,
    "redact_pii": SQL_REDACT_PII,
    "validate_events": SQL_VALIDATE,
    "profile_events": SQL_PROFILE,
    "pack_docs": SQL_PACK,
    "doc_repetition": SQL_REPETITION,
    "value_quantiles": SQL_QUANTILES,
    "value_quantiles_cont": SQL_QUANTILES_CONT,
    "vocab_top20": SQL_VOCAB,
    "cms_word_freq": SQL_CMS,
    "classifier_scores": SQL_CLASSIFIER,
    "local_supplier_volume": SQL_Q5_VOLUME,
    "asof_last_order": SQL_ASOF,
    "entity_resolution": SQL_ENTITY_RESOLUTION,
    "inverted_search": SQL_INVERTED_SEARCH,
    "term_doc_freq": SQL_TERM_DF,
    "bm25_topk": SQL_BM25,
    "retention_cohorts": SQL_RETENTION,
    "top_event_paths": SQL_TOP_PATHS,
    "phrase_search": SQL_PHRASE,
    "doc_sample": SQL_DOC_SAMPLE,
    "chunk_docs": SQL_CHUNK_DOCS,
    "top_docs_per_lang": SQL_TOP_PER_LANG,
    "distinct_users_by_type": SQL_DISTINCT_USERS,
    "kmeans_clusters": SQL_KMEANS,
    "semantic_dedup": SQL_SEMANTIC_DEDUP,
    "semantic_decontaminate": SQL_SEMANTIC_DECON,
    "cluster_balanced_sample": SQL_CLUSTER_SAMPLE,
    "normalize_docs": SQL_NORMALIZE,
    "dedup_spans": SQL_DEDUP_SPANS,
    "mixture_sample_docs": SQL_MIXTURE,
    "cap_per_source": SQL_CAP_PER_SOURCE,
    "index_refresh": SQL_INDEX_REFRESH,
    "value_histogram": SQL_HISTOGRAM,
    "embedding_dim_stats": SQL_DIM_STATS,
    "doc_splits": SQL_SPLITS,
    "shuffle_positions": SQL_SHUFFLE,
    "training_export": SQL_TRAINING_EXPORT,
    "bigram_top20": SQL_BIGRAMS,
    "value_outliers": SQL_OUTLIERS,
    "top_unshipped_orders": SQL_Q3_TOPORDERS,
    "customer_order_counts": SQL_CUST_ORDER_COUNTS,
    "value_quartiles_assign": SQL_QUARTILE_ASSIGN,
    "sentence_chunks": SQL_SENTENCES,
    "range_scan_values": SQL_RANGE_SCAN,
    "value_rank_dist": SQL_RANK_DIST,
    "value_mean_var": SQL_MEAN_VAR,
}


def dynamic_oracles(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    """Oracles whose SQL embeds a generated-parquet path (and must
    therefore ensure the file exists first) or is assembled from a
    shared corpus. The driver correctness gate runs at sf=0.01 (the
    default); harness_sim passes its sf_dir so off-contract sweeps at
    other scale factors compare against matching generated inputs."""
    return {
        "cdc_replay": cdc_replay_oracle_sql(sf=_sf_of(sf_dir)),
        "scd2_history": scd2_oracle_sql(sf=_sf_of(sf_dir)),
        "point_in_time_join": point_in_time_oracle_sql(sf=_sf_of(sf_dir)),
        "geo_enrich": geo_oracle_sql(),
        "campaign_attribution": campaigns_oracle_sql(),
        "ua_parse": _ua_oracle_sql(),
        "ndjson_read": ndjson_oracle_sql(sf_dir),
        "csv_read": csv_oracle_sql(sf_dir),
        "singer_read": singer_oracle_sql(sf_dir),
    }
