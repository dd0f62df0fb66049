"""Sources (NDJSON/CSV), dead-letter sink + replay, delete_where (D2),
user recognition (T5), joins, windows, column-pruned lake reads."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from jitsu_ray.sinks.lake import LakeTable
from jitsu_ray.stages.transform import ERROR_COL, TABLE_COL
from jitsu_ray.types import DataType as T


def test_ndjson_source_with_error_lines(ray_session, tmp_path):
    # fact_input_with_error_lines.log golden shape: bad lines -> dead letters
    p = tmp_path / "in.log"
    p.write_text(
        '{"a": 1, "nested": {"b": "x"}, "tags": [1,2]}\n'
        "not json at all\n"
        '{"a": 2}\n'
        "\n"
        '["array not object"]\n'
    )
    from jitsu_ray.sources.readers import read_ndjson_events
    from jitsu_ray.stages.transform import split_dead_letters

    ds = read_ndjson_events(str(p))
    good, dead = split_dead_letters(ds)
    g = good.take_all()
    assert sorted(r["a"] for r in g) == [1, 2]
    r1 = next(r for r in g if r["a"] == 1)
    assert r1["nested_b"] == "x"  # flattened
    assert r1["tags"] == "[1, 2]"  # list serialized to JSON
    d = dead.take_all()
    assert len(d) == 2
    assert all(r[ERROR_COL] for r in d)


def test_csv_source_normalize_and_cast(ray_session, tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("User ID,Amount ($)\n1,2.5\n2,3.5\n")
    from jitsu_ray.sources.readers import read_csv_events

    out = read_csv_events(str(p), casts={"user_id": T.STRING}).take_all()
    assert sorted(out[0].keys()) == ["amount____", "user_id"]
    assert out[0]["user_id"] == "1"  # cast applied


def test_dead_letter_write_and_replay(ray_session, tmp_path):
    from jitsu_ray.sinks.dead_letter import replay_failed, write_dead_letters
    from jitsu_ray.sources.readers import read_ndjson_events
    from jitsu_ray.stages.transform import split_dead_letters, udf_transform_stage

    p = tmp_path / "in.log"
    p.write_text('{"v": 1}\n{"v": -1}\n{"v": 2}\n')

    def strict(ev):
        if ev.get("v", 0) < 0:
            raise ValueError("negative")
        return "t", {"v": ev["v"]}

    ds = read_ndjson_events(str(p))
    good, dead0 = split_dead_letters(
        ds.map_batches(
            lambda b: udf_transform_stage(strict)(b.drop_columns([TABLE_COL, ERROR_COL, "__raw"])),
            batch_format="pyarrow",
        )
    )
    failed_dir = str(tmp_path / "failed")
    n = write_dead_letters(dead0, failed_dir)
    assert n == 1 and good.count() == 2

    # replay with a FIXED transform: everything recovers
    def lenient(ev):
        return "t", {"v": abs(ev["v"])}

    rec, still = replay_failed(failed_dir, udf_transform_stage(lenient))
    assert [r["v"] for r in rec.take_all()] == [1]
    assert still.count() == 0


def ev(seq, op, repo, path, content=None):
    return {
        "commit_seq": seq, "op": op, "repo": repo, "path": path,
        "commit": None, "lang": None, "content": content,
    }


def make_ds(rows):
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "commit_seq": pa.array([r["commit_seq"] for r in rows], pa.int64()),
                "op": pa.array([r["op"] for r in rows], pa.string()),
                "repo": pa.array([r["repo"] for r in rows], pa.string()),
                "path": pa.array([r["path"] for r in rows], pa.string()),
                "content": pa.array([r["content"] for r in rows], pa.large_string()),
            }
        )
    )


def test_delete_where_refresh(ray_session, tmp_path):
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    rows = [ev(i, "insert", "keep" if i % 2 else "drop", f"f{i}", f"c{i}") for i in range(1, 7)]
    lake.apply_window(make_ds(rows), 0, 6)
    entry = lake.delete_where(lambda b: pc.equal(b["repo"], "drop"))
    assert entry["metrics"]["tombstones"] == 3
    left = lake.read().take_all()
    assert sorted(r["repo"] for r in left) == ["keep"] * 3
    # idempotent: lower/equal seq refresh refused
    with pytest.raises(ValueError):
        lake.delete_where(lambda b: pc.equal(b["repo"], "keep"), commit_seq=3)


def test_read_column_pruning(ray_session, tmp_path):
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 2)
    lake.apply_window(make_ds([ev(1, "insert", "r", "p", "body")]), 0, 1)
    out = lake.read(columns=["repo", "path", "content"]).take_all()
    assert sorted(out[0].keys()) == ["content", "path", "repo"]
    assert out[0]["content"] == "body"


def test_ingest_report(ray_session, tmp_path):
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 2)
    lake.apply_window(make_ds([ev(1, "insert", "r", "p", "x")]), 0, 1)
    lake.apply_window(make_ds([ev(2, "delete", "r", "p")]), 1, 2)
    rep = lake.ingest_report()
    assert rep["windows"] == 2 and rep["last_committed_hi"] == 2
    assert rep["tombstones"] == 1 and rep["partitions"]


def test_user_recognition(ray_session):
    import ray.data

    from jitsu_ray.pipelines.recognition import build_identity_map, recognize_users

    tbl = pa.table(
        {
            "anon": pa.array(["a1", "a1", "a2", "a3", None]),
            "user": pa.array([None, 7, None, None, 9], pa.int64()),
            "v": pa.array([1, 2, 3, 4, 5]),
        }
    )
    ds = ray.data.from_arrow(tbl)
    idmap = build_identity_map(ds, "anon", "user")
    assert dict(zip(idmap["anon"].to_pylist(), idmap["user"].to_pylist())) == {"a1": 7}
    out = {r["v"]: r["user"] for r in recognize_users(ds, "anon", "user", idmap).take_all()}
    assert out == {1: 7, 2: 7, 3: None, 4: None, 5: 9}


def test_broadcast_and_bucket_join(ray_session):
    import ray.data

    from jitsu_ray.ops.join import broadcast_join, bucket_hash_join, semi_anti_filter

    left = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3, 4]), "lv": pa.array(list("abcd"))}))
    small = pa.table({"k": pa.array([1, 3]), "sv": pa.array(["X", "Y"])})
    out = broadcast_join(left, small, "k", ["sv"]).take_all()
    assert sorted((r["k"], r["sv"]) for r in out) == [(1, "X"), (3, "Y")]

    right = ray.data.from_arrow(pa.table({"rk": pa.array([2, 3, 5]), "rv": pa.array(["p", "q", "r"])}))
    out2 = bucket_hash_join(left, right, "k", "rk", num_buckets=4).take_all()
    assert sorted((r["k"], r["lv"], r["rv"]) for r in out2) == [(2, "b", "p"), (3, "c", "q")]

    semi = semi_anti_filter(left, pa.array([2, 4]), "k").take_all()
    assert sorted(r["k"] for r in semi) == [2, 4]
    anti = semi_anti_filter(left, pa.array([2, 4]), "k", anti=True).take_all()
    assert sorted(r["k"] for r in anti) == [1, 3]


def test_tumbling_and_session_windows(ray_session):
    import ray.data

    from jitsu_ray.ops.window import session_windows, tumbling_aggregate

    base = 1_700_000_000_000_000  # us
    ts = [base, base + 30 * 60 * 1_000_000, base + 3 * 3600 * 1_000_000]
    tbl = pa.table(
        {
            "ts": pa.array(ts, pa.timestamp("us")),
            "g": pa.array(["a", "a", "a"]),
            "v": pa.array([1, 2, 4], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    out = tumbling_aggregate(ds, "ts", 3600, ["g"], "v").take_all()
    assert sorted((r["n"], r["sum_value"]) for r in out) == [(1, 4), (2, 3)]

    sess = session_windows(ds.map_batches(lambda b: b.rename_columns(["ts", "user", "v"]), batch_format="pyarrow"), "user", "ts", 3600).take_all()
    assert sorted(r["n_events"] for r in sess) == [1, 2]


def test_rollup_aggregate_matches_sql(ray_session):
    import duckdb
    import ray.data

    from jitsu_ray.ops.rollup import rollup_aggregate

    tbl = pa.table(
        {
            "a": pa.array(["x", "x", "y", "y", "y"]),
            "b": pa.array(["p", "q", "p", "p", "q"]),
            "v": pa.array([1, 2, 3, 4, 5], pa.int64()),
        }
    )
    out = rollup_aggregate(
        ray.data.from_arrow(tbl).repartition(3), ["a", "b"], ["v"]
    ).take_all()
    nonesafe = lambda row: tuple((x is None, x) for x in row)  # noqa: E731
    got = sorted(((r["a"], r["b"], r["n"], r["sum_v"]) for r in out), key=nonesafe)
    con = duckdb.connect()
    con.register("t", tbl)
    exp = sorted(
        (
            tuple(r)
            for r in con.sql(
                "SELECT a, b, count(*) AS n, sum(v) AS sum_v FROM t GROUP BY ROLLUP(a, b)"
            ).fetchall()
        ),
        key=nonesafe,
    )
    assert got == exp
    with pytest.raises(ValueError):
        rollup_aggregate(ray.data.from_arrow(tbl), [], ["v"])


def test_weighted_sample_matches_brute_force(ray_session):
    import hashlib

    import ray.data

    from jitsu_ray.ops.corpus import weighted_sample

    n = 300
    ids = list(range(n))
    weights = [(i % 7) * 50 for i in ids]  # incl. zero weights (excluded)
    tbl = pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "w": pa.array(weights, pa.int64())}
    )

    def key(i, w):
        hv = int.from_bytes(hashlib.md5(str(i).encode()).digest()[8:], "little")
        return ((hv + 0.5) / 2**64) ** (1.0 / w)

    expect = sorted(
        (i for i, w in zip(ids, weights) if w > 0),
        key=lambda i: (key(i, weights[i]), i),
        reverse=True,
    )[:40]
    # block boundaries must not change the result
    for nb in (1, 7):
        ds = ray.data.from_arrow(tbl).repartition(nb)
        out = weighted_sample(ds, "doc_id", "w", 40).take_all()
        assert sorted(r["doc_id"] for r in out) == sorted(expect), nb
        assert all(weights[r["doc_id"]] > 0 for r in out)


def test_interval_join_modes_agree(ray_session):
    import ray.data

    from jitsu_ray.ops.join import interval_join

    # overlapping intervals incl. one spanning many buckets and one
    # matching nothing; facts incl. boundary points (lo inclusive, hi
    # exclusive)
    # null point / null bounds must behave identically in both plans
    # (inner-join semantics: a null never matches) — the bucketed plan
    # used to crash on them while broadcast silently dropped them
    facts = pa.table(
        {
            "p": pa.array([0, 5, 10, 15, 99, 100, 250, None], pa.int64()),
            "fid": pa.array(list(range(8)), pa.int64()),
        }
    )
    iv = pa.table(
        {
            "lo": pa.array([0, 5, 0, 300, None, 7], pa.int64()),
            "hi": pa.array([10, 100, 260, 310, 50, None], pa.int64()),
            "iid": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        }
    )
    expect = sorted(
        (f, i)
        for f, p in zip(facts["fid"].to_pylist(), facts["p"].to_pylist())
        for i, lo, hi in zip(
            iv["iid"].to_pylist(), iv["lo"].to_pylist(), iv["hi"].to_pylist()
        )
        if p is not None and lo is not None and hi is not None and lo <= p < hi
    )
    ds = ray.data.from_arrow(facts)
    for mode, kw in [("broadcast", {}), ("bucketed", {"bucket_width": 16})]:
        out = interval_join(ds, iv, "p", "lo", "hi", mode=mode, **kw).take_all()
        assert sorted((r["fid"], r["iid"]) for r in out) == expect, mode

    with pytest.raises(ValueError):
        interval_join(ds, iv.rename_columns(["lo", "hi", "fid"]), "p", "lo", "hi")
    with pytest.raises(ValueError):
        interval_join(ds, iv, "p", "lo", "hi", mode="bucketed")


def test_hopping_windows(ray_session):
    import ray.data

    from jitsu_ray.ops.window import hopping_aggregate

    base = 1_700_000_000_000_000  # us; divisible by 3600s buckets is not needed
    ts = [base, base + 30 * 60 * 1_000_000, base + 3 * 3600 * 1_000_000]
    tbl = pa.table(
        {
            "ts": pa.array(ts, pa.timestamp("us")),
            "g": pa.array(["a", "a", "a"]),
            "v": pa.array([1, 2, 4], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    # width 1h, step 30min: every event is in exactly 2 windows
    out = hopping_aggregate(ds, "ts", 3600, 1800, ["g"], "v").take_all()
    assert sum(r["n"] for r in out) == 2 * len(ts)
    # oracle: brute-force window membership
    secs = [t // 1_000_000 for t in ts]
    vals = dict(zip(secs, [1, 2, 4]))
    expect = {}
    for s in secs:
        for k in range(2):
            start = (s // 1800 - k) * 1800
            e = expect.setdefault(start, [0, 0])
            e[0] += 1
            e[1] += vals[s]
    # window_start comes back tz-naive (UTC by construction); a bare
    # .timestamp() would reinterpret it in the machine's LOCAL zone
    from datetime import timezone

    got = {
        int(r["window_start"].replace(tzinfo=timezone.utc).timestamp()):
            [r["n"], r["sum_value"]]
        for r in out
    }
    assert got == expect
    with pytest.raises(ValueError):
        hopping_aggregate(ds, "ts", 3600, 1000, ["g"], "v")


def test_hopping_windows_pre_epoch(ray_session):
    """Pre-1970 (negative epoch) events must land in the windows that
    CONTAIN them — trunc-toward-zero division used to assign t=-10s to
    window [0, 60) and miss [-60, 0)."""
    import ray.data

    from jitsu_ray.ops.window import hopping_aggregate

    secs = [-10, -70, 5]
    tbl = pa.table(
        {
            "ts": pa.array([s * 1_000_000 for s in secs], pa.timestamp("us")),
            "g": pa.array(["a"] * len(secs)),
            "v": pa.array([1, 2, 4], pa.int64()),
        }
    )
    out = hopping_aggregate(
        ray.data.from_arrow(tbl), "ts", 60, 30, ["g"], "v"
    ).take_all()
    from datetime import timezone

    for r in out:
        start = int(r["window_start"].replace(tzinfo=timezone.utc).timestamp())
        members = [s for s in secs if start <= s < start + 60]
        assert r["n"] == len(members) and r["sum_value"] == sum(
            {-10: 1, -70: 2, 5: 4}[s] for s in members
        ), (start, members)
    # every event appears in exactly width//step = 2 windows
    assert sum(r["n"] for r in out) == 2 * len(secs)


def test_funnel_steps_no_matching_events(ray_session):
    """Contract: ONE all-zero row even when no event matches any step
    (the shard filter used to empty the dataset and emit nothing)."""
    import ray.data

    from jitsu_ray.ops.window import funnel_steps

    tbl = pa.table(
        {
            "u": pa.array(["x", "y"]),
            "t": pa.array([1_000_000, 2_000_000], pa.timestamp("us")),
            "ev": pa.array(["view", "click"]),
        }
    )
    out = funnel_steps(
        ray.data.from_arrow(tbl), "u", "t", "ev", ["absent1", "absent2"]
    ).take_all()
    assert out == [{"n_step1": 0, "n_step2": 0}]


def test_write_routed_fanout_resumable(ray_session, tmp_path):
    import ray.data

    from jitsu_ray.sinks.files import write_routed
    from jitsu_ray.stages.router import route_stage

    tbl = pa.table({"lang": pa.array(["py", "go", "py"]), "v": pa.array([1, 2, 3])})
    ds = ray.data.from_arrow(tbl).map_batches(
        route_stage("{lang}_events"), batch_format="pyarrow"
    )
    base = str(tmp_path / "out")
    counts = write_routed(ds, base)
    assert counts == {"go_events": 1, "py_events": 2}
    got = pq.read_table(os.path.join(base, "py_events"))
    assert sorted(got["v"].to_pylist()) == [1, 3] and "__table" not in got.column_names
    # rerun skips completed tables (resumable layout)
    counts2 = write_routed(ds, base)
    assert counts2 == {"go_events": -1, "py_events": -1}

    # an explicitly-requested table no event routed to completes with 0
    # rows (a zero-block filter result has no schema to write from)
    base2 = str(tmp_path / "out2")
    counts3 = write_routed(ds, base2, tables=["py_events", "rs_events"], fmt="csv")
    assert counts3 == {"py_events": 2, "rs_events": 0}
    assert os.path.exists(os.path.join(base2, "rs_events", "_SUCCESS"))


def test_multi_destination_ingest(ray_session, tmp_path):
    from jitsu_ray.pipelines.ingest import Destination, ingest
    from jitsu_ray.sources.readers import read_ndjson_events

    p = tmp_path / "in.log"
    p.write_text(
        '{"lang": "py", "user": {"id": 1}, "secret": "x", "n": 1}\n'
        '{"lang": "go", "user": {"id": 2}, "secret": "y", "n": 2}\n'
        "garbage\n"
    )
    ds = read_ndjson_events(str(p))
    report = ingest(
        ds,
        [
            Destination(
                name="warehouse",
                path=str(tmp_path / "wh"),
                mapping=[
                    {"action": "move", "src": "/user/id", "dst": "/uid"},
                    {"action": "remove", "src": "/secret"},
                ],
                router="{lang}_events",
            ),
            Destination(
                name="archive",
                path=str(tmp_path / "arch"),
                router="all",
            ),
        ],
        failed_dir=str(tmp_path / "failed"),
    )
    assert report["dead_letters"] == 1
    assert report["warehouse"]["tables"] == {"go_events": 1, "py_events": 1}
    assert report["archive"]["tables"] == {"all": 2}
    wh = pq.read_table(os.path.join(tmp_path, "wh", "py_events"))
    assert "secret" not in wh.column_names and wh["uid"].to_pylist() == [1]
    ar = pq.read_table(os.path.join(tmp_path, "arch", "all"))
    assert "secret" in ar.column_names  # archive kept everything


def test_sink_retry_then_success(ray_session, tmp_path):
    import pyarrow as pa
    import ray
    import ray.data

    from jitsu_ray.sinks.retry import TransientSinkError, sink_with_retry

    @ray.remote
    class Chaos:
        def __init__(self):
            self.calls = 0

        def next_call(self):
            self.calls += 1
            return self.calls

    chaos = Chaos.remote()

    def flaky_write(batch, _chaos=chaos):
        n = ray.get(_chaos.next_call.remote())
        if n <= 2:  # first two attempts fail transiently, then succeed
            raise TransientSinkError(f"simulated timeout #{n}")

    ds = ray.data.from_items([{"x": i} for i in range(10)]).repartition(1)
    report = sink_with_retry(
        ds, flaky_write, failed_dir=str(tmp_path / "failed"),
        max_attempts=5, backoff_sec=0.01, concurrency=1, batch_size=10,
    )
    assert report["dead"] == 0 and report["written"] == 10
    assert report["max_attempts_seen"] == 3  # two transient failures + success
    assert not (tmp_path / "failed").exists() or not list((tmp_path / "failed").glob("*.parquet"))


def test_sink_retry_exhausted_dead_letters(ray_session, tmp_path):
    import ray.data

    from jitsu_ray.sinks.retry import (
        PermanentSinkError,
        TransientSinkError,
        sink_with_retry,
    )

    def always_fail(batch):
        raise TransientSinkError("still down")

    ds = ray.data.from_items([{"x": i} for i in range(6)]).repartition(1)
    report = sink_with_retry(
        ds, always_fail, failed_dir=str(tmp_path / "failed"),
        max_attempts=3, backoff_sec=0.01, concurrency=1, batch_size=6,
    )
    assert report["written"] == 0 and report["dead"] == 6
    assert report["max_attempts_seen"] == 3  # retried to the cap
    failed = ray.data.read_parquet(str(tmp_path / "failed")).take_all()
    assert len(failed) == 6 and "still down" in failed[0]["__error"]

    # permanent errors skip the retry loop entirely
    def permanent(batch):
        raise PermanentSinkError("schema violation")

    report2 = sink_with_retry(
        ds, permanent, failed_dir=str(tmp_path / "failed2"),
        max_attempts=5, backoff_sec=0.01, concurrency=1, batch_size=6,
    )
    assert report2["dead"] == 6 and report2["max_attempts_seen"] == 1


def test_sync_signatures_skip_and_refresh(tmp_path):
    """S6 pull-driver framework: closed intervals freeze (UPTODATE on
    re-run), recent intervals refresh until a day past their end, ALL
    always refreshes, and two sources keep independent bookkeeping."""
    from datetime import datetime

    from jitsu_ray.pipelines.sync import Collection, sync_collections
    from jitsu_ray.state.signatures import ALL, DAY, SignatureStore, TimeInterval

    store = SignatureStore(str(tmp_path / "sigs"))
    now = datetime(2024, 6, 10, 12, 0, 0)
    closed = TimeInterval(DAY, datetime(2024, 6, 1))   # ended 9 days ago
    recent = TimeInterval(DAY, datetime(2024, 6, 10))  # still open
    catch_all = TimeInterval(ALL)
    calls: list[tuple[str, str]] = []

    def make(source):
        return Collection(
            source=source, name="orders", table="orders_t",
            intervals=lambda: [closed, recent, catch_all],
            loader=lambda iv, _s=source: f"ds::{_s}::{iv.key()}",
        )

    def sink(ds, col, iv):
        calls.append((col.source, iv.key()))

    r1 = sync_collections([make("s1"), make("s2")], store, sink, now=now)
    assert r1["synced"] == 6 and r1["skipped"] == 0  # everything NEW

    calls.clear()
    r2 = sync_collections([make("s1"), make("s2")], store, sink, now=now)
    # closed interval frozen; recent (sig = now-1d, still moving window)
    # refreshes only when the signature changed — same `now` => same sig
    assert ("s1", closed.key()) not in calls
    assert ("s1", ALL) in calls and ("s2", ALL) in calls  # ALL always re-syncs
    assert r2["skipped"] >= 2

    # advance time: the recent interval's signature moves -> REFRESH
    calls.clear()
    later = datetime(2024, 6, 10, 18, 0, 0)
    sync_collections([make("s1")], store, sink, now=later)
    assert ("s1", recent.key()) in calls
    assert ("s1", closed.key()) not in calls  # still frozen

    # clear() forces a full re-sync of one source only
    store.clear("s1")
    calls.clear()
    sync_collections([make("s1"), make("s2")], store, sink, now=later)
    assert ("s1", closed.key()) in calls and ("s2", closed.key()) not in calls


def test_run_scheduler_fake_clock(tmp_path):
    """Recurring sync loop (task_executor.go:65-119 analog) under a
    FAKE CLOCK: tick 1 syncs every interval NEW; tick 2 (one period
    later) skips the closed DAY interval UPTODATE by stored signature
    and re-syncs only the catch-all; a collection whose previous run is
    still in flight is mutually excluded (counted busy, never
    overlapped); a failing collection is recorded and does not kill the
    loop."""
    import threading
    from datetime import datetime, timedelta

    from jitsu_ray.pipelines.sync import Collection, run_scheduler
    from jitsu_ray.state.signatures import ALL, DAY, SignatureStore, TimeInterval

    store = SignatureStore(str(tmp_path / "sigs"))
    t0 = datetime(2024, 6, 10, 12, 0, 0)
    fake = {"now": t0}
    closed = TimeInterval(DAY, datetime(2024, 6, 1))
    catch_all = TimeInterval(ALL)
    calls: list[tuple[str, str, datetime]] = []

    def clock():
        return fake["now"]

    def sleep(sec):
        import time

        time.sleep(0.05)  # yield so pool threads actually run
        fake["now"] = fake["now"] + timedelta(seconds=max(sec, 30))

    def sink(ds, col, iv):
        calls.append((col.source, iv.key(), fake["now"]))

    col = Collection(
        source="s1", name="orders", table="t",
        intervals=lambda: [closed, catch_all],
        loader=lambda iv: f"ds::{iv.key()}",
    )
    out = run_scheduler(
        [(col, timedelta(seconds=60))], store, sink,
        max_ticks=4, clock=clock, sleep=sleep, max_workers=2,
    )
    # 4 ticks at >=30s steps, 60s period => at least 2 runs
    assert out["runs"] >= 2 and out["errors"] == []
    day_syncs = [c for c in calls if c[1] == closed.key()]
    all_syncs = [c for c in calls if c[1] == ALL]
    assert len(day_syncs) == 1  # NEW once, then UPTODATE by signature
    assert len(all_syncs) == out["runs"]  # catch-all refreshes every run
    assert out["skipped"] == out["runs"] - 1

    # mutual exclusion: a held run is never overlapped by its next due
    gate = threading.Event()
    started = threading.Event()

    def slow_loader(iv):
        started.set()
        gate.wait(10)
        return "ds"

    slow = Collection(
        source="s2", name="slow", table="t",
        intervals=lambda: [catch_all], loader=slow_loader,
    )

    def sink2(ds, col, iv):
        pass

    def stop():
        if started.is_set() and stop.ticks > 2:
            gate.set()
        stop.ticks += 1
        return stop.ticks > 6

    stop.ticks = 0
    out2 = run_scheduler(
        [(slow, timedelta(seconds=1))], store, sink2,
        stop=stop, clock=clock, sleep=sleep, max_workers=2,
    )
    assert out2["busy"] >= 1 and out2["errors"] == []

    # a failing collection is recorded, loop completes its ticks
    boom = Collection(
        source="s3", name="boom", table="t",
        intervals=lambda: [catch_all],
        loader=lambda iv: (_ for _ in ()).throw(RuntimeError("source down")),
    )
    out3 = run_scheduler(
        [(boom, timedelta(seconds=60))], store, sink2,
        max_ticks=2, clock=clock, sleep=sleep,
    )
    assert out3["ticks"] == 2
    assert any("source down" in e for _, e in out3["errors"])

    # zero enabled collections: clean no-op, not min()-of-empty crash
    empty = run_scheduler([], store, sink2, max_ticks=3, clock=clock, sleep=sleep)
    assert empty == {"ticks": 0, "runs": 0, "synced": 0, "skipped": 0,
                     "busy": 0, "errors": [], "detail": {}}


class _StubHandler:
    """Factory for a local stub HTTP server recording requests."""

    @staticmethod
    def make(record, fail_first_n=0, fail_code=500):
        import http.server

        state = {"calls": 0}

        class H(http.server.BaseHTTPRequestHandler):
            def log_message(self, *a):
                pass

            def _respond(self):
                state["calls"] += 1
                if state["calls"] <= fail_first_n:
                    self.send_response(fail_code)
                    self.end_headers()
                    return
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length) if length else b""
                record.append((self.command, self.path, body))
                self.send_response(200)
                self.end_headers()

            do_GET = _respond
            do_POST = _respond

        return H


def _serve(handler):
    import http.server
    import threading

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    return srv, f"http://127.0.0.1:{srv.server_address[1]}"


def test_ga_egress_params_and_rate(ray_session):
    import ray.data
    import urllib.parse

    from jitsu_ray.sinks.egress import GoogleAnalyticsEgress, egress_with_retry

    record = []
    srv, base = _serve(_StubHandler.make(record))
    try:
        ds = ray.data.from_items(
            [{"cid": str(i), "t": "conversion", "dp": f"/page{i}"} for i in range(5)]
        )
        stage = GoogleAnalyticsEgress(base, tracking_id="UA-1", rate_per_sec=1000)
        report = egress_with_retry(ds, stage, batch_size=5)
        assert report["dead"] == 0 and report["written"] == 5
        assert len(record) == 5
        q = urllib.parse.parse_qs(urllib.parse.urlparse(record[0][1]).query)
        assert q["tid"] == ["UA-1"] and q["v"] == ["1"]
        assert q["t"] == ["transaction"]  # conversion -> transaction mapping
    finally:
        srv.shutdown()


def test_fb_egress_hashing_and_retry(ray_session, tmp_path):
    import json as _json

    import ray.data

    from jitsu_ray.sinks.egress import FacebookConversionEgress, egress_with_retry

    record = []
    srv, base = _serve(_StubHandler.make(record, fail_first_n=2, fail_code=503))
    try:
        ds = ray.data.from_items(
            [
                {
                    "event_name": "conversion",
                    "_timestamp": 1700000000,
                    "user_data": {"em": "User@Example.COM ", "ph": None, "id": "u1"},
                }
            ]
        )
        stage = FacebookConversionEgress(base, pixel_id="PX1", rate_per_sec=1000)
        report = egress_with_retry(
            ds, stage, failed_dir=str(tmp_path / "failed"),
            max_attempts=5, backoff_sec=0.01, batch_size=16,
        )
        # two 503s then success: transient retry path
        assert report["dead"] == 0 and report["max_attempts_seen"] == 3
        body = _json.loads(record[0][2])
        ev = body["data"][0]
        assert ev["event_name"] == "Purchase" and ev["event_time"] == 1700000000
        assert ev["action_source"] == "website"
        import hashlib

        assert ev["user_data"]["em"] == hashlib.sha256(b"user@example.com").hexdigest()
        assert ev["user_data"]["id"] == "u1"  # non-PII untouched
        assert record[0][1].endswith("/PX1/events")
    finally:
        srv.shutdown()


def test_fb_egress_permanent_error_dead_letters(ray_session, tmp_path):
    import ray.data

    from jitsu_ray.sinks.egress import FacebookConversionEgress, egress_with_retry

    record = []
    srv, base = _serve(_StubHandler.make(record, fail_first_n=99, fail_code=400))
    try:
        ds = ray.data.from_items(
            [{"event_name": "x", "_timestamp": 1700000000}]
        )
        stage = FacebookConversionEgress(base, pixel_id="PX1", rate_per_sec=1000)
        report = egress_with_retry(
            ds, stage, failed_dir=str(tmp_path / "failed"),
            max_attempts=5, backoff_sec=0.01, batch_size=16,
        )
        assert report["dead"] == 1
        assert report["max_attempts_seen"] == 1  # 4xx = permanent, no retries
    finally:
        srv.shutdown()


def test_singer_bridge_file(ray_session, tmp_path):
    """S7: SCHEMA/RECORD/STATE protocol parse — per-stream Datasets,
    schema-driven casts, last STATE wins."""
    import json as _json

    from jitsu_ray.sources.singer import read_singer_output

    lines = [
        {"type": "SCHEMA", "stream": "users",
         "schema": {"properties": {"id": {"type": "integer"}, "name": {"type": "string"},
                    "balance": {"type": "number"}}},
         "key_properties": ["id"]},
        {"type": "RECORD", "stream": "users", "record": {"id": 1, "name": "a", "balance": 1.5}},
        {"type": "STATE", "value": {"bookmarks": {"users": 1}}},
        {"type": "SCHEMA", "stream": "orders",
         "schema": {"properties": {"order_id": {"type": ["null", "integer"]}}},
         "key_properties": ["order_id"]},
        {"type": "RECORD", "stream": "orders", "record": {"order_id": 10}},
        {"type": "RECORD", "stream": "users", "record": {"id": 2, "name": "b", "balance": 2.0}},
        {"type": "STATE", "value": {"bookmarks": {"users": 2, "orders": 10}}},
    ]
    p = tmp_path / "tap.ndjson"
    p.write_text("\n".join(_json.dumps(x) for x in lines) + "\n")
    out = read_singer_output([str(p)])
    assert set(out.streams) == {"users", "orders"}
    assert out.key_properties["users"] == ["id"]
    users = sorted(out.streams["users"].take_all(), key=lambda r: r["id"])
    assert [r["id"] for r in users] == [1, 2]
    assert isinstance(users[0]["balance"], float)
    orders = out.streams["orders"].take_all()
    assert orders[0]["order_id"] == 10
    assert out.state == {"bookmarks": {"users": 2, "orders": 10}}  # last STATE


def test_singer_bridge_subprocess(ray_session, tmp_path):
    """S7: live tap subprocess (a tiny Python tap emitting the
    protocol), state round-trip via --state."""
    import sys

    from jitsu_ray.sources.singer import run_tap

    tap = tmp_path / "fake_tap.py"
    tap.write_text(
        "import json, sys, argparse\n"
        "p = argparse.ArgumentParser(); p.add_argument('--state'); p.add_argument('--config')\n"
        "a = p.parse_args()\n"
        "start = 0\n"
        "if a.state:\n"
        "    start = json.load(open(a.state)).get('last', 0)\n"
        "print(json.dumps({'type': 'SCHEMA', 'stream': 's', 'schema': {'properties': {'n': {'type': 'integer'}}}, 'key_properties': ['n']}))\n"
        "for i in range(start, start + 3):\n"
        "    print(json.dumps({'type': 'RECORD', 'stream': 's', 'record': {'n': i}}))\n"
        "print(json.dumps({'type': 'STATE', 'value': {'last': start + 3}}))\n"
    )
    out1 = run_tap([sys.executable, str(tap)])
    assert sorted(r["n"] for r in out1.streams["s"].take_all()) == [0, 1, 2]
    assert out1.state == {"last": 3}
    out2 = run_tap([sys.executable, str(tap)], state=out1.state)
    assert sorted(r["n"] for r in out2.streams["s"].take_all()) == [3, 4, 5]
    assert out2.state == {"last": 6}


def test_sync_to_lake_refresh_roundtrip(ray_session, tmp_path):
    """S6 + D2 integration: two interval-synced collections feed one
    lake via refresh-replace; a re-sync of a changed interval replaces
    exactly that interval's rows."""
    from datetime import datetime

    import pyarrow as pa
    import ray.data

    from jitsu_ray.pipelines.sync import Collection, sync_collections
    from jitsu_ray.sinks.lake import LakeTable
    from jitsu_ray.state.signatures import DAY, SignatureStore, TimeInterval

    store = SignatureStore(str(tmp_path / "sigs"))
    lake = LakeTable.create(str(tmp_path / "lake"), ["k"], 4)
    seq = {"n": 0}
    data_version = {"v": 1}

    def loader(iv):
        day = iv.time.day
        rows = [
            {"k": f"{day}_{i}", "payload": f"v{data_version['v']}_{day}_{i}"}
            for i in range(3)
        ]
        return rows, day

    def sink(payload, col, iv):
        rows, day = payload
        lo = seq["n"]
        # refresh-replace: tombstone the interval's old keys, re-insert
        import pyarrow.compute as pc

        if lake.ledger.last_committed_hi() > 0:
            lake.delete_where(
                lambda b, _d=f"{day}_": pc.starts_with(b["k"], _d),
                commit_seq=lo + 1,
            )
            lo += 1
        tbl = pa.table(
            {
                "commit_seq": pa.array(range(lo + 1, lo + 1 + len(rows)), pa.int64()),
                "op": pa.array(["insert"] * len(rows), pa.string()),
                "k": pa.array([r["k"] for r in rows], pa.string()),
                "payload": pa.array([r["payload"] for r in rows], pa.string()),
            }
        )
        lake.apply_window(ray.data.from_arrow(tbl), lo, lo + 1 + len(rows))
        seq["n"] = lo + 1 + len(rows)

    # day 1 is FROZEN at `now` (one full day past its upper endpoint —
    # the reference's 1d signature lag); day 3 is still refreshing
    col = Collection(
        source="s1", name="days", table="d",
        intervals=lambda: [TimeInterval(DAY, datetime(2024, 6, 1)),
                           TimeInterval(DAY, datetime(2024, 6, 3))],
        loader=loader,
    )
    now = datetime(2024, 6, 4, 6, 0, 0)
    sync_collections([col], store, sink, now=now)
    rows = {r["k"]: r["payload"] for r in lake.read().take_all()}
    assert len(rows) == 6 and rows["1_0"] == "v1_1_0"

    # day 3 is still open (within 1d lag): its data changes, re-sync
    # replaces ONLY day-3 rows
    data_version["v"] = 2
    later = datetime(2024, 6, 4, 12, 0, 0)
    sync_collections([col], store, sink, now=later)
    rows = {r2["k"]: r2["payload"] for r2 in lake.read().take_all()}
    assert rows["3_0"] == "v2_3_0"  # refreshed interval re-loaded
    assert rows["1_0"] == "v1_1_0"  # closed interval untouched
    assert len(rows) == 6


def test_bucket_join_right_pre_join_hook(ray_session):
    """Fused aggregate-then-join: per-bucket right-side transform sees
    every row of its keys (bucketing by key guarantees it)."""
    import pyarrow as pa
    import ray.data

    import polars as pl

    from jitsu_ray.ops.join import bucket_hash_join

    left = ray.data.from_items([{"k": i, "name": f"n{i}"} for i in range(10)])
    right = ray.data.from_items(
        [{"rk": i % 10, "v": i} for i in range(100)]
    ).repartition(7)

    def agg(rg: pa.Table) -> pa.Table:
        df = pl.from_arrow(rg)
        return df.group_by("rk").agg(pl.col("v").sum()).to_arrow().cast(rg.schema)

    out = bucket_hash_join(left, right, "k", "rk", num_buckets=4, right_pre_join=agg)
    rows = {r["k"]: r["v"] for r in out.take_all()}
    expect = {k: sum(i for i in range(100) if i % 10 == k) for k in range(10)}
    assert rows == expect


def test_user_recognition_join_fallback(ray_session):
    # broadcast_limit_bytes=0 forces the bucket_hash_join path; result
    # must be identical to the broadcast path (round-2 verdict #3)
    import ray.data

    from jitsu_ray.pipelines.recognition import recognize_users

    tbl = pa.table(
        {
            "anon": pa.array(["a1", "a1", "a2", "a3", None]),
            "user": pa.array([None, 7, None, None, 9], pa.int64()),
            "v": pa.array([1, 2, 3, 4, 5]),
        }
    )
    ds = ray.data.from_arrow(tbl)
    out = {
        r["v"]: r["user"]
        for r in recognize_users(ds, "anon", "user", broadcast_limit_bytes=0).take_all()
    }
    assert out == {1: 7, 2: 7, 3: None, 4: None, 5: 9}


def test_http_pull_source_paginates(ray_session):
    # S6 concrete driver: offset pagination with parallel page tasks must
    # reassemble exactly the interval's rows, once each
    import http.server
    import json as _json
    import threading
    import urllib.parse as _up
    from datetime import datetime

    from jitsu_ray.sources.http_pull import HttpPullSource
    from jitsu_ray.state.signatures import DAY, TimeInterval

    rows = [{"id": i, "day": 1 + i % 3} for i in range(137)]
    seen_params = []

    class H(http.server.BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def do_GET(self):
            q = dict(_up.parse_qsl(_up.urlparse(self.path).query))
            seen_params.append(q)
            day = datetime.fromisoformat(q["start"]).day
            sel = [r for r in rows if r["day"] == day]
            off, lim = int(q["offset"]), int(q["limit"])
            body = _json.dumps({"rows": sel[off : off + lim], "total": len(sel)}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), H)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        base = f"http://127.0.0.1:{srv.server_address[1]}"
        schema = pa.schema([("id", pa.int64()), ("day", pa.int64())])
        src = HttpPullSource(
            base, "/c", page_size=10,
            to_table=lambda rs: pa.Table.from_pylist(rs, schema=schema),
        )
        iv = TimeInterval(DAY, datetime(2024, 1, 2))
        got = sorted(r["id"] for r in src.objects_for(iv).take_all())
        want = sorted(r["id"] for r in rows if r["day"] == 2)
        assert got == want and len(got) > 10  # really paginated
        # every request carried the interval bounds
        assert all("start" in q and "end" in q for q in seen_params)
        assert any(int(q["offset"]) > 0 for q in seen_params)
    finally:
        srv.shutdown()


def test_retry_high_water_no_duplicate_row_delivery(ray_session, tmp_path):
    # round-2 ADVICE: a row-wise sink retrying a batch must resume from
    # the first unsent row, and rows delivered before a permanent
    # failure must not land in the dead letter
    import http.server
    import threading
    import urllib.parse as _up

    from jitsu_ray.sinks.egress import GoogleAnalyticsEgress
    from jitsu_ray.sinks.retry import sink_with_retry

    delivered = []
    state = {"flaky_done": False}

    class H(http.server.BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def do_GET(self):
            q = dict(_up.parse_qsl(_up.urlparse(self.path).query))
            cid = q.get("cid")
            if cid == "2" and not state["flaky_done"]:
                state["flaky_done"] = True  # one transient 500, then ok
                self.send_response(500)
                self.end_headers()
                return
            if cid == "3":
                self.send_response(400)  # permanent
                self.end_headers()
                return
            delivered.append(cid)
            self.send_response(200)
            self.end_headers()

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), H)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        import ray.data

        base = f"http://127.0.0.1:{srv.server_address[1]}"
        ds = ray.data.from_arrow(
            pa.table({"cid": pa.array([str(i) for i in range(5)])})
        )
        stage = GoogleAnalyticsEgress(base, tracking_id="UA-1", rate_per_sec=10_000)
        res = sink_with_retry(
            ds, stage.write_batch, failed_dir=str(tmp_path / "dead"),
            max_attempts=3, backoff_sec=0.01, concurrency=1,
        )
        # rows 0,1 delivered exactly once (no duplicate on the retry);
        # row 2 delivered once after its transient 500; row 3 permanent
        # -> rows 3,4 dead, rows 0-2 written
        assert sorted(delivered) == ["0", "1", "2"]
        assert res["written"] == 3 and res["dead"] == 2
    finally:
        srv.shutdown()


def test_write_routed_csv_marshaller(ray_session, tmp_path):
    # K6 CSV half: ||-delimited, JSON-escaped values, string quotes
    # stripped, nulls empty, header line (marshaller.go:33-57)
    import ray.data

    from jitsu_ray.sinks.files import write_routed

    tbl = pa.table(
        {
            "__table": pa.array(["t1", "t1"]),
            "a": pa.array(['he said "hi"', "plain"]),
            "b": pa.array([7, None], pa.int64()),
            "c": pa.array([1.5, 2.0], pa.float64()),
        }
    )
    counts = write_routed(ray.data.from_arrow(tbl), str(tmp_path), fmt="csv")
    assert counts == {"t1": 2}
    files = [f for f in os.listdir(tmp_path / "t1") if f.endswith(".csv")]
    lines = []
    for f in files:
        with open(tmp_path / "t1" / f) as fh:
            content = fh.read().splitlines()
        assert content[0] == "a||b||c"
        lines += content[1:]
    assert sorted(lines) == sorted(['he said \\"hi\\"||7||1.5', "plain||||2.0"])


def test_events_cache_ring_and_sink_wiring(ray_session, tmp_path):
    # T6: capped last-N per destination; sink reports succeed/error
    import ray
    import ray.data

    from jitsu_ray.sinks.retry import PermanentSinkError, sink_with_retry
    from jitsu_ray.state.events_cache import EventsCacheActor, observe_stage

    cache = EventsCacheActor.remote(capacity_per_destination=5)
    # ring semantics: 8 puts into cap-5 ring keeps the newest 5
    ray.get(cache.put_many.remote("d1", list(range(8)), [{"v": i} for i in range(8)]))
    recent = ray.get(cache.get_n.remote("d1", 10))
    assert [r["event_id"] for r in recent] == ["7", "6", "5", "4", "3"]
    assert ray.get(cache.get_total.remote("d1")) == 5

    # sink wiring: rows observed pre-sink, then ok/error status per batch
    tbl = pa.table({"eid": pa.array(["a", "b", "c"]), "v": pa.array([1, 2, 3])})
    ds = ray.data.from_arrow(tbl).map_batches(
        observe_stage(cache, "dest2", "eid"), batch_format="pyarrow"
    )

    def failing_sink(batch):
        raise PermanentSinkError("nope")

    res = sink_with_retry(
        ds, failing_sink, failed_dir=str(tmp_path / "dead"), concurrency=1,
        events_cache=cache, cache_dest="dest2", cache_id_col="eid",
    )
    assert res["dead"] == 3
    entries = {r["event_id"]: r for r in ray.get(cache.get_n.remote("dest2", 10))}
    assert set(entries) == {"a", "b", "c"}
    assert all(r["status"] == "error" and "nope" in r["error"] for r in entries.values())
    assert all("raw" in r for r in entries.values())  # original event kept


def test_user_recognition_empty_identity_map(ray_session):
    # round-3 review: no identify events -> empty map must pass rows
    # through unchanged, not crash on a null-typed value set
    import ray.data

    from jitsu_ray.pipelines.recognition import recognize_users

    tbl = pa.table(
        {
            "anon": pa.array(["a1", "a2"]),
            "user": pa.array([None, None], pa.int64()),
        }
    )
    out = recognize_users(ray.data.from_arrow(tbl), "anon", "user").take_all()
    assert [r["user"] for r in out] == [None, None]


def test_http_pull_source_without_total_walks_pages(ray_session):
    # round-3 review: endpoints that omit 'total' must page-walk to the
    # end, not silently truncate to page 0
    import http.server
    import json as _json
    import threading
    import urllib.parse as _up
    from datetime import datetime

    from jitsu_ray.sources.http_pull import HttpPullSource
    from jitsu_ray.state.signatures import DAY, TimeInterval

    rows = [{"id": i} for i in range(37)]

    class H(http.server.BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def do_GET(self):
            q = dict(_up.parse_qsl(_up.urlparse(self.path).query))
            off, lim = int(q["offset"]), int(q["limit"])
            body = _json.dumps({"rows": rows[off : off + lim]}).encode()  # no total
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), H)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        base = f"http://127.0.0.1:{srv.server_address[1]}"
        src = HttpPullSource(
            base, "/c", page_size=10,
            to_table=lambda rs: pa.Table.from_pylist(
                rs, schema=pa.schema([("id", pa.int64())])
            ),
        )
        got = sorted(
            r["id"]
            for r in src.objects_for(TimeInterval(DAY, datetime(2024, 1, 1))).take_all()
        )
        assert got == list(range(37))
    finally:
        srv.shutdown()


def test_bucket_asof_join_semantics(ray_session):
    # backward as-of: greatest right ts <= left ts per key; equality
    # included; unmatched -> null; stable across partitionings
    import ray.data

    from jitsu_ray.ops.join import bucket_asof_join

    left = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 3], pa.int64()),
            "lts": pa.array([10, 20, 25, 5, 7], pa.int64()),
            "lid": pa.array([0, 1, 2, 3, 4], pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 1, 1, 2], pa.int64()),
            "rts": pa.array([5, 20, 30, 9], pa.int64()),
            "val": pa.array([100, 200, 300, 400], pa.int64()),
        }
    )
    for parts in (1, 3):
        lds = ray.data.from_arrow(left).repartition(parts)
        rds = ray.data.from_arrow(right).repartition(parts)
        out = bucket_asof_join(lds, rds, "k", "lts", "rts", num_buckets=4).take_all()
        got = {r["lid"]: r["val"] for r in out}
        # lid0: ts10 -> rts5 (100); lid1: ts20 -> rts20 equality (200);
        # lid2: ts25 -> rts20 (200); lid3: ts5 < rts9 -> null; lid4: no key 3 -> null
        assert got == {0: 100, 1: 200, 2: 200, 3: None, 4: None}


def test_ordered_window_fns_matches_sql(ray_session):
    import duckdb
    import ray.data

    from jitsu_ray.ops.window import ordered_window_fns

    # duplicate keys, tied order values broken by a unique id, and a
    # singleton key; shard/block boundaries must not change results
    tbl = pa.table(
        {
            "k": pa.array(["a", "a", "a", "b", "b", "c"]),
            "t": pa.array([5, 5, 1, 9, 2, 4], pa.int64()),
            "i": pa.array([1, 0, 2, 3, 4, 5], pa.int64()),
            "v": pa.array([10, 20, 30, 40, 50, 60], pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    exp = sorted(
        con.sql(
            """SELECT k, t, i, v,
                      row_number() OVER w AS rn,
                      sum(v) OVER w AS running_value
               FROM t
               WINDOW w AS (PARTITION BY k ORDER BY t, i
                            ROWS UNBOUNDED PRECEDING)"""
        ).fetchall()
    )
    for parts, shards in [(1, 1), (3, 4)]:
        ds = ray.data.from_arrow(tbl).repartition(parts)
        out = ordered_window_fns(ds, "k", ["t", "i"], "v", num_shards=shards)
        got = sorted(
            (r["k"], r["t"], r["i"], r["v"], r["rn"], r["running_value"])
            for r in out.take_all()
        )
        assert got == exp, (parts, shards)


def test_ordered_window_fns_lag_lead_rank(ray_session):
    import duckdb
    import ray.data

    from jitsu_ray.ops.window import ordered_window_fns

    # tied order values (t=5 twice in key a, tie broken by i) exercise
    # rank vs dense_rank vs rn divergence; lag/lead hit key boundaries
    tbl = pa.table(
        {
            "k": pa.array(["a", "a", "a", "b", "b", "c"]),
            "t": pa.array([5, 5, 1, 9, 2, 4], pa.int64()),
            "i": pa.array([1, 0, 2, 3, 4, 5], pa.int64()),
            "v": pa.array([10, 20, 30, 40, 50, 60], pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    exp = sorted(
        con.sql(
            """SELECT k, t, i, v,
                      lag(v) OVER w AS lag_value,
                      lead(v) OVER w AS lead_value,
                      CAST(rank() OVER (PARTITION BY k ORDER BY t) AS BIGINT),
                      CAST(dense_rank() OVER (PARTITION BY k ORDER BY t) AS BIGINT)
               FROM t
               WINDOW w AS (PARTITION BY k ORDER BY t, i)"""
        ).fetchall()
    )
    ds = ray.data.from_arrow(tbl).repartition(3)
    # lag/lead need the full (t, i) total order; rank/dense_rank are
    # checked over t alone so ties actually share a rank
    out = ordered_window_fns(
        ds, "k", ["t", "i"], "v", num_shards=4,
        fns=("lag_value", "lead_value"),
    ).take_all()
    got_ll = sorted(
        (r["k"], r["t"], r["i"], r["v"], r["lag_value"], r["lead_value"])
        for r in out
    )
    assert got_ll == [e[:6] for e in exp]
    out2 = ordered_window_fns(
        ds, "k", ["t"], "v", num_shards=4, fns=("rank", "dense_rank")
    ).take_all()
    got_r = sorted(
        (r["k"], r["t"], r["v"], r["rank"], r["dense_rank"]) for r in out2
    )
    exp_r = sorted((e[0], e[1], e[3], e[6], e[7]) for e in exp)
    assert got_r == exp_r
    with pytest.raises(ValueError):
        ordered_window_fns(ds, "k", ["t"], "v", fns=("nope",))


def test_unpivot_matches_sql(ray_session):
    import duckdb
    import ray.data

    from jitsu_ray.ops.pivot import unpivot

    tbl = pa.table(
        {
            "id": pa.array([1, 2, 3], pa.int64()),
            "x": pa.array([1.0, None, 3.0]),
            "y": pa.array([None, 5.0, 6.0]),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    exp = sorted(
        con.sql(
            "SELECT id, measure, value FROM "
            "(UNPIVOT t ON x, y INTO NAME measure VALUE value)"
        ).fetchall()
    )
    out = unpivot(
        ray.data.from_arrow(tbl).repartition(2), ["id"], ["x", "y"]
    ).take_all()
    assert sorted((r["id"], r["measure"], r["value"]) for r in out) == exp
    with pytest.raises(ValueError):
        unpivot(ray.data.from_arrow(tbl), ["id"], [])
    with pytest.raises(ValueError):
        unpivot(ray.data.from_arrow(tbl), [], ["id", "x"])  # mixed types


def test_pivot_aggregate_matches_sql(ray_session):
    import duckdb
    import ray.data

    from jitsu_ray.ops.pivot import pivot_aggregate

    tbl = pa.table(
        {
            "g": pa.array(["x", "x", "y", "y", "y", "z"]),
            "cat": pa.array(["A", "B", "A", "A", "C", "C"]),
            "v": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    exp = sorted(
        con.sql(
            """SELECT g,
                      count(*) FILTER (cat='A') AS n_a,
                      coalesce(sum(v) FILTER (cat='A'), 0) AS v_a,
                      count(*) FILTER (cat='B') AS n_b,
                      coalesce(sum(v) FILTER (cat='B'), 0) AS v_b,
                      count(*) FILTER (cat='C') AS n_c,
                      coalesce(sum(v) FILTER (cat='C'), 0) AS v_c
               FROM t GROUP BY g"""
        ).fetchall()
    )
    for parts in (1, 4):
        ds = ray.data.from_arrow(tbl).repartition(parts)
        # discovery path (categories=None) and explicit path must agree
        for cats in (None, ["A", "B", "C"]):
            out = pivot_aggregate(ds, ["g"], "cat", "v", categories=cats)
            got = sorted(
                (r["g"], r["n_a"], r["v_a"], r["n_b"], r["v_b"], r["n_c"], r["v_c"])
                for r in out.take_all()
            )
            assert got == exp, (parts, cats)
    # explicit subset: unlisted categories are ignored (SQL IN parity)
    out = pivot_aggregate(ray.data.from_arrow(tbl), ["g"], "cat", "v",
                          categories=["A"]).take_all()
    got = sorted((r["g"], r["n_a"], r["v_a"]) for r in out)
    assert got == [("x", 1, 1), ("y", 2, 7), ("z", 0, 0)]
    # category values that slug-collide are rejected, not silently merged
    bad = pa.table({"g": ["x"], "cat": ["A b"], "v": pa.array([1], pa.int64())})
    with pytest.raises(ValueError):
        pivot_aggregate(
            ray.data.from_arrow(bad), ["g"], "cat", "v", categories=["A b", "a_b"]
        )


def test_funnel_steps_matches_brute_force(ray_session):
    import ray.data

    from jitsu_ray.ops.window import funnel_steps

    # u1 completes all 3 in order; u2 clicks BEFORE viewing (click must
    # not count); u3 views only; u4 has purchase without click; u5 has
    # a click at exactly the view time (strict > excludes it)
    rows = [
        ("u1", 1, "view"), ("u1", 2, "click"), ("u1", 3, "purchase"),
        ("u2", 5, "click"), ("u2", 6, "view"), ("u2", 9, "purchase"),
        ("u3", 1, "view"),
        ("u4", 1, "view"), ("u4", 9, "purchase"),
        ("u5", 4, "view"), ("u5", 4, "click"),
        ("u6", 1, "other"),
    ]
    tbl = pa.table(
        {
            "u": pa.array([r[0] for r in rows]),
            "t": pa.array([r[1] for r in rows], pa.int64()),
            "ev": pa.array([r[2] for r in rows]),
        }
    )
    # u2's view at 6 has no later click -> step2 not reached; 5 viewers
    for parts, shards in [(1, 1), (4, 3)]:
        ds = ray.data.from_arrow(tbl).repartition(parts)
        out = funnel_steps(ds, "u", "t", "ev", ["view", "click", "purchase"],
                           num_shards=shards).take_all()
        assert len(out) == 1
        r = out[0]
        assert (r["n_step1"], r["n_step2"], r["n_step3"]) == (5, 1, 1), (parts, shards)

    # no step-1 events at all: one all-zero row, not an empty result
    none = funnel_steps(
        ray.data.from_arrow(tbl), "u", "t", "ev", ["absent", "click"]
    ).take_all()
    assert [(r["n_step1"], r["n_step2"]) for r in none] == [(0, 0)]

    with pytest.raises(ValueError):
        funnel_steps(ray.data.from_arrow(tbl), "u", "t", "ev", ["view"])


def test_funnel_steps_conversion_window(ray_session):
    import ray.data

    from jitsu_ray.ops.window import funnel_steps

    # u1 clicks 10 units after viewing (inside a 10 window, boundary
    # inclusive), u2 clicks 11 after (outside); u1's later click at 20
    # must NOT rescue a purchase chained off the early click's time
    rows = [
        ("u1", 0, "view"), ("u1", 10, "click"), ("u1", 25, "purchase"),
        ("u2", 0, "view"), ("u2", 11, "click"),
    ]
    tbl = pa.table(
        {
            "u": pa.array([r[0] for r in rows]),
            "t": pa.array([r[1] for r in rows], pa.int64()),
            "ev": pa.array([r[2] for r in rows]),
        }
    )
    out = funnel_steps(ray.data.from_arrow(tbl), "u", "t", "ev",
                       ["view", "click", "purchase"], within=10).take_all()
    r = out[0]
    # u1 reaches click at t=10; purchase at 25 is 15 > 10 after -> out
    assert (r["n_step1"], r["n_step2"], r["n_step3"]) == (2, 1, 0)
    out = funnel_steps(ray.data.from_arrow(tbl), "u", "t", "ev",
                       ["view", "click", "purchase"], within=15).take_all()
    r = out[0]
    # u2's click at 11 is now inside the window; u1's purchase at 25
    # is 15 after its click at 10 (boundary inclusive)
    assert (r["n_step1"], r["n_step2"], r["n_step3"]) == (2, 2, 1)


def test_pivot_null_category_and_domain_guard(ray_session):
    import ray.data

    from jitsu_ray.ops.pivot import pivot_aggregate

    tbl = pa.table(
        {
            "g": pa.array(["x", "x", "x"]),
            "cat": pa.array(["A", None, "B"]),
            "v": pa.array([1, 2, 4], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    # discovery drops the null category; null rows land in no bucket
    out = pivot_aggregate(ds, ["g"], "cat", "v").take_all()
    assert out == [{"g": "x", "n_a": 1, "v_a": 1, "n_b": 1, "v_b": 4}]
    with pytest.raises(ValueError):
        pivot_aggregate(ds, ["g"], "cat", "v", categories=["A", None])
    with pytest.raises(ValueError):
        pivot_aggregate(ds, ["g"], "cat", "v",
                        categories=[str(i) for i in range(10_001)])


def test_grouping_sets_and_cube_match_sql(ray_session):
    import duckdb
    import ray.data

    from jitsu_ray.ops.rollup import cube_aggregate, grouping_sets_aggregate

    tbl = pa.table(
        {
            "a": pa.array(["x", "x", "y", "y", "y"]),
            "b": pa.array(["p", "q", "p", "p", "q"]),
            "v": pa.array([1, 2, 3, 4, 5], pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    nonesafe = lambda row: tuple((x is None, x) for x in row)  # noqa: E731

    def run_sql(clause):
        return sorted(
            (
                tuple(r)
                for r in con.sql(
                    f"SELECT a, b, count(*) AS n, sum(v) AS sum_v FROM t GROUP BY {clause}"
                ).fetchall()
            ),
            key=nonesafe,
        )

    ds = ray.data.from_arrow(tbl).repartition(3)
    got = sorted(
        ((r["a"], r["b"], r["n"], r["sum_v"]) for r in
         cube_aggregate(ds, ["a", "b"], ["v"]).take_all()),
        key=nonesafe,
    )
    assert got == run_sql("CUBE(a, b)")

    # explicit sets incl. a non-finest single-dim set and the total;
    # dims in NO set (here: a) don't appear in the output at all
    got = sorted(
        ((r["b"], r["n"], r["sum_v"]) for r in
         grouping_sets_aggregate(ds, [["b"], []], ["v"]).take_all()),
        key=nonesafe,
    )
    exp = sorted(
        (
            tuple(r)
            for r in con.sql(
                "SELECT b, count(*) AS n, sum(v) AS sum_v FROM t "
                "GROUP BY GROUPING SETS ((b), ())"
            ).fetchall()
        ),
        key=nonesafe,
    )
    assert got == exp

    with pytest.raises(ValueError):
        grouping_sets_aggregate(ds, [], ["v"])
    with pytest.raises(ValueError):
        grouping_sets_aggregate(ds, [["a"], ["a"]], ["v"])
    with pytest.raises(ValueError):
        cube_aggregate(ds, [f"d{i}" for i in range(7)], ["v"])


def test_ordered_window_fns_ntile_first_last(ray_session):
    import duckdb
    import ray.data

    from jitsu_ray.ops.window import ordered_window_fns

    # partition sizes 7, 3, 1 exercise ntile's uneven buckets (7 into 3
    # -> 3,2,2), a partition smaller than n (1 into 3), and exact fit
    ks = ["a"] * 7 + ["b"] * 3 + ["c"]
    tbl = pa.table(
        {
            "k": pa.array(ks),
            "t": pa.array(list(range(7)) + [2, 0, 1] + [5], pa.int64()),
            "v": pa.array([x * 10 for x in range(11)], pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    exp = sorted(
        con.sql(
            """SELECT k, t, v,
                      CAST(ntile(3) OVER w AS BIGINT),
                      first_value(v) OVER w,
                      last_value(v) OVER (PARTITION BY k ORDER BY t
                        ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
               FROM t WINDOW w AS (PARTITION BY k ORDER BY t)"""
        ).fetchall()
    )
    out = ordered_window_fns(
        ray.data.from_arrow(tbl).repartition(3), "k", ["t"], "v",
        num_shards=4, fns=("ntile", "first_value", "last_value"), ntile_n=3,
    ).take_all()
    got = sorted(
        (r["k"], r["t"], r["v"], r["ntile"], r["first_value"], r["last_value"])
        for r in out
    )
    assert got == exp
    with pytest.raises(ValueError):
        ordered_window_fns(
            ray.data.from_arrow(tbl), "k", ["t"], "v", fns=("ntile",)
        )


def test_grouping_sets_grouping_id(ray_session):
    import duckdb
    import ray.data

    from jitsu_ray.ops.rollup import grouping_sets_aggregate

    # a genuine NULL group value in 'a' — grouping_id is what tells the
    # (NULL, y) data row apart from the rolled-up (NULL-filled) rows
    tbl = pa.table(
        {
            "a": pa.array(["x", "x", None, "z"]),
            "b": pa.array(["p", "q", "p", "p"]),
            "v": pa.array([1, 2, 4, 8], pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    exp = sorted(
        con.sql(
            """SELECT a, b, CAST(grouping(a, b) AS BIGINT) AS grouping_id,
                      count(*) AS n, sum(v) AS sum_v
               FROM t GROUP BY GROUPING SETS ((a, b), (b), ())"""
        ).fetchall(),
        key=str,
    )
    out = grouping_sets_aggregate(
        ray.data.from_arrow(tbl).repartition(2),
        [["a", "b"], ["b"], []],
        ["v"],
        grouping_id=["a", "b"],
    ).take_all()
    got = sorted(
        ((r["a"], r["b"], r["grouping_id"], r["n"], r["sum_v"]) for r in out),
        key=str,
    )
    assert got == exp
    with pytest.raises(ValueError):
        grouping_sets_aggregate(
            ray.data.from_arrow(tbl), [["a"]], ["v"], grouping_id=["a", "b"]
        )


def test_ordered_window_fns_rolling_sum(ray_session):
    import duckdb
    import ray.data

    from jitsu_ray.ops.window import ordered_window_fns

    tbl = pa.table(
        {
            "k": pa.array(["a"] * 6 + ["b"] * 2),
            "t": pa.array([3, 1, 2, 6, 5, 4, 1, 0], pa.int64()),
            "v": pa.array([1, 2, 4, 8, 16, 32, 64, 128], pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    exp = sorted(
        con.sql(
            """SELECT k, t, v,
                      sum(v) OVER (PARTITION BY k ORDER BY t
                        ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
               FROM t"""
        ).fetchall()
    )
    out = ordered_window_fns(
        ray.data.from_arrow(tbl).repartition(3), "k", ["t"], "v",
        num_shards=4, fns=("rolling_value",), rolling_k=3,
    ).take_all()
    got = sorted((r["k"], r["t"], r["v"], r["rolling3_value"]) for r in out)
    assert got == exp
    with pytest.raises(ValueError):
        ordered_window_fns(
            ray.data.from_arrow(tbl), "k", ["t"], "v", fns=("rolling_value",)
        )


def test_write_sharded_parquet_resume(ray_session, tmp_path):
    import os

    import pyarrow as pa
    import ray.data

    from jitsu_ray.sinks.files import write_sharded_parquet
    from jitsu_ray.util import md5_lower64

    out = str(tmp_path / "export")
    tbl = pa.table(
        {
            "id": pa.array(range(200), pa.int64()),
            "v": pa.array([f"v{i}" for i in range(200)]),
        }
    )
    ds = ray.data.from_arrow(tbl)

    res = write_sharded_parquet(ds, out, "id", num_shards=8)
    assert set(res) == set(range(8)) and sum(res.values()) == 200
    # deterministic assignment: every row in its md5 shard
    back = ray.data.read_parquet(out).take_all()
    assert len(back) == 200
    assert {(r["id"], r["v"]) for r in back} == {
        (i, f"v{i}") for i in range(200)
    }
    got3 = sorted(
        r["id"] for r in ray.data.read_parquet(
            os.path.join(out, "shard=0003.parquet")
        ).take_all()
    )
    assert got3 == [i for i in range(200) if md5_lower64(str(i)) % 8 == 3]

    # kill two shards (one cleanly, one as a crash orphan missing .done)
    os.remove(os.path.join(out, "shard=0002.parquet"))
    os.remove(os.path.join(out, "_shard=0002.done"))
    os.remove(os.path.join(out, "_shard=0005.done"))  # parquet left behind
    res2 = write_sharded_parquet(ds, out, "id", num_shards=8)
    rebuilt = {s for s, n in res2.items() if n >= 0}
    assert rebuilt == {2, 5} and all(res2[s] == -1 for s in {0, 1, 3, 4, 6, 7})
    assert len(ray.data.read_parquet(out).take_all()) == 200

    # fully complete directory: a rerun writes nothing
    res3 = write_sharded_parquet(ds, out, "id", num_shards=8)
    assert all(n == -1 for n in res3.values())

    import pytest as _pytest

    with _pytest.raises(ValueError, match="num_shards"):
        write_sharded_parquet(ds, out, "id", num_shards=0)


def test_write_sharded_parquet_meta_guard(ray_session, tmp_path):
    import os

    import pyarrow as pa
    import ray.data

    from jitsu_ray.sinks.files import write_sharded_parquet

    out = str(tmp_path / "exp")
    ds = ray.data.from_arrow(
        pa.table({"id": pa.array(range(20), pa.int64())})
    )
    write_sharded_parquet(ds, out, "id", num_shards=4)

    import pytest as _pytest

    # resuming with different params would silently duplicate rows —
    # the pinned _export_meta.json must refuse instead
    with _pytest.raises(ValueError, match="would corrupt"):
        write_sharded_parquet(ds, out, "id", num_shards=8)

    # crash-orphaned tmps are swept on rerun, not accumulated
    open(os.path.join(out, "_tmpdead.tmp"), "w").close()
    res = write_sharded_parquet(ds, out, "id", num_shards=4)
    assert all(n == -1 for n in res.values())
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]


def test_write_sharded_jsonl(ray_session, tmp_path):
    """JSONL sharded export: same resume/manifest contract as parquet
    (shared skeleton), NDJSON payload, cross-format resume refused."""
    import json
    import os

    import pyarrow as pa
    import ray.data

    from jitsu_ray.sinks.files import (
        write_sharded_jsonl,
        write_sharded_parquet,
    )
    from jitsu_ray.util import md5_lower64

    out = str(tmp_path / "exp_jsonl")
    tbl = pa.table(
        {
            "id": pa.array(range(100), pa.int64()),
            "text": pa.array(
                [f"doc {i}" if i % 10 else None for i in range(100)]
            ),
        }
    )
    ds = ray.data.from_arrow(tbl)

    res = write_sharded_jsonl(ds, out, "id", num_shards=4)
    assert set(res) == set(range(4)) and sum(res.values()) == 100

    # payload round-trips (nulls as JSON null) and lands in its md5 shard
    back = ray.data.read_json(out, file_extensions=["jsonl"]).take_all()
    assert {(r["id"], r["text"]) for r in back} == {
        (i, f"doc {i}" if i % 10 else None) for i in range(100)
    }
    with open(os.path.join(out, "shard=0002.jsonl")) as f:
        got2 = sorted(json.loads(line)["id"] for line in f)
    assert got2 == [i for i in range(100) if md5_lower64(str(i)) % 4 == 2]

    # kill one shard -> rerun rebuilds ONLY it
    os.remove(os.path.join(out, "shard=0001.jsonl"))
    os.remove(os.path.join(out, "_shard=0001.done"))
    res2 = write_sharded_jsonl(ds, out, "id", num_shards=4)
    assert {s for s, n in res2.items() if n >= 0} == {1}
    assert len(ray.data.read_json(out, file_extensions=["jsonl"]).take_all()) == 100

    # a parquet export can't be resumed as jsonl (and vice versa)
    import pytest as _pytest

    with _pytest.raises(ValueError, match="would corrupt"):
        write_sharded_parquet(ds, out, "id", num_shards=4)


def test_cli_query_list_and_validation():
    """`python -m jitsu_ray query --list` prints the full registry and
    an unknown name fails fast — both WITHOUT starting a Ray session
    (subprocess so the shared test session is untouched)."""
    import json as _json
    import subprocess
    import sys

    r = subprocess.run(
        [sys.executable, "-m", "jitsu_ray", "query", "--list"],
        capture_output=True, text=True, cwd="/root/repo", timeout=120,
    )
    assert r.returncode == 0, r.stderr
    names = _json.loads(r.stdout.strip().splitlines()[-1])
    from jitsu_ray.queries import QUERIES

    assert names == sorted(QUERIES)

    r = subprocess.run(
        [sys.executable, "-m", "jitsu_ray", "query", "nope"],
        capture_output=True, text=True, cwd="/root/repo", timeout=120,
    )
    assert r.returncode != 0 and "unknown query" in r.stderr


def test_cli_maintain_subcommand(tmp_path):
    """`python -m jitsu_ray maintain` runs the full policy pass (split +
    clustered tiered compact + vacuum) against an on-disk lake from a
    fresh process, proving the operational surface end to end, and
    reports the pass's write cost as ``bytes_written``; ``report`` then
    prints the live files and their bytes."""
    import glob
    import json as _json
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = f"""
import warnings; warnings.filterwarnings("ignore")
import ray; ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext; DataContext.get_current().enable_progress_bars = False
from jitsu_ray.testgen import gen_changelog, write_changelog
from jitsu_ray import replay_changelog
tbl = gen_changelog(n_events=3000, n_repos=10, seed=5)
write_changelog(r"{tmp_path}/log", tbl, rows_per_file=1000)
replay_changelog(r"{tmp_path}/log", r"{tmp_path}/lake", num_partitions=2,
                 window_size=1000, compact_every=0, compact_at_end=False)
ray.shutdown()
"""
    r = subprocess.run(
        [sys.executable, "-c", build],
        capture_output=True, text=True, cwd=root, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    cmd = [
        sys.executable, "-m", "jitsu_ray", "maintain",
        "--lake", str(tmp_path / "lake"),
        "--max-partition-bytes", "20000", "--min-files", "2",
        "--keep-history", "0", "--cluster-by", "repo",
    ]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=300)
    assert r.returncode == 0, r.stderr
    out = _json.loads(r.stdout.strip().splitlines()[-1])
    # both partitions split, and the split already wrote every child as
    # one clustered fold, so the same pass has nothing left to compact
    assert len(out["splits"]) == 2 and out["compacted_parts"] == 0
    # the pass's write cost: bytes of every file its splits and folds wrote
    assert out["bytes_written"] > 0
    # every child landed under the budget: a second identical pass splits
    # nothing (children sized at bytes / budget overshot and split again)
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=300)
    assert r.returncode == 0, r.stderr
    again = _json.loads(r.stdout.strip().splitlines()[-1])
    assert again["splits"] == [] and again["bytes_written"] == 0
    # `report` counts the live files, each once, and their on-disk bytes;
    # after the vacuum every data file on disk is live
    r = subprocess.run([sys.executable, "-m", "jitsu_ray", "report", "--lake",
                        str(tmp_path / "lake")], capture_output=True, text=True, cwd=root,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    rep = _json.loads(r.stdout.strip().splitlines()[-1])
    on_disk = glob.glob(str(tmp_path / "lake" / "part=*" / "*.parquet"))
    assert rep["live_files"] == len(on_disk) > 0
    assert rep["live_bytes"] == sum(os.path.getsize(f) for f in on_disk)
