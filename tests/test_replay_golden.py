"""Golden end-to-end replay: deterministic synthetic changelog -> lake,
compared to a duckdb/polars oracle on sha256(content) + exact key set
(the BASELINE.json per-row invariant). Also: resume-equivalence — a run
interrupted mid-way and restarted converges to the identical state."""

import hashlib

import duckdb
import pyarrow as pa
import pytest

from jitsu_ray.pipelines.replay import Replayer, changelog_max_seq, replay_changelog
from jitsu_ray.sinks.lake import LakeTable
from jitsu_ray.testgen import gen_changelog, oracle_final_state, write_changelog


def state_fingerprint(rows):
    out = set()
    for r in rows:
        sha = hashlib.sha256(r["content"].encode()).hexdigest()
        out.add((r["repo"], r["path"], r["commit"], r["lang"], sha))
    return out


def test_replay_matches_oracle(ray_session, tmp_path):
    tbl = gen_changelog(n_events=6000, n_repos=20, seed=7)
    log = str(tmp_path / "log")
    write_changelog(log, tbl, rows_per_file=1500)
    assert changelog_max_seq(log) == 6000

    from jitsu_ray.stages.enrich import add_constant, add_timestamp, chain

    lake, metrics = replay_changelog(
        log,
        str(tmp_path / "lake"),
        num_partitions=8,
        window_size=1300,
        enrichers=[chain(add_timestamp(), add_constant("src", "cdc"))],
    )
    assert metrics["windows"] == 5
    rows = lake.read().take_all()
    got = state_fingerprint(rows)
    # enrichment columns survive the lake round-trip, deterministically
    assert all(r["src"] == "cdc" and r["_timestamp"] is not None for r in rows)

    exp_tbl = oracle_final_state(tbl)
    exp = state_fingerprint(exp_tbl.to_pylist())
    assert got == exp

    # cross-check the polars oracle itself against a duckdb window-fn oracle
    con = duckdb.connect()
    con.register("log", tbl)
    dk = con.sql(
        """
        WITH r AS (
          SELECT *, row_number() OVER (PARTITION BY repo, path ORDER BY commit_seq DESC) rn
          FROM log
        )
        SELECT repo, path, commit, lang, sha256(content) AS sha
        FROM r WHERE rn = 1 AND op <> 'delete'
        """
    ).fetchall()
    assert {tuple(x) for x in dk} == {
        (r, p, c, l, s) for (r, p, c, l, s) in exp
    }


def test_replay_reads_changelog_file_without_seq_stats(ray_session, tmp_path):
    """A change-log file written without parquet statistics (another
    writer's) still bounds the log and is replayed: its commit_seq
    column is read instead of being skipped, so the replay reaches the
    oracle state rather than stopping at the last file with stats."""
    import pyarrow.parquet as pq

    tbl = gen_changelog(n_events=2000, n_repos=10, seed=23)
    log = str(tmp_path / "log")
    first, second = write_changelog(log, tbl, rows_per_file=1000)
    pq.write_table(pq.read_table(second), second, write_statistics=False)
    md = pq.ParquetFile(second).metadata
    assert not md.row_group(0).column(0).is_stats_set
    assert changelog_max_seq(log) == 2000

    lake, metrics = replay_changelog(
        log, str(tmp_path / "lake"), num_partitions=4, window_size=700
    )
    assert lake.last_committed_hi() == 2000
    assert metrics["events"] == 2000
    got = state_fingerprint(lake.read().take_all())
    assert got == state_fingerprint(oracle_final_state(tbl).to_pylist())


def test_resume_equivalence(ray_session, tmp_path):
    # FIXTURES.md resume.parquet analog: kill after window 2, restart,
    # final state byte-identical to the uninterrupted run.
    tbl = gen_changelog(n_events=3000, n_repos=10, seed=11)
    log = str(tmp_path / "log")
    write_changelog(log, tbl, rows_per_file=1000)

    # uninterrupted reference run
    lake_a, _ = replay_changelog(
        log, str(tmp_path / "lake_a"), num_partitions=4, window_size=700
    )
    ref = state_fingerprint(lake_a.read().take_all())

    # interrupted run: apply only 2 windows, then "restart" via a fresh
    # Replayer + fresh LakeTable.open resuming from the ledger
    lake_b = LakeTable.create(str(tmp_path / "lake_b"), ["repo", "path"], 4)
    rep = Replayer(log, lake_b, window_size=700)
    ds = rep.window_dataset(0, 700)
    lake_b.apply_window(ds, 0, 700)
    lake_b.apply_window(rep.window_dataset(700, 1400), 700, 1400)
    assert lake_b.last_committed_hi() == 1400

    lake_b2 = LakeTable.open(str(tmp_path / "lake_b"))
    rep2 = Replayer(log, lake_b2, window_size=700)
    m = rep2.run()
    assert m["events"] == 3000 - 1400
    assert state_fingerprint(lake_b2.read().take_all()) == ref


def test_generator_determinism():
    a = gen_changelog(n_events=500, n_repos=5, seed=3)
    b = gen_changelog(n_events=500, n_repos=5, seed=3)
    assert a.equals(b)
    c = gen_changelog(n_events=500, n_repos=5, seed=4)
    assert not a.equals(c)


@pytest.mark.parametrize("method", ["run", "run_streaming"])
def test_streaming_mode_transient_retry_converges(ray_session, tmp_path, method):
    # §3.2 streaming semantics: a window whose apply fails transiently is
    # retried with backoff and the final state equals a clean replay's;
    # batch replay (run) rides the same loop, so it retries too
    from jitsu_ray.sinks.retry import TransientSinkError

    tbl = gen_changelog(n_events=4000, n_repos=15, seed=21)
    log = str(tmp_path / "log")
    write_changelog(log, tbl, rows_per_file=1000)

    class FlakyLake(LakeTable):
        fails_left = 2

        def apply_window(self, ds, lo, hi, **kw):
            if FlakyLake.fails_left > 0 and lo >= 1000:
                FlakyLake.fails_left -= 1
                raise TransientSinkError("stub outage")
            return super().apply_window(ds, lo, hi, **kw)

    lake = FlakyLake.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    rep = Replayer(log, lake, window_size=1000)
    m = getattr(rep, method)()
    assert m["retried"] == 2 and not m["spooled"]
    assert m["windows"] == 4 and m["latency_p95_sec"] >= m["latency_p50_sec"] > 0

    got = state_fingerprint(lake.read().take_all())
    exp = state_fingerprint(oracle_final_state(tbl).to_pylist())
    assert got == exp


def test_streaming_mode_spool_and_replay(ray_session, tmp_path):
    # permanent failure on one window: spooled (stream advances), then
    # replay_spooled re-applies it and the state converges exactly
    from jitsu_ray.sinks.retry import PermanentSinkError

    tbl = gen_changelog(n_events=4000, n_repos=15, seed=22)
    log = str(tmp_path / "log")
    write_changelog(log, tbl, rows_per_file=1000)

    class BrokenOnce(LakeTable):
        armed = True

        def apply_window(self, ds, lo, hi, **kw):
            if BrokenOnce.armed and lo == 2000:
                BrokenOnce.armed = False
                raise PermanentSinkError("bad destination")
            return super().apply_window(ds, lo, hi, **kw)

    lake = BrokenOnce.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    rep = Replayer(log, lake, window_size=1000)
    m = rep.run_streaming(backoff_sec=0.01, spool_dir=str(tmp_path / "spool"))
    assert len(m["spooled"]) == 1 and m["spooled"][0]["lo"] == 2000
    # spooled window's events are missing until replayed
    assert rep.replay_spooled(m["spooled"]) == 1

    got = state_fingerprint(lake.read().take_all())
    exp = state_fingerprint(oracle_final_state(tbl).to_pylist())
    assert got == exp

    # round-4 review: recovery must REMOVE the spool dir (a leftover dir
    # pins the tombstone watermark at its lo forever) and a re-run with
    # the now-stale records must be a safe no-op, not a FileNotFoundError
    import os as _os

    assert not _os.path.isdir(m["spooled"][0]["dir"])
    assert rep.replay_spooled(m["spooled"]) == 0
    wm = Replayer._safe_tombstone_watermark(4000, [], str(tmp_path / "spool"))
    assert wm == 4000  # no pending dirs left -> watermark unpinned


def test_replay_spooled_prunes_manifest(ray_session, tmp_path):
    # round-4 review: recovery prunes recovered records from spooled.json
    # so a later recovery run doesn't chase dirs that no longer exist
    import json as _json

    from jitsu_ray.__main__ import merge_spooled_records
    from jitsu_ray.sinks.retry import PermanentSinkError

    tbl = gen_changelog(n_events=3000, n_repos=10, seed=31)
    log = str(tmp_path / "log")
    write_changelog(log, tbl, rows_per_file=1000)

    class Broken(LakeTable):
        armed = True

        def apply_window(self, ds, lo, hi, **kw):
            if Broken.armed and lo == 1000:
                Broken.armed = False
                raise PermanentSinkError("bad destination")
            return super().apply_window(ds, lo, hi, **kw)

    lake = Broken.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    rep = Replayer(log, lake, window_size=1000)
    spool = str(tmp_path / "spool")
    m = rep.run_streaming(backoff_sec=0.01, spool_dir=spool)
    merged = merge_spooled_records(spool, m["spooled"])
    # add a second, still-unrecovered record: pruning must keep it
    ghost = {"lo": 9000, "hi": 10000, "dir": str(tmp_path / "spool" / "window-ghost")}
    merge_spooled_records(spool, [ghost])
    assert rep.replay_spooled(merged) == 1
    with open(tmp_path / "spool" / "spooled.json") as f:
        left = _json.load(f)
    assert left == [ghost]


def test_streaming_compact_failure_does_not_respool(ray_session, tmp_path):
    # round-4 review: a compaction failure AFTER a window committed must
    # not be retried/spooled as a window apply — the stream keeps going,
    # state converges, and the failure is only counted
    tbl = gen_changelog(n_events=4000, n_repos=15, seed=32)
    log = str(tmp_path / "log")
    write_changelog(log, tbl, rows_per_file=1000)

    class CompactBroken(LakeTable):
        def compact(self, *a, **kw):
            raise OSError("stub compaction outage")

    lake = CompactBroken.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    rep = Replayer(log, lake, window_size=1000)
    m = rep.run_streaming(
        backoff_sec=0.01, spool_dir=str(tmp_path / "spool"), compact_every=2
    )
    assert m["windows"] == 4 and not m["spooled"] and m["retried"] == 0
    assert m["compactions"] == 0 and m["compact_errors"] == 2

    got = state_fingerprint(lake.read().take_all())
    exp = state_fingerprint(oracle_final_state(tbl).to_pylist())
    assert got == exp


def test_merge_spooled_records_survives_restart(tmp_path):
    # round-4 review: a restarted stream's spooled.json must MERGE with
    # earlier runs' still-unrecovered records, not overwrite them
    from jitsu_ray.__main__ import merge_spooled_records

    spool = str(tmp_path)
    w1 = {"lo": 0, "hi": 1000, "dir": str(tmp_path / "w0")}
    w2 = {"lo": 3000, "hi": 4000, "dir": str(tmp_path / "w3")}
    assert merge_spooled_records(spool, [w1]) == [w1]
    assert merge_spooled_records(spool, [w2]) == [w1, w2]  # run 2 keeps W1
    # idempotent on re-report of the same window
    assert merge_spooled_records(spool, [w2]) == [w1, w2]
    import json as _json

    with open(tmp_path / "spooled.json") as f:
        assert _json.load(f) == [w1, w2]


def test_merge_spooled_records_concurrent_writers(tmp_path):
    # round-4 review: two stream processes sharing a spool dir must not
    # drop each other's records (O_EXCL lock around the read-modify-write)
    from concurrent.futures import ThreadPoolExecutor

    from jitsu_ray.__main__ import merge_spooled_records

    recs = [
        {"lo": i * 1000, "hi": (i + 1) * 1000, "dir": str(tmp_path / f"w{i}")}
        for i in range(20)
    ]
    with ThreadPoolExecutor(4) as ex:
        list(ex.map(lambda r: merge_spooled_records(str(tmp_path), [r]), recs))
    import json as _json

    with open(tmp_path / "spooled.json") as f:
        merged = _json.load(f)
    assert sorted(e["lo"] for e in merged) == [i * 1000 for i in range(20)]


def test_respool_same_window_is_idempotent(ray_session, tmp_path):
    # round-4 review: a restarted stream re-spooling the same tail window
    # must not APPEND a second parquet copy into the deterministic dir
    import pyarrow.parquet as _pq

    from jitsu_ray.sinks.retry import PermanentSinkError

    tbl = gen_changelog(n_events=3000, n_repos=10, seed=23)
    log = str(tmp_path / "log")
    write_changelog(log, tbl, rows_per_file=1000)

    class BrokenTail(LakeTable):
        def apply_window(self, ds, lo, hi, **kw):
            if lo == 2000:
                raise PermanentSinkError("still down")
            return super().apply_window(ds, lo, hi, **kw)

    lake = BrokenTail.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    m1 = Replayer(log, lake, window_size=1000).run_streaming(
        backoff_sec=0.01, spool_dir=str(tmp_path / "spool")
    )
    lake2 = BrokenTail.open(str(tmp_path / "lake"))
    m2 = Replayer(log, lake2, window_size=1000).run_streaming(
        backoff_sec=0.01, spool_dir=str(tmp_path / "spool")
    )
    assert m1["spooled"][0]["dir"] == m2["spooled"][0]["dir"]
    spooled_rows = _pq.read_table(m2["spooled"][0]["dir"]).num_rows
    n_window = sum(1 for s in tbl["commit_seq"].to_pylist() if 2000 < s <= 3000)
    assert spooled_rows == n_window  # not doubled


def test_sweep_dead_spool_tmp(tmp_path):
    # round-4 review: only VERIFIABLY-dead local crashed attempts are
    # swept — live pids (incl. our own), foreign hosts, and completed
    # spool dirs all survive
    import os
    import socket
    import subprocess

    host = socket.gethostname()
    proc = subprocess.Popen(["true"])
    proc.wait()
    dead = tmp_path / f"window-000-001.tmp.{host}:{proc.pid}"
    live = tmp_path / f"window-000-003.tmp.{host}:{os.getpid()}"
    foreign = tmp_path / f"window-000-004.tmp.not-this-host:{proc.pid}"
    other = tmp_path / "window-000000000000-000000001000"
    for d in (dead, live, foreign, other):
        d.mkdir()
    Replayer._sweep_dead_spool_tmp(str(tmp_path))
    assert not dead.exists()
    assert live.exists()  # our own live dir is never swept
    assert foreign.exists()  # unverifiable cross-node dir: hands off
    assert other.exists()  # completed spool dirs are never touched


def test_bootstrap_snapshot_then_tail(ray_session, tmp_path):
    """CDC lifecycle: full-snapshot initial load, then incremental
    changelog tail — final state must equal LWW over (snapshot at seq 0
    UNION changelog), with deletes honored and the bootstrap idempotent."""
    import pyarrow as pa
    import ray.data

    from jitsu_ray.pipelines.replay import Replayer, bootstrap_snapshot
    from jitsu_ray.sinks.lake import LakeTable
    from jitsu_ray.testgen import write_changelog

    snap = pa.table(
        {
            "repo": pa.array([f"r{i % 5}" for i in range(40)]),
            "path": pa.array([f"f{i}.py" for i in range(40)]),
            "commit": pa.array(["snap"] * 40),
            "lang": pa.array(["py"] * 40),
            "content": pa.array([f"snapshot body {i}" for i in range(40)], pa.large_string()),
        }
    )
    # tail: update 10 keys, delete 5, insert 3 new
    rows = []
    seq = 1
    for i in range(10):
        rows.append((seq, "update", f"r{i % 5}", f"f{i}.py", f"c{seq}", "py", f"updated {i}")); seq += 1
    for i in range(10, 15):
        rows.append((seq, "delete", f"r{i % 5}", f"f{i}.py", None, None, None)); seq += 1
    for i in range(100, 103):
        rows.append((seq, "insert", "rnew", f"f{i}.py", f"c{seq}", "py", f"new {i}")); seq += 1
    log = pa.table(
        {
            "commit_seq": pa.array([r[0] for r in rows], pa.int64()),
            "op": pa.array([r[1] for r in rows]),
            "repo": pa.array([r[2] for r in rows]),
            "path": pa.array([r[3] for r in rows]),
            "commit": pa.array([r[4] for r in rows]),
            "lang": pa.array([r[5] for r in rows]),
            "content": pa.array([r[6] for r in rows], pa.large_string()),
        }
    )
    write_changelog(str(tmp_path / "log"), log, rows_per_file=7)
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 8)
    e1 = bootstrap_snapshot(lake, ray.data.from_arrow(snap))
    assert not e1.get("skipped")
    e2 = bootstrap_snapshot(lake, ray.data.from_arrow(snap))  # idempotent
    assert e2.get("skipped")
    rep = Replayer(str(tmp_path / "log"), lake, window_size=6)
    m = rep.run()
    assert m["events"] == seq - 1
    state = {(r["repo"], r["path"]): r for r in lake.read().take_all()}
    assert len(state) == 40 - 5 + 3
    assert state[("r0", "f0.py")]["content"] == "updated 0"
    assert state[("r2", "f22.py")]["content"] == "snapshot body 22"
    assert ("r2", "f12.py") not in state  # deleted
    assert state[("rnew", "f100.py")]["content"] == "new 100"


def test_bootstrap_mid_log_resumes_after_as_of(ray_session, tmp_path):
    """A snapshot consistent as-of seq N hands off to the tail at
    exactly N: events <= N are never re-read, events > N apply on top."""
    import pyarrow as pa
    import ray.data

    from jitsu_ray.pipelines.replay import Replayer, bootstrap_snapshot
    from jitsu_ray.sinks.lake import LakeTable
    from jitsu_ray.testgen import write_changelog

    rows = [(s, "update", "r", f"f{s % 4}.py", f"c{s}", "py", f"v{s}")
            for s in range(1, 21)]
    log = pa.table(
        {
            "commit_seq": pa.array([r[0] for r in rows], pa.int64()),
            "op": pa.array([r[1] for r in rows]),
            "repo": pa.array([r[2] for r in rows]),
            "path": pa.array([r[3] for r in rows]),
            "commit": pa.array([r[4] for r in rows]),
            "lang": pa.array([r[5] for r in rows]),
            "content": pa.array([r[6] for r in rows], pa.large_string()),
        }
    )
    write_changelog(str(tmp_path / "log"), log, rows_per_file=5)
    # snapshot as-of 10: keys f0..f3 at their latest value <= seq 10
    snap = pa.table(
        {
            "repo": pa.array(["r"] * 4),
            "path": pa.array([f"f{k}.py" for k in range(4)]),
            "commit": pa.array([f"c{k}" for k in [8, 9, 10, 7]]),
            "lang": pa.array(["py"] * 4),
            "content": pa.array([f"v{k}" for k in [8, 9, 10, 7]], pa.large_string()),
        }
    )
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    bootstrap_snapshot(lake, ray.data.from_arrow(snap), as_of_seq=10)
    m = Replayer(str(tmp_path / "log"), lake, window_size=4).run()
    assert m["events"] == 10  # only seq 11..20 tailed
    state = {r["path"]: r["content"] for r in lake.read().take_all()}
    # latest overall: f0 -> v20, f1 -> v17, f2 -> v18, f3 -> v19
    assert state == {"f0.py": "v20", "f1.py": "v17", "f2.py": "v18", "f3.py": "v19"}


def test_bootstrap_refuses_partially_tailed_lake(ray_session, tmp_path):
    import pyarrow as pa
    import pytest as _pytest
    import ray.data

    from jitsu_ray.pipelines.replay import bootstrap_snapshot
    from jitsu_ray.sinks.lake import LakeTable

    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    w = pa.table(
        {
            "commit_seq": pa.array([1, 2], pa.int64()),
            "op": pa.array(["insert", "insert"]),
            "repo": pa.array(["r", "r"]),
            "path": pa.array(["a.py", "b.py"]),
            "content": pa.array(["x", "y"], pa.large_string()),
        }
    )
    lake.apply_window(ray.data.from_arrow(w), 0, 2)  # tailed to seq 2
    snap = pa.table(
        {"repo": pa.array(["r"]), "path": pa.array(["a.py"]),
         "content": pa.array(["z"], pa.large_string())}
    )
    with _pytest.raises(ValueError, match="resurrect"):
        bootstrap_snapshot(lake, ray.data.from_arrow(snap), as_of_seq=5)


def test_streaming_auto_compaction_converges(ray_session, tmp_path):
    # compact_every folds deltas mid-stream; final state is unchanged
    # and the live file count stays bounded
    tbl = gen_changelog(n_events=4000, n_repos=15, seed=23)
    log = str(tmp_path / "log")
    write_changelog(log, tbl, rows_per_file=1000)

    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    rep = Replayer(log, lake, window_size=500)
    m = rep.run_streaming(backoff_sec=0.01, compact_every=3, compact_min_files=2)
    assert m["compactions"] >= 1

    lake2 = LakeTable.create(str(tmp_path / "lake2"), ["repo", "path"], 4)
    Replayer(log, lake2, window_size=500).run_streaming(backoff_sec=0.01)

    got = state_fingerprint(lake.read().take_all())
    assert got == state_fingerprint(lake2.read().take_all())
    n_files = sum(len(fs) for fs in lake.ledger.live_files().values())
    n_files2 = sum(len(fs) for fs in lake2.ledger.live_files().values())
    assert n_files < n_files2


def test_streaming_auto_split_converges(ray_session, tmp_path):
    """split_over_bytes: the stream (the lake's only applier) grows its
    partition topology mid-run — oversized partitions split at the
    auto-maintenance trigger — and the final state still equals a plain
    replay into an unsplit lake."""
    tbl = gen_changelog(n_events=4000, n_repos=15, seed=29)
    log = str(tmp_path / "log")
    write_changelog(log, tbl, rows_per_file=1000)

    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 2)
    rep = Replayer(log, lake, window_size=500)
    m = rep.run_streaming(
        backoff_sec=0.01, compact_every=3, compact_min_files=2,
        split_over_bytes=50_000,
    )
    assert m["splits"] >= 1 and m["compact_errors"] == 0

    lake2 = LakeTable.create(str(tmp_path / "lake2"), ["repo", "path"], 2)
    Replayer(log, lake2, window_size=500).run_streaming(backoff_sec=0.01)
    assert state_fingerprint(lake.read().take_all()) == state_fingerprint(
        lake2.read().take_all()
    )
    # topology actually grew and windows landed in child partitions
    assert len(lake.ledger.splits()) >= 1
    assert len(lake.live_files()) > 2


def test_streaming_compaction_spool_safe(ray_session, tmp_path):
    # a pending spooled window must LOWER the compaction tombstone
    # watermark: the spool holds a low-seq update for a key deleted at a
    # higher seq — if compaction vacuumed that tombstone, the recovery
    # replay would resurrect the deleted key
    import pyarrow as pa

    from jitsu_ray.sinks.retry import PermanentSinkError

    n = 3000
    seqs = list(range(1, n + 1))
    ops = ["insert"] * n
    repos = [f"r{i % 7}" for i in range(n)]
    paths = [f"p{i}" for i in range(n)]
    # special key: insert @500, update @1500 (in the window that will
    # spool), delete @2500 (committed after the spool)
    for s, op in ((500, "insert"), (1500, "update"), (2500, "delete")):
        repos[s - 1], paths[s - 1], ops[s - 1] = "rX", "special", op
    tbl = pa.table(
        {
            "commit_seq": pa.array(seqs, pa.int64()),
            "op": pa.array(ops),
            "repo": pa.array(repos),
            "path": pa.array(paths),
            "commit": pa.array([f"c{i}" for i in range(n)]),
            "lang": pa.array(["py"] * n),
            "content": pa.array([f"body {i}" for i in range(n)], pa.large_string()),
        }
    )
    log = str(tmp_path / "log")
    write_changelog(log, tbl, rows_per_file=1000)

    class BrokenOnce(LakeTable):
        armed = True

        def apply_window(self, ds, lo, hi, **kw):
            if BrokenOnce.armed and lo == 1000:
                BrokenOnce.armed = False
                raise PermanentSinkError("bad destination")
            return super().apply_window(ds, lo, hi, **kw)

    lake = BrokenOnce.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    rep = Replayer(log, lake, window_size=1000)
    m = rep.run_streaming(
        backoff_sec=0.01,
        spool_dir=str(tmp_path / "spool"),
        compact_every=1,
        compact_min_files=2,
    )
    assert len(m["spooled"]) == 1 and m["compactions"] >= 1
    assert rep.replay_spooled(m["spooled"]) == 1
    keys = {(r["repo"], r["path"]) for r in lake.read().take_all()}
    # the delete @2500 must still win over the recovered update @1500
    assert ("rX", "special") not in keys


def test_batch_replay_writes_last_window_as_compacted_base(ray_session, tmp_path):
    """Batch replay's last window writes each partition it touches as
    the compacted base, so no compaction rewrites it: the ledger ends
    window, checkpoint, vacuum with no compact row, and each partition
    holds one live file, byte-identical (data and Bloom sidecar) to the
    base a replay of plain windows plus the same compaction writes."""
    import os

    from jitsu_ray.sinks.lake import _BLOOM_SUFFIX

    tbl = gen_changelog(n_events=3000, n_repos=10, seed=41)
    log = str(tmp_path / "log")
    write_changelog(log, tbl, rows_per_file=1000)
    lake, metrics = replay_changelog(log, str(tmp_path / "lake"), num_partitions=4,
                                     window_size=1000)
    assert metrics["windows"] == 3
    entries = lake.ledger.entries()
    kinds = [e["kind"] for e in entries]
    assert "compact" not in kinds and kinds[-3:] == ["window", "checkpoint", "vacuum"]
    assert set(entries[-3]["replaces"]) == {
        p for held in entries[-3]["files"].values() for p in held} == {"0", "1", "2", "3"}

    twin = LakeTable.create(str(tmp_path / "twin"), ["repo", "path"], 4)
    Replayer(log, twin, window_size=1000).run_streaming()
    twin.maintain(min_files=2, tombstone_watermark=twin.last_committed_hi(), keep_history=0)
    assert "compact" in [e["kind"] for e in twin.ledger.entries()]

    def blobs(lk):
        out = {}
        for p, fs in lk.live_files().items():
            assert len(fs) == 1
            with open(fs[0], "rb") as f, open(fs[0] + _BLOOM_SUFFIX, "rb") as g:
                out[p] = (f.read(), g.read())
        return out

    assert blobs(lake) == blobs(twin)
    assert sorted(os.listdir(os.path.join(lake.dir, "part=00000"))) == [
        "base-000000002000-000000003000.parquet",
        "base-000000002000-000000003000.parquet" + _BLOOM_SUFFIX,
    ]
    exp = state_fingerprint(oracle_final_state(tbl).to_pylist())
    assert state_fingerprint(lake.read().take_all()) == exp
