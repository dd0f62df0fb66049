"""Jitsu-analog lake scenarios (FIXTURES.md F3): dedup, out-of-order LWW,
tombstones + resurrection, resume/idempotent replay, skew spreading."""

import contextlib
import os
from unittest import mock

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from jitsu_ray.sinks.lake import _BLOOM_SUFFIX, LakeTable
from jitsu_ray.util import hash_mod_column


def ev(seq, op, repo, path, commit=None, lang=None, content=None):
    return {
        "commit_seq": seq,
        "op": op,
        "repo": repo,
        "path": path,
        "commit": commit,
        "lang": lang,
        "content": content,
    }


def make_ds(rows):
    import ray.data

    tbl = pa.table(
        {
            "commit_seq": pa.array([r["commit_seq"] for r in rows], pa.int64()),
            "op": pa.array([r["op"] for r in rows], pa.string()),
            "repo": pa.array([r["repo"] for r in rows], pa.string()),
            "path": pa.array([r["path"] for r in rows], pa.string()),
            "commit": pa.array([r["commit"] for r in rows], pa.string()),
            "lang": pa.array([r["lang"] for r in rows], pa.string()),
            "content": pa.array([r["content"] for r in rows], pa.large_string()),
        }
    )
    return ray.data.from_arrow(tbl)


def read_rows(lake):
    rows = lake.read().take_all()
    return {(r["repo"], r["path"]): r for r in rows}


def new_lake(tmp_path, parts=4):
    return LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], parts)


def test_dedup_same_event_five_times(ray_session, tmp_path):
    # postgres_primary_keys_test.go:23-89 analog: 5 deliveries of the same
    # event (same key, same seq) across two windows => exactly 1 row.
    lake = new_lake(tmp_path)
    e = ev(1, "insert", "r", "p", "c1", "py", "body-v1")
    lake.apply_window(make_ds([e, e, e]), 0, 1)
    lake.apply_window(make_ds([e, e]), 1, 2)
    rows = read_rows(lake)
    assert len(rows) == 1
    assert rows[("r", "p")]["content"] == "body-v1"


def test_out_of_order_within_and_across_windows(ray_session, tmp_path):
    lake = new_lake(tmp_path)
    # window 1 delivers seqs shuffled; window 2 delivers a LOWER seq late
    w1 = [
        ev(5, "update", "r", "p", "c5", "py", "v5"),
        ev(2, "update", "r", "p", "c2", "py", "v2"),
        ev(4, "update", "r", "p", "c4", "py", "v4"),
    ]
    w2 = [ev(3, "update", "r", "p", "c3", "py", "v3")]  # late, stale
    lake.apply_window(make_ds(w1), 0, 1)
    lake.apply_window(make_ds(w2), 1, 2)
    rows = read_rows(lake)
    assert rows[("r", "p")]["content"] == "v5"
    assert rows[("r", "p")]["commit_seq"] == 5


def test_tombstone_and_resurrection(ray_session, tmp_path):
    lake = new_lake(tmp_path)
    lake.apply_window(
        make_ds(
            [
                ev(1, "insert", "r", "a", "c1", "py", "a1"),
                ev(2, "insert", "r", "b", "c2", "py", "b1"),
            ]
        ),
        0,
        1,
    )
    lake.apply_window(
        make_ds([ev(3, "delete", "r", "a"), ev(4, "delete", "r", "b")]), 1, 2
    )
    rows = read_rows(lake)
    assert rows == {} or ("r", "a") not in rows and ("r", "b") not in rows
    # resurrection: later re-insert wins over the tombstone
    lake.apply_window(make_ds([ev(5, "insert", "r", "a", "c5", "py", "a2")]), 2, 3)
    rows = read_rows(lake)
    assert set(rows) == {("r", "a")}
    assert rows[("r", "a")]["content"] == "a2"


def test_late_update_does_not_resurrect_after_compaction(ray_session, tmp_path):
    # delete at seq 10 compacted with watermark 0 (disorder possible):
    # a late stale update (seq 5) must NOT resurrect the key.
    lake = new_lake(tmp_path)
    lake.apply_window(make_ds([ev(1, "insert", "r", "p", "c1", "py", "v1")]), 0, 1)
    lake.apply_window(make_ds([ev(10, "delete", "r", "p")]), 1, 2)
    lake.compact(min_files=1, tombstone_watermark=0)  # keeps the tombstone
    lake.apply_window(make_ds([ev(5, "update", "r", "p", "c5", "py", "v5")]), 2, 3)
    assert read_rows(lake) == {}


def test_resume_is_idempotent(ray_session, tmp_path):
    lake = new_lake(tmp_path)
    w1 = [ev(1, "insert", "r", "p", "c1", "py", "v1")]
    w2 = [ev(2, "update", "r", "p", "c2", "py", "v2")]
    lake.apply_window(make_ds(w1), 0, 1)
    lake.apply_window(make_ds(w2), 1, 2)
    before = read_rows(lake)
    # simulated restart: re-apply both windows (ledger skips), then a fresh
    # LakeTable.open sees identical state
    assert lake.apply_window(make_ds(w1), 0, 1).get("skipped")
    assert lake.apply_window(make_ds(w2), 1, 2).get("skipped")
    lake2 = LakeTable.open(lake.dir)
    assert read_rows(lake2) == before
    assert lake2.last_committed_hi() == 2


def test_crash_before_commit_invisible(ray_session, tmp_path):
    # a delta staged without a ledger row must not be readable
    lake = new_lake(tmp_path, parts=2)
    lake.apply_window(make_ds([ev(1, "insert", "r", "p", "c1", "py", "v1")]), 0, 1)
    # simulate a crashed window: orphan delta file on disk, no ledger row
    part_dir = os.path.join(lake.dir, "part=00000")
    os.makedirs(part_dir, exist_ok=True)
    orphan = pa.table(
        {
            "__part": pa.array([0], pa.int32()),
            "op": pa.array(["insert"], pa.string()),
            "commit_seq": pa.array([99], pa.int64()),
            "repo": pa.array(["r"], pa.large_string()),
            "path": pa.array(["p"], pa.large_string()),
            "commit": pa.array(["cx"], pa.large_string()),
            "lang": pa.array(["py"], pa.large_string()),
            "content": pa.array(["ORPHAN"], pa.large_string()),
        }
    )
    pq.write_table(orphan, os.path.join(part_dir, "delta-000000000001-000000000099.parquet"))
    rows = read_rows(lake)
    assert rows[("r", "p")]["content"] == "v1"  # orphan invisible


def test_compaction_preserves_state(ray_session, tmp_path):
    lake = new_lake(tmp_path)
    for i in range(1, 6):
        lake.apply_window(
            make_ds([ev(i, "update" if i > 1 else "insert", "r", "p", f"c{i}", "py", f"v{i}")]),
            i - 1,
            i,
        )
    before = read_rows(lake)
    entry = lake.compact(min_files=2, tombstone_watermark=5)
    assert entry["parts"]
    assert read_rows(lake) == before
    files = lake.live_files()
    assert all(len(fs) == 1 for fs in files.values())


def test_skew_spread_and_equivalence(ray_session, tmp_path):
    # one hot repo owning most events still spreads across partitions
    # because the partition key hashes (repo, path) — SURVEY §7.3 salting.
    rows = [
        ev(i, "insert", "hot/repo", f"f{i}.py", f"c{i}", "py", f"v{i}")
        for i in range(1, 101)
    ]
    tbl = pa.table(
        {
            "repo": pa.array([r["repo"] for r in rows]),
            "path": pa.array([r["path"] for r in rows]),
        }
    )
    parts = set(hash_mod_column(tbl, ["repo", "path"], 8).to_pylist())
    assert len(parts) >= 6  # spread over most of 8 buckets
    lake = new_lake(tmp_path, parts=8)
    lake.apply_window(make_ds(rows), 0, 100)
    assert len(read_rows(lake)) == 100


def test_open_rejects_foreign_hash_algo(tmp_path):
    """A lake whose ``_meta.json`` names another partition hash, or
    another on-disk format than this build's (none at all included),
    is refused by every way in: open, create on its directory, and a
    replication round into it."""
    import json

    from jitsu_ray.pipelines.replicate import replicate
    from jitsu_ray.sinks.lake import LAKE_FORMAT, LakeTable

    lake = LakeTable.create(str(tmp_path / "lake"), ["k"], 4)
    meta_path = str(tmp_path / "lake" / "_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    assert meta["hash_algo"] == "polars-xxhash64-seed42"
    assert meta["format"] == LAKE_FORMAT
    meta["hash_algo"] = "some-other-hash-v2"
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    with pytest.raises(RuntimeError, match="hash_algo"):
        LakeTable.open(str(tmp_path / "lake"))

    src = LakeTable.create(str(tmp_path / "src"), ["k"], 4)
    for i, fmt in enumerate([None, LAKE_FORMAT + 1]):
        path = str(tmp_path / f"old{i}")
        LakeTable.create(path, ["k"], 4)
        with open(os.path.join(path, "_meta.json")) as f:
            meta = json.load(f)
        meta.pop("format")
        if fmt is not None:
            meta["format"] = fmt
        with open(os.path.join(path, "_meta.json"), "w") as f:
            json.dump(meta, f)
        want = f"format {fmt!r}, this build reads format {LAKE_FORMAT} only"
        with pytest.raises(RuntimeError, match=want):
            LakeTable.open(path)
        with pytest.raises(RuntimeError, match=want):
            LakeTable.create(path, ["k"], 4)
        with pytest.raises(RuntimeError, match=want):
            replicate(src, LakeTable.open(path))


def test_hash_self_test_known_answers():
    from jitsu_ray.util import hash_self_test

    hash_self_test()  # raises on polars xxhash64 drift


def _lake_fingerprint(lake):
    """(read() state, the ledger's file lists, bytes of every live data
    file and its Bloom sidecar) — equal across two lakes iff they hold
    byte-identical files under identical ledgers."""
    rows = lake.read().take_all()
    state = sorted((r["repo"], r["path"], r["commit_seq"], r["content"]) for r in rows)
    files = [
        e["files"] if e["kind"] == "window"
        else {c: [i["file"] for i in infos] for c, infos in e["parts"].items()}
        for e in lake.ledger.entries() if e["kind"] in ("window", "split")
    ]
    blobs = {}
    for fs in lake.live_files().values():
        for f in fs:
            for path in (f, f + _BLOOM_SUFFIX):
                with open(path, "rb") as fh:
                    blobs[os.path.relpath(path, lake.dir)] = fh.read()
    return state, files, blobs


def _part_rows(lake):
    """{partition: sorted (repo, path, seq, op, content) rows that its
    live files hold for it} — a partition's own rows of each file."""
    import pyarrow.compute as pc

    out = {}
    for p, fs in lake.live_files().items():
        t = pq.ParquetDataset(fs, filters=pc.field("__part") == p).read(
            columns=["repo", "path", "commit_seq", "op", "content"])
        out[p] = sorted(zip(*(t[c].to_pylist() for c in t.column_names)), key=repr)
    return out


def test_fold_group_count_equivalent_state(ray_session, tmp_path, monkeypatch):
    """The number of fold groups (one ``_fold_window`` task each) decides
    a window's files but never a partition's rows: 1, 3 and 8 groups
    give the same read() state and the same rows per partition, also for
    windows routed across a committed split, and each group writes one
    file per window. At a fixed group count, a window passed as a
    ``pa.Table`` (prepped in the driver) gives the same lake, byte for
    byte, as the same rows passed as a Dataset, runs no Ray Data
    execution and submits one fold task per group, each reading the one
    prepped block."""
    import ray.data

    from jitsu_ray.sinks import lake as lake_mod
    from jitsu_ray.testgen import gen_changelog

    tbl = gen_changelog(n_events=4000, n_repos=12, seed=21)

    def build(groups, window):
        lake = LakeTable.create(str(tmp_path / f"lake{groups}-{window.__name__}"),
                                ["repo", "path"], 8)
        lake._cpus = 2 * groups  # min(active partitions, cpus // 2) groups
        assert len(lake._fold_groups(list(range(8)))) == groups
        lake.apply_window(window(tbl.slice(0, 1500)), 0, 1500)
        lake.apply_window(window(tbl.slice(1500, 1500)), 1500, 3000)
        assert lake.split_partition(3, factor=3)["kind"] == "split"
        lake.apply_window(window(tbl.slice(3000, 1000)), 3000, 4000)
        return lake

    def as_table(t):
        return t

    lakes = {g: build(g, ray.data.from_arrow) for g in (1, 3, 8)}
    one = _lake_fingerprint(lakes[1])
    assert set(one[1][2]) == {"3", "11", "19"}  # the split row's children
    [last] = one[1][3].values()  # one group: the window's one file
    assert set(last) & {"11", "19"}  # the last window wrote into them
    rows = _part_rows(lakes[1])
    for g, lake in lakes.items():
        wins = [e for e in lake.ledger.entries() if e["kind"] == "window"]
        assert [len(e["files"]) for e in wins] == [g, g, min(g, 10)]
        assert _lake_fingerprint(lake)[0] == one[0]  # the read() state
        assert _part_rows(lake) == rows

    real = lake_mod._fold_window
    folds = []

    class Counted:
        @staticmethod
        def remote(parts, tag, writer, *refs):
            folds.append((tag, len(refs)))
            return real.remote(parts, tag, writer, *refs)

    def no_ray_data(*args, **kwargs):
        raise AssertionError("a table window ran a Ray Data stage")

    for groups in (1, 3, 8):
        folds.clear()
        with monkeypatch.context() as m:
            m.setattr(lake_mod, "_fold_window", Counted)
            m.setattr(ray.data.Dataset, "map_batches", no_ray_data)
            lake = build(groups, as_table)
        # 8 active partitions before the split, 10 after it
        per_window = [min(groups, 8), min(groups, 8), min(groups, 10)]
        tags = [tag for tag, _ in folds]
        assert [tags.count(t) for t in dict.fromkeys(tags)] == per_window
        assert {n for _, n in folds} == {1}
        assert _lake_fingerprint(lake) == _lake_fingerprint(lakes[groups])


def test_split_block_routes_only_owned_rows(ray_session, tmp_path):
    """Each fold task keeps ONLY its own partitions' rows of every block:
    group ``g`` of 4 writes one file, under its lowest partition ``g``,
    holding rows of partitions ``p % 4 == g`` alone, sorted by
    partition; the file lists exactly the partitions its rows carry,
    with byte shares that sum to its size, and the groups' files hold
    the window's resolved rows once each — nothing lost, nothing
    duplicated."""
    import ray as _ray
    import ray.data

    from jitsu_ray.sinks import lake as lake_mod
    from jitsu_ray.sinks.lake import PART_COL, resolve_keep_tombstones
    from jitsu_ray.testgen import gen_changelog

    key_cols, num_parts, pool = ["repo", "path"], 16, 4
    tbl = gen_changelog(n_events=1200, n_repos=8, seed=0)
    lake = LakeTable.create(str(tmp_path / "lake"), key_cols, num_parts)
    lake.apply_window(ray.data.from_arrow(tbl.slice(0, 200)), 0, 200)
    blocks = [
        lake_mod._prep_window_batch(
            tbl.slice(lo, 500), lake.full_arrow_schema(), key_cols, num_parts, [])
        for lo in (200, 700)
    ]
    writer = {"lake_dir": lake.dir, "key_cols": key_cols, "zone_cols": key_cols}
    refs = [_ray.put(b) for b in blocks]
    groups = [[p for p in range(num_parts) if p % pool == g] for g in range(pool)]
    infos = _ray.get([
        lake_mod._fold_window.remote(g, "000000000200-000000001200", writer, *refs)
        for g in groups
    ])
    keys = []
    for g, rows in enumerate(infos):
        [r] = rows  # 1000 events over 16 partitions reach every group
        assert r["file"] == f"part={g:05d}/delta-000000000200-000000001200.parquet"
        assert all(p % pool == g for p in r["parts"])  # group g wrote ONLY its partitions
        got = pq.read_table(os.path.join(lake.dir, r["file"]))
        assert got[PART_COL].to_pylist() == sorted(got[PART_COL].to_pylist())
        assert set(got[PART_COL].to_pylist()) == set(r["parts"])
        assert {p: c["rows"] for p, c in r["parts"].items()} == {
            p: got[PART_COL].to_pylist().count(p) for p in r["parts"]}
        assert sum(c["bytes"] for c in r["parts"].values()) == r["bytes"] == os.path.getsize(
            os.path.join(lake.dir, r["file"]))
        keys += zip(got["repo"].to_pylist(), got["path"].to_pylist())
    want = resolve_keep_tombstones(pa.concat_tables(blocks), key_cols)
    assert len(keys) == len(set(keys)) == want.num_rows  # nothing lost or doubled
    assert set(keys) == set(zip(want["repo"].to_pylist(), want["path"].to_pylist()))


def test_exchange_split_mode_equivalent_state(ray_session, tmp_path, monkeypatch):
    """The split exchange — several fold groups, each taking only its own
    rows out of every block — converges to the same read() state and the
    same rows per partition, in the same order, as one group folding
    every row, when windows arrive as many blocks whose equal keys must
    keep their block order."""
    import ray.data

    from jitsu_ray.sinks import lake as lake_mod
    from jitsu_ray.testgen import gen_changelog

    tbl = gen_changelog(n_events=4000, n_repos=12, seed=21)
    real = lake_mod._fold_window
    n_blocks = []

    class Counted:
        @staticmethod
        def remote(parts, tag, writer, *refs):
            n_blocks.append(len(refs))
            return real.remote(parts, tag, writer, *refs)

    monkeypatch.setattr(lake_mod, "_fold_window", Counted)

    def run(groups):
        lake = LakeTable.create(str(tmp_path / f"lake{groups}"), ["repo", "path"], 8)
        lake._cpus = 2 * groups  # min(active partitions, cpus // 2) groups
        for lo in (0, 2000):
            pieces = [tbl.slice(lo + i, 400) for i in range(0, 2000, 400)]
            lake.apply_window(ray.data.from_arrow(pieces), lo, lo + 2000)
        return _lake_fingerprint(lake)[0], _part_rows(lake)

    one = run(1)
    assert min(n_blocks) > 1  # every fold read several blocks
    assert run(4) == one


def test_apply_window_starts_no_actor(ray_session, tmp_path):
    """The window path is stateless tasks only: two windows on a fresh
    lake leave the GCS actor table's ALIVE set unchanged. Each window
    row records its stage times next to ``window_sec``."""
    import ray.data
    from ray._private import state as ray_state

    from jitsu_ray.testgen import gen_changelog

    def alive():
        return {a for a, v in ray_state.actors().items() if v["State"] == "ALIVE"}

    tbl = gen_changelog(n_events=2000, n_repos=8, seed=5)
    # warm-up on another lake: Ray Data's own session-wide helpers
    # (e.g. its stats actor) start at the session's first Dataset
    warm = LakeTable.create(str(tmp_path / "warm"), ["repo", "path"], 4)
    warm.apply_window(ray.data.from_arrow(tbl.slice(0, 500)), 0, 500)
    before = alive()
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    lake.apply_window(ray.data.from_arrow(tbl.slice(0, 1000)), 0, 1000)
    lake.apply_window(ray.data.from_arrow(tbl.slice(1000, 1000)), 1000, 2000)
    assert alive() == before
    for e in lake.ledger.entries():
        m = e["metrics"]
        assert set(m["stages"]) == {"schema_sec", "stream_sec", "fold_sec", "write_sec"}
        assert 0 <= m["stages"]["write_sec"] <= m["stages"]["fold_sec"] <= m["window_sec"]
        assert 0 <= m["stages"]["stream_sec"] <= m["window_sec"]
        assert 0 <= m["stages"]["schema_sec"] <= m["window_sec"]


def test_fold_window_retry_is_idempotent(ray_session, tmp_path, monkeypatch):
    """A fold task retried by Ray (its worker died mid-window) reruns on
    the same block refs: the rerun returns the same infos (bar its own
    ``fold_sec`` and ``write_sec`` timings) and rewrites byte-identical
    data files and Bloom sidecars, and the window commits once."""
    import ray as _ray
    import ray.data

    from jitsu_ray.sinks import lake as lake_mod
    from jitsu_ray.testgen import gen_changelog

    tbl = gen_changelog(n_events=1500, n_repos=8, seed=9)
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    lake.apply_window(ray.data.from_arrow(tbl.slice(0, 500)), 0, 500)
    real = lake_mod._fold_window
    runs = []

    class Retried:
        """Runs each fold twice, the first attempt's files left on disk
        as a worker killed after its writes would leave them."""

        @staticmethod
        def remote(parts, tag, writer, *refs):
            first = _ray.get(real.remote(parts, tag, writer, *refs))
            disk = {}
            for r in first:
                for f in (r["file"], r["file"] + _BLOOM_SUFFIX):
                    with open(os.path.join(lake.dir, f), "rb") as fh:
                        disk[f] = fh.read()
            runs.append((first, disk))
            return real.remote(parts, tag, writer, *refs)

    monkeypatch.setattr(lake_mod, "_fold_window", Retried)
    entry = lake.apply_window(ray.data.from_arrow(tbl.slice(500, 1000)), 500, 1500)
    monkeypatch.undo()
    assert runs and sum(len(first) for first, _ in runs) == len(entry["files"])
    files = {r["file"] for first, _ in runs for r in first}
    assert files == set(entry["files"])
    untimed = lambda rows: [{k: v for k, v in r.items() if not k.endswith("_sec")} for r in rows]
    for first, disk in runs:
        for f, blob in disk.items():
            with open(os.path.join(lake.dir, f), "rb") as fh:
                assert fh.read() == blob  # the retry rewrote the same bytes
        for r in untimed(first):
            assert entry["files"][r["file"]] == {str(p): c["bytes"] for p, c in r["parts"].items()}
            assert entry["key_stats"][r["file"]] == r["key_stats"]
    # the same refs folded twice more, by hand, return identical infos
    prepped = [
        _ray.put(lake_mod._prep_window_batch(
            tbl.slice(500, 1000), lake.full_arrow_schema(), ["repo", "path"], 4, []))
    ]
    writer = {"lake_dir": lake.dir, "key_cols": ["repo", "path"],
              "zone_cols": ["repo", "path"]}
    tag = "000000000500-000000001500"
    groups = lake._fold_groups([0, 1, 2, 3])  # the window's own groups
    a, b = ([r for g in groups for r in _ray.get(real.remote(g, tag, writer, *prepped))]
            for _ in range(2))
    assert untimed(a) == untimed(b)
    assert {r["file"] for r in a} == files
    # one window row for (500, 1500]; a re-apply is the committed skip
    wins = [e for e in lake.ledger.entries() if e["kind"] == "window"]
    assert [(e["lo"], e["hi"]) for e in wins] == [(0, 500), (500, 1500)]
    assert lake.apply_window(ray.data.from_arrow(tbl.slice(500, 1000)), 500, 1500)["skipped"]
    ref = LakeTable.create(str(tmp_path / "ref"), ["repo", "path"], 4)
    ref.apply_window(ray.data.from_arrow(tbl.slice(0, 500)), 0, 500)
    ref.apply_window(ray.data.from_arrow(tbl.slice(500, 1000)), 500, 1500)
    assert _lake_fingerprint(lake) == _lake_fingerprint(ref)


def _twin_lakes(tmp_path, n_windows=3, size=1000, seed=31):
    """Two lakes over one changelog in ``size``-event windows: ``merged``
    applies its last window with ``compact=True``, ``plain`` applies it
    as a delta and then runs the full compaction that window replaces
    (``tombstone_watermark`` = its ``hi``). Neither is vacuumed."""
    import ray.data

    from jitsu_ray.testgen import gen_changelog

    tbl = gen_changelog(n_events=n_windows * size, n_repos=12, seed=seed)
    lakes = {}
    for name in ("merged", "plain"):
        lake = LakeTable.create(str(tmp_path / name), ["repo", "path"], 4)
        for i in range(n_windows):
            last = i == n_windows - 1
            lake.apply_window(
                ray.data.from_arrow(tbl.slice(i * size, size)), i * size, (i + 1) * size,
                compact=last and name == "merged",
            )
        if name == "plain":
            lake.compact(min_files=2, tombstone_watermark=n_windows * size)
        lakes[name] = lake
    return tbl, lakes["merged"], lakes["plain"]


def _live_bytes(lake):
    """{partition: [bytes of each live data file and its Bloom sidecar]}."""
    out = {}
    for p, fs in lake.live_files().items():
        for f in fs:
            for path in (f, f + _BLOOM_SUFFIX):
                with open(path, "rb") as fh:
                    out.setdefault(p, []).append(fh.read())
    return out


def test_compacting_window_retry_is_idempotent(ray_session, tmp_path, monkeypatch):
    """The fold-retry contract holds for a window that compacts: a rerun
    over the same refs returns the same infos (bar ``fold_sec``) and
    rewrites byte-identical base files and Bloom sidecars, and the
    window commits once. Base files written without a ledger row (a
    crash before the commit) stay invisible to ``read()``, and rerunning
    ``Replayer.run()`` converges to the state of a run that never
    crashed."""
    import glob

    import ray as _ray
    import ray.data

    from jitsu_ray.pipelines.replay import Replayer
    from jitsu_ray.sinks import lake as lake_mod
    from jitsu_ray.sinks.retry import PermanentSinkError
    from jitsu_ray.testgen import gen_changelog, oracle_final_state, write_changelog

    tbl = gen_changelog(n_events=1500, n_repos=8, seed=9)
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    lake.apply_window(ray.data.from_arrow(tbl.slice(0, 500)), 0, 500)
    lake.apply_window(ray.data.from_arrow(tbl.slice(500, 500)), 500, 1000)
    before = lake.live_files()
    real = lake_mod._fold_window
    runs = []

    class Retried:
        """Runs each fold twice, the first attempt's files left on disk
        as a worker killed after its writes would leave them."""

        @staticmethod
        def remote(parts, tag, writer, *refs):
            first = _ray.get(real.remote(parts, tag, writer, *refs))
            disk = {}
            for r in first:
                for f in (r["file"], r["file"] + _BLOOM_SUFFIX):
                    with open(os.path.join(lake.dir, f), "rb") as fh:
                        disk[f] = fh.read()
            runs.append((parts, writer, first, disk))
            return real.remote(parts, tag, writer, *refs)

    monkeypatch.setattr(lake_mod, "_fold_window", Retried)
    entry = lake.apply_window(
        ray.data.from_arrow(tbl.slice(1000, 500)), 1000, 1500, compact=True)
    monkeypatch.undo()
    tag = "000000001000-000000001500"
    assert entry["replaces"] and all(
        entry["files"][f"part={int(p):05d}/base-{tag}.parquet"] == {p: mock.ANY}
        for p in entry["replaces"])
    untimed = lambda rows: [{k: v for k, v in r.items() if not k.endswith("_sec")} for r in rows]
    for _, _, first, disk in runs:
        for f, blob in disk.items():
            with open(os.path.join(lake.dir, f), "rb") as fh:
                assert fh.read() == blob  # the retry rewrote the same bytes
        for r in untimed(first):
            assert entry["files"][r["file"]] == {str(p): c["bytes"] for p, c in r["parts"].items()}
            assert entry["key_stats"][r["file"]] == r["key_stats"]
            for p in r["parts"]:
                assert entry["replaces"].get(str(p)) == r.get("replaces")
    # the same rows folded twice more, by hand, return identical infos
    # and leave the committed bytes as they were
    prepped = [
        _ray.put(lake_mod._prep_window_batch(
            tbl.slice(1000, 500), lake.full_arrow_schema(), ["repo", "path"], 4, []))
    ]
    for parts, writer, first, disk in runs:
        a = _ray.get(real.remote(parts, tag, writer, *prepped))
        b = _ray.get(real.remote(parts, tag, writer, *prepped))
        assert untimed(a) == untimed(b) == untimed(first)
        for f, blob in disk.items():
            with open(os.path.join(lake.dir, f), "rb") as fh:
                assert fh.read() == blob
    wins = [e for e in lake.ledger.entries() if e["kind"] == "window"]
    assert [(e["lo"], e["hi"]) for e in wins] == [(0, 500), (500, 1000), (1000, 1500)]
    assert lake.apply_window(
        ray.data.from_arrow(tbl.slice(1000, 500)), 1000, 1500, compact=True)["skipped"]
    for p, files in entry["replaces"].items():
        assert [os.path.join(lake.dir, f) for f in files] == before[int(p)]

    # a crash between the fold and the ledger row, then a rerun
    log = str(tmp_path / "log")
    write_changelog(log, tbl, rows_per_file=500)
    crashed = LakeTable.create(str(tmp_path / "crashed"), ["repo", "path"], 4)
    Replayer(log, crashed, window_size=500).run_streaming(max_seq=1000)
    append = crashed.ledger.append

    def dies_on_compacting_row(e):
        if e.get("replaces"):
            raise PermanentSinkError("driver died before the commit")
        return append(e)

    monkeypatch.setattr(crashed.ledger, "append", dies_on_compacting_row)
    with pytest.raises(PermanentSinkError):
        Replayer(log, crashed, window_size=500).run()
    monkeypatch.undo()
    assert glob.glob(os.path.join(crashed.dir, "part=*", f"base-{tag}.parquet"))
    reopened = LakeTable.open(crashed.dir)
    state = lambda rows: sorted((r["repo"], r["path"], r["commit_seq"], r["content"]) for r in rows)
    assert state(reopened.read().take_all()) == state(
        oracle_final_state(tbl.slice(0, 1000)).to_pylist())
    assert all("base-" not in f for fs in reopened.live_files().values() for f in fs)
    Replayer(log, reopened, window_size=500).run()
    clean = LakeTable.create(str(tmp_path / "clean"), ["repo", "path"], 4)
    Replayer(log, clean, window_size=500).run_streaming(max_seq=1000)
    Replayer(log, clean, window_size=500).run()
    assert _lake_fingerprint(reopened) == _lake_fingerprint(clean)


def test_compacting_window_accounting_matches_twin(ray_session, tmp_path):
    """A compacting window counts its own resolved rows and tombstones
    (so ``ingest_report()``, replication and the metrics registry see
    what a plain window reports) and every byte it wrote (the bases).
    Its bases are byte-identical to the twin lake's compaction output,
    and on each lake the ledger's byte counts sum to the on-disk bytes
    of every data file the ledger named."""
    from jitsu_ray.sinks.lake import _CHUNK_RE

    _, merged, plain = _twin_lakes(tmp_path)
    rm, rp = merged.ingest_report(), plain.ingest_report()
    assert (rm["rows_written"], rm["tombstones"]) == (rp["rows_written"], rp["tombstones"])
    assert {p: (d["rows"], d["tombstones"]) for p, d in rm["partitions"].items()} == {
        p: (d["rows"], d["tombstones"]) for p, d in rp["partitions"].items()
    }
    last = merged.ledger.window_metrics()[-1]
    assert set(last["replaces"]) == {p for held in last["files"].values() for p in held} == {
        "0", "1", "2", "3"}
    for name in last["files"]:
        assert not _CHUNK_RE.search(name)
    # the merged lake's end-of-run pass finds nothing to fold
    assert merged.maintain(min_files=2, tombstone_watermark=3000)["compact"]["parts"] == {}
    assert _live_bytes(merged) == _live_bytes(plain)
    assert all(len(fs) == 1 for fs in merged.live_files().values())
    for lake in (merged, plain):
        ledger_bytes, named = 0, set()
        for e in lake.ledger.entries():
            if e["kind"] == "window":
                ledger_bytes += e["metrics"]["bytes_written"]
                assert e["metrics"]["bytes_written"] == sum(
                    pp["bytes"] for pp in e["metrics"]["per_partition"])
                named.update(e["files"])
            elif e["kind"] == "compact":
                for folds in e["parts"].values():
                    for one in folds:
                        ledger_bytes += one["bytes"]
                        named.add(one["file"])
        assert ledger_bytes == sum(os.path.getsize(os.path.join(lake.dir, f)) for f in named)
    assert rm["bytes_written"] < rp["bytes_written"] + sum(
        one["bytes"] for e in plain.ledger.entries() if e["kind"] == "compact"
        for folds in e["parts"].values() for one in folds)
    for lake in (merged, plain):
        lake.vacuum(keep_history=0)
    assert read_rows(merged) == read_rows(plain)


def test_compacting_window_time_travel_and_diff(ray_session, tmp_path):
    """Across a compacting window, on a lake that keeps history: reads,
    lookups and diffs bounded at its ``lo`` equal the twin lake's, a
    bound inside the window still sees the files the window replaced,
    and once vacuumed that history raises the error naming the vacuum
    row, as it does after a compaction. A forced window cannot
    compact."""
    import ray.data

    tbl, merged, plain = _twin_lakes(tmp_path)
    lo, hi = 2000, 3000
    state = lambda rows: sorted((r["repo"], r["path"], r["commit_seq"], r["content"]) for r in rows)
    assert state(merged.read(as_of=lo).take_all()) == state(plain.read(as_of=lo).take_all())
    keys = [{"repo": r["repo"], "path": r["path"]} for r in tbl.slice(1990, 30).to_pylist()]
    assert state(merged.lookup(keys, as_of=lo).to_pylist()) == state(
        plain.lookup(keys, as_of=lo).to_pylist())
    diff = lambda lake: sorted(
        (r["repo"], r["path"], r["change"], r["content"])
        for r in lake.diff_as_of(lo, hi).take_all())
    assert diff(merged) == diff(plain) and diff(merged)
    rel = lambda lake, live: {p: [os.path.relpath(f, lake.dir) for f in fs] for p, fs in live.items()}
    pre = rel(merged, merged.live_files(as_of=lo))
    assert rel(merged, merged.live_files(as_of=lo + 500)) == pre
    assert pre == rel(plain, plain.live_files(as_of=lo))
    assert all("delta-" in f for fs in pre.values() for f in fs)
    for lake in (merged, plain):
        vac = lake.vacuum(keep_history=0)
        seq = lake.ledger.max_seq()
        assert vac["removed"]
        with pytest.raises(FileNotFoundError, match=f"removed by vacuum ledger row {seq} "):
            lake.read(as_of=lo).take_all()
    with pytest.raises(ValueError, match="forced window cannot compact"):
        merged.apply_window(
            ray.data.from_arrow(tbl.slice(0, 10)), 0, 10, force=True, compact=True)


def test_metrics_registry_counters_and_gauges(ray_session, tmp_path):
    """A3/A4: lake windows push success counters + throughput/pool
    gauges to the named registry; sink reports land as counters too."""
    import ray as _ray
    import ray.data

    from jitsu_ray.sinks.lake import LakeTable
    from jitsu_ray.state.metrics import get_metrics, record_sink_report
    from jitsu_ray.testgen import gen_changelog

    metrics = get_metrics("metrics_test")
    _ray.get(metrics.reset.remote())
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    lake.attach_metrics(metrics)
    tbl = gen_changelog(n_events=2000, n_repos=8, seed=3)
    lake.apply_window(ray.data.from_arrow(tbl.slice(0, 1000)), 0, 1000)
    lake.apply_window(ray.data.from_arrow(tbl.slice(1000, 1000)), 1000, 2000)
    record_sink_report(metrics, {"written": 10, "dead": 2, "max_attempts_seen": 3})
    snap = _ray.get(metrics.snapshot.remote())
    assert snap["counters"]["lake.windows"] == 2
    assert snap["counters"]["lake.rows_written"] > 0
    assert snap["gauges"]["lake.events_per_sec"] > 0
    assert snap["gauges"]["lake.partition_rows_max"] > 0
    assert snap["counters"]["sink.written"] == 10
    assert snap["counters"]["sink.dead_lettered"] == 2
    assert snap["gauges"]["sink.attempts_max"] == 3


def test_int64_key_roundtrips_dtype_exactly(ray_session, tmp_path):
    # round-2 verdict #1: key cols were hard-coded large_string, so an
    # int64 PK came back as "5". Types must now be frozen at the first
    # window and round-trip exactly (reference adapters/table.go:13-23).
    import ray.data

    lake = LakeTable.create(str(tmp_path / "ilake"), ["event_id"], 4)
    tbl = pa.table(
        {
            "commit_seq": pa.array([1, 2, 3], pa.int64()),
            "op": pa.array(["insert"] * 3, pa.string()),
            "event_id": pa.array([10, 11, 12], pa.int64()),
            "payload": pa.array(["a", "b", "c"], pa.string()),
        }
    )
    lake.apply_window(ray.data.from_arrow(tbl), 0, 3)
    out = lake.read().take_all()
    assert sorted(r["event_id"] for r in out) == [10, 11, 12]
    assert all(isinstance(r["event_id"], int) for r in out)
    sch = lake.full_arrow_schema()
    assert sch.field("event_id").type == pa.int64()
    # reopened handle sees the frozen type from _meta.json
    reopened = LakeTable.open(str(tmp_path / "ilake"))
    assert reopened.full_arrow_schema().field("event_id").type == pa.int64()
    # a later window delivering the key as strings is cast back to the
    # frozen int64 type (keys are never retyped)
    tbl2 = pa.table(
        {
            "commit_seq": pa.array([4], pa.int64()),
            "op": pa.array(["update"], pa.string()),
            "event_id": pa.array(["10"], pa.string()),
            "payload": pa.array(["a2"], pa.string()),
        }
    )
    reopened.apply_window(ray.data.from_arrow(tbl2), 3, 4)
    rows = {r["event_id"]: r["payload"] for r in reopened.read().take_all()}
    assert rows == {10: "a2", 11: "b", 12: "c"}


def test_delete_where_on_int64_keys(ray_session, tmp_path):
    import ray.data
    import pyarrow.compute as pc

    lake = LakeTable.create(str(tmp_path / "dlake"), ["event_id"], 4)
    tbl = pa.table(
        {
            "commit_seq": pa.array([1, 2, 3, 4], pa.int64()),
            "op": pa.array(["insert"] * 4, pa.string()),
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "kind": pa.array(["keep", "drop", "keep", "drop"], pa.string()),
        }
    )
    lake.apply_window(ray.data.from_arrow(tbl), 0, 4)
    lake.delete_where(lambda b: pc.equal(b["kind"], "drop"))
    out = sorted(r["event_id"] for r in lake.read().take_all())
    assert out == [1, 3]


def test_null_first_key_pins_string_keys(ray_session, tmp_path):
    """A key column that the lake's first committed window carries
    all-null (``pa.null()``) stays unpinned, and that window's file
    holds it with the STRING default. A later typed window then pins
    STRING, not its own type, so full_arrow_schema() still matches the
    committed file and both rows read back."""
    import json

    lake = LakeTable.create(str(tmp_path / "lake"), ["event_id"], 4)

    def win(seqs, ids, vals, key_type):
        return pa.table(
            {
                "commit_seq": pa.array(seqs, pa.int64()),
                "op": pa.array(["insert"] * len(seqs), pa.string()),
                "event_id": pa.array(ids, key_type),
                "v": pa.array(vals, pa.string()),
            }
        )

    lake.apply_window(win([1], [None], ["a"], pa.null()), 0, 1)
    assert lake.key_types == {}  # an all-null key pins nothing
    reopened = LakeTable.open(lake.dir)
    reopened.apply_window(win([2], [6], ["b"], pa.int64()), 1, 2)
    with open(os.path.join(lake.dir, "_meta.json")) as f:
        assert json.load(f)["key_types"] == {"event_id": "STRING"}
    assert reopened.full_arrow_schema().field("event_id").type == pa.large_string()
    rows = {r["event_id"]: r["v"] for r in reopened.read().take_all()}
    assert rows == {None: "a", "6": "b"}


def test_time_travel_read(ray_session, tmp_path):
    # as_of reads reconstruct the state at any committed window boundary
    lake = new_lake(tmp_path)
    lake.apply_window(make_ds([ev(1, "insert", "r", "p1", "c1", "py", "v1")]), 0, 1)
    lake.apply_window(make_ds([ev(2, "insert", "r", "p2", "c2", "py", "v2")]), 1, 2)
    lake.apply_window(make_ds([ev(3, "delete", "r", "p1", None, None, None)]), 2, 3)

    now = {(r["repo"], r["path"]) for r in lake.read().take_all()}
    assert now == {("r", "p2")}
    at2 = {(r["repo"], r["path"]) for r in lake.read(as_of=2).take_all()}
    assert at2 == {("r", "p1"), ("r", "p2")}
    at1 = {(r["repo"], r["path"]) for r in lake.read(as_of=1).take_all()}
    assert at1 == {("r", "p1")}
    assert lake.read(as_of=0).take_all() == []
    # a compaction folding windows BEYOND as_of, then a vacuum, removes
    # that history: the time-travel read must fail loudly, not silently
    # mis-answer
    lake.compact(min_files=1, tombstone_watermark=0)
    lake.vacuum()
    with pytest.raises(FileNotFoundError):
        lake.read(as_of=2)
    # current state unaffected
    assert {(r["repo"], r["path"]) for r in lake.read().take_all()} == {("r", "p2")}


def test_time_travel_includes_late_spooled_window(ray_session, tmp_path):
    # replay_spooled commits a LOWER-hi window after higher ones
    # (force=True); a time-travel read within the bound must include it
    lake = new_lake(tmp_path)
    lake.apply_window(make_ds([ev(2, "insert", "r", "pA", "c", "py", "vA")]), 1, 2)
    # window (2,4] commits BEFORE the recovered window (0,1]
    lake.apply_window(make_ds([ev(4, "insert", "r", "pB", "c", "py", "vB")]), 2, 4)
    lake.apply_window(make_ds([ev(1, "insert", "r", "pC", "c", "py", "vC")]), 0, 1, force=True)
    at2 = {(r["repo"], r["path"]) for r in lake.read(as_of=2).take_all()}
    assert at2 == {("r", "pA"), ("r", "pC")}  # pC committed late but hi<=2
    allofit = {(r["repo"], r["path"]) for r in lake.read().take_all()}
    assert allofit == {("r", "pA"), ("r", "pB"), ("r", "pC")}


def test_ledger_append_concurrent_writers(tmp_path):
    # round-3 verdict: two independent writer processes must not
    # last-writer-wins each other's ledger row — seqs are claimed via
    # atomic hard link, losers re-scan and retry
    from concurrent.futures import ThreadPoolExecutor

    from jitsu_ray.state.ledger import Ledger

    d = str(tmp_path / "ledger")

    def writer(tag):
        led = Ledger(d)  # each writer its own instance (process analog)
        return [
            led.append({"kind": "window", "lo": i, "hi": i + 1, "tag": tag})
            for i in range(25)
        ]

    with ThreadPoolExecutor(4) as ex:
        futs = [ex.submit(writer, t) for t in range(4)]
        seqs = [s for f in futs for s in f.result()]
    assert sorted(seqs) == list(range(1, 101))  # no lost or duplicate seq
    entries = Ledger(d).entries()
    assert len(entries) == 100
    assert sorted((e["tag"], e["lo"]) for e in entries) == sorted(
        (t, i) for t in range(4) for i in range(25)
    )


@pytest.mark.parametrize("seed", range(6))
def test_ledger_two_instances_cursor_equals_full_replay(tmp_path, seed):
    """Two Ledger instances on one directory (two writer processes'
    analog) interleave window, compact, split, vacuum and checkpoint
    rows. An instance often commits with a stale cursor, so its claim
    collides and it must advance over the other's rows first; after
    every row, each instance's incrementally advanced state, and a fresh
    reader's (which starts from the newest checkpoint), equal a full
    replay of the history. A window lists some of its files under
    several partitions, so compactions and splits retire a shared file
    one partition at a time, and vacuum removes it only once no
    partition lists it."""
    import random

    from jitsu_ray.sinks.lake import active_moduli
    from jitsu_ray.state.ledger import Ledger

    d = str(tmp_path / "ledger")
    rnd = random.Random(seed)

    def active(st):
        return active_moduli(3, st.splits)

    leds = [Ledger(d), Ledger(d)]
    n = 0
    shared: set[str] = set()  # files a window listed under several partitions
    vacuumed_shared: set[str] = set()

    def new_file(p):
        nonlocal n
        n += 1
        return f"part={p:05d}/f{n}.parquet"

    def zone():
        lo = rnd.randint(0, 100)
        return {"k": [lo, lo + rnd.randint(0, 50)]}

    for step in range(60):
        led = rnd.choice(leds)
        act = rnd.choice(["window"] * 4 + ["compact", "split", "vacuum", "checkpoint"])
        if act == "window":
            # built from the possibly stale cursor: the claim may collide
            act_parts = sorted(active(led._state))
            ps = rnd.sample(act_parts, rnd.randint(1, len(act_parts)))
            files = {}  # one file per fold group, under its lowest partition
            while ps:
                k = rnd.randint(1, len(ps))
                grp, ps = sorted(ps[:k]), ps[k:]
                files[new_file(grp[0])] = {str(p): rnd.randint(1, 999) for p in grp}
            shared |= {f for f, held in files.items() if len(held) > 1}
            led.append({"kind": "window", "lo": step, "hi": step + 1, "files": files,
                        "key_stats": {f: zone() for f in files}})
        elif act == "compact":
            st = led.state()
            parts = {}
            for p, fs in st.parts.items():
                if len(fs) >= 2:
                    k = rnd.randint(2, len(fs))
                    parts[str(p)] = [{"file": new_file(p), "replaces": fs[:k],
                                      "key_stats": zone(), "bytes": rnd.randint(1, 999)}]
            led.append({"kind": "compact", "parts": parts})
        elif act == "split":
            st = led.state()
            moduli = active(st)
            parent = rnd.choice(sorted(moduli))
            m = moduli[parent]
            kids = [parent + j * m for j in range(2)]
            led.append({"kind": "split", "parent": parent, "modulus": m, "factor": 2,
                        "children": kids, "replaces": list(st.parts.get(parent, [])),
                        "parts": {str(c): [{"file": new_file(c), "key_stats": zone(),
                                            "bytes": rnd.randint(1, 999)}]
                                  for c in kids}})
        elif act == "vacuum":
            st = led.state()
            gone = [f for f, s in st.pending.items() if s <= st.seq - rnd.randint(0, 3)]
            if gone:
                led.append({"kind": "vacuum", "removed": gone})
                vacuumed_shared |= shared & set(gone)
        else:
            led.checkpoint()
        # the idle instance is checked (and so advanced) only sometimes,
        # so it often acts on a stale cursor
        full = _views(_full_replay(d))
        for other in (led, Ledger(d), *([leds[0], leds[1]] if rnd.random() < 0.3 else [])):
            assert _views(other.state()) == full, (seed, step, act)
    for led in leds:
        assert _views(led.state()) == _views(_full_replay(d))
    ents = Ledger(d).entries()
    assert {e["kind"] for e in ents} == {"window", "compact", "split", "vacuum", "checkpoint"}
    assert [e["_seq"] for e in ents] == list(range(1, len(ents) + 1))  # no gaps
    assert vacuumed_shared, seed  # a shared file was retired and vacuumed


def test_ledger_concurrent_writers_with_checkpoints(tmp_path):
    """Threads with their own Ledger instance append windows and
    checkpoints concurrently: seqs stay gap-free, and no checkpoint
    hides a concurrently committed row (a fresh reader starting from
    the newest checkpoint equals a full replay)."""
    from concurrent.futures import ThreadPoolExecutor

    from jitsu_ray.state.ledger import Ledger

    d = str(tmp_path / "ledger")

    def writer(tag):
        led = Ledger(d)
        for i in range(20):
            led.append({"kind": "window", "lo": i, "hi": i + 1,
                        "files": {f"part={tag:05d}/w{tag}-{i}.parquet": {str(tag): 100}}})
            if i % 5 == 4:
                led.checkpoint()
        return led

    with ThreadPoolExecutor(4) as ex:
        leds = list(ex.map(writer, range(4)))
    ents = Ledger(d).entries()
    assert [e["_seq"] for e in ents] == list(range(1, len(ents) + 1))
    assert sum(e["kind"] == "window" for e in ents) == 80
    full = _full_replay(d)
    assert sum(len(fs) for fs in full.parts.values()) == 80
    for led in (*leds, Ledger(d)):
        assert _views(led.state()) == _views(full)


def test_ledger_reads_are_o_new_rows(ray_session, tmp_path):
    """The control plane does not grow with the lake's age: on a lake of
    40 windows with no maintenance, each further apply_window parses at
    most 2 ledger rows, and a lookup on a freshly reopened lake parses
    only the rows since the newest checkpoint, plus the checkpoint."""
    from jitsu_ray.state.ledger import Ledger

    lake = new_lake(tmp_path, parts=2)

    def window(i):
        return make_ds([ev(i + 1, "insert", f"r{i % 7}", f"p{i}", "c", "py", f"v{i}")])

    for i in range(40):
        lake.apply_window(window(i), i, i + 1)
    for i in range(40, 43):
        with _count_rows_parsed() as parsed:
            lake.apply_window(window(i), i, i + 1)
        assert sum(parsed) <= 2, parsed
    assert lake.ledger.checkpoint() == 44
    for i in range(43, 45):
        lake.apply_window(window(i), i, i + 1)
    ents = Ledger(lake.ledger.dir).entries()
    assert [e["kind"] for e in ents].count("checkpoint") == 1
    with _count_rows_parsed() as parsed:
        got = LakeTable.open(lake.dir).lookup([{"repo": "r0", "path": "p42"}])
    assert got.num_rows == 1 and got["content"][0].as_py() == "v42"
    assert sum(parsed) <= len(ents) - 44 + 1, parsed


def test_concurrent_apply_window_two_writers(ray_session, tmp_path):
    # two driver-side writers (separate LakeTable instances on one lake
    # dir) applying different windows concurrently: both ledger rows
    # land, key types pin once (meta lock), read sees both windows
    from concurrent.futures import ThreadPoolExecutor

    path = str(tmp_path / "lake")
    l1 = LakeTable.create(path, ["repo", "path"], 4)
    l2 = LakeTable.open(path)

    def w(lake, seq, p, lo, hi):
        return lake.apply_window(
            make_ds([ev(seq, "insert", "r", p, "c", "py", f"v{seq}")]),
            lo, hi, force=True,
        )

    with ThreadPoolExecutor(2) as ex:
        f1 = ex.submit(w, l1, 1, "p1", 0, 1)
        f2 = ex.submit(w, l2, 2, "p2", 1, 2)
        e1, e2 = f1.result(), f2.result()
    assert not e1.get("skipped") and not e2.get("skipped")
    lake = LakeTable.open(path)
    assert set(read_rows(lake)) == {("r", "p1"), ("r", "p2")}
    assert len(lake.ledger.window_metrics()) == 2
    assert lake.key_types["repo"].name == "STRING"


def test_window_row_committed_twice_lists_its_file_once(ray_session, tmp_path):
    """Two handles applying one normal window can both pass its ``hi``
    check and commit two rows naming the same deterministic file. The
    second row lists nothing new: each partition lists the file once,
    the state reads as one apply, the report counts the file once and
    vacuum keeps it."""
    lake = new_lake(tmp_path)
    lake.apply_window(
        make_ds([ev(i + 1, "insert", f"r{i}", "f.py", "c", "py", f"v{i}") for i in range(40)]),
        0, 40,
    )
    once = read_rows(lake)
    [row] = [e for e in lake.ledger.entries() if e["kind"] == "window"]
    assert any(len(held) > 1 for held in row["files"].values())  # a shared file
    del row["_seq"]
    lake.ledger.append(row)  # the racing handle's row
    for handle in (lake, LakeTable.open(lake.dir)):
        live = handle.live_files()
        for f, held in row["files"].items():
            for p in held:
                assert live[int(p)].count(os.path.join(lake.dir, f)) == 1, (f, p)
        assert read_rows(handle) == once
        assert handle.ingest_report()["live_files"] == len(row["files"])
    lake.vacuum(keep_history=0)
    assert all(os.path.exists(os.path.join(lake.dir, f)) for f in row["files"])
    assert read_rows(LakeTable.open(lake.dir)) == once


def test_diff_as_of(ray_session, tmp_path):
    # value-level CDC diff between two committed states: insert (new
    # key), update (content changed), delete (tombstoned), and a NO-OP
    # re-upsert with identical values (must NOT appear)
    lake = new_lake(tmp_path)
    lake.apply_window(
        make_ds(
            [
                ev(1, "insert", "r", "p1", "c1", "py", "v1"),
                ev(2, "insert", "r", "p2", "c2", "py", "v2"),
                ev(3, "insert", "r", "p3", "c3", "py", "v3"),
            ]
        ),
        0,
        3,
    )
    lake.apply_window(
        make_ds(
            [
                ev(4, "update", "r", "p2", "c2b", "py", "v2-new"),  # update
                ev(5, "insert", "r", "p4", "c4", "py", "v4"),       # insert
                ev(6, "delete", "r", "p3", None, None, None),       # delete
                ev(7, "update", "r", "p1", "c1", "py", "v1"),       # no-op
            ]
        ),
        3,
        7,
    )
    got = {
        (r["repo"], r["path"]): r["change"]
        for r in lake.diff_as_of(3, 7).take_all()
    }
    assert got == {
        ("r", "p2"): "update",
        ("r", "p4"): "insert",
        ("r", "p3"): "delete",
    }
    # delete rows carry the last-known a-side values
    [del_row] = [
        r for r in lake.diff_as_of(3, 7).take_all() if r["change"] == "delete"
    ]
    assert del_row["content"] == "v3"
    # identical cutoffs diff to empty; reversed cutoffs are an error
    assert lake.diff_as_of(7, 7).take_all() == []
    with pytest.raises(ValueError):
        lake.diff_as_of(7, 3)
    # diff from seq 0 (empty state) is all inserts of the live state
    all_in = lake.diff_as_of(0, 7).take_all()
    assert {r["change"] for r in all_in} == {"insert"} and len(all_in) == 3


def test_incremental_agg_view(ray_session, tmp_path):
    import ray.data

    from jitsu_ray.pipelines.matview import IncrementalAggView

    def ds_of(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "commit_seq": pa.array([r[0] for r in rows], pa.int64()),
                    "op": pa.array([r[1] for r in rows], pa.string()),
                    "uid": pa.array([r[2] for r in rows], pa.int64()),
                    "grp": pa.array([r[3] for r in rows], pa.string()),
                    "val": pa.array([r[4] for r in rows], pa.int64()),
                }
            )
        )

    lake = LakeTable.create(str(tmp_path / "lake"), ["uid"], 4)
    lake.apply_window(
        ds_of([(1, "insert", 1, "a", 10), (2, "insert", 2, "a", 20),
               (3, "insert", 3, "b", 30)]),
        0, 3,
    )
    view = IncrementalAggView(str(tmp_path / "view"), lake, ["grp"], ["val"])
    m1 = view.refresh()
    assert m1["from_seq"] == 0 and m1["to_seq"] == 3

    def snap():
        return {
            r["grp"]: (r["n"], r["sum_val"]) for r in view.read().to_pylist()
        }

    assert snap() == {"a": (2, 30), "b": (1, 30)}
    # incremental wave: value update (a stays), group move (b -> a),
    # fresh insert (b), delete (a)
    lake.apply_window(
        ds_of([(4, "update", 2, "a", 25), (5, "update", 3, "a", 35),
               (6, "insert", 4, "b", 40), (7, "delete", 1, None, None)]),
        3, 7,
    )
    view.refresh()
    assert snap() == {"a": (2, 60), "b": (1, 40)}
    # the view must equal a direct recompute over the current state
    rows = lake.read().take_all()
    direct = {}
    for r in rows:
        n, s = direct.get(r["grp"], (0, 0))
        direct[r["grp"]] = (n + 1, s + r["val"])
    assert snap() == direct
    # idempotent: refresh at an unchanged seq is a no-op
    assert view.refresh()["changed_groups"] == 0
    # a group emptied entirely disappears from the view
    import pyarrow.compute as pc

    lake.delete_where(lambda b: pc.equal(b["grp"], "b"))
    view.refresh()
    assert snap() == {"a": (2, 60)}


def test_incremental_agg_view_float_and_rebuild(ray_session, tmp_path):
    import ray.data

    from jitsu_ray.pipelines.matview import IncrementalAggView

    def ds_of(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "commit_seq": pa.array([r[0] for r in rows], pa.int64()),
                    "op": pa.array([r[1] for r in rows], pa.string()),
                    "uid": pa.array([r[2] for r in rows], pa.int64()),
                    "grp": pa.array([r[3] for r in rows], pa.string()),
                    "val": pa.array([r[4] for r in rows], pa.float64()),
                }
            )
        )

    lake = LakeTable.create(str(tmp_path / "lake"), ["uid"], 4)
    lake.apply_window(
        ds_of([(1, "insert", 1, "a", 10.5), (2, "insert", 2, "a", 20.25)]),
        0, 2,
    )
    view = IncrementalAggView(str(tmp_path / "view"), lake, ["grp"], ["val"])
    m = view.refresh()
    assert m["mode"] == "incremental"
    [row] = view.read().to_pylist()
    # float sums must NOT truncate (10.5 + 20.25, not 10 + 20)
    assert row == {"grp": "a", "n": 2, "sum_val": 30.75}
    # vacuum the view's watermark history: compact folds the delta away
    lake.apply_window(ds_of([(3, "insert", 3, "b", 1.5)]), 2, 3)
    lake.compact(min_files=1, tombstone_watermark=0)
    lake.vacuum()
    m2 = view.refresh()
    assert m2["mode"] == "rebuild"
    got = {r["grp"]: (r["n"], r["sum_val"]) for r in view.read().to_pylist()}
    assert got == {"a": (2, 30.75), "b": (1, 1.5)}
    # watermark survived the rebuild: next refresh is a no-op
    assert view.refresh()["mode"] == "noop"
    # system/key columns rejected up front
    with pytest.raises(ValueError):
        IncrementalAggView(str(tmp_path / "v2"), lake, ["grp"], ["commit_seq"])
    with pytest.raises(ValueError):
        IncrementalAggView(str(tmp_path / "v3"), lake, ["grp"], ["uid"])


# ---- zone-map point lookup ----------------------------------------------


def _lookup_lake(tmp_path, parts=8):
    """Three windows with disjoint composite-key ranges so zone maps can
    prune; one cross-window update so LWW matters."""
    lake = new_lake(tmp_path, parts=parts)
    for w, lo in enumerate([0, 100, 200]):
        rows = [
            ev(lo + i, "insert", f"r{lo + i:04d}", "f.py", commit=f"c{lo + i}",
               lang="py", content=f"body {lo + i}")
            for i in range(100)
        ]
        lake.apply_window(make_ds(rows), lo, lo + 100)
    lake.apply_window(
        make_ds([ev(900, "insert", "r0050", "f.py", commit="c900",
                    lang="py", content="updated")]),
        300, 901,
    )
    return lake


def test_lookup_matches_full_read_and_prunes(ray_session, tmp_path):
    lake = _lookup_lake(tmp_path)
    keys = [{"repo": "r0050", "path": "f.py"}, {"repo": "r0250", "path": "f.py"},
            {"repo": "nope", "path": "f.py"}]
    got = {(r["repo"], r["path"]): r for r in lake.lookup(keys).to_pylist()}
    full = read_rows(lake)
    assert set(got) == {("r0050", "f.py"), ("r0250", "f.py")}
    for k in got:
        assert got[k]["commit"] == full[k]["commit"]
        assert got[k]["content"] == full[k]["content"]
    assert got[("r0050", "f.py")]["content"] == "updated"  # LWW across windows
    st = lake.last_lookup_stats
    assert st["files_read"] < st["files_total"]  # zone maps actually pruned
    assert st["partitions_read"] <= len(keys)


def test_lookup_tombstoned_key_absent(ray_session, tmp_path):
    import pyarrow.compute as pc

    lake = _lookup_lake(tmp_path)
    lake.delete_where(lambda b: pc.equal(b["repo"], "r0010"))
    assert lake.lookup([{"repo": "r0010", "path": "f.py"}]).num_rows == 0


def test_lookup_as_of_sees_pre_delete_state(ray_session, tmp_path):
    import pyarrow.compute as pc

    lake = _lookup_lake(tmp_path)
    hi = lake.last_committed_hi()
    lake.delete_where(lambda b: pc.equal(b["repo"], "r0010"))
    out = lake.lookup([{"repo": "r0010", "path": "f.py"}], as_of=hi)
    assert out.num_rows == 1 and out["content"][0].as_py() == "body 10"


def test_lookup_survives_compaction_and_rows_without_zone_maps(ray_session, tmp_path):
    """A ledger row without zone maps (``key_stats``) never prunes its
    file: a lookup reads it, and compaction records fresh stats."""
    import json

    lake = _lookup_lake(tmp_path)
    led = lake.ledger
    names = sorted(
        n for n in os.listdir(led.dir) if n.endswith(".json")
    )
    p0 = os.path.join(led.dir, names[0])
    e = json.load(open(p0))
    e.pop("key_stats")
    json.dump(e, open(p0, "w"))
    # rows rewritten under a live instance: a fresh reader replays them
    lake = LakeTable.open(lake.dir)
    got = lake.lookup([{"repo": "r0050", "path": "f.py"}])
    assert got.num_rows == 1 and got["content"][0].as_py() == "updated"
    # a key held only by the file without zone maps
    got = lake.lookup([{"repo": "r0010", "path": "f.py"}])
    assert got.num_rows == 1 and got["content"][0].as_py() == "body 10"
    # compaction rewrites files and records fresh stats
    lake.compact()
    got2 = lake.lookup([{"repo": "r0050", "path": "f.py"}])
    assert got2.num_rows == 1 and got2["content"][0].as_py() == "updated"
    st = lake.last_lookup_stats
    assert st["files_read"] <= st["files_total"]


def test_lookup_bloom_prunes_when_zone_maps_cannot(ray_session, tmp_path):
    """String keys spanning the whole alphabet in every file defeat
    [min,max] zone maps (stripped here to simulate / isolate); the
    per-file Bloom sidecar must still prune absent-key files."""
    import json

    lake = _lookup_lake(tmp_path)
    for n in sorted(os.listdir(lake.ledger.dir)):
        if n.endswith(".json"):
            p = os.path.join(lake.ledger.dir, n)
            e = json.load(open(p))
            e.pop("key_stats", None)
            json.dump(e, open(p, "w"))
    # rows rewritten under a live instance: a fresh reader replays them
    lake = LakeTable.open(lake.dir)
    got = lake.lookup([{"repo": "r0250", "path": "f.py"}])
    assert got.num_rows == 1 and got["content"][0].as_py() == "body 250"
    st = lake.last_lookup_stats
    assert st["files_zone_skipped"] == 0  # stats stripped
    assert st["files_bloom_skipped"] >= 1  # bloom did the pruning
    assert st["files_read"] < st["files_total"]


def test_lookup_missing_bloom_sidecar_reads_file(ray_session, tmp_path):
    """Legacy lakes have no sidecars: lookup must fall back to reading
    the file (never wrongly prune)."""
    import glob
    import json

    lake = _lookup_lake(tmp_path)
    for b in glob.glob(os.path.join(str(tmp_path / "lake"), "part=*", "*" + _BLOOM_SUFFIX)):
        os.unlink(b)
    for n in sorted(os.listdir(lake.ledger.dir)):
        if n.endswith(".json"):
            p = os.path.join(lake.ledger.dir, n)
            e = json.load(open(p))
            e.pop("key_stats", None)
            json.dump(e, open(p, "w"))
    # rows rewritten under a live instance: a fresh reader replays them
    lake = LakeTable.open(lake.dir)
    got = lake.lookup([{"repo": "r0150", "path": "f.py"}])
    assert got.num_rows == 1 and got["content"][0].as_py() == "body 150"
    st = lake.last_lookup_stats
    assert st["files_bloom_skipped"] == 0 and st["files_zone_skipped"] == 0


def test_compaction_removes_stale_bloom_sidecars(ray_session, tmp_path):
    import glob

    lake = _lookup_lake(tmp_path)
    before = set(glob.glob(os.path.join(str(tmp_path / "lake"), "part=*", "*" + _BLOOM_SUFFIX)))
    assert before  # write path produced sidecars
    lake.compact()
    lake.vacuum()
    after = set(glob.glob(os.path.join(str(tmp_path / "lake"), "part=*", "*" + _BLOOM_SUFFIX)))
    assert not (before & after)  # replaced deltas' sidecars are gone
    for b in after:
        assert "base-" in os.path.basename(b)  # compacted bases have fresh ones


def test_lookup_empty_keys_returns_empty(ray_session, tmp_path):
    lake = _lookup_lake(tmp_path)
    out = lake.lookup([])
    assert out.num_rows == 0
    assert lake.last_lookup_stats["files_read"] == 0


def test_lookup_as_of_vacuumed_history_raises(ray_session, tmp_path):
    import pyarrow.compute as pc
    import pytest as _pytest

    lake = _lookup_lake(tmp_path)
    hi = lake.last_committed_hi()
    lake.delete_where(lambda b: pc.equal(b["repo"], "r0010"))
    lake.compact(min_files=1)
    lake.vacuum()  # removes the pre-delete deltas
    with _pytest.raises(FileNotFoundError, match="removed by vacuum ledger row"):
        lake.lookup([{"repo": "r0010", "path": "f.py"}], as_of=hi)


def test_lookup_corrupt_bloom_sidecar_fails_open(ray_session, tmp_path):
    """Garbage, a truncated filter and a header of another format all
    read as no filter: the file is read, never skipped."""
    import glob

    from jitsu_ray.sinks.lake import _read_key_bloom

    lake = _lookup_lake(tmp_path)
    spoil = [lambda raw: b"garbage", lambda raw: raw[:-1], lambda raw: b"XXXX" + raw[4:]]
    for i, b in enumerate(sorted(glob.glob(os.path.join(lake.dir, "part=*", "*" + _BLOOM_SUFFIX)))):
        with open(b, "rb") as fh:
            raw = fh.read()
        assert _read_key_bloom(b[: -len(_BLOOM_SUFFIX)]) is not None
        with open(b, "wb") as fh:
            fh.write(spoil[i % 3](raw))
        assert _read_key_bloom(b[: -len(_BLOOM_SUFFIX)]) is None
    got = lake.lookup([{"repo": "r0150", "path": "f.py"}])
    assert got.num_rows == 1 and got["content"][0].as_py() == "body 150"
    assert lake.last_lookup_stats["files_bloom_skipped"] == 0


def test_bloom_sidecar_bytes_pinned_on_fold_output(ray_session, tmp_path):
    """A sidecar's filter depends on its file's key set only. Window
    folds and a compaction fold (duplicate keys within and across
    windows, tombstones kept) write exactly these filters; a change to
    the key hash or the Bloom sizing shows up here. The pins hash
    ``(m, k, bits)``, not the file. The compaction pins were taken from
    the ``.npz`` sidecars the earlier layout wrote for the same lake, so
    the raw layout holds bit-identical filters; the window pins are of
    the one file each window writes for both partitions (one fold
    group), whose filter covers both partitions' keys."""
    import glob
    import hashlib

    from jitsu_ray.sinks.lake import _read_key_bloom

    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 2)
    lake._cpus = 2  # one fold group: each window writes one file for both partitions
    seq = 0
    for w in range(3):
        rows = []
        for i in range(30):
            seq += 1
            k = (i * 7 + w * 11) % 40
            op = "delete" if i % 9 == 4 else "update"
            rows.append(ev(seq, op, f"r{k % 3}", f"p{k}", f"c{seq}", "py", f"v{seq}"))
        lake.apply_window(make_ds(rows), seq - 30, seq)
    lake.compact(min_files=2)  # never unlinks: the deltas stay on disk
    got = {}
    for f in glob.glob(os.path.join(lake.dir, "part=*", "*.parquet")):
        bf = _read_key_bloom(f)
        blob = f"{bf.m}:{bf.k}:".encode() + bf.bits.tobytes()
        got[os.path.relpath(f, lake.dir)[: -len(".parquet")]] = (
            hashlib.sha256(blob).hexdigest()[:16]
        )
    assert got == {
        "part=00000/base-00000004": "66d013196e3f1565",
        "part=00000/delta-000000000000-000000000030": "aa0903999184c38e",
        "part=00000/delta-000000000030-000000000060": "a78b53c02a98253e",
        "part=00000/delta-000000000060-000000000090": "f5b3a4db323391ec",
        "part=00001/base-00000004": "83c57a8cda716633",
    }


def _full_replay(ledger_dir):
    """The ledger state replayed over its whole history through the
    same fold, checkpoint rows ignored (an unreachable time-travel bound
    excludes nothing and trusts no checkpoint)."""
    from jitsu_ray.state.ledger import Ledger

    return Ledger(ledger_dir).state(as_of_hi=2**62)


def _views(st):
    """Every view a LedgerState serves, read off its fields (not its
    checkpoint serialization, which is under test too)."""
    return {"parts": st.parts, "splits": st.splits, "hi": st.hi, "zones": st.zones,
            "shares": st.shares, "pending": st.pending, "vacuumed": st.vacuumed}


@contextlib.contextmanager
def _count_rows_parsed():
    """Rows yielded by every ``Ledger.iter_entries_desc`` call made
    inside the block, one list item per call."""
    from jitsu_ray.state.ledger import Ledger

    real = Ledger.iter_entries_desc
    counts: list[int] = []

    def counting(self, *args, **kwargs):
        counts.append(0)
        for e in real(self, *args, **kwargs):
            counts[-1] += 1
            yield e

    Ledger.iter_entries_desc = counting
    try:
        yield counts
    finally:
        Ledger.iter_entries_desc = real


def test_ledger_checkpoint_fast_path_equals_full_replay(tmp_path):
    """checkpoint(): the tail-seeded unbounded view must equal a full
    replay — before and after post-checkpoint rows — and be idempotent
    on an already-checkpointed tail."""
    from jitsu_ray.state.ledger import Ledger

    led = Ledger(str(tmp_path / "ledger"))
    for i in range(4):
        led.append(
            {"kind": "window", "lo": i, "hi": i + 1,
             "files": {f"part=00000/delta-{i}.parquet": {"0": 100}}}
        )
    led.append(
        {"kind": "compact", "parts": {"0": [{
            "file": "part=00000/base-1.parquet",
            "replaces": ["part=00000/delta-0.parquet", "part=00000/delta-1.parquet"],
            "bytes": 150,
        }]}}
    )
    full = _views(_full_replay(led.dir))
    seq = led.checkpoint()
    assert seq == 6
    assert led.checkpoint() is None  # idempotent: tail already folded
    # a fresh reader loads the checkpoint row only, and equals a full
    # replay that ignores checkpoints
    fresh = Ledger(led.dir)
    with _count_rows_parsed() as parsed:
        assert _views(fresh.state()) == full
    assert parsed == [1]  # just the checkpoint
    assert fresh.last_committed_hi() == 4

    # rows after the checkpoint keep accumulating on top of it
    led.append(
        {"kind": "window", "lo": 4, "hi": 5,
         "files": {"part=00000/delta-4.parquet": {"0": 100},
                   "part=00003/delta-4.parquet": {"3": 100}}}
    )
    assert _views(led.state()) == _views(_full_replay(led.dir))
    assert _views(fresh.state()) == _views(_full_replay(led.dir))
    assert led.last_committed_hi() == 5
    assert "part=00003/delta-4.parquet" in led.live_files()[3]


def test_ledger_checkpoint_ignored_by_time_travel(tmp_path):
    """as_of views full-replay and skip checkpoint rows: a checkpoint
    folding windows past the bound must not leak them into the past."""
    from jitsu_ray.state.ledger import Ledger

    led = Ledger(str(tmp_path / "ledger"))
    led.append({"kind": "window", "lo": 0, "hi": 1, "files": {"a.parquet": {"0": 100}}})
    led.append({"kind": "window", "lo": 1, "hi": 2, "files": {"b.parquet": {"0": 100}}})
    led.checkpoint()
    as_of = led.live_files(as_of_hi=1)
    assert as_of == {0: ["a.parquet"]}


def test_ledger_checkpoint_exact_seq_claim(tmp_path):
    """_append_at claims EXACTLY the requested seq (raises on any
    collision), and checkpoint() re-folds rows that land between its
    read and its claim instead of hiding them."""
    import pytest as _pytest

    from jitsu_ray.state.ledger import Ledger

    led = Ledger(str(tmp_path / "ledger"))
    led.append({"kind": "window", "lo": 0, "hi": 1, "files": {"a.parquet": {"0": 100}}})
    with _pytest.raises(FileExistsError):
        led._append_at({"kind": "checkpoint", "hi": 0, "parts": {}}, 1)

    # simulate a concurrent commit landing between the state read and
    # the claim: another writer takes the first target seq, checkpoint
    # retries and the final row must include the late window
    real_state = led.state

    class Racer:
        def __init__(self):
            self.fired = False

        def __call__(self):
            st = real_state()
            if not self.fired:
                self.fired = True
                Ledger(led.dir).append(
                    {"kind": "window", "lo": 1, "hi": 2, "files": {"late.parquet": {"0": 100}}}
                )
            return st

    led.state = Racer()
    try:
        seq = led.checkpoint()
    finally:
        led.state = real_state
    assert seq == 3
    assert led.live_files() == {0: ["a.parquet", "late.parquet"]}
    assert led.last_committed_hi() == 2
    # the checkpoint row itself carries the late window
    assert Ledger(led.dir).live_files() == {0: ["a.parquet", "late.parquet"]}


def test_lake_compact_checkpoints_and_stays_readable(ray_session, tmp_path):
    """LakeTable.compact() folds the ledger; reads and resume skip keep
    working across the checkpoint row, and the post-compaction state
    as-of is unchanged."""
    import ray.data

    from jitsu_ray.sinks.lake import LakeTable
    from jitsu_ray.state.ledger import Ledger

    lake = LakeTable.create(str(tmp_path / "lake"), ["k"], 4)

    def win(lo, hi, rows):
        t = pa.table(
            {
                "k": pa.array([r[0] for r in rows], pa.int64()),
                "v": pa.array([r[1] for r in rows], pa.string()),
                "commit_seq": pa.array([r[2] for r in rows], pa.int64()),
                "op": pa.array(["upsert"] * len(rows), pa.string()),
            }
        )
        lake.apply_window(ray.data.from_arrow(t), lo, hi)

    win(0, 10, [(1, "a", 1), (2, "b", 2)])
    win(10, 20, [(1, "a2", 11), (3, "c", 12)])
    lake.compact(min_files=1)
    led = Ledger(str(tmp_path / "lake" / "_ledger"))
    assert led.entries()[-1]["kind"] == "checkpoint"

    win(20, 30, [(4, "d", 21)])
    got = sorted((r["k"], r["v"]) for r in lake.read().take_all())
    assert got == [(1, "a2"), (2, "b"), (3, "c"), (4, "d")]
    # resume skip still works across the checkpoint row
    assert lake.last_committed_hi() == 30
    # as-of at the compaction fold point (full replay, checkpoint row
    # ignored) still resolves the folded state
    past = sorted((r["k"], r["v"]) for r in lake.read(as_of=20).take_all())
    assert past == [(1, "a2"), (2, "b"), (3, "c")]
    # a fresh process (new instance) opens the checkpointed lake fine
    lake2 = LakeTable.open(str(tmp_path / "lake"))
    assert lake2.last_committed_hi() == 30
    assert sorted(
        (r["k"], r["v"]) for r in lake2.read().take_all()
    ) == got


def test_scan_range_zone_pruned_and_resurrection_safe(ray_session, tmp_path):
    """scan_range: zone maps skip the payload read of out-of-range
    files (files_narrow > 0), results equal read()+filter, and — the
    merge-on-read trap — a key whose NEWEST version lives in a pruned
    file must NOT resurrect its older in-range version."""
    import ray.data

    from jitsu_ray.sinks.lake import LakeTable

    lake = LakeTable.create(
        str(tmp_path / "lake"), ["k"], 4, stats_cols=["score"]
    )

    def win(lo, hi, rows):
        t = pa.table(
            {
                "k": pa.array([r[0] for r in rows], pa.int64()),
                "score": pa.array([r[1] for r in rows], pa.float64()),
                "payload": pa.array([r[2] for r in rows], pa.string()),
                "commit_seq": pa.array([r[3] for r in rows], pa.int64()),
                "op": pa.array(["upsert"] * len(rows), pa.string()),
            }
        )
        lake.apply_window(ray.data.from_arrow(t), lo, hi)

    # window 1: low scores (1, 2) incl. key 7 IN range
    win(0, 10, [(1, 10.0, "a", 1), (2, 20.0, "b", 2), (7, 15.0, "old7", 3)])
    # window 2: high scores only — key 7's NEWER version is out of range
    win(10, 20, [(3, 900.0, "c", 11), (7, 950.0, "new7", 12)])

    got = sorted(
        (r["k"], r["score"], r["payload"])
        for r in lake.scan_range("score", 0.0, 100.0).take_all()
    )
    # key 7 must be ABSENT: its latest score (950) is out of range, and
    # the old in-range row lost LWW — naive file skipping would leak it
    assert got == [(1, 10.0, "a"), (2, 20.0, "b")]
    st = lake.last_scan_stats
    assert st["files_narrow"] >= 1  # window-2 files were payload-skipped

    # ground truth: read() + residual filter gives the same rows
    full = sorted(
        (r["k"], r["score"], r["payload"])
        for r in lake.read().take_all()
        if r["score"] is not None and 0.0 <= r["score"] <= 100.0
    )
    assert got == full

    # the high band returns the other side, incl. key 7's latest
    hi_band = sorted(
        (r["k"], r["payload"])
        for r in lake.scan_range("score", 800.0, 1000.0).take_all()
    )
    assert hi_band == [(3, "c"), (7, "new7")]

    # column pruning keeps keys + requested col; empty no-overlap band
    slim = lake.scan_range("score", 0.0, 100.0, columns=["payload"]).take_all()
    assert sorted(r["k"] for r in slim) == [1, 2]
    assert lake.scan_range("score", 5000.0, 6000.0).count() == 0


# -- lake -> lake replication (pipelines/replicate) -------------------------


def test_scan_range_keeps_ledger_tie_order(ray_session, tmp_path):
    """scan_range reads every file in its ledger position with its own
    column set: a forced repair window that rewrites a key at the SAME
    commit_seq wins the tie as in read(), lookup() and diff_as_of(),
    even when the earlier file is only read narrow (its value is out of
    range)."""
    import ray.data

    lake = LakeTable.create(str(tmp_path / "lake"), ["k"], 1, stats_cols=["v"])

    def win(v, force=False):
        t = pa.table({
            "k": ["a"], "v": pa.array([v], pa.int64()),
            "commit_seq": pa.array([5], pa.int64()), "op": ["upsert"],
        })
        lake.apply_window(ray.data.from_arrow(t), 0, 5, force=force)

    win(100)
    win(1, force=True)  # the repair, committed later at the same seq
    assert [r["v"] for r in lake.read().take_all()] == [1]
    assert lake.lookup([{"k": "a"}])["v"].to_pylist() == [1]
    got = [(r["k"], r["v"]) for r in lake.scan_range("v", 0, 10).take_all()]
    assert got == [("a", 1)]
    st = lake.last_scan_stats
    assert (st["files_full"], st["files_narrow"]) == (1, 1)
    diff = [(r["k"], r["v"], r["change"]) for r in lake.diff_as_of(0, 5).take_all()]
    assert diff == [("a", 1, "insert")]


def test_read_packing_equivalent(ray_session, tmp_path, monkeypatch):
    """Packing whole partitions into byte-bounded read tasks changes no
    result: with ``_READ_TASK_BYTES`` at 1 byte (one partition per
    task) and at its default (the whole lake in one task), read() (row
    order included), read(as_of=...), a scan_range with narrow files,
    diff_as_of across a split and a lookup spanning every partition
    return identical rows, and the task counts say which shape ran."""
    import ray.data

    from jitsu_ray.sinks import lake as lake_mod
    from jitsu_ray.testgen import gen_changelog

    ctx = ray.data.DataContext.get_current()
    monkeypatch.setattr(ctx.execution_options, "preserve_order", True)
    tbl = gen_changelog(n_events=3000, n_repos=12, seed=17)
    assert "delete" in tbl["op"].to_pylist()
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 4,
                            stats_cols=["commit_seq"])

    def win(lo, hi):
        lake.apply_window(ray.data.from_arrow(tbl.slice(lo, hi - lo)), lo, hi)

    for lo in range(0, 1500, 500):
        win(lo, lo + 500)
    assert lake.compact(min_files=2)["kind"] == "compact"
    win(1500, 2000)
    pre_split = lake.last_committed_hi()
    assert lake.split_partition(1, factor=2)["kind"] == "split"
    win(2000, 2500)
    win(2500, 3000)
    keys = read_rows(lake)
    probe = [{"repo": r, "path": p} for r, p in sorted(keys)] + [
        {"repo": "nope", "path": "x"}
    ]

    def rows(ds):
        return [tuple(sorted(r.items())) for r in ds.take_all()]

    def views():
        out = {
            "read": rows(lake.read()),
            "as_of": rows(lake.read(as_of=1000)),
            "range": sorted(rows(lake.scan_range("commit_seq", 2600, 3000))),
            "diff": sorted(rows(lake.diff_as_of(pre_split, 3000))),
            "lookup": sorted(tuple(sorted(r.items())) for r in lake.lookup(probe).to_pylist()),
        }
        return out, dict(lake.last_scan_stats), dict(lake.last_lookup_stats)

    packed, scan_st, look_st = views()
    monkeypatch.setattr(lake_mod, "_READ_TASK_BYTES", 1)
    split, scan_st1, look_st1 = views()
    assert split == packed
    assert len(packed["read"]) == len(keys) == len(packed["lookup"])
    assert packed["range"] and packed["diff"] and packed["as_of"]
    assert scan_st["files_narrow"] > 0
    assert look_st["partitions_read"] == len(lake.live_files()) == 5
    # the default packs the whole lake into one task; 1 byte gives one
    # task per partition read
    assert scan_st["tasks"] == look_st["tasks"] == 1
    assert scan_st1["tasks"] > 1
    assert look_st1["tasks"] == look_st1["partitions_read"] == 5
    # every other read stat is the same in both shapes
    for a, b in ((scan_st1, scan_st), (look_st1, look_st)):
        assert {**a, "tasks": 0} == {**b, "tasks": 0}


def test_compact_packs_folds_into_byte_bounded_tasks(ray_session, tmp_path, monkeypatch):
    """``compact()`` packs its folds, in (partition, tier) order, into
    tasks of at most ``_READ_TASK_BYTES`` input bytes: a small lake's
    whole and tiered compactions are ONE ``_compact_fold`` task each.
    With the budget at 1 byte (one fold per task) the compact rows and
    the lake's files are identical."""
    import ray.data

    from jitsu_ray.sinks import lake as lake_mod
    from jitsu_ray.testgen import gen_changelog

    tbl = gen_changelog(n_events=4000, n_repos=12, seed=23)
    real = lake_mod._compact_fold
    runs = []

    class Counted:
        @staticmethod
        def remote(folds, *args):
            runs.append([(part, stem) for _, part, stem, *_ in folds])
            return real.remote(folds, *args)

    monkeypatch.setattr(lake_mod, "_compact_fold", Counted)

    def run(name):
        runs.clear()
        lake = LakeTable.create(str(tmp_path / name), ["repo", "path"], 4)
        for lo in range(0, 2000, 500):
            lake.apply_window(ray.data.from_arrow(tbl.slice(lo, 500)), lo, lo + 500)
        whole = lake.compact(min_files=2, tombstone_watermark=2000)
        for lo in range(2000, 4000, 250):
            lake.apply_window(ray.data.from_arrow(tbl.slice(lo, 250)), lo, lo + 250)
        # budget of about three small deltas: several tiers per partition
        delta = max(os.path.getsize(f) for fs in lake.live_files().values() for f in fs[1:])
        tiered = lake.compact(min_files=2, max_input_bytes=3 * delta)
        return [whole, tiered], list(runs), _lake_fingerprint(lake)

    packed, packed_runs, packed_fp = run("packed")
    monkeypatch.setattr(lake_mod, "_READ_TASK_BYTES", 1)
    single, single_runs, single_fp = run("single")
    assert len(packed_runs) == 2  # one task per compaction
    assert len(packed_runs[0]) == 4  # the whole fold of each partition
    assert len(packed_runs[1]) > 4  # several tier folds per partition
    assert all(len(r) == 1 for r in single_runs)
    assert [f for r in single_runs for f in r] == [f for r in packed_runs for f in r]
    assert single == packed
    assert single_fp == packed_fp


def _state(lake):
    """Visible replica-comparable state: key -> payload values (seqs
    are rewritten by replication, so they are excluded on purpose)."""
    return {
        (r["repo"], r["path"]): (r["commit"], r["lang"], r["content"])
        for r in lake.read().take_all()
    }


def test_replica_incremental_tracks_source(ray_session, tmp_path):
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 4)
    # replica on a DIFFERENT partition count — layouts are independent
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)

    assert replicate(src, dst)["mode"] == "noop"  # both empty

    src.apply_window(
        make_ds(
            [
                ev(1, "insert", "r1", "a", "c1", "py", "v1"),
                ev(2, "insert", "r1", "b", "c1", "py", "v1"),
            ]
        ),
        0,
        2,
    )
    m1 = replicate(src, dst)
    assert m1["mode"] == "incremental" and m1["rows"] == 2
    assert _state(dst) == _state(src)

    # update a, tombstone b, insert c — all three change kinds propagate
    src.apply_window(
        make_ds(
            [
                ev(3, "update", "r1", "a", "c2", "py", "v2"),
                ev(4, "delete", "r1", "b"),
                ev(5, "insert", "r2", "c", "c1", "go", "v1"),
            ]
        ),
        2,
        5,
    )
    m2 = replicate(src, dst)
    assert m2["mode"] == "incremental"
    assert _state(dst) == _state(src)
    assert ("r1", "b") not in _state(dst)

    # idempotent: nothing new -> noop, state untouched
    before = _state(dst)
    assert replicate(src, dst)["mode"] == "noop"
    assert _state(dst) == before


def test_replica_resync_after_source_vacuum(ray_session, tmp_path):
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 4)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    src.apply_window(
        make_ds(
            [
                ev(1, "insert", "r1", "a", "c1", "py", "v1"),
                ev(2, "insert", "r1", "b", "c1", "py", "v1"),
            ]
        ),
        0,
        2,
    )
    assert replicate(src, dst)["mode"] == "incremental"

    src.apply_window(
        make_ds(
            [
                ev(3, "update", "r1", "a", "c2", "py", "v2"),
                ev(4, "delete", "r1", "b"),
                ev(5, "insert", "r2", "c", "c1", "go", "v1"),
            ]
        ),
        2,
        5,
    )
    # vacuum the history behind the replica watermark: the incremental
    # diff path is gone, replicate must fall back to a full re-sync
    src.compact(min_files=1, tombstone_watermark=4)
    src.vacuum()
    m = replicate(src, dst)
    assert m["mode"] == "resync"
    assert _state(dst) == _state(src)
    # the deleted key was found by the anti join and tombstoned
    assert ("r1", "b") not in _state(dst)
    assert _state(dst)[("r1", "a")] == ("c2", "py", "v2")
    assert replicate(src, dst)["mode"] == "noop"


def test_diff_and_replica_across_source_split(ray_session, tmp_path):
    """A partition split between two CDC cutoffs must be invisible to
    diff_as_of: keys that merely moved to a child partition emit
    NOTHING (naive id-pairing would emit an equal-seq delete+insert
    pair — a nondeterministic LWW coin flip at the replica), while real
    updates/deletes still surface. Replication across the split stays
    incremental and converges."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    rows = [
        ev(i + 1, "insert", f"r{i % 7}", f"p{i}", "c", "py", f"v{i+1}")
        for i in range(30)
    ]
    src.apply_window(make_ds(rows), 0, 30)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    assert replicate(src, dst)["mode"] == "incremental"
    pre_split_hi = src.last_committed_hi()

    src.split_partition(0, factor=2)
    src.split_partition(1, factor=3)
    # pure topology change: the value-level diff across the splits is EMPTY
    assert src.diff_as_of(pre_split_hi, src.last_committed_hi()).count() == 0

    # real changes after the split still diff exactly
    src.apply_window(
        make_ds(
            [
                ev(31, "update", "r0", "p0", "c2", "py", "v31"),
                ev(32, "delete", "r1", "p1"),
                ev(33, "insert", "r9", "new", "c", "go", "w"),
            ]
        ),
        30, 33,
    )
    d = {
        (r["repo"], r["path"]): r["change"]
        for r in src.diff_as_of(pre_split_hi, 33).take_all()
    }
    assert d == {
        ("r0", "p0"): "update",
        ("r1", "p1"): "delete",
        ("r9", "new"): "insert",
    }
    m = replicate(src, dst)
    assert m["mode"] == "incremental"
    assert _state(dst) == _state(src)
    assert replicate(src, dst)["mode"] == "noop"


def test_replica_resync_after_deferred_vacuum(ray_session, tmp_path):
    """Deferred-GC variant of the vacuum race: compaction alone keeps
    the diff history alive (the round stays incremental), and
    only an explicit vacuum() behind the replica watermark degrades the
    next round to a full re-sync — retention as policy."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    src.apply_window(
        make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 1
    )
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    assert replicate(src, dst)["mode"] == "incremental"
    src.apply_window(
        make_ds(
            [
                ev(2, "update", "r1", "a", "c2", "py", "v2"),
                ev(3, "insert", "r2", "b", "c1", "go", "w"),
            ]
        ),
        1, 3,
    )
    src.compact(min_files=1)
    # history intact: still an ordinary incremental round
    m = replicate(src, dst)
    assert m["mode"] == "incremental"
    assert _state(dst) == _state(src)
    # now vacuum history behind the watermark and change more state:
    # the diff path is gone, the round re-syncs and still converges
    src.apply_window(make_ds([ev(4, "delete", "r1", "a")]), 3, 4)
    src.compact(min_files=1)
    src.vacuum(keep_history=0)
    m = replicate(src, dst)
    assert m["mode"] == "resync"
    assert _state(dst) == _state(src)
    assert ("r1", "a") not in _state(dst)


def test_replica_rejects_nonreplication_writes(ray_session, tmp_path):
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    src.apply_window(make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 1)
    replicate(src, dst)
    # a direct write squats seq territory ahead of the source
    dst.apply_window(make_ds([ev(50, "insert", "rX", "z", "c1", "py", "v")]), 1, 50)
    with pytest.raises(ValueError, match="AHEAD"):
        replicate(src, dst)

    # mismatched key columns are rejected up front
    other = LakeTable.create(str(tmp_path / "other"), ["repo"], 2)
    with pytest.raises(ValueError, match="key columns"):
        replicate(src, other)


def test_lww_equal_seq_tie_last_arrival_wins(ray_session, tmp_path):
    """The equal-seq tie rule: within one table the LAST row wins;
    across lake files the LATER-committed window wins — what makes a
    replication re-sync authoritative at the watermark seq."""
    from jitsu_ray.sinks.lake import resolve_keep_tombstones

    tbl = pa.table(
        {
            "commit_seq": pa.array([5, 5, 5], pa.int64()),
            "op": pa.array(["insert"] * 3, pa.string()),
            "repo": pa.array(["r1", "r1", "r2"], pa.string()),
            "path": pa.array(["a", "a", "b"], pa.string()),
            "commit": pa.array(["first", "second", "only"], pa.string()),
            "lang": pa.array(["py"] * 3, pa.string()),
            "content": pa.array(["v1", "v2", "x"], pa.large_string()),
        }
    )
    win = resolve_keep_tombstones(tbl, ["repo", "path"])
    got = {(r["repo"], r["path"]): r["commit"] for r in win.to_pylist()}
    assert got == {("r1", "a"): "second", ("r2", "b"): "only"}

    # lake-level: a later force-committed window at the SAME seq wins
    lake = LakeTable.create(str(tmp_path / "tie"), ["repo", "path"], 2)
    lake.apply_window(make_ds([ev(5, "insert", "r1", "a", "c1", "py", "old")]), 0, 5)
    lake.apply_window(
        make_ds([ev(5, "insert", "r1", "a", "c2", "py", "new")]), 3, 5, force=True
    )
    assert read_rows(lake)[("r1", "a")]["content"] == "new"


def test_replica_resyncs_after_late_spooled_window(ray_session, tmp_path):
    """A source window force-committed at its ORIGINAL lower bounds
    (the replay_spooled recovery path) AFTER the replica advanced past
    them is invisible to every incremental diff — replicate must detect
    it via the recorded ledger position and fall back to a re-sync."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 4)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    # stream advanced to hi=20 with a hole: window (10, 12] spooled
    src.apply_window(make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 10)
    src.apply_window(make_ds([ev(20, "insert", "r1", "b", "c1", "py", "v1")]), 12, 20)
    assert replicate(src, dst)["mode"] == "incremental"
    assert _state(dst) == _state(src)

    # spool recovery: the held-back window force-applies at (10, 12]
    src.apply_window(
        make_ds([ev(12, "insert", "r9", "late", "c1", "go", "vL")]),
        10,
        12,
        force=True,
    )
    assert src.ledger.last_committed_hi() == 20  # watermark unmoved
    m = replicate(src, dst)
    assert m["mode"] == "resync"
    assert ("r9", "late") in _state(dst)
    assert _state(dst) == _state(src)
    # back to steady state afterwards
    assert replicate(src, dst)["mode"] == "noop"
    src.apply_window(make_ds([ev(21, "insert", "r1", "c", "c1", "py", "v")]), 20, 21)
    assert replicate(src, dst)["mode"] == "incremental"
    assert _state(dst) == _state(src)


def test_replica_foreign_write_detected_and_healed(ray_session, tmp_path):
    """A direct write to the replica whose hi lands AT-OR-BELOW the
    source's hi (so the old AHEAD check cannot see it) is detected via
    the missing replication tag; resync=True heals from source state."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    src.apply_window(make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 2)
    src.apply_window(make_ds([ev(4, "insert", "r1", "b", "c1", "py", "v1")]), 2, 5)
    assert replicate(src, dst)["mode"] == "incremental"

    # foreign write: squats (2, 4] inside the source's committed range
    # and plants a stray row — silently skippable without the tag check
    dst.apply_window(
        make_ds([ev(4, "insert", "rX", "stray", "c1", "py", "v")]), 2, 4, force=True
    )
    src.apply_window(make_ds([ev(6, "update", "r1", "a", "c2", "py", "v2")]), 5, 6)
    with pytest.raises(ValueError, match="resync=True"):
        replicate(src, dst)
    m = replicate(src, dst, resync=True)
    assert m["mode"] == "resync"
    assert ("rX", "stray") not in _state(dst)  # stray row tombstoned
    assert _state(dst) == _state(src)
    assert _state(dst)[("r1", "a")] == ("c2", "py", "v2")
    # the heal tag resets the scan floor: rounds resume incrementally
    src.apply_window(make_ds([ev(7, "insert", "r2", "c", "c1", "go", "v")]), 6, 7)
    assert replicate(src, dst)["mode"] == "incremental"
    assert _state(dst) == _state(src)


def test_replica_resync_null_safe_anti_join(ray_session, tmp_path):
    """A null-keyed row present in BOTH lakes must survive a re-sync
    unchanged: Arrow join semantics never match null keys, so without
    the null-safe helper keys the anti join would tombstone it at the
    same seq as its re-insert (a nondeterministic LWW tie)."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    src.apply_window(
        make_ds(
            [
                ev(1, "insert", None, "orphan", "c1", "py", "vN"),
                ev(2, "insert", "r1", "a", "c1", "py", "v1"),
            ]
        ),
        0,
        2,
    )
    assert replicate(src, dst)["mode"] == "incremental"
    # force re-syncs repeatedly: the null-keyed row must never flicker
    for _ in range(3):
        m = replicate(src, dst, resync=True)
        assert m["mode"] == "resync"
        assert _state(dst) == _state(src)
        assert (None, "orphan") in _state(dst)
    # a null-keyed row the source DROPPED is still tombstoned by resync
    src.apply_window(make_ds([ev(3, "delete", None, "orphan")]), 2, 3)
    assert replicate(src, dst)["mode"] == "incremental"
    assert (None, "orphan") not in _state(dst)
    assert replicate(src, dst, resync=True)["mode"] == "resync"
    assert _state(dst) == _state(src)


def test_replica_lazy_vacuum_race_degrades_to_resync(ray_session, tmp_path, monkeypatch):
    """diff_as_of passes its EAGER existence check, then the source
    files vanish while the lazy window streams (a compact racing the
    apply): apply_window must fail before its fold tasks run or its
    ledger row lands (no leaked rows) and replicate must degrade to a
    re-sync."""
    import ray.data

    from jitsu_ray.pipelines import replicate as rep_mod
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    src.apply_window(make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 1)
    assert replicate(src, dst)["mode"] == "incremental"
    src.apply_window(make_ds([ev(2, "insert", "r1", "b", "c1", "py", "v2")]), 1, 2)

    real = rep_mod._incremental_delta

    def poisoned(src_, dst_, frm, to, *args, **kw):
        ds = real(src_, dst_, frm, to, *args, **kw)

        def leak_then_raise(batch):
            # first feed the exchange a row that must NOT survive the
            # failed window, then fail like a mid-stream vacuumed read
            if batch.num_rows and batch["path"][0].as_py() == "LEAK":
                raise FileNotFoundError("simulated vacuumed file")
            return batch

        leak = make_ds([ev(2, "insert", "rL", "LEAK-marker", "c", "py", "x")])
        poison = make_ds([ev(2, "insert", "rL", "LEAK", "c", "py", "x")])
        return ds.union(leak, poison).map_batches(
            leak_then_raise, batch_format="pyarrow"
        )

    monkeypatch.setattr(rep_mod, "_incremental_delta", poisoned)
    m = replicate(src, dst)
    monkeypatch.undo()
    assert m["mode"] == "resync"
    state = _state(dst)
    assert state == _state(src)
    assert ("rL", "LEAK-marker") not in state  # failed window fully discarded
    assert replicate(src, dst)["mode"] == "noop"


def test_replica_resyncs_on_swapped_source(ray_session, tmp_path):
    """Pointing an existing replica at a DIFFERENT source lake (whose
    hi happens to be >= the watermark, so the AHEAD check passes) must
    re-sync: ledger positions recorded against the old source's ledger
    are meaningless for the new one."""
    from jitsu_ray.pipelines.replicate import replicate

    src1 = LakeTable.create(str(tmp_path / "src1"), ["repo", "path"], 2)
    src2 = LakeTable.create(str(tmp_path / "src2"), ["repo", "path"], 2)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    src1.apply_window(make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 2)
    src2.apply_window(make_ds([ev(2, "insert", "r2", "b", "c1", "go", "vX")]), 0, 3)
    assert replicate(src1, dst)["mode"] == "incremental"
    m = replicate(src2, dst)
    assert m["mode"] == "resync"
    assert _state(dst) == _state(src2)
    assert ("r1", "a") not in _state(dst)
    assert replicate(src2, dst)["mode"] == "noop"  # identity re-pinned


def test_replica_resyncs_on_recreated_source(ray_session, tmp_path):
    """A source lake DELETED AND RECREATED AT THE SAME PATH must be
    detected: realpath identity matches and the fresh ledger's seqs can
    tie the recorded position exactly, so without the creation-UUID
    check every round noops while the replica silently diverges."""
    import shutil

    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    src.apply_window(
        make_ds(
            [
                ev(1, "insert", "r1", "a", "c1", "py", "v1"),
                ev(2, "insert", "r1", "b", "c1", "py", "v1"),
            ]
        ),
        0,
        10,
    )
    assert replicate(src, dst)["mode"] == "incremental"

    # recreate the source in place with DIFFERENT content, committed at
    # the exact same hi (frm == to) and an equal-length ledger
    shutil.rmtree(str(tmp_path / "src"))
    src2 = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    src2.apply_window(make_ds([ev(3, "insert", "r2", "c", "c1", "go", "vX")]), 0, 10)

    m = replicate(src2, dst)
    assert m["mode"] == "resync"
    assert _state(dst) == _state(src2)
    assert ("r1", "a") not in _state(dst)  # old keys tombstoned
    assert ("r2", "c") in _state(dst)
    assert replicate(src2, dst)["mode"] == "noop"  # new identity pinned


def test_replica_resync_helper_key_name_collision(ray_session, tmp_path):
    """A lake whose key column is literally named __nsk0 must not have
    it clobbered by the null-safe helper projection: an unguarded name
    would overwrite the key with its fill_null('') cast on the anti
    join's left side and tombstone '' instead of NULL."""
    import ray.data

    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["__nsk0", "__nsn0"], 2)
    dst = LakeTable.create(str(tmp_path / "dst"), ["__nsk0", "__nsn0"], 2)

    def win(rows, lo, hi):
        t = pa.table(
            {
                "commit_seq": pa.array([r[0] for r in rows], pa.int64()),
                "op": pa.array([r[1] for r in rows], pa.string()),
                "__nsk0": pa.array([r[2] for r in rows], pa.string()),
                "__nsn0": pa.array([r[3] for r in rows], pa.string()),
                "val": pa.array([r[4] for r in rows], pa.string()),
            }
        )
        src.apply_window(ray.data.from_arrow(t), lo, hi)

    # a null-keyed row present in both lakes plus a real ''-keyed row:
    # with the helper collision the resync would conflate the two
    win([(1, "insert", None, "n", "null-row"), (2, "insert", "", "e", "empty-row")], 0, 2)
    assert replicate(src, dst)["mode"] == "incremental"

    def state(lake):
        return {
            (r["__nsk0"], r["__nsn0"]): r["val"] for r in lake.read().take_all()
        }

    for _ in range(2):
        assert replicate(src, dst, resync=True)["mode"] == "resync"
        assert state(dst) == state(src)
        assert (None, "n") in state(dst) and ("", "e") in state(dst)
    # dropping the null-keyed row still tombstones exactly that row
    win([(3, "delete", None, "n", None)], 2, 3)
    replicate(src, dst)
    assert replicate(src, dst, resync=True)["mode"] == "resync"
    assert state(dst) == state(src)
    assert (None, "n") not in state(dst) and ("", "e") in state(dst)


@pytest.mark.usefixtures("ray_session")
def test_tiered_compaction_bounded_and_deferred(ray_session, tmp_path):
    """Size-tiered compaction: with max_input_bytes each fold reads a
    byte-bounded CONSECUTIVE run, state is unchanged, repeated passes
    converge toward one base, and compaction keeps replaced files on
    disk so older time travel still works until vacuum()."""
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 2)
    for w in range(6):
        lake.apply_window(
            make_ds(
                [
                    ev(2 * w + 1, "insert", "r1", f"p{w}", f"c{w}", "py", f"v{2*w+1}"),
                    ev(2 * w + 2, "update", "r1", "hot", f"c{w}", "py", f"v{2*w+2}"),
                ]
            ),
            2 * w,
            2 * w + 2,
        )
    before = _state(lake)
    n_before = sum(len(fs) for fs in lake.live_files().values())
    # tiny budget: every pair of small files folds, several tiers per part
    entry = lake.compact(max_input_bytes=20_000)
    assert _state(lake) == before
    n_after = sum(len(fs) for fs in lake.live_files().values())
    assert n_after < n_before
    # deferred GC: every replaced file is still on disk, so time travel
    # to the FIRST window still resolves
    replaced = [
        f
        for folds in entry["parts"].values()
        for one in folds
        for f in one["replaces"]
    ]
    assert replaced and all(
        os.path.exists(os.path.join(lake.dir, f)) for f in replaced
    )
    early = lake.read(as_of=2).take_all()
    assert {(r["repo"], r["path"]) for r in early} == {("r1", "p0"), ("r1", "hot")}
    # repeated tiered passes converge without changing state
    for _ in range(3):
        lake.compact(max_input_bytes=20_000)
    assert _state(lake) == before
    # equal-seq tie order survives a PREFIX fold: force-commit a
    # same-seq rewrite (later arrival wins), tier-compact only the old
    # prefix, and the late row must still win
    top = max(r[2] for r in ((0, 0, int(v[2][1:])) for v in before.values()))
    lake.apply_window(
        make_ds([ev(top, "insert", "r1", "hot", "cz", "py", f"v{top}-late")]),
        0, 1, force=True,
    )
    assert _state(lake)[("r1", "hot")][2] == f"v{top}-late"
    lake.compact(max_input_bytes=20_000)
    assert _state(lake)[("r1", "hot")][2] == f"v{top}-late"


def test_partition_split_routes_and_preserves_state(ray_session, tmp_path):
    """Ledger-recorded partition split: state and time travel are
    unchanged, new windows route to the children, lookup prunes to the
    refined partition, and vacuum() GCs the parent files afterward
    (pre-split time travel then raises the precise vacuum error)."""
    import pytest

    from jitsu_ray.sinks.lake import active_moduli

    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 2)
    rows = [
        ev(i + 1, "insert", f"r{i % 5}", f"p{i}", "c", "py", f"v{i+1}")
        for i in range(40)
    ]
    lake.apply_window(make_ds(rows[:20]), 0, 20)
    lake.apply_window(make_ds(rows[20:]), 20, 40)
    before = _state(lake)
    entry = lake.split_partition(0, factor=2)
    assert entry["children"] == [0, 2]
    assert sorted(active_moduli(2, lake.ledger.splits())) == [0, 1, 2]
    assert active_moduli(2, lake.ledger.splits()) == {0: 4, 1: 2, 2: 4}
    assert _state(lake) == before  # a split never changes state
    # pre-split time travel still works (parent files deferred)
    assert len(lake.read(as_of=20).take_all()) == 20
    # a new window routes to the refined topology: no file may land in
    # a parent that is no longer active
    lake.apply_window(
        make_ds([ev(41 + i, "insert", f"r{i}", f"q{i}", "c", "py", "w") for i in range(8)]),
        40, 48,
    )
    live = lake.live_files()
    assert set(live) <= {0, 1, 2}
    assert _state(lake)[("r0", "q0")] == ("c", "py", "w")
    # lookup routes through the refinement and touches ONE partition
    hit = lake.lookup([{"repo": "r0", "path": "q0"}])
    assert hit.num_rows == 1 and lake.last_lookup_stats["partitions_read"] == 1
    # split a CHILD again (nested refinement)
    lake.split_partition(2, factor=2)
    assert _state(lake)[("r0", "q0")] == ("c", "py", "w")
    assert lake.lookup([{"repo": "r1", "path": "p1"}]).num_rows == 1
    # vacuum removes the replaced parent files; pre-split as_of now
    # raises the precise vacuum-row error
    out = lake.vacuum(keep_history=0)
    assert out["removed"]
    with pytest.raises(FileNotFoundError, match="vacuum ledger row"):
        lake.read(as_of=20).take_all()
    assert _state(lake) == {**before, **{(f"r{i}", f"q{i}"): ("c", "py", "w") for i in range(8)}}


def test_maintain_policy_pass(ray_session, tmp_path):
    """maintain(): one pass auto-splits partitions over the byte
    budget (factor sized to land children near the budget),
    tier-compacts (deleting nothing), and vacuums on the retention
    window — state invariant throughout, new windows route to the
    refined topology."""
    from jitsu_ray.sinks.lake import active_moduli

    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 2)
    # bulk of the data on partition-heavy keys so at least one partition
    # exceeds the small budget
    rows = [
        ev(i + 1, "insert", f"r{i % 3}", f"p{i}", "c", "py", "x" * 500)
        for i in range(200)
    ]
    lake.apply_window(make_ds(rows[:100]), 0, 100)
    lake.apply_window(make_ds(rows[100:]), 100, 200)
    before = _state(lake)
    sizes = {
        p: sum(os.path.getsize(f) for f in fs)
        for p, fs in lake.live_files().items()
    }
    budget = max(sizes.values()) // 2  # forces at least one split
    out = lake.maintain(
        max_partition_bytes=budget, min_files=2, keep_history=0
    )
    assert out["splits"], "expected at least one auto-split"
    assert _state(lake) == before
    # the split factor targeted the budget: every child's live bytes
    # should be well under the parent's old size (hash spread, not exact)
    act = active_moduli(2, lake.ledger.splits())
    assert len(act) > 2
    # follow-up windows still land correctly
    lake.apply_window(
        make_ds([ev(201, "insert", "rz", "new", "c", "go", "w")]), 200, 201
    )
    assert _state(lake)[("rz", "new")] == ("c", "go", "w")
    # idempotent-ish second pass: no state change
    lake.maintain(max_partition_bytes=budget, min_files=2, keep_history=0)
    assert _state(lake)[("r0", "p0")] == before[("r0", "p0")]


def _noisy(rnd, n: int = 8) -> str:
    """Incompressible payload, so on-disk bytes track row counts."""
    return "".join(f"{rnd.getrandbits(128):032x}" for _ in range(n))


def _child_rows(lake, entry) -> dict:
    """{child: concatenated rows of the split's files for that child}."""
    return {
        int(c): pa.concat_tables(
            [pq.read_table(os.path.join(lake.dir, i["file"])) for i in infos]
        )
        for c, infos in entry["parts"].items()
    }


def test_maintain_split_writes_each_child_once(ray_session, tmp_path):
    """maintain() on a lake with one oversized partition: the split
    routes AND folds, so each child is ONE file holding one resolved
    row per key (no superseded versions), and the same pass's
    compaction has nothing left to fold for the children."""
    import random

    rnd = random.Random(3)
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 1)
    seq = 0
    for w in range(4):  # four versions of every key
        rows = []
        for i in range(60):
            seq += 1
            rows.append(ev(seq, "update", f"r{i % 4}", f"p{i}", f"c{w}", "py", _noisy(rnd)))
        lake.apply_window(make_ds(rows), seq - 60, seq)
    before = _state(lake)
    total = sum(os.path.getsize(f) for f in lake.live_files()[0])
    # factor = ceil(1.5 * total / budget) = 2 (the split headroom); each
    # child's input fits one run
    budget = total * 3 // 4 + 1
    out = lake.maintain(max_partition_bytes=budget, min_files=2)
    [split] = out["splits"]
    assert split["factor"] == 2 and split["children"] == [0, 1]
    live = lake.live_files()
    for c in split["children"]:
        assert len(split["parts"][str(c)]) == 1
        assert len(live[c]) == 1
    assert not set(out["compact"].get("parts", {})) & {"0", "1"}
    # the children hold winners only: 60 keys, not 240 versions
    got = _child_rows(lake, split)
    assert sum(t.num_rows for t in got.values()) == 60
    assert _state(lake) == before
    # bytes in the ledger are the real on-disk sizes
    for infos in split["parts"].values():
        for i in infos:
            assert i["bytes"] == os.path.getsize(os.path.join(lake.dir, i["file"]))


def test_split_fold_tombstone_watermark_rule(ray_session, tmp_path):
    """Tombstones at or below the watermark are dropped only when ONE
    fold covers all of a child's rows: dropped by a maintain() split
    whose children fit the budget, kept at watermark 0, and kept when
    max_input_bytes forces a child into several runs — each run then
    reads a consecutive, byte-bounded slice of the parent files."""
    import random

    def build(name):
        rnd = random.Random(11)
        lake = LakeTable.create(str(tmp_path / name), ["repo", "path"], 1)
        for w in range(6):  # distinct keys per window...
            rows = [
                ev(w * 40 + i + 1, "insert", f"r{i % 3}", f"w{w}p{i}", "c", "py", _noisy(rnd))
                for i in range(40)
            ]
            lake.apply_window(make_ds(rows), w * 40, w * 40 + 40)
        # ...then a window deleting ten keys of the first window
        dels = [ev(241 + i, "delete", f"r{i % 3}", f"w0p{i}") for i in range(10)]
        lake.apply_window(make_ds(dels), 240, 250)
        return lake

    def tombstones(lake, entry):
        return sum(
            t.filter(pa.compute.equal(t["op"], "delete")).num_rows
            for t in _child_rows(lake, entry).values()
        )

    # full fold + watermark: the tombstones go
    lake = build("full")
    before = _state(lake)
    total = sum(os.path.getsize(f) for f in lake.live_files()[0])
    out = lake.maintain(max_partition_bytes=total // 2 + 1, min_files=99,
                        tombstone_watermark=250)
    [split] = out["splits"]
    assert all(len(infos) == 1 for infos in split["parts"].values())
    assert tombstones(lake, split) == 0
    assert _state(lake) == before and len(before) == 230

    # watermark 0 (the direct-call default): the tombstones stay
    lake = build("wm0")
    entry = lake.split_partition(0, factor=2)
    assert tombstones(lake, entry) == 10
    assert _state(lake) == before

    # several runs per child: partial folds keep tombstones, and every
    # run's input is a consecutive slice within the byte budget
    lake = build("runs")
    parents = lake.live_files()[0]
    sizes = [os.path.getsize(f) for f in parents]
    budget = max(sizes) + 1  # about two parent files per child run
    entry = lake.split_partition(0, factor=2, max_input_bytes=budget,
                                 tombstone_watermark=250)
    assert tombstones(lake, entry) == 10
    assert _state(lake) == before
    for c, infos in entry["parts"].items():
        assert len(infos) > 1
        covered = []
        for i in infos:
            t = pq.read_table(os.path.join(lake.dir, i["file"]))
            # window w holds seqs (40w, 40w+40]; the delete window is 6
            src = sorted({(s - 1) // 40 for s in t["commit_seq"].to_pylist()})
            assert src == list(range(src[0], src[-1] + 1))  # consecutive
            assert len(src) == 1 or sum(sizes[k] for k in src) / 2 <= budget
            covered.extend(src)
        assert covered == sorted(covered)  # run order = parent file order


@pytest.mark.parametrize("max_input_bytes", [None, 1])
def test_split_fold_keeps_equal_seq_tie_order(ray_session, tmp_path, max_input_bytes):
    """A same-seq rewrite force-committed AFTER the original version
    must still win once a split folds both into one child (last arrival
    wins the equal-seq tie: the fold concatenates slices in parent file
    order) — with one run per child and with one run per parent file —
    and after vacuum removes the parent files."""
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 1)
    rows = [ev(i + 1, "insert", "r", f"p{i}", "c", "py", f"v{i + 1}") for i in range(30)]
    lake.apply_window(make_ds(rows[:15]), 0, 15)
    lake.apply_window(make_ds(rows[15:]), 15, 30)
    lake.apply_window(make_ds([ev(7, "insert", "r", "p6", "c", "py", "v7-late")]),
                      0, 1, force=True)
    assert _state(lake)[("r", "p6")][2] == "v7-late"
    entry = lake.split_partition(0, factor=2, max_input_bytes=max_input_bytes)
    assert _state(lake)[("r", "p6")][2] == "v7-late"
    assert lake.lookup([{"repo": "r", "path": "p6"}])["content"].to_pylist() == ["v7-late"]
    if max_input_bytes is None:
        assert all(len(i) == 1 for i in entry["parts"].values())
    assert lake.vacuum(keep_history=0)["removed"]
    assert _state(lake)[("r", "p6")][2] == "v7-late"
    assert len(_state(lake)) == 30


def test_maintain_clustered_split_children_prune(ray_session, tmp_path):
    """maintain(cluster_by=...) clusters the split children themselves:
    a child whose input exceeds the on-disk chunk budget is sorted and
    cut into chunk files whose zone maps are range-disjoint, so a
    narrow scan_range band prunes most of them without waiting for a
    compaction."""
    import random

    rnd = random.Random(5)
    lake = LakeTable.create(
        str(tmp_path / "lake"), ["repo", "path"], 1, stats_cols=["commit"]
    )
    vals = rnd.sample(range(100000), 600)
    rows = [
        ev(i + 1, "insert", "r", f"p{i}", f"{v:06d}", "py", "x" * 300)
        for i, v in enumerate(vals)
    ]
    lake.apply_window(make_ds(rows), 0, 600)
    before = {r["path"]: r["commit"] for r in lake.read().take_all()}
    band = ("020000", "029999")
    want = {p: c for p, c in before.items() if band[0] <= c <= band[1]}
    total = sum(os.path.getsize(f) for f in lake.live_files()[0])
    # factor clamped to 2: each child's half of the parent file is about
    # twice the budget, so its fold cuts about two on-disk chunks
    out = lake.maintain(max_partition_bytes=total // 4 + 1, min_files=99,
                        max_split_factor=2, cluster_by=["commit"])
    [split] = out["splits"]
    for infos in split["parts"].values():
        assert len(infos) > 1  # the child's fold really chunked
        bounds = [i["key_stats"]["commit"] for i in infos]
        assert all(a[1] < b[0] for a, b in zip(bounds, bounds[1:]))
    got = {r["path"]: r["commit"] for r in lake.scan_range("commit", *band).take_all()}
    assert got == want
    st = lake.last_scan_stats
    assert st["files_full"] < st["files_total"]
    assert {r["path"]: r["commit"] for r in lake.read().take_all()} == before


def test_tiered_compaction_pairs_stalled_singletons(ray_session, tmp_path):
    """Files each just over max_input_bytes form all-singleton groups,
    which would never fold: the cheapest adjacent pair folds instead
    (one over-budget fold per partition, marked fallback) — the file
    count drops pass after pass and state is unchanged."""
    import random

    rnd = random.Random(9)
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 1)
    for w in range(3):
        rows = [
            ev(w * 20 + i + 1, "insert", "r", f"w{w}p{i}", "c", "py", _noisy(rnd))
            for i in range(20)
        ]
        lake.apply_window(make_ds(rows), w * 20, w * 20 + 20)
    before = _state(lake)
    files = lake.live_files()[0]
    budget = min(os.path.getsize(f) for f in files) - 1
    entry = lake.compact(min_files=2, max_input_bytes=budget)
    [[info]] = entry["parts"].values()
    assert info["fallback"] is True and len(info["replaces"]) == 2
    assert len(lake.live_files()[0]) == 2
    assert _state(lake) == before
    lake.compact(min_files=2, max_input_bytes=budget)
    assert len(lake.live_files()[0]) == 1
    assert _state(lake) == before


def test_clustered_compaction_prunes_range_scans(ray_session, tmp_path):
    """compact(cluster_by=...): the fold is sorted by the clustering
    column and cut into range-disjoint chunk files, so a narrow
    scan_range band prunes most files via the ledger zone maps —
    before clustering every file spans the whole domain and nothing
    prunes. State and band results are unchanged."""
    import random

    rnd = random.Random(7)
    lake = LakeTable.create(
        str(tmp_path / "lake"), ["repo", "path"], 1, stats_cols=["commit"]
    )
    # 'commit' doubles as the scan column: random 0..9999 as strings of
    # fixed width so lexicographic order == numeric order
    rows = [
        ev(i + 1, "insert", "r", f"p{i}", f"{rnd.randrange(10000):05d}",
           "py", "x" * 200)
        for i in range(600)
    ]
    for w in range(3):
        lake.apply_window(make_ds(rows[w * 200 : w * 200 + 200]), w * 200, w * 200 + 200)
    before = {r["path"]: r["commit"] for r in lake.read().take_all()}
    # an on-disk budget no two adjacent windows fit, but one pair folds
    # into at most two chunks: the stalled tier folds its cheapest pair,
    # sorted and cut at the budget
    sizes = [os.path.getsize(f) for f in lake.live_files()[0]]
    budget = int(0.8 * min(a + b for a, b in zip(sizes, sizes[1:])))

    def band_paths():
        out = lake.scan_range("commit", "02000", "02999").take_all()
        return {r["path"]: r["commit"] for r in out}

    unclustered = band_paths()
    st = dict(lake.last_scan_stats)
    assert st["files_full"] == st["files_total"]  # random order: no pruning

    lake.compact(cluster_by=["commit"], max_input_bytes=budget)
    assert {r["path"]: r["commit"] for r in lake.read().take_all()} == before
    assert band_paths() == unclustered
    st2 = dict(lake.last_scan_stats)
    assert st2["files_total"] > 2  # the fold really chunked
    assert st2["files_full"] < st2["files_total"]  # and the band prunes


def test_clustered_chunks_preserve_tie_order(ray_session, tmp_path):
    """Clustered-compaction chunk files j >= 1 anchor to their
    predecessor in the ledger replay (insert_after): a key repaired at
    an EQUAL seq by a later forced window must keep the repair value
    even when the old version lands in a chunk that, naively appended,
    would replay AFTER the repair file and win the last-arrival tie."""
    lake = LakeTable.create(
        str(tmp_path / "lake"), ["repo", "path"], 1, stats_cols=["commit"]
    )
    # pX gets the LARGEST clustering value so it sorts into the LAST chunk
    rows = [
        ev(i + 1, "insert", "r", f"p{i:03d}", f"{i:05d}", "py", "x" * 200)
        for i in range(200)
    ]
    rows[100] = ev(101, "insert", "r", "pX", "99999", "py", "v-old")
    lake.apply_window(make_ds(rows[:100]), 0, 100)
    lake.apply_window(make_ds(rows[100:]), 100, 200)
    # forced same-seq repair: last arrival wins the tie; filler rows
    # make the repair file the largest of the three
    import random

    rnd = random.Random(1)
    filler = [
        ev(1000 + i, "insert", "r", f"q{i:03d}", f"{i:05d}", "py", _noisy(rnd, 2))
        for i in range(100)
    ]
    lake.apply_window(
        make_ds([ev(101, "insert", "r", "pX", "99999", "py", "v-new"), *filler]),
        0, 1, force=True,
    )
    assert _state(lake)[("r", "pX")][2] == "v-new"
    # an on-disk budget no two adjacent files fit: the stalled tier
    # folds its cheapest pair, the two NORMAL windows (holding pX
    # v-old), into one CHUNKED run while the forced repair file stays
    # AFTER them in ledger order — the hazard shape
    sizes = [os.path.getsize(f) for f in lake.live_files()[0]]
    assert sizes[2] > sizes[0]
    entry = lake.compact(cluster_by=["commit"],
                         max_input_bytes=int(0.8 * (sizes[0] + sizes[1])))
    [infos] = entry["parts"].values()
    assert isinstance(infos, list) and len(infos) >= 2  # fold chunked
    assert len(infos[0]["replaces"]) == 2  # ...and folded ONLY w1+w2
    assert all(i.get("insert_after") for i in infos[1:])
    assert _state(lake)[("r", "pX")][2] == "v-new"
    # the anchor is LOAD-BEARING: strip insert_after from the committed
    # row and the replay appends late chunks after the repair file,
    # flipping the equal-seq tie back to v-old (the bug this fixes)
    import glob as _glob
    import json as _json

    rows_by_kind = {}
    for p in _glob.glob(os.path.join(lake.dir, "_ledger", "*.json")):
        rows_by_kind.setdefault(_json.load(open(p))["kind"], []).append(p)
    [row_path] = rows_by_kind["compact"]
    # compact() auto-checkpoints, and the checkpoint froze the correct
    # file order — drop it so the strip below actually replays the row
    for ck in rows_by_kind.get("checkpoint", []):
        os.unlink(ck)
    raw = _json.load(open(row_path))
    stripped = _json.loads(_json.dumps(raw))
    for i in list(stripped["parts"].values())[0]:
        i.pop("insert_after", None)
    _json.dump(stripped, open(row_path, "w"))
    # a fresh reader replays the rewritten row (the live instance
    # already applied the original)
    assert _state(LakeTable.open(lake.dir))[("r", "pX")][2] == "v-old"  # bug reproduced
    _json.dump(raw, open(row_path, "w"))  # restore
    restored = LakeTable.open(lake.dir)
    assert _state(restored)[("r", "pX")][2] == "v-new"
    # and the whole state survives a fresh checkpoint fold: the restored
    # reader checkpoints the replayed order, and another fresh reader
    # loads it from that row
    assert restored.ledger.checkpoint() is not None
    reread = LakeTable.open(lake.dir)
    with _count_rows_parsed() as parsed:
        assert _state(reread)[("r", "pX")][2] == "v-new"
    assert sum(parsed) == 1  # the checkpoint row alone
    assert len(_state(reread)) == 200 + len(filler)


def _codecs(path: str) -> set[str]:
    """Codec of every column chunk of one parquet file."""
    md = pq.ParquetFile(path).metadata
    return {
        md.row_group(g).column(c).compression
        for g in range(md.num_row_groups)
        for c in range(md.num_columns)
    }


def _stat_cols(path: str) -> set[str]:
    """Columns of one parquet file whose column chunks carry footer
    statistics."""
    md = pq.ParquetFile(path).metadata
    return {
        md.schema.column(c).name
        for g in range(md.num_row_groups)
        for c in range(md.num_columns)
        if md.row_group(g).column(c).is_stats_set
    }


def _dict_cols(path: str) -> set[str]:
    """Columns of one parquet file with a dictionary-encoded column
    chunk."""
    md = pq.ParquetFile(path).metadata
    return {
        md.schema.column(c).name
        for g in range(md.num_row_groups)
        for c in range(md.num_columns)
        if {"PLAIN_DICTIONARY", "RLE_DICTIONARY"} & set(md.row_group(g).column(c).encodings)
    }


def _entry_files(entry: dict) -> list[str]:
    """Files a compact or split ledger row wrote."""
    if entry["kind"] == "split":
        return [i["file"] for infos in entry["parts"].values() for i in infos]
    return [one["file"] for folds in entry["parts"].values() for one in folds]


def _footer_keys(path: str) -> set[bytes]:
    """Key-value metadata keys of one parquet file's footer."""
    return set(pq.ParquetFile(path).metadata.metadata or {})


def _assert_current_format(path: str, key_cols: list[str]) -> None:
    """One lake file in the current format: every column chunk zstd and
    not dictionary-encoded, Parquet statistics on commit_seq and __part
    alone, no
    ARROW:schema footer key, and a raw Bloom sidecar (header, then the
    bits) whose filter equals BloomFilter.build over the file's keys."""
    import numpy as np

    from jitsu_ray.ops.sketch import BloomFilter
    from jitsu_ray.sinks.lake import _BLOOM_HEADER, _read_key_bloom
    from jitsu_ray.util import hash64_column

    assert _codecs(path) == {"ZSTD"}, path
    assert _dict_cols(path) == set(), path
    assert _stat_cols(path) == {"commit_seq", "__part"}, path
    assert b"ARROW:schema" not in _footer_keys(path), path
    want = BloomFilter.build(
        hash64_column(pq.read_table(path, columns=key_cols), key_cols).to_numpy()
    )
    got = _read_key_bloom(path)
    assert (got.m, got.k) == (want.m, want.k), path
    assert np.array_equal(got.bits, want.bits), path
    assert os.path.getsize(path + _BLOOM_SUFFIX) == _BLOOM_HEADER.size + want.bits.size


def test_every_lake_write_path_is_zstd(ray_session, tmp_path):
    """Window deltas, full folds, tiered folds, stall-fallback folds,
    split children and clustered chunks all go through one writer, and
    every file it writes is in the current format: zstd without
    dictionary encoding, Parquet statistics on commit_seq only (the key
    columns and stats_cols carry none either), no ARROW:schema footer
    key, and a raw Bloom sidecar over the file's keys."""
    import random

    rnd = random.Random(21)
    lake = LakeTable.create(
        str(tmp_path / "lake"), ["repo", "path"], 1, stats_cols=["commit"]
    )
    seq = 0

    def window(n):
        nonlocal seq
        rows = [
            ev(seq + i + 1, "insert", "r", f"p{seq + i}", f"{rnd.randrange(10**6):06d}",
               "py", _noisy(rnd))
            for i in range(n)
        ]
        entry = lake.apply_window(make_ds(rows), seq, seq + n)
        seq += n
        return list(entry["files"])

    written = {}
    written["window"] = [f for _ in range(4) for f in window(20)]
    sizes = [os.path.getsize(f) for f in lake.live_files()[0]]
    tiered = lake.compact(min_files=2, max_input_bytes=2 * max(sizes) + 1)
    assert len(tiered["parts"]["0"]) == 2  # two tiers of two windows
    written["tiered fold"] = _entry_files(tiered)
    sizes = [os.path.getsize(f) for f in lake.live_files()[0]]
    stalled = lake.compact(min_files=2, max_input_bytes=min(sizes) - 1)
    assert stalled["parts"]["0"][0]["fallback"] is True
    written["fallback fold"] = _entry_files(stalled)
    written["window"] += window(20)
    written["full fold"] = _entry_files(lake.compact(min_files=2))
    split = lake.split_partition(0, factor=2)
    written["split child"] = _entry_files(split)
    # each half of child 0's one file is about twice this budget, so
    # the clustered split of child 0 cuts each grandchild into chunks
    [child_file] = lake.live_files()[0]
    clustered = lake.split_partition(
        0, factor=2, max_input_bytes=os.path.getsize(child_file) // 4,
        cluster_by=["commit"],
    )
    chunks = _entry_files(clustered)
    assert any("-c001" in f for f in chunks)
    written["clustered chunk"] = chunks
    for path, files in written.items():
        assert files, path
        for f in files:
            _assert_current_format(os.path.join(lake.dir, f), ["repo", "path"])
    for f in (f for fs in lake.live_files().values() for f in fs):
        _assert_current_format(f, ["repo", "path"])


def test_lake_files_smaller_than_previous_format(tmp_path):
    """Byte guard for the lake file format: the resolved 16-partition
    tables of one 100k-event window of generated source files, written
    by ``_write_lake_files``, take at most 0.8x the bytes of the same
    tables in the previous format (zstd-1, dictionary encoding,
    pyarrow's default 1 MB pages, the same statistics)."""
    import numpy as np

    from jitsu_ray.sinks.lake import PART_COL, SEQ_COL, _write_lake_files, resolve_keep_tombstones
    from jitsu_ray.testgen import gen_changelog
    from jitsu_ray.util import hash_route_column, pad_and_cast

    keys = ["repo", "path"]
    lake = LakeTable.create(str(tmp_path / "lake"), keys, 16)
    target = pa.schema([
        *lake.full_arrow_schema(),
        *(pa.field(c, pa.large_string()) for c in ("commit", "lang", "content")),
    ])
    tbl = pad_and_cast(gen_changelog(n_events=100_000, n_repos=100, seed=42), target)
    tbl = tbl.set_column(0, PART_COL, hash_route_column(tbl, keys, 16, []))
    tbl = resolve_keep_tombstones(tbl, keys)
    pvals = tbl[PART_COL].to_numpy()
    new = old = 0
    for p in range(16):
        part = tbl.take(np.nonzero(pvals == p)[0])
        [info] = _write_lake_files(part, str(tmp_path / "new"), p, "t", keys, [SEQ_COL, *keys])
        assert info["rows"] == part.num_rows > 0
        new += info["bytes"]
        prev = str(tmp_path / f"prev-{p}.parquet")
        pq.write_table(part.combine_chunks(), prev, write_statistics=[SEQ_COL, *keys],
                       compression="zstd", compression_level=1)
        assert "content" in _dict_cols(prev)
        old += os.path.getsize(prev)
    assert new <= 0.8 * old, (new, old)


def test_mixed_codec_lake_reads_identically_and_compacts_to_zstd(ray_session, tmp_path):
    """Parquet records the codec, the encodings and the statistics per
    column chunk, so a lake whose first windows were written with other
    Parquet settings (snappy, then zstd, both with statistics on every
    column, then zstd-1 with dictionaries and zone-column statistics,
    then zstd-3 plain with zone-column statistics; all four with an
    ARROW:schema footer key) reads, looks up, range-scans and reports
    max_row_seq exactly like a twin written with the lake's own
    settings. The next compaction rewrites every file with them."""

    def build(name):
        lake = LakeTable.create(
            str(tmp_path / name), ["repo", "path"], 4, stats_cols=["commit"]
        )
        for w, lo in enumerate([0, 100, 200, 300]):
            rows = [
                ev(lo + i + 1, "insert", f"r{lo + i:04d}", "f.py", f"{lo + i:05d}",
                   "py", f"body {lo + i}")
                for i in range(100)
            ]
            lake.apply_window(make_ds(rows), lo, lo + 100)
        lake.apply_window(
            make_ds([ev(900, "insert", "r0050", "f.py", "00900", "py", "updated")]),
            400, 901,
        )
        return lake

    mixed, twin = build("mixed"), build("twin")
    zone = sorted({"commit_seq", "repo", "path", "commit"})
    # rewrite the four data windows at the same paths in the earlier
    # formats, each with the lake's Arrow types in its ARROW:schema key:
    # window 0 snappy, the format before zstd; window 1 zstd with
    # pyarrow's default statistics on every column, the format before
    # zone-only statistics; window 2 zstd-1 with zone-column
    # statistics, the format before plain encoding; window 3 zstd-3
    # plain with zone-column statistics, the format before lean
    # footers. Bloom sidecars depend on the keys only and stay as they
    # are.
    formats = [
        {"compression": "snappy"},
        {"compression": "zstd"},
        {"compression": "zstd", "compression_level": 1, "write_statistics": zone},
        {"compression": "zstd", "compression_level": 3, "use_dictionary": False,
         "data_page_size": 8 << 20, "write_statistics": zone},
    ]
    target = mixed.full_arrow_schema()
    old = {}
    for e, fmt in zip(mixed.ledger.entries()[:4], formats):
        assert e["kind"] == "window"
        for rel in e["files"]:
            path = os.path.join(mixed.dir, rel)
            pq.write_table(pq.read_table(path, schema=target), path, **fmt)
            old[rel] = fmt
    for fs in mixed.live_files().values():
        for f in fs:
            rel = os.path.relpath(f, mixed.dir)
            if rel not in old:
                _assert_current_format(f, ["repo", "path"])
                continue
            fmt = old[rel]
            assert _codecs(f) == {fmt["compression"].upper()}, rel
            assert _stat_cols(f) == set(fmt.get("write_statistics", pq.read_schema(f).names))
            assert bool(_dict_cols(f)) == fmt.get("use_dictionary", True), rel
            assert b"ARROW:schema" in _footer_keys(f), rel

    def views(lake):
        keys = [{"repo": "r0050", "path": "f.py"}, {"repo": "r0250", "path": "f.py"},
                {"repo": "r0350", "path": "f.py"}, {"repo": "nope", "path": "f.py"}]
        got = sorted(map(str, lake.lookup(keys).to_pylist()))
        st = dict(lake.last_lookup_stats)
        band = sorted(map(str, lake.scan_range("commit", "00120", "00180").take_all()))
        return got, st, band, dict(lake.last_scan_stats), lake.max_row_seq()

    assert _state(mixed) == _state(twin)
    got, st, band, sst, hi = views(mixed)
    assert (got, st, band, sst, hi) == views(twin)
    assert hi == 900
    assert st["files_zone_skipped"] + st["files_bloom_skipped"] > 0
    assert sst["files_full"] < sst["files_total"]
    entry = mixed.compact(min_files=2)
    assert set(old) <= {
        f for folds in entry["parts"].values() for one in folds for f in one["replaces"]
    }
    for fs in mixed.live_files().values():
        for f in fs:
            _assert_current_format(f, ["repo", "path"])
    assert _state(mixed) == _state(twin)
    assert mixed.max_row_seq() == 900


def _fixed_point_lake(path: str):
    """Two partitions, eight windows of updates and deletes over 120
    keys with an incompressible payload."""
    import random

    rnd = random.Random(17)
    lake = LakeTable.create(path, ["repo", "path"], 2, stats_cols=["commit"])
    seq = 0
    for _ in range(8):
        rows = []
        for _ in range(40):
            seq += 1
            k = rnd.randrange(120)
            op = "delete" if rnd.random() < 0.1 else "update"
            rows.append(ev(seq, op, f"r{k % 5}", f"p{k}",
                           f"{rnd.randrange(10**6):06d}", "py", _noisy(rnd, 4)))
        lake.apply_window(make_ds(rows), seq - 40, seq)
    return lake, seq


def _run_heads(lake) -> dict[str, str]:
    """{file: first file of its chunk run}, from the insert_after
    anchors the ledger records."""
    head: dict[str, str] = {}
    for e in lake.ledger.entries():
        if e["kind"] not in ("compact", "split"):
            continue
        infos = [o for i in e["parts"].values() for o in i]
        for one in infos:
            a = one.get("insert_after")
            head[one["file"]] = head.get(a, a) if a else one["file"]
    return head


@pytest.mark.parametrize("tier", [None, "tiered", "stalled"])
@pytest.mark.parametrize("cluster_by", [None, ["commit"]], ids=["plain", "clustered"])
@pytest.mark.parametrize("split", [False, True], ids=["nosplit", "split"])
def test_maintain_reaches_fixed_point(ray_session, tmp_path, split, cluster_by, tier):
    """With no new windows, repeated maintain() passes reach a fixed
    point under every option mix (split on/off, cluster_by on/off,
    max_input_bytes None / a few windows / just over one window):

    * no pass raises the live file count, except by splitting, and
      only the first pass splits (its children land under the budget);
    * a pass that commits nothing comes within (live files at start)
      passes, and it writes no file;
    * no fold takes part of a chunk run: a run is one tier unit;
    * without a max_input_bytes budget the pass right after the first
      commits nothing — a clustered fold or split leaves runs cut at
      their target.

    Tiered mixes may commit for several passes: tiers converge
    geometrically, and a stalled tier folds one pair per partition per
    pass by design."""
    import glob as _glob

    lake, seq = _fixed_point_lake(str(tmp_path / "lake"))
    before = _state(lake)
    live = lake.live_files()
    n0 = sum(len(fs) for fs in live.values())
    window = max(os.path.getsize(f) for fs in live.values() for f in fs)
    part = max(sum(os.path.getsize(f) for f in fs) for fs in live.values())
    max_input = {None: None, "tiered": int(2.5 * window), "stalled": int(1.5 * window)}[tier]
    counts = [n0]
    for i in range(n0):
        rel = lambda fs: [os.path.relpath(f, lake.dir) for f in fs]  # noqa: E731
        head = _run_heads(lake)
        runs: dict[str, set] = {}
        for fs in lake.live_files().values():
            for f in rel(fs):
                runs.setdefault(head.get(f, f), set()).add(f)
        on_disk = set(_glob.glob(os.path.join(lake.dir, "part=*", "*.parquet")))
        out = lake.maintain(
            max_partition_bytes=int(0.7 * part) if split else None,
            max_input_bytes=max_input, min_files=2, tombstone_watermark=seq,
            keep_history=0, cluster_by=cluster_by,
        )
        n = sum(len(fs) for fs in lake.live_files().values())
        assert not out["splits"] or i == 0
        assert out["splits"] or n <= counts[-1]
        replaced = {
            f for folds in out["compact"].get("parts", {}).values()
            for one in folds
            for f in one["replaces"]
        }
        for members in runs.values():
            assert not members & replaced or members <= replaced
        counts.append(n)
        if not out["splits"] and not out["compact"].get("parts"):
            written = set(_glob.glob(os.path.join(lake.dir, "part=*", "*.parquet")))
            assert written == on_disk
            break
    else:
        pytest.fail(f"no fixed point within {n0} passes: file counts {counts}")
    if tier is None:
        assert len(counts) == 3, counts  # the second pass committed nothing
    assert _state(lake) == before


def _churn_lake(path: str):
    """One partition, six 500-event windows of generated source files,
    clustered on ``repo``; returns the lake and its window file sizes."""
    import ray.data

    from jitsu_ray.testgen import gen_changelog

    tbl = gen_changelog(n_events=17_000, n_repos=100, seed=42).slice(0, 3000)
    lake = LakeTable.create(path, ["repo", "path"], 1, stats_cols=["repo"])
    for w in range(6):
        lake.apply_window(ray.data.from_arrow(tbl.slice(w * 500, 500)),
                          w * 500, w * 500 + 500)
    return lake, [os.path.getsize(f) for f in lake.live_files()[0]]


def test_clustered_compaction_churn_stops(ray_session, tmp_path):
    """The churn repro: four tiered clustered compactions at a budget
    just under half the tightest adjacent window pair, so every tier is
    a singleton and the stall fallback has no pair it may fold without
    raising the file count. Chunks are cut in the on-disk bytes tiering
    counts and a chunk run is one tier unit, so passes 1-3 write nothing
    and no pass raises the file count (cut in Arrow bytes, every pass
    rewrote the same chunk files). The budget is derived from the
    written sizes, so the premise holds under any file format."""
    lake, sizes = _churn_lake(str(tmp_path / "lake"))
    pairs = [a + b for a, b in zip(sizes, sizes[1:])]
    budget = (min(pairs) - 1) // 2
    assert all(b > 2 * budget for b in pairs), (sizes, budget)
    counts = [len(lake.live_files()[0])]
    for i in range(4):
        entry = lake.compact(min_files=2, cluster_by=["repo"], max_input_bytes=budget)
        written = sum(
            os.path.getsize(os.path.join(lake.dir, f)) for f in _entry_files(entry)
        ) if entry["parts"] else 0
        if i:
            assert written == 0
        counts.append(len(lake.live_files()[0]))
        assert counts[-1] <= counts[-2]


def test_clustered_compaction_converges_at_fixed_budget(ray_session, tmp_path):
    """The same lake at a fixed 40 kB budget, which lets the stall
    fallback fold some adjacent pairs (how many depends on the file
    format): repeated tiered clustered compactions never raise the file
    count, and a pass that commits nothing comes within the number of
    live files at the start, and writes no file."""
    import glob as _glob

    lake, sizes = _churn_lake(str(tmp_path / "lake"))
    counts = [len(sizes)]
    for _ in range(len(sizes)):
        on_disk = set(_glob.glob(os.path.join(lake.dir, "part=*", "*.parquet")))
        entry = lake.compact(min_files=2, cluster_by=["repo"], max_input_bytes=40_000)
        counts.append(len(lake.live_files()[0]))
        assert counts[-1] <= counts[-2], counts
        if not entry["parts"]:
            assert set(_glob.glob(os.path.join(lake.dir, "part=*", "*.parquet"))) == on_disk
            break
    else:
        pytest.fail(f"no fixed point within {len(sizes)} passes: file counts {counts}")


def test_vacuum_retention_grace_window(ray_session, tmp_path):
    """vacuum(keep_history=N): files replaced by recent folds survive
    the grace window (old as_of keeps working); shrinking the window
    removes them and the error names the vacuum ledger row. A crash
    between the vacuum row and the unlink is swept by the next pass."""
    import pytest

    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 2)
    for w in range(3):
        lake.apply_window(
            make_ds([ev(w + 1, "insert", "r", f"p{w}", "c", "py", f"v{w+1}")]),
            w, w + 1,
        )
    lake.compact()
    # generous grace window: nothing removable yet
    assert lake.vacuum(keep_history=100)["removed"] == []
    assert len(lake.read(as_of=1).take_all()) == 1
    # zero grace: deltas replaced by the compaction go away
    out = lake.vacuum(keep_history=0)
    assert out["removed"]
    with pytest.raises(FileNotFoundError, match="vacuum ledger row"):
        lake.read(as_of=1).take_all()
    # current state unaffected
    assert len(lake.read().take_all()) == 3


def test_vacuum_sweeps_stragglers_and_keeps_one_pass_of_names(ray_session, tmp_path):
    """A crash between a vacuum row and its unlinks leaves files the row
    named on disk. The next pass names them again in its own row and
    unlinks them, or, with nothing new to remove, unlinks them without
    a row. The ledger state (and so every checkpoint) keeps only the
    newest vacuum row's names, not every file ever vacuumed."""
    import shutil

    from jitsu_ray.state.ledger import Ledger

    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 1)

    def windows(lo, hi):
        for w in range(lo, hi):
            lake.apply_window(
                make_ds([ev(w + 1, "insert", "r", f"p{w}", "c", "py", f"v{w}")]),
                w, w + 1,
            )

    def on_disk(rel):
        return [p for p in (rel, rel + _BLOOM_SUFFIX)
                if os.path.exists(os.path.join(lake.dir, p))]

    windows(0, 3)
    lake.compact()
    first = sorted(lake.ledger.state().pending)
    assert len(first) == 3
    backup = tmp_path / "backup"
    backup.mkdir()
    saved = [p for f in first for p in on_disk(f)]
    for p in saved:
        shutil.copy(os.path.join(lake.dir, p), backup / p.replace("/", "__"))
    assert sorted(lake.vacuum(keep_history=0)["removed"]) == first
    assert not [p for f in first for p in on_disk(f)]
    # the crash: the row committed, the unlinks never happened
    for p in saved:
        shutil.copy(backup / p.replace("/", "__"), os.path.join(lake.dir, p))

    windows(3, 5)
    lake.compact()
    second = sorted(lake.ledger.state().pending)
    out = lake.vacuum(keep_history=0)
    assert sorted(out["removed"]) == sorted(second + first)
    assert not [p for f in second + first for p in on_disk(f)]
    assert lake.ledger.state().vacuumed == set(second + first)
    # after a clean pass, the next row names that pass's files only
    windows(5, 7)
    lake.compact()
    third = sorted(lake.ledger.state().pending)
    late = on_disk(third[0])[0]
    shutil.copy(os.path.join(lake.dir, late), backup / "late")
    assert sorted(lake.vacuum(keep_history=0)["removed"]) == third
    assert lake.ledger.state().vacuumed == set(third)
    # a straggler found by a pass with nothing new to remove: unlinked,
    # and no row written
    shutil.copy(backup / "late", os.path.join(lake.dir, late))
    seq = lake.ledger.max_seq()
    assert lake.vacuum(keep_history=0)["removed_now"] == 1
    assert lake.ledger.max_seq() == seq and not on_disk(third[0])
    # checkpoints carry one pass of names, and the fold agrees
    lake.ledger.checkpoint()
    [ck] = [e for e in Ledger(lake.ledger.dir).entries() if e["kind"] == "checkpoint"][-1:]
    assert sorted(ck["vacuumed"]) == third
    assert _views(Ledger(lake.ledger.dir).state()) == _views(_full_replay(lake.ledger.dir))
    assert len(lake.read().take_all()) == 7


def test_vacuum_removes_current_and_legacy_sidecars(ray_session, tmp_path):
    """vacuum unlinks a removed file's ``.bloom`` sidecar with it, so a
    pass leaks no sidecar. A straggler whose only leftover is its
    sidecar (a crash after the data file's unlink) is swept by the next
    pass, with no new row."""
    from jitsu_ray.sinks.lake import _LAKE_FILE_SUFFIXES

    def paths(rel):
        return [os.path.join(lake.dir, rel + x) for x in _LAKE_FILE_SUFFIXES]

    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 1)
    for w in range(3):
        lake.apply_window(
            make_ds([ev(w + 1, "insert", "r", f"p{w}", "c", "py", f"v{w}")]), w, w + 1
        )
    lake.compact()
    first = sorted(lake.ledger.state().pending)
    assert len(first) == 3
    assert all(os.path.exists(p) for f in first for p in paths(f))
    out = lake.vacuum(keep_history=0)
    assert sorted(out["removed"]) == first and out["removed_now"] == 3
    assert not [p for f in first for p in paths(f) if os.path.exists(p)]
    sidecar = os.path.join(lake.dir, first[0]) + _BLOOM_SUFFIX
    with open(sidecar, "wb") as fh:
        fh.write(b"left over")
    seq = lake.ledger.max_seq()
    out = lake.vacuum(keep_history=0)
    assert out["removed"] == [first[0]] and out["removed_now"] == 0
    assert not os.path.exists(sidecar)
    assert lake.ledger.max_seq() == seq
    assert len(lake.read().take_all()) == 3


def test_only_the_lake_module_spells_a_sidecar_suffix():
    """The Bloom sidecar suffix is spelled once, as a constant in
    sinks/lake.py; no other engine module spells it."""
    import pathlib
    import re

    import jitsu_ray

    root = pathlib.Path(jitsu_ray.__file__).parent
    spelled = re.compile(r"""(["'}])\.bloom["']""")
    found = {
        str(p.relative_to(root)): len(spelled.findall(p.read_text()))
        for p in sorted(root.rglob("*.py"))
    }
    assert {p: n for p, n in found.items() if n} == {os.path.join("sinks", "lake.py"): 1}


def test_lake_random_interleaving_matches_oracle(ray_session, tmp_path):
    """Property for the CORE lake: under any interleaving of normal
    windows, late force-committed windows (old bounds, old/tied seqs),
    tombstone-retaining compactions (whole-partition, size-tiered, AND
    partial ones whose ``min_files`` leaves cold partitions),
    ledger checkpoints, PARTITION SPLITS and vacuum
    retention passes — with one or two fold groups, so window files are
    shared across partitions — every file a live partition lists is on
    disk, and the resolved state always equals a pure-Python
    LWW fold with the lake's tie rule (higher commit_seq wins; equal
    seqs -> later-arrived row wins), lookup routes every key to its
    refined partition, the ledger state advanced incrementally (and a
    fresh reader's) equals a full replay, and time travel at any
    committed hi equals the
    fold over the bounded ledger replay — including the TOPOLOGY BREAK
    rule (a split after the first excluded window ends the bounded
    view) — or raises FileNotFoundError once a vacuum took that history
    away (the lakehouse contract)."""
    import uuid as _uuid

    import hypothesis.strategies as st
    from hypothesis import HealthCheck, given, settings

    from jitsu_ray.sinks.lake import active_moduli
    from jitsu_ray.state.ledger import Ledger

    keys = [(None, "n"), ("r1", "a"), ("r1", "b"), ("r2", "c")]

    def fold(evlist):
        """{key: winning seq} over (seq, op, key) in arrival order —
        winner is max (seq, arrival), deletes drop the key."""
        best = {}
        for arrival, (s, op, k) in enumerate(evlist):
            cur = best.get(k)
            if cur is None or (s, arrival) >= (cur[0], cur[1]):
                best[k] = (s, arrival, op)
        return {k: v[0] for k, v in best.items() if v[2] != "delete"}

    @settings(deadline=None, max_examples=10, suppress_health_check=list(HealthCheck))
    @given(st.data())
    def run(data):
        lake = LakeTable.create(
            str(tmp_path / _uuid.uuid4().hex), ["repo", "path"], 3
        )
        lake._cpus = data.draw(st.sampled_from([2, 4]))  # 1 or 2 fold groups
        events: list = []  # (seq, op, key) in arrival order
        ledger_log: list = []  # ("window", hi, [event idx]) | ("split",)
        seq = hi = 0
        lossy = False  # only vacuum may drop history
        for _ in range(data.draw(st.integers(3, 7))):
            act = data.draw(
                st.sampled_from(
                    ["window", "window", "late", "compact", "tiered", "cold",
                     "split", "vacuum", "ckpt"]
                )
            )
            if act == "compact":
                lake.compact(min_files=1, tombstone_watermark=0)
            elif act == "cold":
                lake.compact(min_files=data.draw(st.integers(2, 4)))
            elif act == "tiered":
                lake.compact(
                    min_files=2,
                    max_input_bytes=data.draw(st.sampled_from([1, 20_000])),
                )
            elif act == "split":
                parts = sorted(active_moduli(3, lake.ledger.splits()))
                lake.split_partition(
                    data.draw(st.sampled_from(parts)),
                    factor=data.draw(st.sampled_from([2, 3])),
                )
                ledger_log.append(("split", None, None))
            elif act == "vacuum":
                lake.vacuum(keep_history=data.draw(st.integers(0, 4)))
                lossy = True
            elif act == "ckpt":
                lake.ledger.checkpoint()
            elif act == "late" and hi >= 2:
                lo2 = data.draw(st.integers(0, hi - 1))
                hi2 = data.draw(st.integers(lo2 + 1, hi))
                rows, idxs = [], []
                for _ in range(data.draw(st.integers(1, 3))):
                    s = data.draw(st.integers(1, hi2))
                    k = data.draw(st.sampled_from(keys))
                    op = data.draw(st.sampled_from(["insert", "delete"]))
                    rows.append(ev(s, op, k[0], k[1], "c", "py", f"v{s}"))
                    idxs.append(len(events))
                    events.append((s, op, k))
                lake.apply_window(make_ds(rows), lo2, hi2, force=True)
                ledger_log.append(("window", hi2, idxs))
            else:
                rows, idxs = [], []
                for _ in range(data.draw(st.integers(1, 3))):
                    seq += 1
                    k = data.draw(st.sampled_from(keys))
                    op = data.draw(st.sampled_from(["insert", "update", "delete"]))
                    rows.append(ev(seq, op, k[0], k[1], "c", "py", f"v{seq}"))
                    idxs.append(len(events))
                    events.append((seq, op, k))
                lo, hi = hi, seq
                lake.apply_window(make_ds(rows), lo, hi)
                ledger_log.append(("window", hi, idxs))
            # vacuum never unlinks a file that a live partition lists
            assert all(os.path.exists(f) for fs in lake.live_files().values() for f in fs)
            # content is f"v{seq}", so the winning seq pins the winning ROW
            assert {
                k: int(v[2][1:]) for k, v in _state(lake).items()
            } == fold(events)
            # the lake's incrementally advanced ledger state equals a
            # full replay of the history, and a fresh reader's
            full = _views(_full_replay(lake.ledger.dir))
            assert _views(lake.ledger.state()) == full
            assert _views(Ledger(lake.ledger.dir).state()) == full
        # point lookups route through whatever topology the splits left
        expect = fold(events)
        got = {
            (r["repo"], r["path"]): r["commit_seq"]
            for r in lake.lookup(
                [{"repo": k[0], "path": k[1]} for k in keys]
            ).to_pylist()
        }
        assert got == expect
        # time travel at every committed window hi, modeling the bounded
        # replay exactly: windows above the bound are skipped, and the
        # first split after any skipped window freezes the view
        for bound in sorted(
            {h for kind, h, _ in ledger_log if kind == "window"}
        ):
            included, skipped = [], False
            for kind, h, idxs in ledger_log:
                if kind == "window":
                    if h > bound:
                        skipped = True
                        continue
                    included.extend(idxs)
                elif kind == "split" and skipped:
                    break
            try:
                got = {
                    (r["repo"], r["path"]): int(r["content"][1:])
                    for r in lake.read(as_of=bound).take_all()
                }
            except FileNotFoundError:
                assert lossy  # only GC may take history away
                continue
            assert got == fold([events[i] for i in included])

    run()


def _keys_by_part(num_parts: int, per_part: int) -> dict[int, list[tuple[str, str]]]:
    """``per_part`` (repo, path) keys that route to each partition."""
    tbl = pa.table({"repo": [f"r{i % 5}" for i in range(400)],
                    "path": [f"f{i}.py" for i in range(400)]})
    out: dict[int, list] = {p: [] for p in range(num_parts)}
    for r, path, p in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist(),
                          hash_mod_column(tbl, ["repo", "path"], num_parts).to_pylist()):
        if len(out[p]) < per_part:
            out[p].append((r, path))
    return out


def _shared_window_lake(tmp_path, name):
    """A 4-partition lake with one fold group: window 1 writes ONE file
    holding all four partitions' keys, windows 2-4 touch partition 0
    only. Returns the lake, the shared file (relative) and the keys."""
    lake = LakeTable.create(str(tmp_path / name), ["repo", "path"], 4)
    lake._cpus = 2
    keys = _keys_by_part(4, 5)
    rows = [ev(i + 1, "insert", r, path, "c", "py", f"v{i + 1}")
            for i, (r, path) in enumerate(k for p in range(4) for k in keys[p])]
    [shared] = lake.apply_window(make_ds(rows), 0, 20)["files"]
    seq = 20
    for _ in range(3):
        hot = [ev(seq + i + 1, "update", r, path, "c", "py", f"v{seq + i + 1}")
               for i, (r, path) in enumerate(keys[0])]
        lake.apply_window(make_ds(hot), seq, seq + 5)
        seq += 5
    assert {p: len(fs) for p, fs in lake.live_files().items()} == {0: 4, 1: 1, 2: 1, 3: 1}
    assert all(os.path.join(lake.dir, shared) in fs for fs in lake.live_files().values())
    return lake, shared


def test_window_accounting_counts_shared_files_once(ray_session, tmp_path, monkeypatch):
    """A window row names each file it wrote once. Its ``bytes_written``
    equals the on-disk bytes of those distinct files, its partitions'
    byte shares (``per_partition`` and the ``files`` listing) sum to
    each file's size and to that figure, and ``ingest_report()`` agrees,
    as do its live files and bytes. ``max_row_seq`` reads each distinct
    live file's footer once. One fold group over 16 partitions: counting
    a file once per partition would read ~16x too high."""
    import ray.data

    from jitsu_ray.sinks import lake as lake_mod
    from jitsu_ray.testgen import gen_changelog

    tbl = gen_changelog(n_events=3000, n_repos=10, seed=17)
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 16)
    lake._cpus = 2
    for lo in range(0, 3000, 1000):
        lake.apply_window(ray.data.from_arrow(tbl.slice(lo, 1000)), lo, lo + 1000)
    size = lambda f: os.path.getsize(os.path.join(lake.dir, f))
    wins = lake.ledger.window_metrics()
    for e in wins:
        [(f, held)] = e["files"].items()  # one group: one file for all 16
        assert len(held) == 16
        m = e["metrics"]
        assert m["bytes_written"] == size(f) == sum(held.values())
        assert sorted(m["per_partition"], key=lambda c: c["part"]) == m["per_partition"]
        assert {str(c["part"]): c["bytes"] for c in m["per_partition"]} == held
        assert m["partitions"] == 16 and m["rows_written"] == pq.read_metadata(
            os.path.join(lake.dir, f)).num_rows
    rep = lake.ingest_report()
    total = sum(size(f) for e in wins for f in e["files"])
    assert rep["bytes_written"] == total == sum(d["bytes"] for d in rep["partitions"].values())
    assert (rep["live_files"], rep["live_bytes"]) == (3, total)
    real, reads = lake_mod.parquet_seq_bounds, []
    monkeypatch.setattr(lake_mod, "parquet_seq_bounds", lambda f: reads.append(f) or real(f))
    assert lake.max_row_seq() == max(tbl["commit_seq"].to_pylist())
    assert sorted(reads) == sorted({f for fs in lake.live_files().values() for f in fs})
    assert len(reads) == 3


def test_cold_partition_does_not_keep_shared_file(ray_session, tmp_path):
    """A window file shared by a hot partition and cold ones leaves the
    disk at the next ``maintain``: the pass that folds it out of the hot
    partition (``min_files`` reached) folds it out of the cold
    partitions too, though they hold one file each. After a split drops
    the file from one partition only, the next pass folds it out of the
    rest even when no partition reaches ``min_files``. State holds
    throughout."""
    for name in ("hot", "split"):
        lake, shared = _shared_window_lake(tmp_path, name)
        before = read_rows(lake)
        if name == "hot":
            lake.maintain(min_files=3, keep_history=0)
        else:
            lake.split_partition(1, factor=2)
            lake.vacuum(keep_history=0)
            assert os.path.exists(os.path.join(lake.dir, shared))  # 0, 2 and 3 list it
            lake.maintain(min_files=100, keep_history=0)
        assert not os.path.exists(os.path.join(lake.dir, shared)), name
        live = lake.live_files()
        assert all(len(fs) == 1 for p, fs in live.items() if p != 0)
        assert all(shared not in os.path.relpath(f, lake.dir) for fs in live.values() for f in fs)
        assert read_rows(lake) == before
        assert lake.maintain(min_files=100)["compact"]["parts"] == {}  # a fixed point


def test_vacuum_keeps_file_a_live_partition_lists(ray_session, tmp_path):
    """A window file that one partition drops (a split of it, or a
    compacting window that touches it alone) while others still list it
    stays on disk through ``vacuum(keep_history=0)``; reads, lookups and
    the report still see its rows."""
    for name in ("split", "compacting"):
        lake, shared = _shared_window_lake(tmp_path, name)
        before = read_rows(lake)
        if name == "split":
            lake.split_partition(0, factor=2)
        else:
            keys = _keys_by_part(4, 5)[0]
            rows = [ev(100 + i, "update", r, path, "c", "py", f"v{100 + i}")
                    for i, (r, path) in enumerate(keys)]
            entry = lake.apply_window(make_ds(rows), 35, 200, compact=True)
            assert set(entry["replaces"]) == {"0"}
            for i, k in enumerate(keys):
                before[k] = {**before[k], "commit_seq": 100 + i, "content": f"v{100 + i}"}
        assert read_rows(lake) == before
        assert lake.vacuum(keep_history=0)["removed"]
        assert os.path.exists(os.path.join(lake.dir, shared))
        st = lake.ledger.state()
        assert set(st.shares[shared]) == {1, 2, 3}
        assert read_rows(lake) == before
        probe = [{"repo": r, "path": path} for r, path in _keys_by_part(4, 5)[2]]
        assert len(lake.lookup(probe)) == 5
        assert lake.ingest_report()["live_files"] == len(
            {f for fs in lake.live_files().values() for f in fs})


def test_row_groups_cut_at_partitions_and_row_cap(tmp_path, monkeypatch):
    """``_write_lake_files`` cuts a many-partition table into row groups
    at partition boundaries once a group holds ``_ROW_GROUP_BYTES``, and
    any table, a one-partition base included, every ``_ROW_GROUP_ROWS``
    rows: a base larger than the row cap is more than one row group."""
    from jitsu_ray.sinks import lake as lake_mod

    def groups(parts: list[int], name: str) -> list[tuple[int, int, int]]:
        tbl = pa.table({
            "repo": [f"r{i:04d}" for i in range(len(parts))],
            "path": ["p"] * len(parts),
            "commit_seq": pa.array(range(len(parts)), pa.int64()),
            "op": ["insert"] * len(parts),
            "__part": pa.array(parts, pa.int32()),
        })
        [info] = lake_mod._write_lake_files(
            tbl, str(tmp_path), parts[0], name, ["repo", "path"], ["repo", "path"])
        md = pq.read_metadata(os.path.join(tmp_path, info["file"]))
        out = []
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            st = rg.column(rg.num_columns - 1).statistics  # __part
            out.append((rg.num_rows, st.min, st.max))
        return out

    three = [0] * 40 + [1] * 40 + [2] * 40
    assert groups(three, "whole") == [(120, 0, 2)]  # under 2 MB: one group
    monkeypatch.setattr(lake_mod, "_ROW_GROUP_BYTES", 1)
    assert groups(three, "cut") == [(40, 0, 0), (40, 1, 1), (40, 2, 2)]
    monkeypatch.setattr(lake_mod, "_ROW_GROUP_ROWS", 30)
    assert [n for n, _, _ in groups(three, "capped")] == [30, 10, 30, 10, 30, 10]
    assert [n for n, _, _ in groups([5] * 70, "base")] == [30, 30, 10]


def test_zone_may_contain_matches_brute_force():
    """The lookup zone test (sorted distinct values + ranks) agrees with
    the direct rule on composite string/int keys with NULLs, at one key
    and at many: a key matches iff each column lies within its bounds,
    a NULL lies within none, and a None bound never prunes."""
    import random

    from jitsu_ray.sinks.lake import _zone_keys, _zone_may_contain

    rnd = random.Random(5)

    def inside(v, b):
        return not b or b[0] is None or (v is not None and b[0] <= v <= b[1])

    for n in (1, 3, 40, 300):
        keys = pa.table({
            "repo": [None if rnd.random() < 0.1 else f"r{rnd.randrange(50):02d}" for _ in range(n)],
            "n": pa.array([None if rnd.random() < 0.1 else rnd.randrange(100) for _ in range(n)],
                          pa.int64()),
        })
        zk = _zone_keys(keys)
        for _ in range(60):
            stats = {}
            if rnd.random() < 0.9:
                stats["repo"] = sorted(f"r{rnd.randrange(50):02d}" for _ in range(2))
            if rnd.random() < 0.9:
                stats["n"] = [None, None] if rnd.random() < 0.1 else sorted(
                    rnd.randrange(100) for _ in range(2))
            want = any(all(inside(k[c], stats.get(c)) for c in k) for k in keys.to_pylist())
            assert _zone_may_contain(stats, zk) == want, (n, stats)


def test_forced_folds_stay_byte_bounded(ray_session, tmp_path):
    """Tiered compaction over shared window files with skewed partition
    shares: partition ``a`` holds a few bytes of each file and folds all
    of them, which forces partition ``b``, holding most of each file's
    bytes, to fold them too. ``b``'s forced units fold in runs under
    ``max_input_bytes`` (a lone unit on its own), never one over-budget
    fold; only a tier-stall ``fallback`` pair may exceed it. The shared
    files leave the disk and state holds."""
    import random

    rnd = random.Random(3)
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 2)
    lake._cpus = 2  # one fold group: each window writes one file
    keys = _keys_by_part(2, 60)
    a, b = 0, 1
    seq = 0
    for n_b in (60, 55, 50, 45, 40):
        rows = [ev(seq + 1, "insert", *keys[a][seq % 5], "c", "py", "x")]
        rows += [ev(seq + 2 + i, "insert", r, path, "c", "py", _noisy(rnd))
                 for i, (r, path) in enumerate(keys[b][:n_b])]
        lake.apply_window(make_ds(rows), seq, seq + 1 + n_b)
        seq += 1 + n_b
    held_by = {f: dict(s) for f, s in lake.ledger.state().shares.items()}  # a copy
    shares = {p: [held_by[os.path.relpath(f, lake.dir)][p] for f in fs]
              for p, fs in lake.live_files().items()}
    budget = 1.4 * max(shares[b])
    assert sum(shares[a]) <= budget < min(x + y for x, y in zip(shares[b], shares[b][1:]))
    before = read_rows(lake)
    entry = lake.compact(max_input_bytes=budget)
    folds = entry["parts"][str(b)]
    assert isinstance(folds, list) and len(folds) >= 3
    for info in folds:
        held = sum(held_by[f][b] for f in info["replaces"])
        assert info.get("fallback") or len(info["replaces"]) == 1 or held <= budget, info
    assert read_rows(lake) == before
    lake.vacuum(keep_history=0)
    assert all(f.endswith(".parquet") and "base-" in f
               for fs in lake.live_files().values() for f in fs)
    assert read_rows(lake) == before


def test_replica_resync_on_empty_lakes(ray_session, tmp_path):
    """Forced re-sync of an EMPTY source (and/or empty replica) must
    commit cleanly instead of crashing on a schema-less zero-block
    Dataset — found by the interleaving property test below."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    # both empty: the tagged (0, 0] repair window commits, state stays {}
    assert replicate(src, dst, resync=True)["mode"] == "resync"
    assert _state(dst) == _state(src) == {}
    # data arriving later still replicates incrementally
    src.apply_window(make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 1)
    assert replicate(src, dst)["mode"] == "incremental"
    assert _state(dst) == _state(src)
    # source emptied again (tombstoned + vacuumed): re-sync tombstones
    # the replica's rows even with zero live source files
    src.apply_window(make_ds([ev(2, "delete", "r1", "a")]), 1, 2)
    src.compact(min_files=1, tombstone_watermark=5)
    assert replicate(src, dst, resync=True)["mode"] == "resync"
    assert _state(dst) == _state(src) == {}


@pytest.mark.usefixtures("ray_session")
def test_replica_random_interleaving_matches_source(ray_session, tmp_path):
    """Property: under ANY interleaving of source windows (including
    late force-committed ones at old bounds), replicate() calls and
    forced re-syncs, the replica's resolved state equals the source's
    after every round — the one invariant all the scenario tests above
    are instances of. Uses hypothesis' data() draw per action."""
    import uuid as _uuid

    import hypothesis.strategies as st
    from hypothesis import HealthCheck, given, settings

    from jitsu_ray.pipelines.replicate import replicate

    from jitsu_ray.sinks.lake import active_moduli

    keys = [(None, "n"), ("r1", "a"), ("r1", "b"), ("r2", "c")]
    acts = ["window", "window", "late", "replicate", "resync", "split", "vacuum"]

    @settings(deadline=None, max_examples=6, suppress_health_check=list(HealthCheck))
    @given(st.data())
    def run(data):
        base = tmp_path / _uuid.uuid4().hex
        src = LakeTable.create(str(base / "src"), ["repo", "path"], 3)
        dst = LakeTable.create(str(base / "dst"), ["repo", "path"], 2)
        seq = hi = 0
        for _ in range(data.draw(st.integers(3, 6))):
            act = data.draw(st.sampled_from(acts))
            if act == "split":
                # round 5: SOURCE partition splits between rounds must be
                # invisible to replication (topology-aware diff pairing)
                parts = sorted(active_moduli(3, src.ledger.splits()))
                src.split_partition(
                    data.draw(st.sampled_from(parts)),
                    factor=data.draw(st.sampled_from([2, 3])),
                )
                continue
            if act == "vacuum":
                # fold then retention: an incremental round
                # whose diff history was vacuumed must degrade to resync
                # (and still converge), never diverge or crash
                src.compact(min_files=1, tombstone_watermark=0)
                src.vacuum(keep_history=data.draw(st.integers(0, 3)))
                continue
            if act in ("window", "late"):
                if act == "late" and hi < 2:
                    act = "window"
                rows = []
                for _ in range(data.draw(st.integers(1, 3))):
                    k = data.draw(st.sampled_from(keys))
                    op = data.draw(st.sampled_from(["insert", "update", "delete"]))
                    if act == "late":
                        s = data.draw(st.integers(1, hi))  # old-range seq,
                        # ties against committed rows legal (LWW tie rule)
                    else:
                        seq += 1
                        s = seq
                    rows.append(ev(s, op, k[0], k[1], "c", "py", f"v{s}"))
                if act == "late":
                    lo2 = data.draw(st.integers(0, hi - 1))
                    src.apply_window(
                        make_ds(rows), lo2, data.draw(st.integers(lo2 + 1, hi)),
                        force=True,
                    )
                else:
                    lo, hi = hi, max(seq, hi + 1)
                    src.apply_window(make_ds(rows), lo, hi)
                    seq = hi
            else:
                replicate(src, dst, resync=(act == "resync"))
                assert _state(dst) == _state(src)
        replicate(src, dst)
        assert _state(dst) == _state(src)
        assert replicate(src, dst)["mode"] == "noop"

    run()


def test_replica_chain_cascades(ray_session, tmp_path):
    """Cascading replicas (src -> mid -> leaf): a mid replica is a
    legal SOURCE for a further replica, and a late spool-recovered
    window on the root cascades as resync -> incremental down the
    chain."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 4)
    mid = LakeTable.create(str(tmp_path / "mid"), ["repo", "path"], 2)
    leaf = LakeTable.create(str(tmp_path / "leaf"), ["repo", "path"], 3)
    src.apply_window(make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 10)
    src.apply_window(make_ds([ev(20, "insert", "r1", "b", "c1", "py", "v1")]), 12, 20)
    assert replicate(src, mid)["mode"] == "incremental"
    assert replicate(mid, leaf)["mode"] == "incremental"
    assert _state(leaf) == _state(src)

    # root recovery: late force-commit below the watermark
    src.apply_window(
        make_ds([ev(12, "insert", "r9", "late", "c1", "go", "vL")]), 10, 12, force=True
    )
    assert replicate(src, mid)["mode"] == "resync"
    # mid's repair commits at (frm == to], advancing NOTHING — but it
    # is a NEW mid ledger row, so the leaf round sees a late window
    # and repairs itself the same way
    m = replicate(mid, leaf)
    assert m["mode"] == "resync"
    assert _state(leaf) == _state(mid) == _state(src)
    assert ("r9", "late") in _state(leaf)
    # steady state resumes down the chain
    src.apply_window(make_ds([ev(21, "insert", "r2", "c", "c1", "py", "v")]), 20, 21)
    assert replicate(src, mid)["mode"] == "incremental"
    assert replicate(mid, leaf)["mode"] == "incremental"
    assert _state(leaf) == _state(src)


def test_replica_incremental_preserves_null_key_row(ray_session, tmp_path):
    """A null-keyed row unchanged in BOTH as-of states must survive an
    incremental round: without nulls_equal on diff_as_of's full join it
    splits into a same-seq delete+insert pair and the last-arrival tie
    rule can let the tombstone win — silent, undetectable divergence."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    src.apply_window(
        make_ds(
            [
                ev(1, "insert", None, "orphan", "c1", "py", "vN"),
                ev(2, "insert", "r1", "a", "c1", "py", "v1"),
            ]
        ),
        0,
        2,
    )
    assert replicate(src, dst)["mode"] == "incremental"
    assert (None, "orphan") in _state(dst)
    # unrelated source windows: the null row is in both diff states
    for i in range(3, 6):
        src.apply_window(
            make_ds([ev(i, "insert", "r1", f"p{i}", "c", "py", "v")]), i - 1, i
        )
        assert replicate(src, dst)["mode"] == "incremental"
        assert (None, "orphan") in _state(dst)
        assert _state(dst) == _state(src)


def test_replica_unhealable_high_seq_stray_raises(ray_session, tmp_path):
    """A foreign write may legally carry ROW seqs above its own window
    hi (out-of-order delivery contract); above the SOURCE's committed
    hi such rows beat every LWW repair stamped at the watermark, so
    resync=True must refuse loudly instead of reporting a heal that
    silently left the stray alive."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    src.apply_window(make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 2)
    src.apply_window(make_ds([ev(4, "insert", "r1", "b", "c1", "py", "v1")]), 2, 6)
    assert replicate(src, dst)["mode"] == "incremental"

    # foreign window (2, 4] planting a row at commit_seq=100 > src hi 6
    dst.apply_window(
        make_ds([ev(100, "insert", "rX", "stray", "c1", "py", "v")]), 2, 4, force=True
    )
    assert dst.max_row_seq() == 100
    with pytest.raises(ValueError, match="resync=True"):
        replicate(src, dst)
    with pytest.raises(ValueError, match="recreate"):
        replicate(src, dst, resync=True)
    # a stray DELETE above hi is equally unhealable (its tombstone
    # would eat every future re-insert of that key) — same refusal
    dst2 = LakeTable.create(str(tmp_path / "dst2"), ["repo", "path"], 2)
    assert replicate(src, dst2)["mode"] == "incremental"
    dst2.apply_window(make_ds([ev(50, "delete", "r1", "a")]), 2, 4, force=True)
    with pytest.raises(ValueError, match="recreate"):
        replicate(src, dst2, resync=True)


def test_max_row_seq_reads_column_when_footer_lacks_stats(ray_session, tmp_path):
    """A live file whose footer has no commit_seq statistics (another
    writer's, written with write_statistics=False) must not make
    max_row_seq too low: that file's commit_seq column is read."""
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 1)
    lake.apply_window(make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 2)
    lake.apply_window(make_ds([ev(100, "insert", "rX", "b", "c1", "py", "v")]), 2, 4)
    assert lake.max_row_seq() == 100
    [planted] = lake.ledger.entries()[-1]["files"]
    path = os.path.join(lake.dir, planted)
    pq.write_table(pq.read_table(path), path, write_statistics=False)
    assert not _stat_cols(path)
    assert lake.max_row_seq() == 100


def test_resolve_tie_path_survives_pos_column_collision(ray_session):
    """resolve_keep_tombstones' exact-resolution path (reachable when a
    null key and an empty-string key share a batch — they hash equal)
    must not clobber a payload column literally named __pos."""
    from jitsu_ray.sinks.lake import resolve_keep_tombstones

    tbl = pa.table(
        {
            "commit_seq": pa.array([1, 2], pa.int64()),
            "op": pa.array(["insert", "insert"], pa.string()),
            "repo": pa.array([None, ""], pa.string()),
            "path": pa.array(["x", "x"], pa.string()),
            "__pos": pa.array(["keep-null", "keep-empty"], pa.string()),
        }
    )
    win = resolve_keep_tombstones(tbl, ["repo", "path"])
    got = {(r["repo"], r["path"]): r["__pos"] for r in win.to_pylist()}
    assert got == {(None, "x"): "keep-null", ("", "x"): "keep-empty"}


def test_lookup_null_key_round_trip(ray_session, tmp_path):
    """A NULL key component routes into partitions/blooms via
    fill_null('') like any value, so lookup must return it — and must
    NOT conflate it with the empty-string key that shares its hash."""
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    lake.apply_window(
        make_ds(
            [
                ev(1, "insert", None, "x", "cN", "py", "null-key"),
                ev(2, "insert", "", "x", "cE", "py", "empty-key"),
                ev(3, "insert", "r1", "x", "c1", "py", "plain"),
            ]
        ),
        0,
        3,
    )
    hit = lake.lookup([{"repo": None, "path": "x"}])
    assert hit.num_rows == 1 and hit["content"][0].as_py() == "null-key"
    hit = lake.lookup([{"repo": "", "path": "x"}])
    assert hit.num_rows == 1 and hit["content"][0].as_py() == "empty-key"
    hit = lake.lookup([{"repo": None, "path": "x"}, {"repo": "r1", "path": "x"}])
    assert sorted(hit["content"].to_pylist()) == ["null-key", "plain"]


def _proj_state(lake, cols):
    """Key -> the given payload column values (for partial replicas whose
    payload is a subset)."""
    return {
        (r["repo"], r["path"]): tuple(r[c] for c in cols)
        for r in lake.read().take_all()
    }


def test_replica_filtered_tracks_source(ray_session, tmp_path):
    """Partial replica: where= references a payload column that is NOT
    in columns= (the filter-column/projection split); rows entering and
    leaving the predicate propagate as insert/delete."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 4)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    WHERE = [("lang", "=", "py")]
    COLS = ["content"]  # 'lang' is filtered on but not replicated

    src.apply_window(
        make_ds(
            [
                ev(1, "insert", "r1", "a", "c1", "py", "v1"),
                ev(2, "insert", "r1", "b", "c1", "go", "v1"),
                ev(3, "insert", "r2", "c", "c1", "py", "v1"),
            ]
        ),
        0,
        3,
    )
    m1 = replicate(src, dst, where=WHERE, columns=COLS)
    assert m1["mode"] == "incremental"
    assert _proj_state(dst, ["content"]) == {
        ("r1", "a"): ("v1",),
        ("r2", "c"): ("v1",),
    }
    assert "lang" not in {f.name for f in dst.full_arrow_schema()}

    # a leaves the predicate (py -> go), b enters (go -> py), c deleted
    src.apply_window(
        make_ds(
            [
                ev(4, "update", "r1", "a", "c2", "go", "v2"),
                ev(5, "update", "r1", "b", "c2", "py", "v2"),
                ev(6, "delete", "r2", "c"),
            ]
        ),
        3,
        6,
    )
    m2 = replicate(src, dst, where=WHERE, columns=COLS)
    assert m2["mode"] == "incremental"
    assert _proj_state(dst, ["content"]) == {("r1", "b"): ("v2",)}

    # idempotent noop with an unchanged filter
    assert replicate(src, dst, where=WHERE, columns=COLS)["mode"] == "noop"


def test_replica_filter_change_forces_resync(ray_session, tmp_path):
    """A round run under a DIFFERENT filter than the replica was built
    with must re-sync (previously excluded rows cannot be recovered
    incrementally), in every direction: filtered -> other filter,
    filtered -> plain, plain -> filtered."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 4)
    src.apply_window(
        make_ds(
            [
                ev(1, "insert", "r1", "a", "c1", "py", "v1"),
                ev(2, "insert", "r1", "b", "c1", "go", "v1"),
            ]
        ),
        0,
        2,
    )
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    assert replicate(src, dst, where=[("lang", "=", "py")])["mode"] == "incremental"
    assert set(_state(dst)) == {("r1", "a")}

    # widen the filter: the 'go' row was never replicated -> resync
    m = replicate(src, dst, where=[("lang", "in", ["py", "go"])])
    assert m["mode"] == "resync"
    assert set(_state(dst)) == {("r1", "a"), ("r1", "b")}

    # drop the filter entirely -> plain replica (same rows here)
    assert replicate(src, dst)["mode"] == "resync"
    assert _state(dst) == _state(src)

    # narrow back down: resync must TOMBSTONE the now-excluded row
    m = replicate(src, dst, where=[("lang", "=", "py")])
    assert m["mode"] == "resync"
    assert set(_state(dst)) == {("r1", "a")}

    # same spec, different spelling (tuples vs lists, uppercase op)
    # normalizes to the same identity -> noop, not resync
    assert replicate(src, dst, where=(["lang", "=", "py"],))["mode"] == "noop"
    # in-list order does not change the identity either
    replicate(src, dst, where=[("lang", "in", ["go", "py"])])  # resync
    assert (
        replicate(src, dst, where=[("lang", "IN", ["py", "go"])])["mode"] == "noop"
    )


def test_replica_filtered_null_semantics_and_validation(ray_session, tmp_path):
    """SQL three-valued logic: NULL filter values are excluded by =,
    in AND not-in (pc.invert(is_in) alone would admit them); spec
    validation rejects unknown ops/columns and non-payload columns."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    src.apply_window(
        make_ds(
            [
                ev(1, "insert", "r1", "a", "c1", "py", "v1"),
                ev(2, "insert", "r1", "b", "c1", None, "v1"),
                ev(3, "insert", "r1", "c", "c1", "go", "v1"),
            ]
        ),
        0,
        3,
    )
    d1 = LakeTable.create(str(tmp_path / "d1"), ["repo", "path"], 2)
    replicate(src, d1, where=[("lang", "not in", ["go"])])
    assert set(_state(d1)) == {("r1", "a")}  # NULL lang excluded too

    d2 = LakeTable.create(str(tmp_path / "d2"), ["repo", "path"], 2)
    replicate(src, d2, where=[("lang", "is null")])
    assert set(_state(d2)) == {("r1", "b")}

    d3 = LakeTable.create(str(tmp_path / "d3"), ["repo", "path"], 2)
    with pytest.raises(ValueError, match="unsupported where op"):
        replicate(src, d3, where=[("lang", "like", "p%")])
    with pytest.raises(ValueError, match="non-source columns"):
        replicate(src, d3, where=[("nope", "=", 1)])
    with pytest.raises(ValueError, match="payload columns"):
        replicate(src, d3, columns=["repo"])
    with pytest.raises(ValueError, match="is null"):
        replicate(src, d3, where=[("lang", "=", None)])


def test_replica_filtered_excludes_everything(ray_session, tmp_path):
    """A predicate no source row satisfies: the bootstrap replica is
    empty, and a filter-narrowing resync against a populated replica
    tombstones every row (the anti join's right side is a 0-row
    filtered key set)."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    src.apply_window(
        make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 1
    )
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    replicate(src, dst)
    assert set(_state(dst)) == {("r1", "a")}
    m = replicate(src, dst, where=[("lang", "=", "rust")])
    assert m["mode"] == "resync"
    assert _state(dst) == {}
    # watermark still advanced: unchanged filter -> noop
    assert replicate(src, dst, where=[("lang", "=", "rust")])["mode"] == "noop"


def test_where_sql_twin():
    """where_sql renders the exact ANSI twin of compile_where's spec."""
    from jitsu_ray.pipelines.replicate import where_sql

    assert (
        where_sql(
            [
                ("lang", "in", ["py", "go"]),
                ("n", ">=", 5),
                ("commit", "is not null"),
                ("path", "!=", "a'b"),
            ]
        )
        == "lang IN ('go', 'py') AND n >= 5 AND commit IS NOT NULL "
        "AND path <> 'a''b'"
    )


def test_where_spec_identity_and_literals(ray_session, tmp_path):
    """Round-5 advice pins: (a) compile_where([]) yields a BOOL-typed
    match-all mask even on a 0-row batch (null-typed [True]*0 would
    crash Table.filter); (b) in-list duplicates and conjunct order do
    not change the filter identity — a respelled predicate is a noop
    round, not a spurious full resync; (c) _sql_lit renders floats in
    e-notation (DuckDB DOUBLE, not DECIMAL) and rejects non-SQL types
    loudly."""
    import pyarrow as pa
    import pytest

    from jitsu_ray.pipelines.replicate import (
        compile_where,
        replicate,
        where_sql,
    )

    empty = pa.table({"lang": pa.array([], pa.string())})
    mask = compile_where([])(empty)
    assert mask.type == pa.bool_()
    assert empty.filter(mask).num_rows == 0

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    src.apply_window(
        make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 1
    )
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    spec = [("lang", "in", ["py", "go"]), ("repo", "!=", "zzz")]
    assert replicate(src, dst, where=spec)["mode"] == "incremental"
    # reordered conjuncts + duplicated in-list values = SAME predicate
    respelled = [("repo", "!=", "zzz"), ("lang", "in", ["go", "py", "go"])]
    assert replicate(src, dst, where=respelled)["mode"] == "noop"

    assert where_sql([("score", ">", 1.5)]) == "score > 1.5e0"
    assert where_sql([("score", ">", 1e300)]) == "score > 1e+300"
    with pytest.raises(ValueError, match="unsupported type"):
        where_sql([("blob", "=", b"x")])
    with pytest.raises(ValueError, match="unsupported type"):
        compile_where([("lang", "in", ["py", b"x"])])
    with pytest.raises(ValueError, match="finite"):
        where_sql([("score", "=", float("nan"))])


def test_replica_keys_only_and_degenerate_specs(ray_session, tmp_path):
    """Review-fix pins: columns=[] is a KEYS-ONLY replica with its own
    filter identity (switching to full payload must resync, not ride the
    empty-list/None truthiness collision); where=[] is the match-all
    conjunction (same identity as no filter); bare strings in in-lists
    and duplicate column names are rejected loudly."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 2)
    src.apply_window(
        make_ds([ev(1, "insert", "r1", "a", "c1", "py", "v1")]), 0, 1
    )
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)
    assert replicate(src, dst, columns=[])["mode"] == "incremental"
    assert set(dst.read().take_all()[0]) >= {"repo", "path"}
    assert "content" not in {f.name for f in dst.full_arrow_schema()}
    # keys-only -> full payload is a filter CHANGE: resync + payload backfill
    m = replicate(src, dst)
    assert m["mode"] == "resync"
    assert _state(dst) == _state(src)
    # where=[] == no filter: same identity -> noop
    assert replicate(src, dst, where=[])["mode"] == "noop"

    with pytest.raises(ValueError, match="LIST of values"):
        replicate(src, dst, where=[("lang", "in", "py")])
    with pytest.raises(ValueError, match="duplicate names"):
        replicate(src, dst, columns=["content", "content"])


def test_replicate_many_shared_diff_fanout(ray_session, tmp_path):
    """One source fanned out to three replicas (plain, filtered,
    keys-only) in one call: the CDC diff is computed ONCE for targets
    sharing a watermark (counted via a diff_as_of wrapper), every
    replica matches its own filter/projection of source state, and
    planning is fail-fast (a bad later target raises before ANY
    replica is written)."""
    from jitsu_ray.pipelines.replicate import replicate_many

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 4)
    src.apply_window(
        make_ds(
            [
                ev(1, "insert", "r1", "a", "c1", "py", "v1"),
                ev(2, "insert", "r1", "b", "c1", "go", "v1"),
                ev(3, "insert", "r2", "c", "c1", "py", "v1"),
            ]
        ),
        0,
        3,
    )
    d_plain = LakeTable.create(str(tmp_path / "plain"), ["repo", "path"], 2)
    d_py = LakeTable.create(str(tmp_path / "py"), ["repo", "path"], 2)
    d_keys = LakeTable.create(str(tmp_path / "keys"), ["repo", "path"], 2)
    targets = [
        {"dst": d_plain},
        {"dst": d_py, "where": [("lang", "=", "py")], "columns": ["content"]},
        {"dst": d_keys, "columns": []},
    ]

    calls = []
    real = src.diff_as_of

    def counted(*a, **k):
        calls.append(a)
        return real(*a, **k)

    src.diff_as_of = counted
    try:
        res = replicate_many(src, targets)
    finally:
        del src.diff_as_of
    assert [r["mode"] for r in res] == ["incremental"] * 3
    # BOOTSTRAP (frm=0) is exempt from the shared materialize — the
    # "diff" there is the whole source state, which must stream rather
    # than pin O(state) in the object store: three solo scans
    assert len(calls) == 3 and all(a == (0, 3) for a in calls)
    assert _state(d_plain) == _state(src)
    assert _proj_state(d_py, ["content"]) == {
        ("r1", "a"): ("v1",),
        ("r2", "c"): ("v1",),
    }
    assert set(_proj_state(d_keys, [])) == set(_state(src))

    # second wave: b enters the predicate, a deleted
    src.apply_window(
        make_ds(
            [
                ev(4, "update", "r1", "b", "c2", "py", "v2"),
                ev(5, "delete", "r1", "a"),
            ]
        ),
        3,
        5,
    )
    calls.clear()
    src.diff_as_of = counted
    try:
        res = replicate_many(src, targets)
    finally:
        del src.diff_as_of
    assert [r["mode"] for r in res] == ["incremental"] * 3
    # INCREMENTAL wave: one shared (3, 5] scan drives all three replicas
    assert len(calls) == 1 and calls[0] == (3, 5)
    assert _state(d_plain) == _state(src)
    assert _proj_state(d_py, ["content"]) == {
        ("r1", "b"): ("v2",),
        ("r2", "c"): ("v1",),
    }

    # fail-fast: a later target's bad spec raises BEFORE any apply
    src.apply_window(make_ds([ev(6, "insert", "r2", "d", "c1", "py", "v1")]), 5, 6)
    before = _state(d_plain)
    with pytest.raises(ValueError, match="non-source columns"):
        replicate_many(
            src, [{"dst": d_plain}, {"dst": d_py, "where": [("nope", "=", 1)]}]
        )
    assert _state(d_plain) == before  # nothing was written
    # duplicate destination: the second target's apply would be silently
    # swallowed by the idempotent window skip — rejected up front
    with pytest.raises(ValueError, match="share the destination"):
        replicate_many(src, [{"dst": d_plain}, {"dst": d_plain, "columns": []}])
    assert _state(d_plain) == before

    # a target at a UNIQUE watermark joins the fan-out without a shared
    # scan for it: bootstrap a fourth replica alongside the caught-up trio
    d_new = LakeTable.create(str(tmp_path / "new"), ["repo", "path"], 2)
    res = replicate_many(src, targets + [{"dst": d_new}])
    assert [r["mode"] for r in res] == ["incremental"] * 4
    assert _state(d_new) == _state(src) == _state(d_plain)


def test_no_ray_remote_inside_function_bodies():
    """Every Ray task and actor in the package is defined at module
    level: a ``ray.remote`` applied inside a function body registers a
    new task type on every call, and a long-lived session accumulates
    them without bound."""
    import ast
    import pathlib

    import jitsu_ray

    def is_ray_remote(node) -> bool:
        # the `ray.remote` attribute: bare or called decorator, or a call
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "remote"
            and isinstance(node.value, ast.Name)
            and node.value.id == "ray"
        )

    root = pathlib.Path(jitsu_ray.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.relative_to(root)}:{node.lineno} in {fn.name}"
                    for stmt in fn.body
                    for node in ast.walk(stmt)
                    if is_ray_remote(node)
                ]
    assert not found, f"ray.remote inside a function body: {found}"


def test_lake_map_functions_are_module_level():
    """Every ``map_batches`` call in ``sinks/lake.py`` passes a
    module-level function, never a nested def or a lambda: its per-call
    arguments go through ``fn_kwargs``, so a read or a window defines no
    new function for Ray Data to register. The functions are exactly the
    window prep, the read planner's map function and delete_where's
    tombstone map."""
    import ast
    import pathlib

    import jitsu_ray.sinks.lake as lake_mod

    tree = ast.parse(pathlib.Path(lake_mod.__file__).read_text())
    module_fns = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_batches"
    ]
    bad = [
        node.lineno for node in calls
        if not (isinstance(node.args[0], ast.Name) and node.args[0].id in module_fns)
    ]
    assert not bad, f"map_batches with a non-module-level function at lines {bad}"
    assert {node.args[0].id for node in calls} == {
        "_prep_window_batch", "_read_plan", "_tombstones_for"
    }


def test_lake_parquet_written_only_by_write_lake_files():
    """``sinks/lake.py`` has exactly one parquet write call, inside
    ``_write_lake_files``, so every lake data file gets the one codec
    constant (``_LAKE_PARQUET``)."""
    import ast
    import pathlib

    import jitsu_ray.sinks.lake as lake_mod

    tree = ast.parse(pathlib.Path(lake_mod.__file__).read_text())
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner.setdefault(id(node), fn.name)  # outermost function
    writes = [
        (node.lineno, owner.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("write_table", "ParquetWriter")
    ]
    assert [fn for _, fn in writes] == ["_write_lake_files"], writes


def test_lake_parquet_read_only_by_the_shared_reader():
    """In ``sinks/lake.py`` only the read planner's per-unit reader
    (``_read_unit``) and the maintenance and fold tasks open a
    ``pq.ParquetDataset``: ``read``, ``scan_range``, ``lookup`` and
    ``diff_as_of`` all read through the one reader."""
    import ast
    import pathlib

    import jitsu_ray.sinks.lake as lake_mod

    tree = ast.parse(pathlib.Path(lake_mod.__file__).read_text())
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner.setdefault(id(node), fn.name)  # outermost function
    readers = {
        owner.get(id(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "ParquetDataset"
    }
    assert readers == {"_read_unit", "_compact_fold", "_route_group", "_fold_window"}, readers
