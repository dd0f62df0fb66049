"""Schema patching + widening (FIXTURES.md schema_patch / type_conflict):
additive columns, INT64⊔FLOAT64 -> FLOAT64, BOOL⊔TIMESTAMP -> STRING,
old rows null-padded — semantics of server/adapters/table.go:52-87 +
server/typing/converter.go:12-32."""

import os

import pyarrow as pa
import pytest

from jitsu_ray.schema.reconciler import LakeSchema, observed_payload
from jitsu_ray.sinks.lake import LakeTable
from jitsu_ray.types import DataType as T


def ds_of(tbl):
    import ray.data

    return ray.data.from_arrow(tbl)


def base_cols(seq_op_rows):
    seqs, ops, repos, paths = zip(*seq_op_rows)
    return {
        "commit_seq": pa.array(seqs, pa.int64()),
        "op": pa.array(ops, pa.string()),
        "repo": pa.array(repos, pa.string()),
        "path": pa.array(paths, pa.string()),
    }


def test_reconciler_unit():
    s = LakeSchema({})
    assert s.reconcile({"a": T.INT64}) and s.version == 1
    assert not s.reconcile({"a": T.INT64})
    assert s.reconcile({"a": T.FLOAT64, "b": T.BOOL}) and s.version == 2
    assert s.fields == {"a": T.FLOAT64, "b": T.BOOL}
    # narrower observation never narrows the schema
    assert not s.reconcile({"a": T.INT64})
    assert s.fields["a"] == T.FLOAT64


def test_observed_payload_skips_system():
    sch = pa.schema([("op", pa.string()), ("commit_seq", pa.int64()), ("x", pa.int32())])
    obs = observed_payload(sch, {"op", "commit_seq"})
    assert obs == {"x": T.INT64}


def test_additive_column_and_widening_e2e(ray_session, tmp_path):
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 4)

    # window 1: base payload only
    w1 = pa.table(
        {
            **base_cols([(1, "insert", "r", "a"), (2, "insert", "r", "b")]),
            "content": pa.array(["ca", "cb"], pa.large_string()),
        }
    )
    lake.apply_window(ds_of(w1), 0, 2)

    # window 2: adds stars:int64
    w2 = pa.table(
        {
            **base_cols([(3, "insert", "r", "c")]),
            "content": pa.array(["cc"], pa.large_string()),
            "stars": pa.array([7], pa.int64()),
        }
    )
    lake.apply_window(ds_of(w2), 2, 3)
    assert lake.schema.fields["stars"] == T.INT64

    # window 3: stars arrives as float -> column widens to FLOAT64
    w3 = pa.table(
        {
            **base_cols([(4, "insert", "r", "d")]),
            "content": pa.array(["cd"], pa.large_string()),
            "stars": pa.array([2.5], pa.float64()),
        }
    )
    lake.apply_window(ds_of(w3), 3, 4)
    assert lake.schema.fields["stars"] == T.FLOAT64

    rows = {(r["repo"], r["path"]): r for r in lake.read().take_all()}
    assert rows[("r", "a")]["stars"] is None  # old rows null-padded
    assert rows[("r", "c")]["stars"] == 7.0  # old int file read as float
    assert rows[("r", "d")]["stars"] == 2.5
    # survives compaction
    lake.compact(min_files=1, tombstone_watermark=4)
    rows2 = {(r["repo"], r["path"]): r for r in lake.read().take_all()}
    assert {k: v["stars"] for k, v in rows2.items()} == {
        k: v["stars"] for k, v in rows.items()
    }


def test_type_conflict_widens_to_string(ray_session, tmp_path):
    # bool then timestamp for the same column -> STRING (lattice root),
    # values rendered per the reference's conversion battery
    lake = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 2)
    w1 = pa.table(
        {
            **base_cols([(1, "insert", "r", "a")]),
            "flag": pa.array([True], pa.bool_()),
        }
    )
    lake.apply_window(ds_of(w1), 0, 1)
    w2 = pa.table(
        {
            **base_cols([(2, "insert", "r", "b")]),
            "flag": pa.array([1700000000000000], pa.timestamp("us")),
        }
    )
    lake.apply_window(ds_of(w2), 1, 2)
    assert lake.schema.fields["flag"] == T.STRING
    rows = {(r["repo"], r["path"]): r["flag"] for r in lake.read().take_all()}
    assert rows[("r", "a")] == "true"
    assert rows[("r", "b")].startswith("2023-11-14T")


def test_shared_schema_actor_serializes_widening(ray_session, tmp_path):
    """T4 concurrent-writers path: two LakeTable handles on one lake
    apply their widening windows from two threads at once; the locked
    schema step serializes them and both observe the merged schema."""
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow as pa
    import ray.data

    from jitsu_ray.sinks.lake import LakeTable

    a = LakeTable.create(str(tmp_path / "lake"), ["repo", "path"], 4)
    b = LakeTable.open(str(tmp_path / "lake"))

    t1 = pa.table(
        {
            "commit_seq": pa.array([1], pa.int64()),
            "op": pa.array(["insert"], pa.string()),
            "repo": pa.array(["r"], pa.string()),
            "path": pa.array(["p1"], pa.string()),
            "stars": pa.array([5], pa.int64()),
        }
    )
    t2 = pa.table(
        {
            "commit_seq": pa.array([2], pa.int64()),
            "op": pa.array(["insert"], pa.string()),
            "repo": pa.array(["r"], pa.string()),
            "path": pa.array(["p2"], pa.string()),
            "rating": pa.array([4.5], pa.float64()),
        }
    )
    with ThreadPoolExecutor(2) as ex:
        f1 = ex.submit(a.apply_window, ray.data.from_arrow(t1), 0, 1, force=True)
        f2 = ex.submit(b.apply_window, ray.data.from_arrow(t2), 1, 2, force=True)
        f1.result(), f2.result()
    rows = b.read().take_all()
    cols = set(rows[0].keys())
    assert {"stars", "rating"} <= cols  # both writers' columns merged
    assert len(rows) == 2


def _keyed(rows: list[tuple]) -> pa.Table:
    """A window over an int64 ``id`` key: rows of (seq, id, v), or of
    (seq, id, v, stars) for a window that carries ``stars``."""
    cols = list(zip(*rows))
    tbl = {
        "commit_seq": pa.array(cols[0], pa.int64()),
        "op": pa.array(["insert"] * len(rows), pa.string()),
        "id": pa.array(cols[1], pa.int64()),
        "v": pa.array(cols[2], pa.string()),
    }
    if len(cols) > 3:
        tbl["stars"] = pa.array(cols[3], pa.int64())
    return pa.table(tbl)


def test_two_handles_widen_in_turn(ray_session, tmp_path):
    """Handle ``a`` adds ``stars``, then handle ``b`` (opened before it)
    adds ``rating``: ``b`` folds its column into the version ``a``
    committed instead of writing its own ``v000001.json`` over it, and
    every handle reads both columns."""
    path = str(tmp_path / "lake")
    a = LakeTable.create(path, ["repo", "path"], 4)
    b = LakeTable.open(path)
    a.apply_window(
        pa.table({**base_cols([(1, "insert", "r", "a")]), "stars": pa.array([5], pa.int64())}),
        0, 1,
    )
    b.apply_window(
        pa.table({**base_cols([(2, "insert", "r", "b")]), "rating": pa.array([4.5], pa.float64())}),
        1, 2,
    )
    want = {("r", "a"): (5, None), ("r", "b"): (None, 4.5)}
    for lake in (LakeTable.open(path), a, b):
        got = {(r["repo"], r["path"]): (r["stars"], r["rating"]) for r in lake.read().take_all()}
        assert got == want
    assert sorted(os.listdir(os.path.join(path, "_schema"))) == ["v000001.json", "v000002.json"]
    assert a.ingest_report()["schema_version"] == 2
    assert b.ingest_report()["schema_version"] == 2


@pytest.mark.parametrize("opened", ["before_first_window", "after_first_window"])
def test_stale_handle_maintain_keeps_widened_columns(ray_session, tmp_path, opened):
    """A handle opened before another handle's windows compacts the
    lake: its fold target is the newest schema and key types, so the
    base it writes keeps ``v``, ``stars`` and the int64 key, and every
    later read sees their values."""
    path = str(tmp_path / "lake")
    a = LakeTable.create(path, ["id"], 1)
    b = LakeTable.open(path) if opened == "before_first_window" else None
    a.apply_window(_keyed([(1, 1, "x"), (2, 2, "y")]), 0, 2)
    b = b or LakeTable.open(path)
    a.apply_window(_keyed([(3, 3, "z", 5)]), 2, 3)
    a.apply_window(_keyed([(4, 1, "x2", 7)]), 3, 4)
    m = b.maintain(min_files=2, keep_history=0)
    assert m["compact"]["parts"] and m["vacuum"]["removed_now"]
    a.apply_window(_keyed([(5, 4, "w", 9)]), 4, 5)
    want = {1: ("x2", 7), 2: ("y", None), 3: ("z", 5), 4: ("w", 9)}
    for lake in (LakeTable.open(path), a, b):
        got = {r["id"]: (r["v"], r["stars"]) for r in lake.read().take_all()}
        assert got == want
        assert lake.full_arrow_schema().field("id").type == pa.int64()
    hit = b.lookup([{"id": 3}])
    assert hit.to_pylist() == [{"id": 3, "commit_seq": 3, "v": "z", "stars": 5}]


def test_schema_saved_only_by_the_locked_step():
    """Inside ``jitsu_ray/`` a schema version is written (``LakeSchema
    .save``) only by the lake's locked schema step, ``_commit_schema``."""
    import ast
    import pathlib

    import jitsu_ray

    savers = set()
    for src in pathlib.Path(jitsu_ray.__file__).parent.rglob("*.py"):
        tree = ast.parse(src.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[id(node)] = fn.name  # innermost function
        savers |= {
            (src.name, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "save"
            and "schema" in ast.unparse(node.func.value).lower()
        }
    assert savers == {("lake.py", "_commit_schema")}, savers


def test_replication_propagates_additive_schema(ray_session, tmp_path):
    """A column added on the SOURCE between replication rounds flows
    through the CDC diff into the replica (additive patch there too),
    with old replica rows null-padded — destination table patching
    (server/adapters/table.go:52-87 semantics) across a lake boundary."""
    from jitsu_ray.pipelines.replicate import replicate

    src = LakeTable.create(str(tmp_path / "src"), ["repo", "path"], 4)
    dst = LakeTable.create(str(tmp_path / "dst"), ["repo", "path"], 2)

    w1 = pa.table(
        {
            **base_cols([(1, "insert", "r", "a")]),
            "content": pa.array(["ca"], pa.large_string()),
        }
    )
    src.apply_window(ds_of(w1), 0, 1)
    replicate(src, dst)
    assert "stars" not in dst.schema.fields

    w2 = pa.table(
        {
            **base_cols([(2, "insert", "r", "b"), (3, "update", "r", "a")]),
            "content": pa.array(["cb", "ca2"], pa.large_string()),
            "stars": pa.array([7, None], pa.int64()),
        }
    )
    src.apply_window(ds_of(w2), 1, 3)
    assert replicate(src, dst)["mode"] == "incremental"
    assert dst.schema.fields["stars"] == T.INT64
    rows = {(r["repo"], r["path"]): r for r in dst.read().take_all()}
    assert rows[("r", "b")]["stars"] == 7
    assert rows[("r", "a")]["stars"] is None  # updated row, null stars
    assert rows[("r", "a")]["content"] == "ca2"

    # the widening case survives the RESYNC path too: src widens stars
    # to float and vacuums its history behind the replica watermark
    w3 = pa.table(
        {
            **base_cols([(4, "insert", "r", "c")]),
            "content": pa.array(["cc"], pa.large_string()),
            "stars": pa.array([2.5], pa.float64()),
        }
    )
    src.apply_window(ds_of(w3), 3, 4)
    src.compact(min_files=1, tombstone_watermark=4)
    src.vacuum()
    m = replicate(src, dst)
    assert m["mode"] == "resync"
    assert dst.schema.fields["stars"] == T.FLOAT64
    got = {(r["repo"], r["path"]): r["stars"] for r in dst.read().take_all()}
    assert got == {("r", "a"): None, ("r", "b"): 7.0, ("r", "c"): 2.5}
