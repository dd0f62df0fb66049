"""Shared vectorized helpers: stable hashing, schema padding/casting.

All hashes here are deterministic across processes and runs (fixed
seeds, no PYTHONHASHSEED dependence) — a hard requirement for the
replay-equality invariant (FIXTURES.md "Determinism rules") and for
stable partition assignment of a persistent lake table.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import polars as pl
import pyarrow as pa

from .types import DataType, cast_array, from_arrow

HASH_SEED = 42
HASH_ALGO = "polars-xxhash64-seed42"  # recorded in lake _meta.json


def md5_lower64(token: str, _cache: dict = {}) -> int:
    """Lower 64 bits of md5, little-endian — the exact value of
    DuckDB's md5_number_lower, so every operator built on it has an SQL
    oracle twin. Tokens repeat heavily; process-level cache."""
    h = _cache.get(token)
    if h is None:
        h = int.from_bytes(hashlib.md5(token.encode()).digest()[8:], "little")
        if len(_cache) < 1_000_000:
            _cache[token] = h
    return h

_HASH_SELF_TEST_OK: bool | None = None


def hash_self_test() -> None:
    """Known-answer test for the partition hash. polars does not
    guarantee xxhash64 stability across versions; a silently changed
    hash would route updates of an existing key to a DIFFERENT lake
    partition than its earlier rows, breaking per-partition LWW
    resolution (stale/deleted rows would resurface). Answers recorded
    under polars 1.42.1; fail loudly on any drift. Cached per process."""
    global _HASH_SELF_TEST_OK
    if _HASH_SELF_TEST_OK:
        return
    t = pa.table(
        {"k1": pa.array(["alpha", "beta", "γδ", ""]), "k2": pa.array(["x", "", "y", "z"])}
    )
    got = hash_mod_column(t, ["k1", "k2"], 997).to_pylist()
    got64 = hash64_column(t, ["k1", "k2"]).to_pylist()
    expect = [662, 514, 873, 676]
    expect64 = [
        -468739566129741471,
        -2307533160122034320,
        4551982088478977235,
        3377301888829838090,
    ]
    if got != expect or got64 != expect64:
        raise RuntimeError(
            "partition hash drift: polars xxhash64 no longer matches the "
            f"recorded known answers ({HASH_ALGO}); opening an existing "
            "lake with a drifted hash would corrupt LWW partitioning. "
            f"got={got}/{got64} want={expect}/{expect64}"
        )
    _HASH_SELF_TEST_OK = True


def hash_mod_column(tbl: pa.Table, cols: list[str], num_buckets: int) -> pa.Array:
    """Deterministic int32 bucket id from the concatenation of key columns.

    Uses polars' xxhash64 (vectorized, seeded). Keys are joined with a
    NUL separator so ("ab","c") != ("a","bc"). Each (repo, path) key maps
    to exactly one bucket for the lifetime of a lake table — hashing the
    full composite key spreads a hot repo's paths across buckets, which
    is the salting strategy SURVEY.md §7.3 calls for with the salt map
    degenerated to "always salt by path".
    """
    df = pl.from_arrow(tbl.select(cols))
    expr = pl.concat_str(
        [x for c in cols for x in (pl.col(c).cast(pl.String).fill_null(""), pl.lit("\x00"))]
    )
    h = df.select((expr.hash(seed=HASH_SEED) % num_buckets).cast(pl.Int32).alias("h"))
    return h.to_arrow()["h"].combine_chunks()


def hash_route_column(
    tbl: pa.Table, cols: list[str], base: int, splits: list
) -> pa.Array:
    """Partition id under a SPLIT topology (sinks/lake partition split):
    start from ``h % base`` (identical to :func:`hash_mod_column`) and
    refine through the committed splits in ledger order — a split of
    partition ``(id, modulus)`` by ``factor`` reroutes its rows to
    ``h % (modulus * factor)``, which lands in ``{id + j * modulus}``
    (the 2^k-refinement property: children are derivable from the same
    hash, so no row ever crosses between unrelated partitions).
    ``splits`` is [(parent_id, modulus, factor), ...] in commit order;
    empty list degrades to exactly ``hash_mod_column``. int32 like the
    lake's __part column (split depth can never realistically overflow
    it: moduli grow geometrically)."""
    if not splits:
        return hash_mod_column(tbl, cols, base)
    df = pl.from_arrow(tbl.select(cols))
    expr = pl.concat_str(
        [x for c in cols for x in (pl.col(c).cast(pl.String).fill_null(""), pl.lit("\x00"))]
    )
    h = (
        df.select(expr.hash(seed=HASH_SEED).alias("h"))["h"]
        .to_numpy()
        .astype(np.uint64)
    )
    part = (h % np.uint64(base)).astype(np.int64)
    mod = np.full(len(part), base, dtype=np.int64)
    for sid, m, f in splits:
        mask = (part == sid) & (mod == m)
        if mask.any():
            nm = int(m) * int(f)
            part[mask] = (h[mask] % np.uint64(nm)).astype(np.int64)
            mod[mask] = nm
    return pa.array(part.astype(np.int32), pa.int32())


def hash64_column(tbl: pa.Table, cols: list[str]) -> pa.Array:
    """Full-width deterministic 64-bit hash (as int64) of key columns."""
    df = pl.from_arrow(tbl.select(cols))
    expr = pl.concat_str(
        [x for c in cols for x in (pl.col(c).cast(pl.String).fill_null(""), pl.lit("\x00"))]
    )
    h = df.select(expr.hash(seed=HASH_SEED).reinterpret(signed=True).alias("h"))
    return h.to_arrow()["h"].combine_chunks()


def md5_hex_column(*arrays: pa.ChunkedArray | pa.Array, sep: str = "|") -> pa.Array:
    """Deterministic md5 hex digest per row of `sep`-joined column values.

    Analog of the reference's key-hash event id (server/uuid/uuid.go:36-46:
    md5 of sorted key values). Row-at-a-time by necessity (no vectorized
    md5 kernel); keep off the hot path — merge dedup uses (key, seq)
    directly, which is equivalent because the id is a pure function of
    those columns.
    """
    cols = []
    for a in arrays:
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        cols.append(a.to_pylist())
    out = [
        hashlib.md5(sep.join("" if v is None else str(v) for v in row).encode()).hexdigest()
        for row in zip(*cols)
    ]
    return pa.array(out, pa.string())


def sha256_hex_column(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """sha256 hex per row (the per-row content invariant, BASELINE.json)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    vals = arr.to_pylist()
    out = [
        None if v is None else hashlib.sha256(str(v).encode()).hexdigest() for v in vals
    ]
    return pa.array(out, pa.string())


def pad_and_cast(tbl: pa.Table, target: pa.Schema) -> pa.Table:
    """Project a batch onto `target`: missing columns become nulls, present
    columns are cast through the logical lattice rules (types.cast_array).
    Extra columns not in `target` are dropped.

    This is the writer-side half of additive schema evolution
    (reference: server/adapters/table.go:52-87 — ALTER ADD COLUMN only,
    never retype; readers of old files null-pad).
    """
    n = tbl.num_rows
    cols = []
    for field in target:
        if field.name in tbl.column_names:
            col = tbl.column(field.name)
            if not col.type.equals(field.type):
                col = cast_array(col, from_arrow(field.type))
                if not col.type.equals(field.type):  # e.g. string width
                    col = col.cast(field.type)
            cols.append(col)
        else:
            cols.append(pa.nulls(n, field.type))
    return pa.Table.from_arrays(cols, schema=target)


def fold_broadcast_keys(
    ds, col: str, max_bytes: int, what: str, hint: str = "", unique: bool = False
) -> list:
    """Stream a small-by-construction string key column to the driver
    under a byte budget, for a ray.put broadcast: the guard fires
    DURING the fold, before the driver ever holds an over-budget set
    (a take_all-then-check would OOM first). ``unique=True`` dedupes
    incrementally so repeated keys across batches don't double-count
    bytes. Shared skeleton of the strip_repeated_lines /
    decontaminate_exact_ngram broadcast folds."""
    seen: set | None = set() if unique else None
    keys: list = []
    nbytes = 0
    for b in ds.iter_batches(batch_format="pyarrow"):
        for k in b[col].to_pylist():
            if seen is not None:
                if k in seen:
                    continue
                seen.add(k)
            keys.append(k)
            nbytes += len(k.encode())
        if nbytes > max_bytes:
            raise ValueError(
                f"{what} exceeds {max_bytes >> 20} MiB"
                + (f" — {hint}" if hint else "")
            )
    return keys


_PROC_CACHE: dict[tuple[str, str], object] = {}
_PROC_CACHE_MAX = 8


def once_per_process(site: str, ref, build=lambda x: x):
    """Fetch-and-build a broadcast object once per worker process:
    lets a stage with broadcast state run as plain tasks on warm
    workers — no actor-pool startup — while fetching the object only
    once per process. Keyed by (call site, ref), bounded FIFO of
    `_PROC_CACHE_MAX` entries so (a) two concurrent stages sharing a
    call site don't evict each other per batch, and (b) repeated
    per-window calls can't grow worker heaps without bound. `ray.put`
    the object once on the driver; pass the ref."""
    import ray as _ray

    key = (site, ref.hex())
    if key not in _PROC_CACHE:
        if len(_PROC_CACHE) >= _PROC_CACHE_MAX:
            _PROC_CACHE.pop(next(iter(_PROC_CACHE)))
        _PROC_CACHE[key] = build(_ray.get(ref))
    return _PROC_CACHE[key]


def group_take_indices(group_ids: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Stable per-group row-index arrays for splitting one block into
    n_groups sub-tables. Shared core of the block splitters
    (lake._route_group by split child, similarity._split_by_bucket by
    IVF bucket): one argsort + searchsorted bounds; callers `take` each
    index array so every group lands in fresh compacted buffers —
    a zero-copy slice would serialize its whole parent block (the
    measured ~40x amplification pitfall)."""
    order = np.argsort(group_ids, kind="stable")
    bounds = np.searchsorted(group_ids[order], np.arange(n_groups + 1))
    return [order[bounds[i] : bounds[i + 1]] for i in range(n_groups)]


def np_view(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Zero-copy-ish numpy view of a numeric arrow column."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False)


def _lock_token() -> str:
    import socket

    return f"{socket.gethostname()}:{os.getpid()}"


def token_owner_dead(token: str) -> bool:
    """True iff ``token`` is ``host:pid`` for THIS host and the pid has
    no local /proc entry — the ONE liveness predicate shared by every
    host-scoped on-disk ownership marker (pid locks, spool tmp dirs).
    Another node's token (or anything unparseable) is never judged
    dead: /proc liveness means nothing across nodes."""
    import socket

    host, _, pid = token.rpartition(":")
    return (
        host == socket.gethostname()
        and pid.isdigit()
        and not os.path.exists(f"/proc/{pid}")
    )


# first-local-observation times of empty lock files, keyed by identity
# (path, inode, mtime_ns) — see _lock_owner_dead's empty-lock rule
_EMPTY_LOCK_SEEN: dict = {}


def _lock_owner_dead(content: str, lock_path: str, grace_sec: float) -> bool:
    """True iff this host can POSITIVELY establish the lock is stale:
    the owner token is same-host with a dead pid (token_owner_dead), or
    the content is empty and STAYS empty for ``grace_sec`` of our OWN
    monotonic observation per file generation (a writer killed between
    the O_EXCL create and the token write is empty forever; a create we
    merely raced fills in within microseconds). Observation-based on
    purpose: the file's st_mtime comes from the storage server's clock,
    and >grace skew would make every fresh lock look aged."""
    import time

    if token_owner_dead(content):
        return True
    if not content:
        try:
            st = os.stat(lock_path)
        except FileNotFoundError:
            return False
        key = (lock_path, st.st_ino, st.st_mtime_ns)
        now = time.monotonic()
        first = _EMPTY_LOCK_SEEN.setdefault(key, now)
        if len(_EMPTY_LOCK_SEEN) > 1024:
            # evict the oldest half by insertion order — clearing
            # everything would restart other locks' in-progress grace
            # clocks and could starve their heal forever
            for k in list(_EMPTY_LOCK_SEEN)[:512]:
                if k != key:
                    del _EMPTY_LOCK_SEEN[k]
        return now - first > grace_sec
    return False  # live, foreign-host, or unparseable: hands off


def acquire_pid_lock(
    lock_path: str, timeout_sec: float = 10.0, empty_grace_sec: float = 5.0
) -> None:
    """O_EXCL spin lock whose file holds ``hostname:pid``, with
    dead-owner self-healing so a SIGKILLed writer can't permanently
    block restart recovery. Healing rules:

    * Only locks this host can POSITIVELY verify as stale are broken
      (see _lock_owner_dead). A lock recorded by another node is NEVER
      broken — it times out, because /proc liveness means nothing
      across nodes.
    * The heal runs under a ``flock`` on a sibling ``.heal`` file.
      Every healer of a given lock is necessarily on the dead owner's
      host (only that host can verify the death), so the kernel flock
      fully serializes them — and it evaporates with the holder's
      process, so a healer crashing mid-heal can never strand a second
      lock. Inside the flock the main lock is re-read and must still
      match the stale owner before the unlink; while a stale lock file
      exists no O_EXCL claim can land on its name, so the
      re-read-then-unlink cannot remove a live claim.
    * Unhealable paths pass the deadline check and sleep — a stale lock
      that cannot be healed (e.g. heal mutex held by a stopped process)
      raises TimeoutError instead of spinning hot. A SUCCESSFUL heal
      retries the claim immediately (each such pass consumed a distinct
      dead owner, so it cannot loop unboundedly)."""
    import fcntl
    import time

    heal_path = lock_path + ".heal"
    deadline = time.monotonic() + timeout_sec
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, _lock_token().encode())
            os.close(fd)
            return
        except FileExistsError:
            owner = ino = None
            healed = False
            try:
                with open(lock_path) as f:
                    owner = f.read().strip()
                    ino = os.fstat(f.fileno()).st_ino
            except FileNotFoundError:
                pass  # released while we looked; retry after the wait
            if owner is not None and _lock_owner_dead(
                owner, lock_path, grace_sec=empty_grace_sec
            ):
                # the .heal file is created once and never deleted (a
                # few bytes next to the lock); flock gives crash-safe
                # healer mutual exclusion
                hf = open(heal_path, "a")
                try:
                    try:
                        fcntl.flock(hf, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    except OSError:
                        pass  # another healer is on it; fall through
                    else:
                        try:
                            # content match alone is vacuous for EMPTY
                            # owners (any generation reads ''): the
                            # inode pins the exact file generation we
                            # judged stale, so a claimant's fresh file
                            # in its create->write gap never matches
                            with open(lock_path) as f2:
                                same = (
                                    f2.read().strip() == owner
                                    and os.fstat(f2.fileno()).st_ino == ino
                                )
                            if same:
                                os.unlink(lock_path)
                                healed = True
                        except FileNotFoundError:
                            pass
                        finally:
                            fcntl.flock(hf, fcntl.LOCK_UN)
                finally:
                    hf.close()
            if healed:
                continue  # we freed it; claim before the next sleeper
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"lock {lock_path} held by live or unverifiable owner "
                    f"{owner!r} past {timeout_sec}s — if the owner is a "
                    "crashed process on another node, remove the lock "
                    "manually after confirming it is gone"
                )
            time.sleep(0.005)


def release_pid_lock(lock_path: str) -> None:
    """Release a lock taken by acquire_pid_lock (tolerates a healer
    having broken it already)."""
    try:
        os.unlink(lock_path)
    except FileNotFoundError:
        pass


def quiet_runtime_env() -> dict:
    """The ray.init(runtime_env=...) block that silences worker-side
    warning spam (Ray's internal datetime-precision note from ray.air
    tensor_extensions fires inside aggregate shuffle tasks at WARNING;
    it is driver-unactionable) — single-sourced for bench.py / test
    harnesses.

    The hook MUST be a nested function: cloudpickle serializes a
    module-level function by REFERENCE (module + qualname), and Ray
    workers deserialize the setup hook before any job sys.path setup —
    with jitsu_ray not pip-installed, every worker would die in a
    ModuleNotFoundError respawn loop and the first dataset op would
    hang forever. A closure pickles by value and needs no import."""

    def _hook() -> None:
        import logging as _l
        import warnings as _w

        _w.filterwarnings("ignore")
        _l.getLogger("ray.air.util.tensor_extensions.arrow").setLevel(_l.ERROR)

    return {
        "env_vars": {"PYTHONWARNINGS": "ignore"},
        "worker_process_setup_hook": _hook,
    }
