"""Lake -> lake incremental replication (a maintained read replica).

``replicate(src, dst)`` folds everything committed to ``src`` since the
replica's watermark into ``dst`` by replaying the source's CHANGE DATA
FEED (:meth:`LakeTable.diff_as_of`) as one ordinary change-event window
— the downstream-replica topology every CDC deployment ends in (the
reference fans one event stream out to N destination tables,
server/destinations/; this is the same fan-out expressed lake-to-lake,
so a replica can live on cheaper storage, a different partition count,
or another cluster).

Design:
- **The replica's ledger IS the watermark.** Each replication round
  applies its delta as ``dst.apply_window(delta, frm, to)`` where
  ``frm``/``to`` are SOURCE ledger seqs — so ``dst.last_committed_hi()``
  records how far the replica has caught up, the round is idempotent
  (an already-committed window is skipped, M8), concurrent replicators
  are serialized by the ledger's optimistic seq claim, and a crash
  between diff and commit just re-derives the same delta. No second
  watermark file to keep consistent.
- **Every replication window is TAGGED** (``metrics.replication``) with
  the src/dst ledger POSITIONS (row counts, monotone even across
  recovery re-applies) observed when the round scanned. The next round
  walks each ledger newest-first only down to the previous tag's
  recorded position — O(rows since last round), not O(all rows) — and
  uses the two positions to detect the conditions a bare hi-watermark
  cannot see:

  * **Late source windows** (``Replayer.replay_spooled`` force-commits
    a spooled window at its ORIGINAL lower bounds after the stream —
    and possibly the replica — advanced past them). Such a window sits
    inside ``(0, frm]`` so every future ``diff_as_of(frm, to)`` sees it
    in BOTH states and emits nothing; without detection the replica
    silently diverges forever. A src window row newer than the
    recorded src position with ``hi <= frm`` triggers a full RE-SYNC.
  * **A swapped source.** The tag records the source lake's identity
    (realpath and creation UUID); a round that finds a different source
    re-syncs instead of trusting positions recorded against another
    ledger.
  * **Foreign writes to the replica.** Any dst window row without the
    replication tag — regardless of where its ``hi`` lands — raises
    ``ValueError``: a direct write at-or-below the source's hi would
    otherwise silently advance the watermark past unreplicated source
    windows (and a stray row would never be tombstoned). Pass
    ``resync=True`` to HEAL: the re-sync rewrites the replica from
    source state and later rounds stop scanning at the heal tag.
    A replica whose watermark is AHEAD of the source is NOT healable
    (its stray rows carry seqs the LWW repair cannot beat) — recreate.

- **Incremental cost is O(changes) + O(touched partitions).** The diff
  is per-source-partition with no shuffle; the apply exchange moves
  only changed rows. Delta rows all carry ``commit_seq = to``: the diff
  is a consistent state delta (one row per changed key), and ``to``
  strictly exceeds every seq a previous round wrote, so LWW converges.
- **RE-SYNC** (vacuumed diff history / late window / forced heal)
  re-inserts the source's entire resolved state at ``seq = to`` (NOT at
  each row's original seq — an original seq can be OLDER than a
  previous round's rewritten delta seq for the same key and lose the
  LWW race) and tombstones every replica key the source no longer has,
  found with one bucketed multi-key ANTI join (NULL-SAFE: the join
  runs over ``(value-as-string, is-null)`` helper key pairs, because
  Arrow join semantics never match null keys and a null-keyed row
  present in both lakes would otherwise be emitted as tombstone AND
  insert at the same seq). The window commits with ``force=True`` and
  its rows win any equal-seq tie against rows an earlier round wrote
  at the same ``to`` (``resolve_keep_tombstones`` last-arrival tie
  rule), so the repair is authoritative even when ``frm == to``.
- **A vacuum RACING the apply** (``diff_as_of`` passes its eager
  existence check, then a source ``vacuum()`` deletes the files while
  the lazy window streams) degrades to the same re-sync instead of
  crashing: ``apply_window`` commits no ledger row on failure and its
  fold tasks keep no state between windows, so the retry is clean.
"""

from __future__ import annotations

import json

import pyarrow as pa

__all__ = ["replicate", "replicate_many", "compile_where", "where_sql"]

_WHERE_OPS = (
    "=", "!=", "<", "<=", ">", ">=", "in", "not in", "is null", "is not null"
)


def _norm_where(where) -> list[list]:
    """Canonical JSON-able form of a conjunctive predicate spec: a list
    of ``(col, op, value)`` conjuncts (value omitted/None for the null
    tests, a list for ``in``/``not in``). The canonical form feeds the
    round tag's filter identity, so two spellings of one spec must
    normalize identically (tuples -> lists, in-lists sorted + deduped;
    _plan_target additionally sorts the CONJUNCTS in the identity JSON
    while evaluation keeps the given order). Values outside
    {str, bool, int, float} are rejected here — bytes/datetime would
    render as invalid SQL in where_sql and their repr-based identity
    would not round-trip."""
    out = []
    for c in where:
        if len(c) == 2:
            col, op = c
            val = None
        else:
            col, op, val = c
        op = " ".join(str(op).lower().split())
        if op not in _WHERE_OPS:
            raise ValueError(f"unsupported where op {op!r} (one of {_WHERE_OPS})")
        if op in ("is null", "is not null"):
            if val is not None:
                raise ValueError(f"{op!r} takes no value, got {val!r}")
            out.append([str(col), op, None])
            continue
        if op in ("in", "not in"):
            if isinstance(val, (str, bytes)):
                # list('py') would silently mean IN ('p', 'y') — and the
                # SQL twin would render the same wrong literal, so the
                # divergence would be oracle-invisible
                raise ValueError(
                    f"{op!r} needs a LIST of values, got the bare string "
                    f"{val!r} (wrap it: [{val!r}])"
                )
            vals = list(val)
            if not vals or any(v is None for v in vals):
                raise ValueError(f"{op!r} needs a non-empty list of non-null values")
            for v in vals:
                _check_lit(op, v)
            # sorted + DEDUPED: in-list [1, 1] must share the filter
            # identity of [1], else a respelled spec forces a spurious
            # full resync on the next replication round
            out.append([str(col), op, sorted(set(vals), key=repr)])
            continue
        if val is None:
            raise ValueError(f"{op!r} against NULL never matches; use 'is null'")
        _check_lit(op, val)
        out.append([str(col), op, val])
    return out


def _check_lit(op: str, v) -> None:
    if not isinstance(v, (str, bool, int, float)):
        raise ValueError(
            f"where op {op!r} value {v!r} has unsupported type "
            f"{type(v).__name__}; use str, bool, int or float"
        )
    if isinstance(v, float) and not (v == v and abs(v) != float("inf")):
        raise ValueError(f"where op {op!r} value {v!r} is not a finite number")


def compile_where(where):
    """Conjunctive predicate spec -> vectorized ``pa.Table -> bool mask``
    with SQL three-valued semantics (a NULL comparison excludes the row,
    including ``not in`` — ``pc.invert(pc.is_in)`` alone would ADMIT
    null inputs because is_in returns FALSE, not null, for them)."""
    import pyarrow.compute as pc

    spec = _norm_where(where)

    def mask(batch: pa.Table):
        if not spec:  # empty conjunction = TRUE (where_sql renders it so)
            # explicit bool_ type: [True]*0 would infer NULL type on an
            # empty batch and Table.filter rejects a null-typed mask
            return pa.array([True] * batch.num_rows, type=pa.bool_())
        m = None
        for col, op, val in spec:
            v = batch[col]
            if op == "is null":
                term = pc.is_null(v)
            elif op == "is not null":
                term = pc.is_valid(v)
            elif op == "in":
                term = pc.is_in(v, value_set=pa.array(val))
            elif op == "not in":
                term = pc.and_(
                    pc.invert(pc.is_in(v, value_set=pa.array(val))), pc.is_valid(v)
                )
            else:
                fn = {
                    "=": pc.equal, "!=": pc.not_equal, "<": pc.less,
                    "<=": pc.less_equal, ">": pc.greater, ">=": pc.greater_equal,
                }[op]
                term = pc.fill_null(fn(v, pa.scalar(val)), False)
            m = term if m is None else pc.and_(m, term)
        return m

    return mask


def _sql_lit(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, float):
        # force e-notation: DuckDB parses a bare decimal literal (1.2)
        # as exact DECIMAL, whose arithmetic lands 1 ULP off float64 in
        # hash-compared oracles (the documented bare-decimal trap);
        # 1.2e0 parses as DOUBLE
        s = repr(v)
        return s if ("e" in s or "E" in s) else s + "e0"
    return str(v)


def where_sql(where) -> str:
    """The spec's ANSI-SQL twin (for oracle queries / documentation).
    Floats render in e-notation so DuckDB parses them as DOUBLE, not
    DECIMAL (bare-decimal-literal oracle-parity trap)."""
    parts = []
    for col, op, val in _norm_where(where):
        if op in ("is null", "is not null"):
            parts.append(f"{col} {op.upper()}")
        elif op in ("in", "not in"):
            parts.append(f"{col} {op.upper()} ({', '.join(_sql_lit(v) for v in val)})")
        elif op == "!=":
            parts.append(f"{col} <> {_sql_lit(val)}")
        else:
            parts.append(f"{col} {op} {_sql_lit(val)}")
    return " AND ".join(parts) if parts else "TRUE"


def _visible_cols(lake) -> list[str]:
    from ..sinks.lake import OP_COL, PART_COL, SEQ_COL

    return [
        f.name
        for f in lake.full_arrow_schema()
        if f.name not in (PART_COL, OP_COL, SEQ_COL)
    ]


def _is_file_not_found(e: BaseException) -> bool:
    """True when a FileNotFoundError is anywhere in the exception chain.
    Ray Data flattens a task-side FileNotFoundError into
    RayTaskError(UserCodeException) whose object graph no longer
    CONTAINS the original (measured on ray 2.49: only the formatted
    remote traceback text survives), so for Ray-origin wrappers the
    check falls back to that text — a false positive merely degrades an
    incremental round to a (correct, slower) re-sync."""
    import ray.exceptions

    seen: set[int] = set()
    stack: list[BaseException | None] = [e]
    while stack:
        x = stack.pop()
        if x is None or id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, FileNotFoundError):
            return True
        if isinstance(x, ray.exceptions.RayError) and "FileNotFoundError" in str(x):
            return True
        stack.extend((x.__cause__, x.__context__, getattr(x, "cause", None)))
    return False


def _scan_dst(dst) -> tuple[dict | None, list[int]]:
    """Walk the replica's ledger newest-first: return (newest replication
    tag, foreign window seqs above the previous round's vetted
    position). Stops at the previous tag's recorded dst position, so
    steady-state cost is O(1 row)."""
    prev: dict | None = None
    floor = -1
    foreign: list[int] = []
    for e in dst.ledger.iter_entries_desc():
        if prev is not None and e["_seq"] <= floor:
            break
        if e["kind"] != "window":
            continue
        rep = (e.get("metrics") or {}).get("replication")
        if rep is None:
            foreign.append(e["_seq"])
        elif prev is None:
            prev = rep
            floor = int(rep["dst_lseq"])
    return prev, foreign


def _src_has_late_window(src, src_floor: int, frm: int) -> bool:
    """A source window committed AFTER the previous round's scan whose
    hi lands at-or-below the replica watermark — invisible to every
    future incremental diff (both as-of states already contain it)."""
    return any(
        e["kind"] == "window" and int(e["hi"]) <= frm
        for e in src.ledger.iter_entries_desc(above=src_floor)
    )


def replicate(
    src,
    dst,
    resync: bool = False,
    where=None,
    columns: list[str] | None = None,
) -> dict:
    """One replication round: fold src changes since the replica
    watermark into dst. ``resync=True`` forces a full re-sync (the
    manual HEAL path for a replica flagged with foreign writes).

    ``where`` / ``columns`` make dst a PARTIAL replica (the
    logical-replication publication shape: per-destination row filters
    and column lists; the reference routes/projects per destination the
    same way, server/schema/mapping.go): ``where`` is a conjunctive
    ``(col, op, value)`` spec (see :func:`compile_where` — may reference
    payload columns OUTSIDE the replicated subset), ``columns`` the
    payload columns to keep (keys always replicate). A source row
    leaving the predicate propagates as a DELETE, so the replica is
    always exactly ``SELECT keys+columns FROM src WHERE where``. The
    round tag records the filter identity; a round run with a DIFFERENT
    filter than the replica was built with auto-re-syncs (previously
    excluded rows cannot be recovered incrementally — their diffs
    already passed by).

    Returns ``{"mode": noop|incremental|resync, "from_seq", "to_seq",
    "rows"}``."""
    return replicate_many(
        src, [{"dst": dst, "resync": resync, "where": where, "columns": columns}]
    )[0]


def replicate_many(src, targets: list[dict]) -> list[dict]:
    """Fan one source out to N replicas with the CDC DIFF COMPUTED ONCE
    per shared watermark — the reference's one-stream -> N-destinations
    core loop (server/destinations/) expressed lake-to-lake. Each target
    is ``{"dst": lake, "resync": bool?, "where": spec?, "columns":
    [...]?}`` with :func:`replicate` semantics; results come back in
    input order.

    Serial ``replicate()`` calls re-scan and re-diff the source once PER
    replica — at scale the diff (O(state) per partition) dominates, so N
    partial replicas cost N source scans. Here all targets are PLANNED
    first (validation errors raise before ANY replica is written —
    unlike serial calls, which apply earlier targets before a later one
    fails), then incremental targets sharing a watermark get one
    materialized diff fanned out through each target's own filter /
    projection; an INCREMENTAL diff is bounded by the CHANGE set, so
    pinning it in the object store costs O(changes), not O(state).
    BOOTSTRAP targets (watermark 0, where the "diff" is the entire
    source state) are exempt — each streams its own scan rather than
    pinning O(state) in the store, the same N-scan cost as serial
    calls. A target at a unique watermark streams its diff exactly like
    a solo round; if the shared materialize hits vacuumed history every
    member falls back to its own re-sync (the solo contract)."""
    import os as _os

    src_lseq = src.ledger.max_seq()
    to = src.ledger.last_committed_hi()
    src_id = _os.path.realpath(src.dir)
    plans = []
    seen_dsts: dict[str, int] = {}
    for i, t in enumerate(targets):
        # creation UUID, not realpath: realpath misses bind-mount
        # aliases (the same reason the swapped-source check records it)
        did = t["dst"].lake_id
        if did in seen_dsts:
            # the second apply at the shared watermark would be silently
            # swallowed by the idempotent window skip (its filter never
            # applied) — reject instead
            raise ValueError(
                f"targets {seen_dsts[did]} and {i} share the destination "
                f"lake {did}; give each target its own replica"
            )
        seen_dsts[did] = i
        plans.append(
            _plan_target(
                src,
                t["dst"],
                bool(t.get("resync", False)),
                t.get("where"),
                t.get("columns"),
                src_lseq=src_lseq,
                to=to,
                src_id=src_id,
            )
        )
    by_span: dict[tuple[int, int], int] = {}
    for p in plans:
        # keyed by (frm, to): a plan whose frm > to race re-snapshot
        # advanced its `to` (see _plan_target) diffs a different span
        if p["mode"] == "incremental" and p["frm"] > 0:
            span = (p["frm"], p["to"])
            by_span[span] = by_span.get(span, 0) + 1
    shared: dict[tuple[int, int], object] = {}
    for (frm, span_to), n in by_span.items():
        if n > 1:
            try:
                shared[(frm, span_to)] = src.diff_as_of(frm, span_to).materialize()
            except Exception as e:
                if not _is_file_not_found(e):
                    raise
                # vacuumed history: leave the members to their solo
                # stream-then-resync fallback
    return [
        _execute_target(src, p, diff=shared.get((p["frm"], p["to"])))
        for p in plans
    ]


def _plan_target(src, dst, resync, where, columns, src_lseq, to, src_id) -> dict:
    """Validate one replication target and decide its round mode —
    everything up to (but not including) the window apply. Shared
    verbatim by replicate() and replicate_many()."""
    if list(src.key_cols) != list(dst.key_cols):
        raise ValueError(
            f"replica key columns {dst.key_cols} do not match the "
            f"source's {src.key_cols}"
        )
    visible = _visible_cols(src)
    payload_all = [c for c in visible if c not in src.key_cols]
    norm_where = _norm_where(where) if where is not None else None
    if not norm_where:
        norm_where = None  # where=[] is the match-all conjunction = no filter
    if norm_where is not None:
        bad = [c for c, _, _ in norm_where if c not in visible]
        if bad:
            raise ValueError(f"where references non-source columns {bad}")
    if columns is not None:
        bad = [c for c in columns if c not in payload_all]
        if bad:
            raise ValueError(
                f"columns must be source payload columns, got {bad} "
                f"(keys {list(src.key_cols)} always replicate)"
            )
        if len(set(columns)) != len(list(columns)):
            raise ValueError(f"duplicate names in columns: {list(columns)}")
    filt = None
    if norm_where is not None or columns is not None:
        # `columns is not None`, NOT truthiness: columns=[] is a
        # keys-only replica and must not share the full-payload identity
        filt = json.dumps(
            {
                # conjuncts SORTED in the identity only (evaluation keeps
                # the caller's order): `a=1 AND b=2` and `b=2 AND a=1`
                # are one predicate and must not force a spurious resync
                "where": sorted(norm_where, key=repr)
                if norm_where is not None
                else None,
                "columns": list(columns) if columns is not None else None,
            },
            sort_keys=True,
        )
    out_cols = list(src.key_cols) + (
        list(columns) if columns is not None else payload_all
    )
    # ledger positions FIRST: anything committed after this scan is
    # (conservatively) re-examined by the next round
    dst_lseq = dst.ledger.max_seq()
    frm = dst.ledger.last_committed_hi()
    if frm > to:
        # `to` was snapshotted BEFORE frm (once per replicate_many call),
        # so a concurrent replicator advancing this replica between the
        # two reads makes a healthy replica look AHEAD. Re-snapshot the
        # source before diagnosing: if the source has really caught up,
        # this plan just covers the newer span (its src_lseq stays the
        # older value, which is only ever used as a conservative
        # scan-floor for the NEXT round).
        to = max(to, src.ledger.last_committed_hi())
    if frm > to:
        raise ValueError(
            f"replica watermark {frm} is AHEAD of the source's committed "
            f"hi {to} — this lake has received non-replication writes "
            f"(or the source lake was swapped); the stray rows carry "
            f"seqs an LWW repair cannot beat, so even resync=True "
            f"cannot heal this: recreate the replica"
        )
    prev, foreign = _scan_dst(dst)
    if foreign and not resync:
        raise ValueError(
            f"replica received {len(foreign)} direct (non-replication) "
            f"window write(s) at ledger row(s) {sorted(foreign)[:5]} — "
            f"their rows were never vetted against the source and the "
            f"watermark may have skipped unreplicated source windows; "
            f"pass resync=True to heal the replica from source state"
        )
    # src_id is realpath, not abspath: two path aliases for one lake
    # (symlink, bind mount) must not trip the swapped-source check —
    # alternating daemons would otherwise force a full O(table) re-sync
    # every round
    if foreign:
        # Replication's own writes stamp every row at the watermark seq,
        # but a foreign window may carry ROW seqs above its own hi (the
        # lake's out-of-order delivery contract) — above the source's
        # committed hi such rows win every LWW race against a repair
        # stamped at ``to``, so the heal would silently fail. Footer
        # stats prove it out before any work.
        stray_max = dst.max_row_seq()
        if stray_max > to:
            raise ValueError(
                f"replica's foreign write(s) planted rows at "
                f"commit_seq={stray_max} above the source's committed hi "
                f"{to}; an LWW repair stamped at {to} cannot beat them, "
                f"so resync=True cannot heal this replica: recreate it"
            )
    need_resync = bool(resync or foreign)
    if not need_resync and prev is not None and prev["filter"] != filt:
        # the replica was maintained under a DIFFERENT filter/projection:
        # rows the old filter excluded have already had their diffs pass
        # by, so incremental catch-up under the new filter would silently
        # miss them — rebuild from source state
        need_resync = True
    if not need_resync and prev is not None:
        if (
            prev["src"] != src_id
            or prev["src_uid"] != src.lake_id
            or src_lseq < int(prev["src_lseq"])
        ):
            # the source lake was SWAPPED — a different path, a different
            # creation UUID at the SAME path (deleted-and-recreated: path
            # identity matches but the fresh ledger's seqs can collide
            # with the recorded position, so every late-window scan
            # breaks immediately and the replica noops while diverging),
            # or a ledger SHORTER than the recorded position (a copy
            # restored from before that round keeps its UUID). Recorded
            # positions are meaningless against another ledger — re-sync
            # from scratch.
            need_resync = True
        else:
            need_resync = _src_has_late_window(
                src, int(prev["src_lseq"]), frm
            )
    mode = "noop" if (frm == to and not need_resync) else (
        "resync" if need_resync else "incremental"
    )
    return {
        "dst": dst,
        "mode": mode,
        "frm": frm,
        "to": to,
        "where": norm_where,
        "out_cols": out_cols,
        "tag": {
            "replication": {
                "src": src_id,
                "src_uid": src.lake_id,
                "src_lseq": src_lseq,
                "dst_lseq": dst_lseq,
                "filter": filt,
                "mode": mode,
            }
        },
    }


def _execute_target(src, plan: dict, diff=None) -> dict:
    """Apply one planned round. ``diff`` optionally supplies a
    pre-materialized (frm, to] CDC diff (replicate_many's shared scan);
    without it the diff streams exactly like a solo round."""
    dst, frm, to, tag = plan["dst"], plan["frm"], plan["to"], plan["tag"]
    mode = plan["mode"]
    if mode == "noop":
        return {"mode": "noop", "from_seq": frm, "to_seq": to, "rows": 0}
    entry = None
    if mode == "incremental":
        try:
            delta = _incremental_delta(
                src, dst, frm, to, plan["where"], plan["out_cols"], diff=diff
            )
            entry = dst.apply_window(delta, frm, to, extra_metrics=tag)
        except Exception as e:
            # vacuumed diff history — eagerly (diff_as_of's existence
            # check) or lazily (a vacuum racing the streamed apply):
            # either way no ledger row landed, fall back to re-sync
            if not _is_file_not_found(e):
                raise
            mode = "resync"
            tag["replication"]["mode"] = "resync"
    if entry is None:
        delta = _resync_delta(src, dst, to, plan["where"], plan["out_cols"])
        # force: a late-window repair legally re-commits at (frm == to];
        # its rows beat equal-seq rows via the last-arrival tie rule
        entry = dst.apply_window(delta, frm, to, extra_metrics=tag, force=True)
    rows = int(entry.get("metrics", {}).get("rows_written", 0))
    return {"mode": mode, "from_seq": frm, "to_seq": to, "rows": rows}


def _incremental_delta(
    src, dst, frm: int, to: int, where=None, out_cols=None, diff=None
):
    """CDC diff (frm, to] -> change-event rows at seq ``to``. Raises
    FileNotFoundError when the history behind ``frm`` is vacuumed.

    Partial-replica rule: a non-delete change whose NEW values fail the
    predicate becomes a TOMBSTONE (the row either just left the
    predicate or never satisfied it — a tombstone for an absent key
    resolves away harmlessly, so no replica lookup is needed and the
    round stays shuffle-free)."""
    from ..sinks.lake import OP_COL, SEQ_COL, TOMBSTONE

    if diff is None:
        diff = src.diff_as_of(frm, to)
    mask_fn = compile_where(where) if where is not None else None

    def to_events(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        is_tomb = pc.equal(batch["change"], "delete")
        if mask_fn is not None:
            is_tomb = pc.or_(is_tomb, pc.invert(mask_fn(batch)))
        op = pc.if_else(
            is_tomb,
            pa.scalar(TOMBSTONE, pa.string()),
            pa.scalar("insert", pa.string()),
        )
        out = (
            batch.select(out_cols)
            if out_cols is not None
            else batch.drop_columns(["change"])
        )
        out = out.append_column(OP_COL, op)
        return out.append_column(
            SEQ_COL, pa.array([to] * batch.num_rows, pa.int64())
        )

    return diff.map_batches(to_events, batch_format="pyarrow")


def _helper_key_names(key_cols: list[str]) -> list[str]:
    """NULL-SAFE helper column names (value, is-null flag per key),
    probed past any collision with a real key column literally named
    ``__nsk0``/``__nsn0`` — an unguarded name would silently overwrite
    that key with its own fill_null('') cast on the keep_original side
    and tombstone '' instead of NULL (same class as the ``__pos`` guard
    in resolve_keep_tombstones)."""
    base = "__ns"
    while any(
        f"{base}k{i}" in key_cols or f"{base}n{i}" in key_cols
        for i in range(len(key_cols))
    ):
        base += "_"
    return [f"{base}{t}{i}" for i in range(len(key_cols)) for t in ("k", "n")]


def _null_safe_keys(key_cols: list[str], helpers: list[str], keep_original: bool):
    """Batch fn projecting per-key NULL-SAFE join columns: the value
    cast to string with nulls filled plus an is-null flag as 't'/'f'
    (names from :func:`_helper_key_names`, value/flag interleaved) —
    (value, flag) pairs are distinct for null vs real empty string, so
    a join on them implements IS NOT DISTINCT FROM key equality
    exactly."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        cols: dict[str, object] = (
            {n: batch[n] for n in batch.column_names} if keep_original else {}
        )
        for i, k in enumerate(key_cols):
            v = batch[k]
            isnull = pc.is_null(v)
            cols[helpers[2 * i]] = pc.fill_null(pc.cast(v, pa.large_string()), "")
            cols[helpers[2 * i + 1]] = pc.if_else(
                isnull, pa.scalar("t", pa.string()), pa.scalar("f", pa.string())
            )
        return pa.table(cols)

    return fn


def _resync_delta(src, dst, to: int, where=None, out_cols=None):
    """Full re-sync: the source's resolved state (under the replica's
    filter/projection, if any) as inserts at ``to`` plus anti-join
    tombstones for replica keys the (filtered) source dropped. The
    predicate may reference columns outside the replicated subset, so
    the insert read fetches ``out_cols`` + filter columns and projects
    after masking."""
    from ..ops.join import bucket_hash_join
    from ..sinks.lake import OP_COL, SEQ_COL, TOMBSTONE

    cols = out_cols if out_cols is not None else _visible_cols(src)
    key_cols = list(src.key_cols)
    payload = [c for c in cols if c not in key_cols]
    target = src.full_arrow_schema()
    event_schema = pa.schema(
        [target.field(c) for c in cols]
        + [pa.field(OP_COL, pa.string()), pa.field(SEQ_COL, pa.int64())]
    )
    mask_fn = compile_where(where) if where is not None else None
    read_cols = cols + [
        c for c, _, _ in (where or []) if c not in cols
    ]

    def to_inserts(batch: pa.Table) -> pa.Table:
        if mask_fn is not None:
            batch = batch.filter(mask_fn(batch))
        out = batch.select(cols).append_column(
            OP_COL, pa.array(["insert"] * batch.num_rows, pa.string())
        )
        return out.append_column(
            SEQ_COL, pa.array([to] * batch.num_rows, pa.int64())
        ).select(event_schema.names)

    inserts = src.read(columns=read_cols, as_of=to).map_batches(
        to_inserts, batch_format="pyarrow"
    )
    # emptiness from the LEDGER (no data scan): an empty side would hand
    # the anti join a zero-block, schema-less Dataset; and when a whole
    # side is empty the join is degenerate anyway (nothing to tombstone /
    # tombstone everything)
    if not dst.live_files():
        gone = None
    elif not src.live_files(as_of=to):
        gone = dst.read(columns=key_cols)
    else:
        # the anti join's right side is the FILTERED source key set: a
        # replica key whose source row now fails the predicate must be
        # tombstoned exactly like a dropped key
        src_key_cols = key_cols + [
            c for c, _, _ in (where or []) if c not in key_cols
        ]

        def src_keys(batch: pa.Table) -> pa.Table:
            if mask_fn is not None:
                batch = batch.filter(mask_fn(batch))
            return batch.select(key_cols)

        helper_keys = _helper_key_names(key_cols)
        gone = bucket_hash_join(
            dst.read(columns=key_cols).map_batches(
                _null_safe_keys(key_cols, helper_keys, keep_original=True),
                batch_format="pyarrow",
            ),
            src.read(columns=src_key_cols, as_of=to)
            .map_batches(src_keys, batch_format="pyarrow")
            .map_batches(
                _null_safe_keys(key_cols, helper_keys, keep_original=False),
                batch_format="pyarrow",
            ),
            helper_keys,
            helper_keys,
            how="left anti",
        )
    if gone is None:
        return inserts

    def to_tombstones(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        out = batch.select(key_cols)
        for c in payload:
            out = out.append_column(c, pa.nulls(n, target.field(c).type))
        out = out.append_column(OP_COL, pa.array([TOMBSTONE] * n, pa.string()))
        return out.append_column(
            SEQ_COL, pa.array([to] * n, pa.int64())
        ).select(event_schema.names)

    return inserts.union(gone.map_batches(to_tombstones, batch_format="pyarrow"))
