"""Incrementally-maintained aggregate view over a LakeTable.

``IncrementalAggView`` keeps a GROUP BY materialization (``n`` row count
+ ``sum_<col>`` per group) continuously consistent with a lake table by
folding the lake's CDC diff forward — the classic incremental
view-maintenance move (insert adds its contribution, delete retracts
its old one, update does both), never a rescan of the table.

Scale shape:
- ``refresh()`` cost is O(|changes since last refresh|) + O(|view|):
  the change stream comes from :meth:`LakeTable.diff_as_of` (one task
  per partition, no shuffle, ``include_old=True`` so old contributions
  retract without a second state read), per-batch delta partials
  collapse inside ``map_batches``, and one hash-shard exchange folds
  them per group.
- The view state itself is assumed AGGREGATE-SIZED (group cardinality,
  not table rows) and lives as ONE parquet file whose schema metadata
  carries the watermark seq — state and watermark swap in a single
  atomic rename, so a crash can never half-apply (a torn refresh
  leaves the old file, and re-running re-derives the same diff). That
  is the same contract as the schema reconciler: small consolidated
  state, not data.
- Refresh is idempotent and crash-safe: a refresh at an unchanged seq
  is a no-op; concurrent refreshes are serialized by a self-healing
  pid lock (two ``view-refresh`` CLI invocations cannot double-apply).
- If a lake ``vacuum()`` has removed the history behind the view's
  watermark, refresh falls back to a FULL REBUILD from the current
  resolved state (one read, no diff) instead of wedging forever.

Reference anchor: the reference keeps no derived views at all — its
counters (server/meta/redis.go:40-56) are fire-and-forget metrics. This
is the exactly-consistent version a warehouse user expects, enabled by
the ledger + time-travel diff the lake already has.
"""

from __future__ import annotations

import os
import tempfile

import polars as pl
import pyarrow as pa
import pyarrow.parquet as pq

__all__ = ["IncrementalAggView"]

_SEQ_META = b"jitsu_view_last_seq"


class IncrementalAggView:
    """GROUP BY ``group_cols`` -> ``n`` + ``sum_<c>`` for each of
    ``value_cols``, maintained incrementally against ``lake``.

    Groups whose count falls to 0 are dropped (matching what a direct
    GROUP BY over the current state would return). Value columns must
    be numeric and non-null in live rows; integer inputs sum as int64,
    floating inputs as float64 (no silent truncation).
    """

    def __init__(self, view_dir: str, lake, group_cols: list[str],
                 value_cols: list[str]):
        from ..sinks.lake import OP_COL, PART_COL, SEQ_COL

        sys_cols = {OP_COL, PART_COL, SEQ_COL}
        bad = [c for c in [*group_cols, *value_cols] if c in sys_cols]
        if bad:
            raise ValueError(
                f"lake system columns cannot be view columns: {bad} "
                f"(they are not part of the visible state the CDC diff "
                f"compares)"
            )
        keys = set(lake.key_cols)
        bad = [c for c in value_cols if c in keys]
        if bad:
            raise ValueError(f"value columns cannot be lake key columns: {bad}")
        self.dir = view_dir
        self.lake = lake
        self.group_cols = list(group_cols)
        self.value_cols = list(value_cols)
        self.sums = [f"sum_{c}" for c in value_cols]
        os.makedirs(view_dir, exist_ok=True)
        self._state_path = os.path.join(view_dir, "state.parquet")
        self._lock_path = os.path.join(view_dir, ".refresh.lock")

    # -- state ---------------------------------------------------------------

    def last_seq(self) -> int:
        try:
            md = pq.read_schema(self._state_path).metadata or {}
            return int(md.get(_SEQ_META, b"0"))
        except FileNotFoundError:
            return 0

    def _sum_types(self) -> list[pa.DataType]:
        target = self.lake.full_arrow_schema()
        return [
            pa.int64() if pa.types.is_integer(target.field(c).type) else pa.float64()
            for c in self.value_cols
        ]

    def _state_schema(self) -> pa.Schema:
        target = self.lake.full_arrow_schema()
        return pa.schema(
            [target.field(c) for c in self.group_cols]
            + [pa.field("n", pa.int64())]
            + [pa.field(s, t) for s, t in zip(self.sums, self._sum_types())]
        )

    def read(self) -> pa.Table:
        """Current view contents (aggregate-sized by contract)."""
        if not os.path.exists(self._state_path):
            return self._state_schema().empty_table()
        return pq.read_table(self._state_path).replace_schema_metadata(None)

    def _swap_state(self, tbl: pa.Table, to_seq: int) -> None:
        """ONE atomic rename carries both the state and its watermark
        (parquet schema metadata) — no window where they disagree."""
        out = tbl.replace_schema_metadata({_SEQ_META: str(to_seq).encode()})
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".parquet.tmp")
        os.close(fd)
        pq.write_table(out, tmp)
        os.replace(tmp, self._state_path)

    # -- maintenance ---------------------------------------------------------

    def _pl_sum_types(self):
        return [
            pl.Int64 if t == pa.int64() else pl.Float64
            for t in self._sum_types()
        ]

    def refresh(self) -> dict:
        """Fold all lake changes since the last refresh into the view.

        Returns ``{"from_seq", "to_seq", "changed_groups", "mode"}``
        where mode is ``noop`` / ``incremental`` / ``rebuild`` (the
        vacuumed-history fallback). Serialized against concurrent
        refreshes by a self-healing pid lock.
        """
        from ..util import acquire_pid_lock, release_pid_lock

        acquire_pid_lock(self._lock_path)
        try:
            return self._refresh_locked()
        finally:
            release_pid_lock(self._lock_path)

    def _refresh_locked(self) -> dict:
        frm = self.last_seq()
        to = self.lake.ledger.last_committed_hi()
        if to == frm:
            return {"from_seq": frm, "to_seq": to, "changed_groups": 0,
                    "mode": "noop"}
        try:
            diff = self.lake.diff_as_of(
                frm, to, columns=self.group_cols + self.value_cols,
                include_old=True,
            )
        except FileNotFoundError:
            # a later vacuum() removed the files behind `frm`: the
            # incremental path is gone, rebuild from the current state
            return self._full_rebuild(frm, to)
        gcols, vcols, sums = self.group_cols, self.value_cols, self.sums
        pl_types = self._pl_sum_types()
        # a group column that is a lake KEY has no __old sibling
        # (keys are identical on both diff sides by construction)
        keys = set(self.lake.key_cols)
        old_g = {c: (c if c in keys else f"{c}__old") for c in gcols}

        def delta_partial(batch: pa.Table) -> pa.Table:
            """Per-batch delta combiner: +new contribution for
            insert/update rows, -old contribution for delete/update rows
            (an update whose group did not move cancels its own n)."""
            df = pl.from_arrow(batch)
            add = df.filter(pl.col("change") != "delete").select(
                *gcols,
                pl.lit(1, pl.Int64).alias("n"),
                *[
                    pl.col(c).cast(t).alias(s)
                    for c, s, t in zip(vcols, sums, pl_types)
                ],
            )
            sub = df.filter(pl.col("change") != "insert").select(
                *[pl.col(old_g[c]).alias(c) for c in gcols],
                pl.lit(-1, pl.Int64).alias("n"),
                *[
                    (-pl.col(f"{c}__old")).cast(t).alias(s)
                    for c, s, t in zip(vcols, sums, pl_types)
                ],
            )
            out = (
                pl.concat([add, sub])
                .group_by(gcols)
                .agg(pl.sum("n"), *[pl.sum(s).alias(s) for s in sums])
            )
            return out.to_arrow()

        from ..ops.join import hash_shard_finalize

        def fold(group: pa.Table) -> pa.Table:
            df = pl.from_arrow(group)
            return (
                df.group_by(gcols)
                .agg(pl.sum("n"), *[pl.sum(s).alias(s) for s in sums])
                .to_arrow()
            )

        state = pl.from_arrow(self.read())
        parts = list(
            hash_shard_finalize(
                diff.map_batches(delta_partial, batch_format="pyarrow"),
                gcols,
                fold,
            ).iter_batches(batch_format="pyarrow")
        )
        deltas = (
            pl.from_arrow(pa.concat_tables(parts))
            if parts
            else pl.from_arrow(self._state_schema().empty_table())
        )
        merged = (
            pl.concat([state, deltas.select(state.columns)])
            .group_by(gcols)
            .agg(pl.sum("n"), *[pl.sum(s).alias(s) for s in sums])
            .filter(pl.col("n") > 0)
        )
        self._swap_state(merged.to_arrow().cast(self._state_schema()), to)
        return {
            "from_seq": frm,
            "to_seq": to,
            "changed_groups": int(deltas.height),
            "mode": "incremental",
        }

    def _full_rebuild(self, frm: int, to: int) -> dict:
        """Vacuumed-history fallback: recompute the whole view from the
        resolved state at ``to`` (one distributed read + the same
        shard-fold exchange), then swap atomically."""
        gcols, vcols, sums = self.group_cols, self.value_cols, self.sums
        pl_types = self._pl_sum_types()
        state_ds = self.lake.read(columns=gcols + vcols, as_of=to)

        def partial(batch: pa.Table) -> pa.Table:
            df = pl.from_arrow(batch)
            return (
                df.group_by(gcols)
                .agg(
                    pl.len().cast(pl.Int64).alias("n"),
                    *[
                        pl.col(c).cast(t).sum().alias(s)
                        for c, s, t in zip(vcols, sums, pl_types)
                    ],
                )
                .to_arrow()
            )

        from ..ops.join import hash_shard_finalize

        def fold(group: pa.Table) -> pa.Table:
            df = pl.from_arrow(group)
            return (
                df.group_by(gcols)
                .agg(pl.sum("n"), *[pl.sum(s).alias(s) for s in sums])
                .to_arrow()
            )

        parts = list(
            hash_shard_finalize(
                state_ds.map_batches(partial, batch_format="pyarrow"),
                gcols,
                fold,
            ).iter_batches(batch_format="pyarrow")
        )
        schema = self._state_schema()
        tbl = pa.concat_tables(parts) if parts else schema.empty_table()
        out = tbl.select(schema.names).cast(schema)
        self._swap_state(out, to)
        return {
            "from_seq": frm,
            "to_seq": to,
            "changed_groups": out.num_rows,
            "mode": "rebuild",
        }
