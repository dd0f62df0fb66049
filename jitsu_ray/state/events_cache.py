"""Per-destination last-N events cache (SURVEY §2.3 T6).

The reference keeps a capped ring of recent events per destination for
its UI/debugging surface: raw events are ``put`` as they arrive, then
updated to ``succeed`` (with the processed row + table) or ``error``
(with the message) after the sink call, all through async channels so
the hot path never blocks (server/caching/events_cache.go:13-34,36-76).

Ray analog: one named zero-cpu actor (get-or-create, same pattern as
the metrics registry); stages push per-BATCH lists fire-and-forget
(``.remote`` without get) so caching adds one message per batch, not
per row. The ring is an OrderedDict per destination — an update to an
existing event id keeps its slot, new ids evict the oldest beyond
``capacity_per_destination``.
"""

from __future__ import annotations

import ray

DEFAULT_NAME = "jitsu_events_cache"


@ray.remote(num_cpus=0)
class EventsCacheActor:
    def __init__(self, capacity_per_destination: int = 100):
        from collections import OrderedDict

        self.cap = capacity_per_destination
        self.store: dict[str, OrderedDict] = {}
        self._od = OrderedDict

    def _ring(self, dest: str):
        ring = self.store.get(dest)
        if ring is None:
            ring = self.store[dest] = self._od()
        return ring

    def _insert(self, dest: str, event_id: str, entry: dict) -> None:
        ring = self._ring(dest)
        if event_id in ring:
            ring[event_id].update(entry)
            return
        ring[event_id] = entry
        while len(ring) > self.cap:
            ring.popitem(last=False)

    def put_many(self, dest: str, event_ids: list, raw: list) -> None:
        """Original events as they enter the pipeline (pre-sink)."""
        for eid, r in zip(event_ids, raw):
            self._insert(dest, str(eid), {"event_id": str(eid), "raw": r, "status": "pending"})

    def succeed_many(self, dest: str, event_ids: list, table: str | None = None) -> None:
        for eid in event_ids:
            self._insert(
                dest, str(eid), {"event_id": str(eid), "status": "ok", "table": table}
            )

    def error_many(self, dest: str, event_ids: list, error: str) -> None:
        for eid in event_ids:
            self._insert(
                dest, str(eid), {"event_id": str(eid), "status": "error", "error": error}
            )

    def get_n(self, dest: str, n: int = 100) -> list[dict]:
        """Most recent n entries, newest first (the UI read)."""
        ring = self.store.get(dest)
        if not ring:
            return []
        return [dict(v) for v in list(ring.values())[::-1][:n]]

    def get_total(self, dest: str) -> int:
        return len(self.store.get(dest) or ())


def get_events_cache(name: str = DEFAULT_NAME, capacity_per_destination: int = 100):
    """Get-or-create the named cache (detached, like the metrics actor,
    so a monitoring session can attach)."""
    return EventsCacheActor.options(
        name=name, get_if_exists=True, lifetime="detached"
    ).remote(capacity_per_destination)


def observe_stage(cache, dest: str, id_col: str, max_per_batch: int = 100):
    """Pass-through map_batches stage that pushes each batch's ids+raw
    rows to the cache fire-and-forget — compose it before a sink stage;
    the sink then reports succeed/error per batch.

    Only the LAST ``max_per_batch`` rows of each batch are pushed: the
    ring keeps the newest ``capacity_per_destination`` entries, so
    inserting a batch's full row list and then evicting down is
    equivalent to inserting its tail — and shipping whole batches to one
    actor would make observability a throughput bottleneck at scale."""
    import pyarrow as pa

    def run(batch: pa.Table) -> pa.Table:
        tail = batch.slice(max(0, batch.num_rows - max_per_batch))
        cache.put_many.remote(dest, tail[id_col].to_pylist(), tail.to_pylist())
        return batch

    return run
