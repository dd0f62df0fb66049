"""Live counters / gauges registry (SURVEY §2.6 A3/A4).

The reference exports success/error event counters and queue/pool-size
gauges to its metrics endpoint (server/metrics/*, counters.go) — the
ops surface for "is the pipeline keeping up". Ray analog: one named
zero-cpu registry actor (get-or-create); stages and sinks push
increments/sets, dashboards poll ``snapshot()``. Pushes
are fire-and-forget (``.remote`` without get) so the hot path never
blocks on the registry.
"""

from __future__ import annotations

import ray

DEFAULT_NAME = "jitsu_metrics"


@ray.remote(num_cpus=0)
class MetricsActor:
    def __init__(self):
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def max_gauge(self, name: str, value: float) -> None:
        """High-water gauge (e.g. the most rows a window wrote to one partition)."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    def snapshot(self) -> dict:
        return {"counters": dict(self.counters), "gauges": dict(self.gauges)}

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()


def get_metrics(name: str = DEFAULT_NAME):
    """Get-or-create the named registry (detached: survives the creating
    driver so a monitoring session can attach)."""
    return MetricsActor.options(
        name=name, get_if_exists=True, lifetime="detached"
    ).remote()


def record_window(metrics, entry: dict) -> None:
    """Push one committed lake window's ledger metrics (A3 counters +
    A4 gauges) — fire-and-forget."""
    m = entry.get("metrics", {})
    metrics.inc.remote("lake.windows", 1)
    metrics.inc.remote("lake.rows_written", m.get("rows_written", 0))
    metrics.inc.remote("lake.tombstones", m.get("tombstones", 0))
    metrics.inc.remote("lake.bytes_written", m.get("bytes_written", 0))
    if "events_per_sec" in m:
        metrics.set_gauge.remote("lake.events_per_sec", m["events_per_sec"])
    if "partitions" in m:
        metrics.set_gauge.remote("lake.partitions_touched", m["partitions"])
    for p in m.get("per_partition", []):
        metrics.max_gauge.remote("lake.partition_rows_max", p.get("rows", 0))


def record_sink_report(metrics, report: dict, sink: str = "sink") -> None:
    """Push a sinks/retry report (success/error counters, K9-style)."""
    metrics.inc.remote(f"{sink}.written", report.get("written", 0))
    metrics.inc.remote(f"{sink}.dead_lettered", report.get("dead", 0))
    metrics.max_gauge.remote(f"{sink}.attempts_max", report.get("max_attempts_seen", 0))
