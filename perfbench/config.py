"""Pinned workload parameters.

Every value that decides how much work a run does is fixed here, and the
rate, partition counts, window sizes and split budget are repeated in the
``why`` line of each workload in ``BENCHMARK.json``
(``tests/test_perfbench.py`` checks that the two agree). Sizes that scale
with ``--seconds`` are derived from it arithmetically, never from the
clock, so two runs with the same arguments do the same work.
"""

from __future__ import annotations

import dataclasses

NUM_CPUS = 2          # Ray CPUs: pins _window_num_blocks and _merger_pool
N_REPOS = 100         # Zipf(1.3) repo skew over this many repos
PRIME_EVENTS = 1_000  # first window, applied during set-up (spawns mergers)
SETUP_ROUNDS = 3      # lake set-ups per run; setup_s takes their median
STATS_COLS = ["commit_seq"]
DELETED_SHARE = 0.2   # closed-loop lookups aimed at deleted keys
RANGE_SHARE = 0.10    # scan_range covers the newest share of seqs
OBJECT_STORE_BYTES = 256 << 20  # small: the host's memory is shared


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "tail" | "catchup" | "batch"
    partitions: int
    window: int               # events per window
    backlog: int = 0          # closed loops: events replayed after priming
    rate: float = 0.0         # open loop: offered events per second
    compact_every: int | None = None
    compact_min_files: int = 8
    split_over_bytes: int | None = None
    lookups: int = 0          # closed loops: seeded lookups after ingest
    scans: int = 3
    range_scans: int = 3

    def tail_windows(self, seconds: float) -> int:
        """Open-loop windows measured in a run of ``seconds``."""
        return max(3, int(seconds * self.rate / self.window))

    @property
    def prime(self) -> int:
        """Events of the priming window applied during set-up."""
        return min(PRIME_EVENTS, self.window)

    def events(self, seconds: float) -> int:
        """Changelog length the run needs (prime window included)."""
        if self.kind == "tail":
            return self.prime + self.tail_windows(seconds) * self.window
        return self.prime + self.backlog


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stream_tail", kind="tail", partitions=16, window=1_000,
            rate=1_600.0, scans=2, range_scans=2,
        ),
        Workload(
            name="stream_catchup", kind="catchup", partitions=4, window=1_000,
            backlog=30_000, compact_every=10, compact_min_files=2,
            split_over_bytes=1_000_000, lookups=30, scans=4, range_scans=4,
        ),
        Workload(
            name="batch_replay", kind="batch", partitions=16, window=100_000,
            backlog=200_000, lookups=20, scans=3, range_scans=3,
        ),
    )
}

# --smoke: the same three loops at toy sizes, for the self-tests
SMOKE = {
    "stream_tail": dict(rate=2_000.0, window=500, scans=1, range_scans=1),
    "stream_catchup": dict(backlog=4_000, window=500, compact_every=3,
                           compact_min_files=2, split_over_bytes=60_000,
                           lookups=10, scans=1, range_scans=1),
    "batch_replay": dict(backlog=20_000, window=5_000, lookups=5, scans=1,
                         range_scans=1),
}
SMOKE_SECONDS = 2.0


def workload(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    return dataclasses.replace(w, **SMOKE[name]) if smoke else w
