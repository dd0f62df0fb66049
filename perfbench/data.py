"""Seeded inputs and the oracle every run is checked against.

The changelog comes from ``jitsu_ray.testgen.gen_changelog`` and is
cached per (length, repos, seed) under ``perfbench/.work/cache`` so that
generation stays out of every timed phase and happens once per seed.
"""

from __future__ import annotations

import glob
import hashlib
import os
import random

import polars as pl
import pyarrow as pa
import pyarrow.parquet as pq

from .config import N_REPOS

KEY = ["repo", "path"]


def sha(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def changelog(cache_dir: str, n_events: int, seed: int) -> tuple[str, pa.Table]:
    """(log dir, table) of the seeded changelog, generated on first use."""
    from jitsu_ray.testgen import ensure_changelog

    d = ensure_changelog(cache_dir, n_events, N_REPOS, seed=seed)
    files = sorted(glob.glob(os.path.join(d, "*.parquet")))
    return d, pa.concat_tables([pq.read_table(f) for f in files])


def parquet_bytes(tbl: pa.Table) -> int:
    """Bytes of ``tbl`` written once as parquet with default settings."""
    sink = pa.BufferOutputStream()
    pq.write_table(tbl, sink)
    return sink.getvalue().size


class Oracle:
    """Expected lake state after the first ``n`` events of ``log``."""

    def __init__(self, log: pa.Table, n: int) -> None:
        from jitsu_ray.testgen import oracle_final_state

        self.n = n
        self.final = oracle_final_state(log.slice(0, n))
        self.state = {
            (r, p): sha(c)
            for r, p, c in zip(
                self.final["repo"].to_pylist(),
                self.final["path"].to_pylist(),
                self.final["content"].to_pylist(),
            )
        }
        seqs = self.final["commit_seq"].to_pylist()
        self._seqs = sorted(seqs)

    def rows_with_seq_in(self, lo: int, hi: int) -> int:
        import bisect

        return bisect.bisect_right(self._seqs, hi) - bisect.bisect_left(self._seqs, lo)


def window_probes(log: pa.Table, bounds: list[tuple[int, int]], seed: int) -> list[dict]:
    """One read-your-writes probe per window (lo, hi]: a seeded key with
    an event in the window, and the key's state as of ``hi`` — its last
    event in the window decides it (None when that event is a delete)."""
    rnd = random.Random(seed * 7919 + 1)
    out = []
    for lo, hi in bounds:
        win = log.slice(lo, hi - lo)
        i = rnd.randrange(win.num_rows)
        key = (win["repo"][i].as_py(), win["path"][i].as_py())
        df = pl.from_arrow(win.select(["repo", "path", "op", "content"]))
        last = df.filter((pl.col("repo") == key[0]) & (pl.col("path") == key[1]))[-1]
        op = last["op"][0]
        out.append({"key": key, "expect": None if op == "delete" else sha(last["content"][0])})
    return out


def final_probes(log: pa.Table, oracle: Oracle, n: int, deleted_share: float,
                 seed: int) -> list[dict]:
    """``n`` seeded lookups against the final state: live keys, and a
    ``deleted_share`` of keys whose last event was a delete."""
    rnd = random.Random(seed * 104729 + 3)
    live = sorted(oracle.state)
    seen = pl.from_arrow(log.slice(0, oracle.n).select(KEY)).unique().sort(KEY)
    gone = [k for k in zip(seen["repo"].to_list(), seen["path"].to_list())
            if k not in oracle.state]
    out = []
    for _ in range(n):
        if gone and rnd.random() < deleted_share:
            out.append({"key": gone[rnd.randrange(len(gone))], "expect": None})
        else:
            k = live[rnd.randrange(len(live))]
            out.append({"key": k, "expect": oracle.state[k]})
    return out


def lookup_matches(result: pa.Table, expect: str | None) -> bool:
    if expect is None:
        return result.num_rows == 0
    return result.num_rows == 1 and sha(result["content"][0].as_py()) == expect


def lake_matches(lake, oracle: Oracle) -> bool:
    """Full-state gate: sha256(content) per key equals the oracle's."""
    got = {}
    for t in lake.read(columns=["content"]).iter_batches(batch_format="pyarrow"):
        for r, p, c in zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                           t["content"].to_pylist()):
            if (r, p) in got:
                return False  # a key resolved twice
            got[(r, p)] = sha(c)
    return got == oracle.state
