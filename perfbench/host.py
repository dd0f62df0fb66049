"""Host-side probes read from /proc and numpy: process RSS, the RAM
bandwidth control, on-disk bytes, and stopping every process a run
started."""

from __future__ import annotations

import os
import signal
import statistics
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _proc_table() -> dict[int, tuple[int, str]]:
    """{pid: (ppid, state)} for every process visible in /proc."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # comm may hold spaces or parens: fields resume after the last ')'
        rest = stat[stat.rindex(")") + 2:].split()
        out[int(name)] = (int(rest[1]), rest[0])
    return out


def descendants(root: int) -> list[int]:
    table = _proc_table()
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], list(kids.get(root, []))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, []))
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


class RssSampler:
    """Peak RSS of this process plus its Ray worker and actor processes
    (command lines starting ``ray::``), sampled when ``sample`` is
    called — at window and phase boundaries, with no thread of its own."""

    def __init__(self) -> None:
        self.peak_bytes = 0
        self.samples = 0

    def sample(self) -> None:
        me = os.getpid()
        total = _rss_bytes(me) + sum(
            _rss_bytes(p) for p in descendants(me) if _is_ray_worker(p)
        )
        self.peak_bytes = max(self.peak_bytes, total)
        self.samples += 1

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1 << 20)


def disk_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except OSError:
                pass
    return total


def membw_gbps(n: int = 8_000_000, reps: int = 5) -> float:
    """RAM bandwidth control: the median over ``reps`` of
    ``a * 1.5 + 2.0`` on n float64, counted as 16 bytes per element
    (one read, one write)."""
    import numpy as np

    a = np.random.default_rng(0).random(n)
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        b = a * 1.5 + 2.0
        rates.append(16 * n / (time.perf_counter() - t0) / 1e9)
        del b
    return statistics.median(rates)


def wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Wait until every pid has exited (or is a zombie); return the rest."""
    deadline = time.monotonic() + timeout
    left = list(pids)
    while left and time.monotonic() < deadline:
        table = _proc_table()
        left = [p for p in left if p in table and table[p][1] != "Z"]
        if left:
            time.sleep(0.1)
    return left


def stop_descendants(pids: list[int], timeout: float = 20.0) -> None:
    """After ``ray.shutdown``: wait for the processes Ray started, then
    kill and wait for any that outlived it."""
    left = wait_gone(pids, timeout)
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    wait_gone(left, 5.0)

