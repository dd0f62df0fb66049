"""Checkpoint ledger: the lake's commit log.

One JSON file per committed action (window apply / compaction), named by
a monotonically increasing sequence number and written atomically
(tmp + rename). The set of live data files is derived by replaying the
ledger, so data files staged by a crashed window (no ledger row) are
invisible — this plus deterministic per-NORMAL-window delta paths gives
the exactly-once story (SURVEY.md §7.4): re-running a window overwrites
its own staged files and commits at most one ledger row. FORCED windows
(spool recovery, resync repairs) use unique tags instead — they may
share bounds with a committed window they must never overwrite — and
converge by LWW state, not path identity.

Replaces the reference's per-file upload status JSONs
(server/logfiles/status_manager.go:32-110) and Redis interval
signatures (server/synchronization/task_executor.go:210-232) with a
single strictly-ordered commit log.
"""

from __future__ import annotations

import json
import os
import tempfile


class Ledger:
    def __init__(self, dir_path: str):
        self.dir = dir_path
        os.makedirs(self.dir, exist_ok=True)

    def _seq_of(self, name: str) -> int:
        return int(name.split(".")[0])

    def entries(self) -> list[dict]:
        out = list(self.iter_entries_desc())
        out.reverse()
        return out

    def next_seq(self) -> int:
        names = [n for n in os.listdir(self.dir) if n.endswith(".json")]
        return 1 + max((self._seq_of(n) for n in names), default=0)

    def max_seq(self) -> int:
        """Highest committed ledger row number (0 when empty) — a pure
        filename scan, no JSON reads. This is the 'ledger position'
        fingerprint replication rounds record: unlike a window's ``hi``
        it is monotone even across recovery re-applies, which legally
        commit LOWER-hi windows after higher ones."""
        return self.next_seq() - 1

    def iter_entries_desc(self):
        """Lazily yield entries NEWEST-first. Callers that stop early
        (e.g. 'walk back to the last replication-tagged window') pay
        O(rows inspected), not O(all rows) — the ledger can hold
        thousands of rows on a long-running streaming lake. This is
        the ONE site encoding the ledger's on-disk layout contract
        (.json suffix, zero-padded name sort, _seq attach); entries()
        and _tail_entries() are derived from it."""
        names = sorted(n for n in os.listdir(self.dir) if n.endswith(".json"))
        for n in reversed(names):
            with open(os.path.join(self.dir, n)) as f:
                e = json.load(f)
            e["_seq"] = self._seq_of(n)
            yield e

    def append(self, entry: dict) -> int:
        """Commit one ledger row under OPTIMISTIC multi-writer locking:
        the entry is written fully to a tmp file, then the sequence
        number is CLAIMED by hard-linking the tmp onto ``{seq}.json`` —
        ``os.link`` atomically fails with FileExistsError if another
        writer process took that seq first, in which case we re-scan and
        retry at the next free number. Readers only ever see a name
        whose content is complete (the link appears atomically), and two
        independent driver processes appending to one lake can no longer
        last-writer-wins each other's row (reference semantics: the
        double diff-check under the etcd table lock,
        server/storages/table_helper.go:104-148)."""
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            json.dump(entry, f)
        try:
            while True:
                seq = self.next_seq()
                final = os.path.join(self.dir, f"{seq:08d}.json")
                try:
                    os.link(tmp, final)
                    return seq
                except FileExistsError:
                    continue  # lost the claim race; re-scan for next seq
        finally:
            os.unlink(tmp)

    def _append_at(self, entry: dict, seq: int) -> None:
        """Commit ``entry`` at EXACTLY ``seq`` or raise FileExistsError —
        the claim-or-abort primitive checkpoint() needs: a checkpoint
        folds the rows it has READ, so it may only land at the very next
        seq (any concurrently-committed row would be silently erased
        from the fast path if the checkpoint landed after it)."""
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            json.dump(entry, f)
        try:
            os.link(tmp, os.path.join(self.dir, f"{seq:08d}.json"))
        finally:
            os.unlink(tmp)

    def checkpoint(self, max_attempts: int = 5) -> int | None:
        """Fold the current ledger into a ``checkpoint`` row so readers
        of the CURRENT state replay O(rows since last checkpoint), not
        O(all windows) — the recovery-time bound a long-running
        1k-event streaming lake needs (thousands of window rows read
        back as thousands of JSON opens on every apply/read otherwise).

        The row carries the fully-folded live-file state (``parts``)
        and the max committed window ``hi``; ``live_files()`` /
        ``last_committed_hi()`` with no time-travel bound then start
        from the newest checkpoint (``_tail_entries``). Time-travel
        reads (``as_of_hi``) IGNORE checkpoint rows and full-replay —
        a checkpoint may fold windows past the bound, so it is only
        trustworthy for the unbounded view. History rows are never
        removed: a checkpoint is an accelerator, not a compaction.

        Multi-writer safety: the row is claimed at EXACTLY
        ``folded_max_seq + 1`` (``_append_at``); if another writer
        commits any row first, the claim fails and the fold re-runs
        over the fresh tail — a checkpoint can never hide a
        concurrently-committed window. Returns the checkpoint seq, or
        None if the tail is already checkpointed (idempotent) or the
        claim kept losing (callers just try again later; the ledger
        stays correct without it)."""
        for _ in range(max_attempts):
            ents = self.entries()
            if not ents or ents[-1]["kind"] == "checkpoint":
                return None
            parts = self.live_files(entries=ents)
            hi = 0
            for e in ents:
                if e["kind"] == "window":
                    hi = max(hi, int(e["hi"]))
                elif e["kind"] == "checkpoint":
                    hi = max(hi, int(e.get("hi", 0)))
            entry = {
                "kind": "checkpoint",
                "hi": hi,
                "parts": {str(p): fs for p, fs in parts.items()},
                # the folded split topology: splits() reads the tail
                # only, so a checkpoint must carry every split row it
                # hides from that fast path
                "splits": [list(s) for s in self.splits(entries=ents)],
            }
            try:
                seq = ents[-1]["_seq"] + 1
                self._append_at(entry, seq)
                return seq
            except FileExistsError:
                continue  # a row landed since we read; re-fold
        return None

    def _tail_entries(self) -> list[dict]:
        """Entries from the newest checkpoint onward (all of them when
        no checkpoint exists) — the unbounded-view fast path. Reads
        files newest-first and stops at the first checkpoint, so the
        cost is O(rows since last checkpoint)."""
        tail: list[dict] = []
        for e in self.iter_entries_desc():
            tail.append(e)
            if e["kind"] == "checkpoint":
                break
        tail.reverse()
        return tail

    # -- derived state ------------------------------------------------------

    def live_files(
        self, as_of_hi: int | None = None, entries: list[dict] | None = None
    ) -> dict[int, list[str]]:
        """Replay the ledger into {partition: [relative file paths]}.

        ``as_of_hi``: TIME TRAVEL — include only windows whose ``hi`` is
        within the bound. The whole ledger is scanned (not stopped at
        the first excluded window): a recovery re-apply
        (Replayer.replay_spooled, force=True) legally commits a
        LOWER-hi window after higher ones, and it must be part of the
        as-of view. Compactions stay safe only while no window has been
        excluded yet (they then fold included windows exclusively);
        once any window is excluded, later compactions may fold
        excluded data and are skipped — if a vacuum then removed
        needed deltas, the read raises FileNotFoundError (the standard
        lakehouse time-travel-until-vacuum contract). A skipped SPLIT
        additionally freezes the replay (a TOPOLOGY BREAK): every later
        row was written under a partitioning this view does not have —
        in particular a forced low-hi window routed to the children
        would otherwise surface rows in partitions the pre-split view
        resolves independently, un-shadowing old versions. Later rows
        are all excluded, so the view is exactly the pre-split state.
        ``vacuum`` rows never move files (GC bookkeeping only)."""
        if entries is None:
            # unbounded view: start from the newest checkpoint (fast
            # path); time travel full-replays — a checkpoint may fold
            # windows past the bound, so it can't seed a bounded view
            entries = self.entries() if as_of_hi is not None else self._tail_entries()
        parts: dict[int, list[str]] = {}
        seen: dict[int, set[str]] = {}  # per-partition membership (the
        # ordered list alone makes this replay O(windows^2) on
        # long-running streaming lakes — round-3 ADVICE)
        skipped_window = False

        def fold(pi: int, info: dict) -> None:
            """Apply one compaction/split fold: drop its replaced files
            and INSERT the new file at the FIRST replaced file's
            position. Position matters: the read path concatenates a
            partition's files in this list's order and equal-seq LWW
            ties resolve to the LAST arrival, so a fold of an older
            PREFIX (size-tiered compaction) must not leapfrog newer
            deltas — and a delta committed concurrently with a
            compaction (after its file scan, before its ledger row)
            must stay ordered after the base that folded older state.
            ``insert_after`` (clustered-compaction chunk files j >= 1,
            replaces=[]) anchors the file directly AFTER its named
            sibling for the same reason: appending a later chunk at the
            list's end would leapfrog newer tiers/deltas and flip
            equal-seq ties back to pre-repair values."""
            cur = parts.setdefault(pi, [])
            replaced = set(info["replaces"])
            new_list: list[str] = []
            inserted = False
            for f in cur:
                if f in replaced:
                    if not inserted and info.get("file"):
                        new_list.append(info["file"])
                        inserted = True
                else:
                    new_list.append(f)
            if not inserted and info.get("file"):
                anchor = info.get("insert_after")
                if anchor is not None and anchor in new_list:
                    new_list.insert(new_list.index(anchor) + 1, info["file"])
                else:
                    new_list.append(info["file"])
            parts[pi] = new_list
            s = seen.setdefault(pi, set())
            s.difference_update(replaced)
            if info.get("file"):
                s.add(info["file"])

        for e in entries:
            if e["kind"] == "checkpoint":
                if as_of_hi is None:
                    # trusted only in the unbounded view; in a full
                    # unbounded scan the reset equals the accumulated
                    # state by construction
                    parts = {int(p): list(fs) for p, fs in e["parts"].items()}
                    seen = {pi: set(fs) for pi, fs in parts.items()}
                continue
            if e["kind"] == "vacuum":
                continue
            if as_of_hi is not None and e["kind"] == "window" and int(e["hi"]) > as_of_hi:
                skipped_window = True
                continue
            if as_of_hi is not None and skipped_window and e["kind"] in ("compact", "split"):
                if e["kind"] == "split":
                    break  # topology break: pre-split view is final
                continue
            if e["kind"] == "window":
                for p, f in e["files"].items():
                    pi = int(p)
                    s = seen.setdefault(pi, set())
                    if f not in s:  # legacy forced re-applies committed
                        s.add(f)  # one deterministic path twice
                        parts.setdefault(pi, []).append(f)

            elif e["kind"] == "compact":
                for p, info in e["parts"].items():
                    # tiered compactions record a LIST of folds per
                    # partition; legacy rows a single dict
                    for one in info if isinstance(info, list) else [info]:
                        fold(int(p), one)

            elif e["kind"] == "split":
                # remove the parent's folded files, then append each
                # child's routed outputs (in recorded order — the split
                # preserves per-child file order, so appending keeps
                # the LWW tie ordering)
                parent = int(e["parent"])
                replaced = set(e["replaces"])
                cur = parts.get(parent, [])
                parts[parent] = [f for f in cur if f not in replaced]
                seen.setdefault(parent, set()).difference_update(replaced)
                if not parts[parent]:
                    parts.pop(parent, None)
                    seen.pop(parent, None)
                for c, infos in e["parts"].items():
                    ci = int(c)
                    for one in infos:
                        parts.setdefault(ci, []).append(one["file"])
                        seen.setdefault(ci, set()).add(one["file"])
        return {p: fs for p, fs in parts.items() if fs}

    def splits(
        self,
        entries: list[dict] | None = None,
        as_of_hi: int | None = None,
    ) -> list[tuple[int, int, int]]:
        """The committed partition-split topology: [(parent_id, modulus,
        factor), ...] in commit order — exactly the refinement list
        ``util.hash_route_column`` applies on top of the base partition
        count. Checkpoint rows carry the splits folded so far, so the
        no-``entries`` fast path reads only the ledger tail.
        ``as_of_hi`` bounds the topology exactly like live_files'
        bounded replay (a split after the first excluded window is a
        topology break: the as-of view keeps the pre-split routing);
        bounded views read full entries and ignore checkpoints."""
        if as_of_hi is not None and entries is None:
            entries = self.entries()
        out: list[tuple[int, int, int]] = []
        skipped_window = False
        for e in self._tail_entries() if entries is None else entries:
            if e["kind"] == "checkpoint":
                if as_of_hi is None:
                    out = [tuple(int(x) for x in s) for s in e.get("splits", [])]
                continue
            if (
                as_of_hi is not None
                and e["kind"] == "window"
                and int(e["hi"]) > as_of_hi
            ):
                skipped_window = True
            elif e["kind"] == "split":
                if as_of_hi is not None and skipped_window:
                    break
                out.append((int(e["parent"]), int(e["modulus"]), int(e["factor"])))
        return out

    def last_committed_hi(self) -> int:
        hi = 0
        for e in self._tail_entries():  # checkpoints carry the folded hi
            if e["kind"] == "window":
                hi = max(hi, int(e["hi"]))
            elif e["kind"] == "checkpoint":
                hi = max(hi, int(e.get("hi", 0)))
        return hi

    def window_metrics(self) -> list[dict]:
        return [e for e in self.entries() if e["kind"] == "window"]
