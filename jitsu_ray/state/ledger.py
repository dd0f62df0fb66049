"""Checkpoint ledger: the lake's commit log, and the one state folded from it.

One JSON file per committed action (window, compact, split, vacuum,
checkpoint), named by its sequence number and claimed atomically
(``append``). Live data files are derived from the ledger, so files
staged by a crashed window (no ledger row) are invisible — this plus
deterministic per-NORMAL-window delta paths gives the exactly-once story
(SURVEY.md §7.4): re-running a window overwrites its own staged files
and commits at most one ledger row. FORCED windows (spool recovery,
resync repairs) use unique tags instead — they may share bounds with a
committed window they must never overwrite — and converge by LWW state,
not path identity.

ONE STATE. Everything the lake reads from the log — live files per
partition in replay order, the split topology, the max window ``hi``,
the zone maps of live files, replaced-but-unvacuumed files (with the
seq that replaced them) and the files the newest vacuum row removed — is
a field of one :class:`LedgerState`, advanced by exactly one fold,
``apply``. A :class:`Ledger` keeps one state in-process plus a CURSOR,
the seq of the last row applied. Bringing it current
(``Ledger.last_committed_hi``, which ``state()`` calls) costs one
``stat`` of ``cursor + 1`` when nothing is new, and otherwise parses only
the rows above the cursor (``iter_entries_desc``), newest-first down to
the first checkpoint. Rows an instance commits are applied as they are
claimed; rows other writers commit are picked up by the cursor. Bounded (``as_of``) views replay the
whole history through the same ``apply`` on a fresh, bounded state.

NO GAPS. Committed seqs are exactly 1..max: ``append`` claims
``cursor + 1`` and, when another writer holds it, advances the cursor
and claims again; ``checkpoint`` claims exactly the seq after the state
it serialized. Every claim is at most the current max + 1, which is what
lets a missing ``cursor + 1`` prove the state current.

CHECKPOINTS. A ``checkpoint`` row is the serialized state as of the row
before it, so a fresh reader (a reopened lake, another process) parses
only the rows since the newest one. Compaction and split write one after
their row. Its size follows the live files (their zone maps) and one
vacuum pass, not the lake's age: a vacuum row names every file its pass
unlinks, earlier stragglers included, so the state keeps only the newest
row's names. History rows are never removed: a checkpoint is an
accelerator, not a compaction.

Replaces the reference's per-file upload status JSONs
(server/logfiles/status_manager.go:32-110) and Redis interval
signatures (server/synchronization/task_executor.go:210-232) with a
single strictly-ordered commit log.
"""

from __future__ import annotations

import json
import os
import tempfile


class LedgerState:
    """The ledger folded up to ``seq``. ``as_of_hi`` makes it a BOUNDED
    (time-travel) view: only windows whose ``hi`` is within the bound.
    The bounded replay covers the whole ledger (a recovery re-apply,
    Replayer.replay_spooled with force=True, legally commits a LOWER-hi
    window after higher ones, and it belongs to the as-of view).
    Compactions stay safe only while no window has been excluded yet
    (they then fold included windows exclusively); once any window is
    excluded, later compactions may fold excluded data and are skipped —
    if a vacuum then removed needed deltas, the read raises
    FileNotFoundError (the lakehouse time-travel-until-vacuum contract).
    A skipped SPLIT freezes the view (a TOPOLOGY BREAK): every later row
    was written under a partitioning this view does not have — a forced
    low-hi window routed to the children would otherwise surface rows in
    partitions the pre-split view resolves independently, un-shadowing
    old versions. Checkpoint rows are ignored by bounded views: one may
    fold windows past the bound."""

    def __init__(self, as_of_hi: int | None = None):
        self.as_of_hi = as_of_hi
        self.seq = 0  # the cursor: last applied row
        self.kind: str | None = None  # that row's kind
        self.parts: dict[int, list[str]] = {}  # replay (= LWW tie) order
        self.splits: list[tuple[int, int, int]] = []  # (parent, modulus, factor)
        self.hi = 0
        self.zones: dict[str, dict] = {}  # live file -> key/stats zone map
        self.pending: dict[str, int] = {}  # replaced file -> replacing seq
        self.vacuumed: set[str] = set()  # the newest vacuum row's files
        self.live: set[str] = set()  # every file of ``parts``
        self._skipped = False  # bounded: a window above the bound was excluded
        self._frozen = False  # bounded: topology break

    def apply(self, e: dict) -> None:
        """The one fold: advance the state over ledger row ``e`` (which
        carries its ``_seq``). ``vacuum`` rows never move files (GC
        bookkeeping only)."""
        self.seq, self.kind = e["_seq"], e["kind"]
        if self._frozen:
            return
        kind = e["kind"]
        if kind == "checkpoint":
            # rows written before checkpoints carried the whole state
            # (no "zones") are skipped: the rows before them still count
            if self.as_of_hi is None and "zones" in e:
                self._load(e)
            return
        if kind == "vacuum":
            # the row names every file its pass unlinks, stragglers of
            # earlier passes included, so it alone names what a crash
            # before the unlinks can leave on disk
            self.vacuumed = set(e.get("removed", []))
            for f in self.vacuumed:
                self.pending.pop(f, None)
            return
        if self.as_of_hi is not None:
            if kind == "window" and int(e["hi"]) > self.as_of_hi:
                self._skipped = True
                return
            if self._skipped and kind in ("compact", "split"):
                self._frozen = kind == "split"
                return
        if kind == "window":
            self.hi = max(self.hi, int(e["hi"]))
            zones = e.get("key_stats", {})
            for p, f in e.get("files", {}).items():
                self._add(int(p), f, zones.get(p))
        elif kind == "compact":
            for p, info in e["parts"].items():
                # tiered compactions record a LIST of folds per
                # partition; older rows a single dict
                for one in info if isinstance(info, list) else [info]:
                    self._fold(int(p), one)
        elif kind == "split":
            # drop the parent's folded files, then append each child's
            # outputs in recorded order (the split preserves per-child
            # file order, so appending keeps the LWW tie ordering)
            parent = int(e["parent"])
            replaced = set(e["replaces"])
            self._set(parent, [f for f in self.parts.get(parent, []) if f not in replaced])
            self._retire(e["replaces"])
            for c, infos in e["parts"].items():
                for one in infos:
                    self._add(int(c), one["file"], one.get("key_stats"))
            self.splits.append((parent, int(e["modulus"]), int(e["factor"])))

    def _add(self, p: int, f: str, zone: dict | None) -> None:
        if zone:
            self.zones[f] = zone
        if f not in self.live:  # older forced re-applies committed one
            self.live.add(f)  # deterministic path twice
            self.parts.setdefault(p, []).append(f)

    def _set(self, p: int, files: list[str]) -> None:
        if files:
            self.parts[p] = files
        else:
            self.parts.pop(p, None)

    def _retire(self, files) -> None:
        """Replaced files leave the live view and wait for vacuum."""
        for f in files:
            self.live.discard(f)
            self.zones.pop(f, None)
            if f not in self.vacuumed:
                self.pending.setdefault(f, self.seq)

    def _fold(self, p: int, info: dict) -> None:
        """Apply one compaction fold: drop its replaced files and INSERT
        the new file at the FIRST replaced file's position. Position
        matters: the read path concatenates a partition's files in this
        list's order and equal-seq LWW ties resolve to the LAST arrival,
        so a fold of an older PREFIX (size-tiered compaction) must not
        leapfrog newer deltas — and a delta committed concurrently with
        a compaction (after its file scan, before its ledger row) must
        stay ordered after the base that folded older state.
        ``insert_after`` (clustered-compaction chunk files j >= 1,
        replaces=[]) anchors the file directly AFTER its named sibling
        for the same reason: appending a later chunk at the list's end
        would leapfrog newer tiers/deltas and flip equal-seq ties back
        to pre-repair values."""
        replaced = set(info["replaces"])
        new = info.get("file")
        out: list[str] = []
        inserted = not new
        for f in self.parts.get(p, []):
            if f not in replaced:
                out.append(f)
            elif not inserted:
                out.append(new)
                inserted = True
        if not inserted:
            anchor = info.get("insert_after")
            out.insert(out.index(anchor) + 1 if anchor in out else len(out), new)
        self._set(p, out)
        self._retire(info["replaces"])
        if new:
            self.live.add(new)
            if info.get("key_stats"):
                self.zones[new] = info["key_stats"]

    def _load(self, e: dict) -> None:
        self.parts = {int(p): list(fs) for p, fs in e["parts"].items() if fs}
        self.live = {f for fs in self.parts.values() for f in fs}
        self.splits = [tuple(int(x) for x in s) for s in e["splits"]]
        self.hi = int(e["hi"])
        self.zones = dict(e["zones"])
        self.pending = {f: int(s) for f, s in e["pending"].items()}
        self.vacuumed = set(e["vacuumed"])

    def to_row(self) -> dict:
        """The state as a ``checkpoint`` ledger row."""
        return {
            "kind": "checkpoint",
            "hi": self.hi,
            "parts": {str(p): fs for p, fs in self.parts.items()},
            "splits": [list(s) for s in self.splits],
            "zones": self.zones,
            "pending": self.pending,
            "vacuumed": sorted(self.vacuumed),
        }


class Ledger:
    """One writer's handle on the log. An instance is single-threaded:
    each thread or process that writes opens its own."""

    def __init__(self, dir_path: str):
        self.dir = dir_path
        os.makedirs(self.dir, exist_ok=True)
        self._state = LedgerState()

    def _seq_of(self, name: str) -> int:
        return int(name.split(".")[0])

    def _path(self, seq: int) -> str:
        return os.path.join(self.dir, f"{seq:08d}.json")

    def entries(self) -> list[dict]:
        out = list(self.iter_entries_desc())
        out.reverse()
        return out

    def next_seq(self) -> int:
        return self.state().seq + 1

    def max_seq(self) -> int:
        """Highest committed ledger row number (0 when empty). This is
        the 'ledger position' fingerprint replication rounds record:
        unlike a window's ``hi`` it is monotone even across recovery
        re-applies, which legally commit LOWER-hi windows after higher
        ones."""
        return self.state().seq

    def iter_entries_desc(self, above: int = 0):
        """Lazily yield the entries with seq > ``above``, NEWEST-first.
        Callers that stop early (e.g. 'walk back to the last
        replication-tagged window') pay O(rows inspected), not O(all
        rows) — the ledger can hold thousands of rows on a long-running
        streaming lake. This is the ONE site encoding the ledger's
        on-disk layout contract (.json suffix, zero-padded name sort,
        _seq attach); every row read goes through it."""
        names = sorted(
            n for n in os.listdir(self.dir)
            if n.endswith(".json") and self._seq_of(n) > above
        )
        for n in reversed(names):
            with open(os.path.join(self.dir, n)) as f:
                e = json.load(f)
            e["_seq"] = self._seq_of(n)
            yield e

    def state(self, as_of_hi: int | None = None) -> LedgerState:
        """The current state, advanced over the rows committed since the
        cursor (``last_committed_hi``), or with ``as_of_hi`` a fresh
        bounded state replayed over the whole ledger. The current state
        is this instance's own object: read it, never mutate it."""
        if as_of_hi is not None:
            st = LedgerState(as_of_hi)
            for e in self.entries():
                st.apply(e)
            return st
        self.last_committed_hi()
        return self._state

    def append(self, entry: dict) -> int:
        """Commit one ledger row under OPTIMISTIC multi-writer locking:
        the entry is written fully to a tmp file, then the sequence
        number after the cursor is CLAIMED by hard-linking the tmp onto
        ``{seq}.json`` — ``os.link`` atomically fails with
        FileExistsError if another writer took that seq first, in which
        case the cursor advances over the rows that landed and the claim
        is retried at the next seq. Readers only ever see a name whose
        content is complete (the link appears atomically), and two
        independent driver processes appending to one lake can never
        last-writer-wins each other's row (reference semantics: the
        double diff-check under the etcd table lock,
        server/storages/table_helper.go:104-148)."""
        while True:
            try:
                return self._append_at(entry, self._state.seq + 1)
            except FileExistsError:
                self.state()  # lost the claim race: advance, retry

    def _append_at(self, entry: dict, seq: int) -> int:
        """Commit ``entry`` at EXACTLY ``seq`` — which must be the
        cursor + 1 — or raise FileExistsError, then apply it to the
        state. This is the claim-or-abort primitive checkpoint() needs:
        a checkpoint serializes the rows the state has applied, so it
        may only land at the very next seq (any concurrently-committed
        row would be silently hidden from every later reader if the
        checkpoint landed after it)."""
        text = json.dumps(entry, separators=(",", ":"))  # rows are disk bytes
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        try:
            os.link(tmp, self._path(seq))
        finally:
            os.unlink(tmp)
        self._state.apply({**json.loads(text), "_seq": seq})
        return seq

    def checkpoint(self, max_attempts: int = 5) -> int | None:
        """Write the current state as a ``checkpoint`` row, so a fresh
        reader (a reopened lake, another process) parses O(rows since
        the checkpoint), not O(all rows). The row carries every field of
        :class:`LedgerState`: live files per partition in replay order,
        the split topology, the max committed window ``hi``, the zone
        maps of the live files, the replaced-but-unvacuumed files with
        the seq that replaced them, and the files the newest vacuum row
        removed (one pass's worth, not every file ever vacuumed). Bounded
        (``as_of``) views ignore checkpoint rows and replay the full
        history.

        Multi-writer safety: the row is claimed at EXACTLY the seq after
        the state it serializes (``_append_at``); if another writer
        commits any row first, the claim fails and the state advances
        over that row before the next attempt — a checkpoint can never
        hide a concurrently-committed row. Returns the checkpoint seq,
        or None if the newest row is already a checkpoint (idempotent)
        or the claim kept losing (callers just try again later; the
        ledger stays correct without it)."""
        for _ in range(max_attempts):
            st = self.state()
            if st.seq == 0 or st.kind == "checkpoint":
                return None
            try:
                return self._append_at(st.to_row(), st.seq + 1)
            except FileExistsError:
                continue  # a row landed since we read; advance and retry
        return None

    # -- views of the state ---------------------------------------------------

    def live_files(self, as_of_hi: int | None = None) -> dict[int, list[str]]:
        """{partition: [relative file paths]} in replay order."""
        return {p: list(fs) for p, fs in self.state(as_of_hi).parts.items()}

    def splits(self, as_of_hi: int | None = None) -> list[tuple[int, int, int]]:
        """The committed partition-split topology: [(parent_id, modulus,
        factor), ...] in commit order — exactly the refinement list
        ``util.hash_route_column`` applies on top of the base partition
        count."""
        return list(self.state(as_of_hi).splits)

    def last_committed_hi(self) -> int:
        """The max committed window ``hi``, after bringing the state
        current (module docstring). Every current read goes through
        here, so the public-call timings of perfbench/layers.py see it."""
        st = self._state
        if os.path.exists(self._path(st.seq + 1)):
            new = []
            for e in self.iter_entries_desc(above=st.seq):
                new.append(e)
                if e["kind"] == "checkpoint" and "zones" in e:
                    break  # it holds every older row
            for e in reversed(new):
                st.apply(e)
        return st.hi

    def window_metrics(self) -> list[dict]:
        return [e for e in self.entries() if e["kind"] == "window"]
