"""Schema reconciliation: additive evolution + type widening.

Reimplements the reference's destination table-patching semantics
(server/adapters/table.go:52-87 Diff — add columns, never retype
physically; server/schema/batch_header.go:22-38 — per-batch type-set
fold; server/storages/table_helper.go:74-167 — serialized DDL under a
distributed lock with a version bump).

Here the "table" is the lake's logical payload schema. New columns are
appended; observing a wider type promotes the column through the
lattice (types.promote) and bumps the version. Old Parquet files are
never rewritten: readers pad missing columns with null and cast narrow
physical types up to the reconciled type (util.pad_and_cast /
read_parquet(schema=...)).

The reference serialized DDL through an etcd lock; the lake serializes
it through the pid lock on its ``_meta.json`` (``LakeTable._commit_schema``):
under it a writer reloads the newest version, folds its window in again
and saves the next version, so every writer process sharing a lake
extends the same version chain.
"""

from __future__ import annotations

import json
import os
import tempfile

import pyarrow as pa

from ..types import DataType, from_arrow, to_arrow


class LakeSchema:
    """Versioned logical payload schema, persisted one JSON per version."""

    def __init__(self, fields: dict[str, DataType], version: int = 0):
        self.fields = dict(fields)
        self.version = version

    # -- persistence --------------------------------------------------------

    @staticmethod
    def load(schema_dir: str) -> "LakeSchema":
        versions = sorted(n for n in os.listdir(schema_dir) if n.endswith(".json"))
        if not versions:
            return LakeSchema({}, 0)
        with open(os.path.join(schema_dir, versions[-1])) as f:
            doc = json.load(f)
        fields = {f["name"]: DataType[f["type"]] for f in doc["fields"]}
        return LakeSchema(fields, doc["version"])

    def save(self, schema_dir: str) -> None:
        os.makedirs(schema_dir, exist_ok=True)
        doc = {
            "version": self.version,
            "fields": [{"name": n, "type": t.name} for n, t in self.fields.items()],
        }
        fd, tmp = tempfile.mkstemp(dir=schema_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f)
        try:  # put-if-absent, as a ledger row: a version is never overwritten
            os.link(tmp, os.path.join(schema_dir, f"v{self.version:06d}.json"))
        finally:
            os.unlink(tmp)

    # -- reconciliation -----------------------------------------------------

    def reconcile(self, observed: dict[str, DataType]) -> bool:
        """Fold an observed payload schema in. Returns True if this widened
        or extended the schema (version bumped; caller persists)."""
        from ..types import promote

        changed = False
        for name, t in observed.items():
            if t == DataType.UNKNOWN and name in self.fields:
                continue  # all-null column adds no information
            cur = self.fields.get(name)
            if cur is None:
                self.fields[name] = t
                changed = True
            else:
                widened = promote(cur, t)
                if widened != cur:
                    self.fields[name] = widened
                    changed = True
        if changed:
            self.version += 1
        return changed

    def to_arrow_fields(self) -> list[pa.Field]:
        return [pa.field(n, to_arrow(t)) for n, t in self.fields.items()]


def observed_payload(schema: pa.Schema, system_cols: set[str]) -> dict[str, DataType]:
    return {
        f.name: from_arrow(f.type) for f in schema if f.name not in system_cols
    }

