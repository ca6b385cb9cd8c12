"""Snapshot + journal persistence for the management database.

The management plane is "an API backed by a reliable database"; this
module supplies the durable half: a JSON snapshot of the full contents
plus an append-only journal of committed transactions.  ``restore``
replays snapshot + journal; ``compact`` folds the journal back into the
snapshot.

A journal line is the wire encoding of one monitor update
(:func:`~repro.mgmt.monitor.updates_to_wire`), so a journal is literally
a recorded monitor stream — the ``update`` params a controller would
have consumed live — and ``restore`` folds it as
:func:`~repro.mgmt.monitor.replay` folds a live one.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.errors import SchemaError
from repro.mgmt.database import Database
from repro.mgmt.monitor import (
    MonitorSpec,
    TableUpdates,
    fold,
    updates_from_wire,
    updates_to_wire,
)
from repro.mgmt.schema import DatabaseSchema
from repro.mgmt.values import row_from_wire, row_to_wire


class Persister:
    """Attach to a database; every committed transaction is journaled."""

    def __init__(self, db: Database, directory: str):
        self.db = db
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._journal_path = os.path.join(directory, "journal.ndjson")
        self._snapshot_path = os.path.join(directory, "snapshot.json")
        # A crash mid-append leaves a torn final line.  ``restore``
        # stops replaying at the first undecodable line — sound only
        # while the torn line is the *last* line.  Appending new records
        # after a torn tail would break that invariant (every
        # post-restart commit silently dropped on the next restore), so
        # the tail is truncated away before the journal reopens.
        self.repaired_bytes = _repair_journal(self._journal_path)
        self._journal = open(self._journal_path, "a", encoding="utf-8")
        self._monitor, _ = db.add_monitor(
            MonitorSpec.all_tables(db.schema), self._append
        )

    def _append(self, updates: TableUpdates) -> None:
        record = updates_to_wire(self.db.schema, updates)
        self._journal.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._journal.flush()

    def snapshot(self) -> None:
        """Write a full snapshot (does not truncate the journal).

        The whole snapshot is built inside :meth:`Database.held`, so it
        is one consistent cut, not a per-table sequence of reads; the
        temp file is fsynced before the rename so a crash mid-snapshot
        can never leave a torn (or silently empty) snapshot file.
        """
        with self.db.held():
            data = {
                "schema": self.db.schema.to_json(),
                "tables": {
                    table: {
                        row.uuid: row_to_wire(
                            self.db.schema.table(table), row.values
                        )
                        for row in self.db.rows(table)
                    }
                    for table in self.db.tables()
                },
            }
        tmp = self._snapshot_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(data, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._snapshot_path)

    def compact(self) -> None:
        """Snapshot and truncate the journal, atomically with respect to
        commits.

        Both happen inside one :meth:`Database.held`.  A transaction
        therefore either commits *and* is journaled before the cut — it
        is in the snapshot and its journal entry is dropped with the
        rest — or it does both after the new journal is open and lands
        there.  Without this, a commit between the snapshot write and
        the journal reopen was lost: too late for the snapshot, erased
        by the truncation.
        """
        with self.db.held():
            self.snapshot()
            self._journal.close()
            self._journal = open(self._journal_path, "w", encoding="utf-8")

    def close(self) -> None:
        self.db.remove_monitor(self._monitor)
        self._journal.close()


def _repair_journal(path: str) -> int:
    """Truncate a torn journal tail; return the bytes dropped.

    Scans forward keeping the offset after the last well-formed line (a
    newline-terminated JSON record, or a blank line — ``restore`` skips
    those); everything past it is a partial write from a crash.  The
    truncation is fsynced so the repair itself survives a crash.
    """
    try:
        handle = open(path, "r+", encoding="utf-8")
    except FileNotFoundError:
        return 0
    with handle:
        good = 0
        while True:
            line = handle.readline()
            if not line:
                break
            stripped = line.strip()
            if stripped:
                if not line.endswith("\n"):
                    break  # unterminated final record
                try:
                    json.loads(stripped)
                except json.JSONDecodeError:
                    break
            good = handle.tell()
        end = handle.seek(0, os.SEEK_END)
        dropped = end - good
        if dropped:
            handle.truncate(good)
            handle.flush()
            os.fsync(handle.fileno())
        return dropped


def restore(directory: str, schema: Optional[DatabaseSchema] = None) -> Database:
    """Rebuild a database from snapshot + journal in ``directory``."""
    snapshot_path = os.path.join(directory, "snapshot.json")
    journal_path = os.path.join(directory, "journal.ndjson")

    tables = {}
    if os.path.exists(snapshot_path):
        with open(snapshot_path, encoding="utf-8") as f:
            data = json.load(f)
        schema = DatabaseSchema.from_json(data["schema"])
        for table, rows in data["tables"].items():
            tschema = schema.table(table)
            tables[table] = {u: row_from_wire(tschema, w) for u, w in rows.items()}
    elif schema is None:
        raise SchemaError(f"no snapshot in {directory!r} and no schema provided")
    db = Database(schema)

    if os.path.exists(journal_path):
        with open(journal_path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A crash mid-append leaves a torn final line; every
                    # complete record before it is still good.  Nothing
                    # can follow a torn write, so stop replaying here.
                    break
                fold(tables, updates_from_wire(schema, record))
    db.load(tables)
    return db
