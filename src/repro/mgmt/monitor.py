"""Monitors: the change-streaming half of the management plane.

A monitor subscribes to a set of tables (optionally restricted to
columns).  It receives one :class:`TableUpdates` for the initial
database contents and then one per committed transaction, mirroring
OVSDB's ``monitor`` / ``update`` flow — the mechanism the Nerpa
controller uses to learn about configuration changes.

A batch has one wire form (:func:`updates_to_wire`,
:func:`updates_from_wire`): the server's answers and pushes, the
client and the :mod:`~repro.mgmt.persist` journal all read and write
it, and :func:`fold` is the one way a stream becomes table contents.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.mgmt.values import row_from_wire, row_to_wire


class RowUpdate:
    """The change to one row.

    * insert: ``old is None``, ``new`` is the full row;
    * delete: ``old`` is the full prior row, ``new is None``;
    * modify: ``old`` holds the prior values of changed columns only,
      ``new`` the full new row.
    """

    __slots__ = ("old", "new")

    def __init__(self, old: Optional[dict], new: Optional[dict]):
        self.old = old
        self.new = new

    @property
    def kind(self) -> str:
        if self.old is None:
            return "insert"
        if self.new is None:
            return "delete"
        return "modify"

    def __repr__(self):
        return f"RowUpdate({self.kind})"


class TableUpdates:
    """Per-transaction updates: ``table -> row uuid -> RowUpdate``."""

    def __init__(self, updates: Optional[Dict[str, Dict[str, RowUpdate]]] = None):
        self.updates: Dict[str, Dict[str, RowUpdate]] = updates or {}

    def table(self, name: str) -> Dict[str, RowUpdate]:
        return self.updates.get(name, {})

    def add(self, table: str, uuid: str, update: RowUpdate) -> None:
        self.updates.setdefault(table, {})[uuid] = update

    def __bool__(self):
        return any(self.updates.values())

    def __iter__(self):
        return iter(self.updates.items())

    def __repr__(self):
        counts = {t: len(rows) for t, rows in self.updates.items()}
        return f"TableUpdates({counts})"


class MonitorSpec:
    """What a monitor watches: ``{table: columns or None (= all)}``."""

    def __init__(self, tables: Dict[str, Optional[Sequence[str]]]):
        self.tables = {
            name: (list(cols) if cols is not None else None)
            for name, cols in tables.items()
        }

    @classmethod
    def all_tables(cls, schema) -> "MonitorSpec":
        return cls({name: None for name in schema.tables})

    def watches(self, table: str) -> bool:
        return table in self.tables

    def project(self, table: str, row: dict) -> dict:
        cols = self.tables.get(table)
        if cols is None:
            return dict(row)
        return {c: row[c] for c in cols if c in row}


class Monitor:
    """A registered subscription; the database calls its ``callback``
    with each commit's watched changes."""

    _next_id = 0

    def __init__(self, spec: MonitorSpec, callback: Callable[[TableUpdates], None]):
        self.spec = spec
        self.callback = callback
        Monitor._next_id += 1
        self.monitor_id = f"monitor-{Monitor._next_id}"


def updates_to_wire(schema, updates: TableUpdates) -> dict:
    """A monitor-stream batch as the wire (and the journal) carries it:
    ``{table: {uuid: {"old": row?, "new": row?}}}``."""
    out: Dict[str, Dict[str, dict]] = {}
    for table, rows in updates:
        tschema = schema.table(table)
        tout = out.setdefault(table, {})
        for uuid, update in rows.items():
            entry = {}
            if update.old is not None:
                entry["old"] = row_to_wire(tschema, update.old)
            if update.new is not None:
                entry["new"] = row_to_wire(tschema, update.new)
            tout[uuid] = entry
    return out


def updates_from_wire(schema, wire: dict) -> TableUpdates:
    """The inverse of :func:`updates_to_wire`."""
    updates = TableUpdates()
    for table, rows in wire.items():
        tschema = schema.table(table)
        for uuid, entry in rows.items():
            old = entry.get("old")
            new = entry.get("new")
            updates.add(table, uuid, RowUpdate(
                row_from_wire(tschema, old) if old is not None else None,
                row_from_wire(tschema, new) if new is not None else None,
            ))
    return updates


def fold(state: Dict[str, Dict[str, dict]], updates: TableUpdates) -> None:
    """Apply one batch of a monitor stream to ``{table: {uuid: row}}``."""
    for table, rows in updates:
        tstate = state.setdefault(table, {})
        for uuid, update in rows.items():
            if update.new is None:
                tstate.pop(uuid, None)
            else:
                merged = dict(tstate.get(uuid, {}))
                merged.update(update.new)
                tstate[uuid] = merged


def replay(initial: TableUpdates, updates: List[TableUpdates]) -> Dict[str, Dict[str, dict]]:
    """Reconstruct table contents from a monitor stream (test helper).

    Returns ``{table: {uuid: row}}``; used to verify that a monitor's
    update stream is a faithful replica of the database.
    """
    state: Dict[str, Dict[str, dict]] = {}
    for batch in [initial] + updates:
        fold(state, batch)
    return state
