"""The management-plane row store with atomic transactions.

A :class:`Database` holds rows per table, keyed by UUID.  All writes go
through :meth:`Database.transact`, which executes a list of operations
atomically (all-or-nothing) against a staged copy, enforces schema
constraints and unique indexes, commits, and notifies monitors with the
transaction's net row changes.  One lock orders it all: a commit holds
it until every monitor has the commit, and one made inside a callback
is queued behind it, so each monitor sees commit order (see
:meth:`Database._deliver`).  Other modules take a cut by
:meth:`Database.held`.
"""

from __future__ import annotations

import threading
import uuid as uuidlib
from contextlib import nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import SchemaError, TransactionError
from repro.mgmt import lease as leaselib
from repro.mgmt.monitor import Monitor, MonitorSpec, RowUpdate, TableUpdates
from repro.mgmt.schema import DatabaseSchema
from repro.mgmt.values import check_value


class Row:
    """A committed row: its uuid plus column values (read-only view)."""

    __slots__ = ("uuid", "values")

    def __init__(self, uuid: str, values: dict):
        self.uuid = uuid
        self.values = values

    def __getitem__(self, column: str):
        if column == "_uuid":
            return self.uuid
        return self.values[column]

    def get(self, column: str, default=None):
        if column == "_uuid":
            return self.uuid
        return self.values.get(column, default)

    def __repr__(self):
        return f"Row({self.uuid[:8]}, {self.values!r})"


class _Staged:
    """Copy-on-write view of the database during one transaction."""

    def __init__(self, db: "Database"):
        self.db = db
        # table -> uuid -> row dict (None marks deletion)
        self.changes: Dict[str, Dict[str, Optional[dict]]] = {}
        self.named_uuids: Dict[str, str] = {}

    def items(self, table: str) -> Iterator[Tuple[str, dict]]:
        """``(uuid, row)`` of every row the transaction sees, in the
        table's order with rows inserted by it last — read through the
        overlay, not copied.  Callers must not stage changes while
        iterating."""
        base = self.db._tables[table]
        staged = self.changes.get(table)
        if not staged:
            yield from base.items()
            return
        for uuid, row in base.items():
            if uuid in staged:
                row = staged[uuid]
                if row is None:
                    continue
            yield uuid, row
        for uuid, row in staged.items():
            if row is not None and uuid not in base:
                yield uuid, row

    def find(self, table: str, column: str, value) -> Optional[Dict[str, dict]]:
        """The rows :meth:`items` yields whose ``column`` equals
        ``value``, in the same order, read from the database's equality
        index on ``column`` (``None`` for a map column, which has
        none).  The index holds committed rows only: a row this
        transaction changed is judged by its staged version, at the
        position the committed row holds, and rows it inserted come
        last."""
        index = self.db._index(table, column)
        if index is None:
            return None
        base = self.db._tables[table]
        bucket = index.buckets.get(value, {})
        staged = self.changes.get(table)
        if not staged:
            return {uuid: base[uuid] for uuid in sorted(bucket, key=bucket.get)}
        hits = [
            (position, uuid)
            for uuid, position in bucket.items()
            if uuid not in staged
        ]
        inserted = []
        for uuid, row in staged.items():
            if row is None or row[column] != value:
                continue
            old = base.get(uuid)
            if old is None:
                inserted.append((uuid, row))
            else:
                hits.append((index.buckets[old[column]][uuid], uuid))
        hits.sort()
        found = {
            uuid: staged[uuid] if uuid in staged else base[uuid]
            for _, uuid in hits
        }
        found.update(inserted)
        return found

    def get(self, table: str, uuid: str) -> Optional[dict]:
        staged = self.changes.get(table, {})
        if uuid in staged:
            return staged[uuid]
        return self.db._tables[table].get(uuid)

    def put(self, table: str, uuid: str, row: dict) -> None:
        self.changes.setdefault(table, {})[uuid] = row

    def delete(self, table: str, uuid: str) -> None:
        self.changes.setdefault(table, {})[uuid] = None


class _EqualityIndex:
    """One (table, column)'s committed rows by value: ``buckets`` maps
    ``value -> {uuid: position}``, where positions follow the table's
    own row order, so a lookup can give rows in the order a scan
    would."""

    __slots__ = ("column", "buckets", "next")

    def __init__(self, column: str, rows: Dict[str, dict]):
        self.column = column
        self.buckets: Dict[object, Dict[str, int]] = {}
        for position, (uuid, row) in enumerate(rows.items()):
            self.buckets.setdefault(row[column], {})[uuid] = position
        self.next = len(rows)

    def move(self, uuid: str, old: Optional[dict], new: Optional[dict]) -> None:
        """A committed row went from ``old`` to ``new`` (``None``: absent)."""
        column = self.column
        if old is None:
            position = self.next
            self.next += 1
        elif new is not None and new[column] == old[column]:
            return
        else:
            bucket = self.buckets[old[column]]
            position = bucket.pop(uuid)
            if not bucket:
                del self.buckets[old[column]]
        if new is not None:
            self.buckets.setdefault(new[column], {})[uuid] = position


class Database:
    """An in-memory, monitorable, transactional database.

    A ``where`` of one ``[column, "==", value]`` clause reads an
    equality index on (table, column), built on the first such lookup
    and kept current by each commit — a failed transaction never
    reaches it — at a cost in the rows the commit changed."""

    def __init__(
        self,
        schema: DatabaseSchema,
        uuid_factory: Optional[Callable[[], str]] = None,
    ):
        self.schema = schema
        # Every database carries the reserved lease table so leader
        # election (repro.mgmt.lease / repro.core.ha) works through the
        # ordinary transact/monitor machinery with no side channel.
        leaselib.ensure_lease_table(schema)
        self._tables: Dict[str, Dict[str, dict]] = {
            name: {} for name in schema.tables
        }
        #: ``table -> column -> index``; see :meth:`_index`.
        self._indexes: Dict[str, Dict[str, _EqualityIndex]] = {}
        self._monitors: List[Monitor] = []
        self._uuid_factory = uuid_factory or (lambda: uuidlib.uuid4().hex)
        self._lock = threading.RLock()
        #: Commits not yet delivered: ``(updates, monitors, update id)``.
        self._undelivered: List[tuple] = []
        self._delivering = False

    # -- reads ---------------------------------------------------------------

    def tables(self) -> List[str]:
        return list(self._tables)

    def rows(self, table: str) -> List[Row]:
        self.schema.table(table)
        with self._lock:
            return [Row(u, dict(v)) for u, v in self._tables[table].items()]

    def get_row(self, table: str, uuid: str) -> Optional[Row]:
        self.schema.table(table)
        with self._lock:
            values = self._tables[table].get(uuid)
            return Row(uuid, dict(values)) if values is not None else None

    def count(self, table: str) -> int:
        return len(self._tables[table])

    def held(self) -> threading.RLock:
        """``with db.held():`` — a consistent cut: no commit enters or
        is delivered but by the block's own thread."""
        return self._lock

    def load(self, tables: Dict[str, Dict[str, dict]]) -> None:
        """Replace the rows of each named table with ``{uuid: row}``,
        around ``transact``: no monitor hears it (a restore's rows)."""
        with self._lock:
            self._tables.update(tables)
            self._indexes.clear()

    # -- transactions -------------------------------------------------------------

    def transact(self, operations: Sequence[dict]) -> List[dict]:
        """Execute operations atomically; returns one result per op.

        Raises :class:`TransactionError` (nothing committed) on any
        failure, including an explicit ``abort`` op or an unsatisfied
        ``wait``; a monitor callback's error once its commit, kept, has
        reached every monitor."""
        from repro.mgmt.transact import execute_operations

        # Traced, mint the update-id that names this config change
        # end-to-end; its delivery runs in its scope so every downstream
        # plane (controller sync, engine delta, device writes) inherits
        # it.  Untraced, no id is minted and no span opened.
        uid = obs.mint_update_id() if obs.ENABLED else None
        span = obs.NULL_SPAN
        if uid is not None:
            span = obs.TRACER.span(
                "mgmt.transact", update_id=uid, ops=len(operations)
            )
        with span, self._lock:
            staged = _Staged(self)
            results = execute_operations(self, staged, operations)
            self._check_constraints(staged)
            updates = self._commit(staged)
            if uid is not None:
                span.set(changed_rows=sum(len(rows) for _, rows in updates))
            if updates:
                self._undelivered.append((updates, list(self._monitors), uid))
                self._deliver()
        if uid is not None:
            obs.REGISTRY.counter("mgmt_txns_total").inc()
        return results

    def new_uuid(self) -> str:
        return self._uuid_factory()

    def validate_row(
        self, table: str, values: dict, partial: bool = False
    ) -> dict:
        """Validate (and normalize) column values for a table.

        ``partial=True`` allows a subset of columns (updates); otherwise
        missing columns are filled with schema defaults.
        """
        tschema = self.schema.table(table)
        out = {}
        for col, value in values.items():
            if col == "_uuid":
                raise TransactionError("_uuid cannot be written")
            try:
                cschema = tschema.column(col)
                out[col] = check_value(cschema.type, value)
            except SchemaError as exc:
                raise TransactionError(f"{table}.{col}: {exc}") from exc
        if not partial:
            for col, cschema in tschema.columns.items():
                if col not in out:
                    out[col] = cschema.type.default()
        return out

    def _check_constraints(self, staged: _Staged) -> None:
        for table, changes in staged.changes.items():
            tschema = self.schema.table(table)
            if not tschema.indexes or not any(
                row is not None for row in changes.values()
            ):
                continue
            for index in tschema.indexes:
                seen: Dict[tuple, str] = {}
                for uuid, row in staged.items(table):
                    key = tuple(_freeze(row[c]) for c in index)
                    other = seen.get(key)
                    if other is not None:
                        raise TransactionError(
                            f"{table}: unique index {index} violated by rows "
                            f"{other[:8]} and {uuid[:8]}"
                        )
                    seen[key] = uuid

    def _index(self, table: str, column: str) -> Optional[_EqualityIndex]:
        """The equality index on ``table.column``, built on first use;
        ``None`` for a map column (its values are not hashable)."""
        indexes = self._indexes.setdefault(table, {})
        index = indexes.get(column)
        if index is None:
            if self.schema.table(table).column(column).type.value is not None:
                return None
            index = indexes[column] = _EqualityIndex(column, self._tables[table])
        return index

    def _commit(self, staged: _Staged) -> TableUpdates:
        updates = TableUpdates()
        for table, changes in staged.changes.items():
            store = self._tables[table]
            indexes = self._indexes.get(table)
            for uuid, row in changes.items():
                old = store.get(uuid)
                if indexes:
                    for index in indexes.values():
                        index.move(uuid, old, row)
                if row is None:
                    if old is not None:
                        del store[uuid]
                        updates.add(table, uuid, RowUpdate(dict(old), None))
                elif old is None:
                    store[uuid] = row
                    updates.add(table, uuid, RowUpdate(None, dict(row)))
                else:
                    changed_old = {
                        c: v for c, v in old.items() if row.get(c) != v
                    }
                    if changed_old:
                        store[uuid] = row
                        updates.add(
                            table, uuid, RowUpdate(changed_old, dict(row))
                        )
        return updates

    # -- monitors --------------------------------------------------------------------

    def add_monitor(
        self,
        spec: MonitorSpec,
        callback: Callable[[TableUpdates], None],
    ) -> tuple:
        """Register a monitor; returns ``(monitor, initial_snapshot)``.

        The snapshot is a :class:`TableUpdates` containing every current
        row as an insert, projected to the monitored columns.
        """
        for table in spec.tables:
            self.schema.table(table)
        monitor = Monitor(spec, callback)
        with self._lock:
            initial = TableUpdates()
            for table in spec.tables:
                for uuid, row in self._tables[table].items():
                    initial.add(
                        table, uuid, RowUpdate(None, spec.project(table, row))
                    )
            self._monitors.append(monitor)
        return monitor, initial

    def remove_monitor(self, monitor: Monitor) -> None:
        with self._lock:
            if monitor in self._monitors:
                self._monitors.remove(monitor)

    def _deliver(self) -> None:
        """Drain the undelivered commits in commit order, unless this
        thread is draining already (a callback that transacts).  Each
        commit reaches the monitors registered when it was made (one
        added since holds it in its snapshot already), even when one
        raises: the first error is raised once the queue is empty."""
        if self._delivering:
            return
        self._delivering = True
        error = None
        try:
            while self._undelivered:
                updates, monitors, uid = self._undelivered.pop(0)
                with obs.use_update_id(uid) if uid else nullcontext():
                    for monitor in monitors:
                        try:
                            filtered = _filtered(updates, monitor.spec)
                            if filtered:
                                monitor.callback(filtered)
                        except Exception as exc:  # noqa: BLE001 - re-raised
                            error = error or exc
        finally:
            self._delivering = False
        if error is not None:
            raise error


def _filtered(updates: TableUpdates, spec: MonitorSpec) -> TableUpdates:
    """The part of a commit's updates that ``spec`` watches."""
    out = TableUpdates()
    for table, rows in updates:
        if not spec.watches(table):
            continue
        for uuid, update in rows.items():
            old = spec.project(table, update.old) if update.old is not None else None
            new = spec.project(table, update.new) if update.new is not None else None
            if update.kind == "modify" and not old:
                continue  # no monitored column changed
            out.add(table, uuid, RowUpdate(old, new))
    return out


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value
