"""TCP server exposing a management database.

Methods (mirroring OVSDB's protocol surface):

* ``get_schema []`` — the database schema JSON;
* ``transact [op, ...]`` — atomic operation list; rows in results are
  wire-encoded;
* ``monitor [{table: columns-or-null, ...}]`` — returns the initial
  snapshot and subscribes the connection to ``update`` notifications;
* ``monitor_cancel [monitor-id]``;
* ``echo [...]`` — returns its params (keepalive).

Update notifications: ``{"method": "update", "params": [monitor_id,
{table: {uuid: {"old": {...}?, "new": {...}?}}}], "id": null}``.

Accepting, framing and teardown are :mod:`repro.net.server`'s, on the
server's own reactor; this module is the method table and the monitor
subscriptions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ProtocolError
from repro.mgmt.database import Database
from repro.mgmt.jsonrpc import make_notification
from repro.mgmt.monitor import MonitorSpec, TableUpdates
from repro.mgmt.values import row_to_wire
from repro.net.server import RpcConnection, RpcServer
from repro.obs.trace import current_update_id


def updates_to_wire(db: Database, updates: TableUpdates) -> dict:
    out: Dict[str, Dict[str, dict]] = {}
    for table, rows in updates:
        tschema = db.schema.table(table)
        tout = out.setdefault(table, {})
        for uuid, update in rows.items():
            entry = {}
            if update.old is not None:
                entry["old"] = row_to_wire(tschema, update.old)
            if update.new is not None:
                entry["new"] = row_to_wire(tschema, update.new)
            tout[uuid] = entry
    return out


class ManagementServer(RpcServer):
    """Serves one :class:`Database` over TCP.  A connection's session
    is its monitors by id."""

    name = "mgmt"

    def __init__(self, db: Database, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        self.db = db

    def on_close(self, conn: RpcConnection) -> None:
        for monitor in (conn.session or {}).values():
            self.db.remove_monitor(monitor)

    def handle(self, conn: RpcConnection, method: str, params):
        db = self.db
        if method == "echo":
            return params
        if method == "get_schema":
            return db.schema.to_json()
        if method == "transact":
            return db.transact(params)  # select rows are already plain
        if method == "monitor":
            if len(params) != 1 or not isinstance(params[0], dict):
                raise ProtocolError("monitor expects [spec]")
            spec = MonitorSpec(
                {t: cols for t, cols in params[0].items()}
            )
            # The monitor id is only known after registration; the
            # notification closure reads it through a cell.
            id_cell: List[Optional[str]] = [None]
            monitor, initial = db.add_monitor(
                spec, self._push_updates_factory(conn, id_cell)
            )
            id_cell[0] = monitor.monitor_id
            if conn.session is None:
                conn.session = {}
            conn.session[monitor.monitor_id] = monitor
            return {
                "monitor_id": monitor.monitor_id,
                "initial": updates_to_wire(db, initial),
            }
        if method == "monitor_cancel":
            (monitor_id,) = params
            monitor = (conn.session or {}).pop(monitor_id, None)
            if monitor is not None:
                db.remove_monitor(monitor)
            return {}
        # Lease methods (RFC 7047's lock/steal/unlock shape): thin
        # wrappers over the database's transact-based lease ops, so a
        # remote standby needs no knowledge of the op-list encoding.
        if method == "lease_acquire":
            name, owner, ttl, now, steal = params
            return {"lease": db.lease_acquire(name, owner, ttl, now, steal)}
        if method == "lease_renew":
            name, owner, epoch, ttl, now = params
            return {"renewed": db.lease_renew(name, owner, epoch, ttl, now)}
        if method == "lease_release":
            name, owner = params
            return {"released": db.lease_release(name, owner)}
        if method == "lease_get":
            (name,) = params
            return {"lease": db.lease_get(name)}
        raise ProtocolError(f"unknown method {method!r}")

    def _push_updates_factory(
        self, conn: RpcConnection, id_cell: List[Optional[str]]
    ):
        def push(updates: TableUpdates) -> None:
            if conn.closed:
                return
            params = [id_cell[0], updates_to_wire(self.db, updates)]
            # push runs inside Database._notify, i.e. inside the
            # transact's update-id scope; forward the id on the wire so
            # remote controllers keep the trace.
            uid = current_update_id()
            if uid is not None:
                params.append(uid)
            # On whichever thread committed: commit order is send order.
            conn.send(make_notification("update", params))

        return push
