"""TCP server exposing a management database.

Methods (mirroring OVSDB's protocol surface):

* ``get_schema []`` — the database schema JSON;
* ``transact [op, ...]`` — atomic operation list; rows in results are
  wire-encoded;
* ``monitor [{table: columns-or-null, ...}]`` — returns the initial
  snapshot and subscribes the connection to ``update`` notifications;
* ``monitor_cancel [monitor-id]``;
* ``lease_acquire [name, owner, ttl, now, steal]``, ``lease_renew
  [name, owner, epoch, ttl, now]``, ``lease_release [name, owner]``,
  ``lease_get [name]`` — leader election, answered as
  :data:`repro.mgmt.lease.METHODS` says;
* ``echo [...]`` — returns its params (keepalive).

Update notifications: ``{"method": "update", "params": [monitor_id,
{table: {uuid: {"old": {...}?, "new": {...}?}}}], "id": null}``.  A
monitor's answer reaches the peer before its first update: the monitor
is registered and answered inside :meth:`Database.held`, so every later
commit notifies with the id the peer has already read.

Accepting, framing and teardown are :mod:`repro.net.server`'s, on the
server's own reactor; this module is the method table and the monitor
subscriptions.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.mgmt import lease
from repro.mgmt.database import Database
from repro.mgmt.jsonrpc import make_notification
from repro.mgmt.monitor import MonitorSpec, TableUpdates, updates_to_wire
from repro.net.server import RpcConnection, RpcServer
from repro.obs.trace import current_update_id


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

    def serve(self, conn: RpcConnection, message: dict) -> None:
        if isinstance(message, dict) and message.get("method") == "monitor":
            # No update for the monitor can be sent before its answer.
            with self.db.held():
                super().serve(conn, message)
        else:
            super().serve(conn, message)

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
            # Bound before any commit can notify it: serve holds the cut.
            monitor, initial = db.add_monitor(
                MonitorSpec(params[0]),
                lambda updates: self._push(conn, monitor, updates),
            )
            if conn.session is None:
                conn.session = {}
            conn.session[monitor.monitor_id] = monitor
            return {
                "monitor_id": monitor.monitor_id,
                "initial": updates_to_wire(db.schema, initial),
            }
        if method == "monitor_cancel":
            (monitor_id,) = params
            monitor = (conn.session or {}).pop(monitor_id, None)
            if monitor is not None:
                db.remove_monitor(monitor)
            return {}
        if method in lease.METHODS:
            fn, key = lease.METHODS[method]
            return {key: fn(db.transact, *params)}
        raise ProtocolError(f"unknown method {method!r}")

    def _push(self, conn: RpcConnection, monitor, updates: TableUpdates) -> None:
        if conn.closed:
            return
        params = [monitor.monitor_id, updates_to_wire(self.db.schema, updates)]
        # push runs inside the commit's delivery, i.e. inside its
        # update-id scope; forward the id on the wire so remote
        # controllers keep the trace.
        uid = current_update_id()
        if uid is not None:
            params.append(uid)
        # On the thread that drains deliveries: commit order is send order.
        conn.send(make_notification("update", params))
