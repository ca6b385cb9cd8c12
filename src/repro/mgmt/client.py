"""Blocking client for the management protocol.

Transport (socket, reconnection, heartbeat, call deadlines) is an
:class:`~repro.net.aio.AioConnection` on a :class:`~repro.net.reactor.Reactor`
the client owns and stops in :meth:`ManagementClient.close`; this layer
keeps only protocol knowledge: monitor bookkeeping, schema caching, and
decoding wire rows into :class:`~repro.mgmt.monitor.TableUpdates`.
Like every client here it dials in the background: an unreachable
address fails the first call, not the constructor.  An open client
costs one thread, its loop, which also runs the monitor callbacks.

When the underlying connection is lost and re-established, all monitor
subscriptions are invalid — the server (possibly a fresh process) has
no memory of them.  The client drops its local monitor table and fires
registered ``on_reconnect`` callbacks; the Nerpa controller uses that
hook to re-subscribe and reconcile (see
:meth:`repro.core.controller.NerpaController.health`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import TransactionError
from repro.mgmt.monitor import TableUpdates, updates_from_wire
from repro.mgmt.schema import DatabaseSchema
from repro.net.aio import AioConnection
from repro.net.reactor import Reactor
from repro.net.retry import RetryPolicy
from repro.obs.trace import use_update_id

_DEFAULT_TIMEOUT = 30.0


class ManagementClient:
    """Connects to a :class:`~repro.mgmt.server.ManagementServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = _DEFAULT_TIMEOUT,
        connect_timeout: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
    ):
        if policy is None:
            policy = RetryPolicy(
                connect_timeout=(
                    connect_timeout if connect_timeout is not None else 10.0
                ),
                call_timeout=timeout,
            )
        self.timeout = policy.call_timeout
        self._monitor_callbacks: Dict[str, Callable[[TableUpdates], None]] = {}
        self._schema: Optional[DatabaseSchema] = None
        # A loop of its own, not the fleet's: decoding a 100-row monitor
        # update must not sit between a device batch and its send, and
        # ``close()`` has a thread it may stop.
        self.conn = AioConnection(
            host,
            port,
            Reactor("mgmt-client"),
            policy=policy,
            name="mgmt-client",
            on_notification=self._handle_notification,
            error_type=TransactionError,
        )
        # Registered first, so it runs before every user hook.
        self.conn.on_reconnect(self._forget_monitors)

    # -- plumbing -----------------------------------------------------------

    def call(self, method: str, params, retryable: bool = False) -> object:
        return self.conn.call(method, params, retryable=retryable)

    def _handle_notification(self, message: dict) -> None:
        if message.get("method") != "update":
            return
        params = message["params"]
        monitor_id, wire_updates = params[0], params[1]
        # A third param (added by obs-enabled servers) is the transact's
        # update-id; rebind it so the monitor callback's downstream work
        # stays in the originating trace.
        uid = params[2] if len(params) > 2 else None
        callback = self._monitor_callbacks.get(monitor_id)
        if callback is None:
            return  # cancelled, or subscribed before a reconnect
        updates = updates_from_wire(self._schema, wire_updates)
        if uid is not None:
            with use_update_id(uid):
                callback(updates)
        else:
            callback(updates)

    def _forget_monitors(self) -> None:
        # Server-side monitor state died with the old connection; a
        # restarted server may not even share our schema cache.
        self._monitor_callbacks.clear()

    def on_reconnect(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` on the client's loop after each reconnect
        (monitors already cleared); use it to re-subscribe and
        reconcile.  It must not block — hand the blocking work to
        another loop, as the controller queues its reconcile on its own."""
        self.conn.on_reconnect(hook)

    def health(self) -> Dict[str, object]:
        return self.conn.health()

    # -- API ------------------------------------------------------------------

    def get_schema(self) -> DatabaseSchema:
        if self._schema is None:
            self._schema = DatabaseSchema.from_json(
                self.call("get_schema", [], retryable=True)
            )
        return self._schema

    def echo(self, payload) -> object:
        return self.call("echo", payload, retryable=True)

    def transact(self, operations) -> list:
        return self.call("transact", list(operations))

    def monitor(
        self,
        tables: Dict[str, Optional[list]],
        callback: Callable[[TableUpdates], None],
    ):
        """Subscribe; returns ``(monitor_id, initial TableUpdates)``.

        ``callback`` runs on the client's loop thread, in wire order, and
        must not block: a blocking call back into this client raises
        :class:`~repro.errors.ReproError` (counted as a callback error;
        the next update is still delivered).  Hand such work to another
        loop, as the controller does (``reactor.submit`` onto its own).
        The server answers a monitor before its first update, and
        ``callback`` is registered on the loop as the answer is read, so
        every update behind the snapshot reaches it.
        """
        self.get_schema()  # cache now: dispatch must not block on the wire

        def subscribed(answer: dict) -> dict:
            self._monitor_callbacks[answer["monitor_id"]] = callback
            return answer

        answer = self.conn.call("monitor", [tables], read=subscribed)
        initial = updates_from_wire(self._schema, answer["initial"])
        return answer["monitor_id"], initial

    def monitor_cancel(self, monitor_id: str) -> None:
        """Drop ``monitor_id``'s callback at once (no update read after
        this returns reaches it; one already being delivered on the
        loop may finish) and cancel it at the server without waiting
        for the answer, so any thread may call it, a loop's included
        (the server also drops a connection's monitors when it
        closes)."""
        self._monitor_callbacks.pop(monitor_id, None)
        self.conn.call_async(
            "monitor_cancel", [monitor_id], lambda _r, _e: None,
            timeout=self.conn.policy.call_timeout,
        )

    def close(self) -> None:
        self.conn.close()
        self.conn.reactor.stop()  # runs the queued close, joins the loop

    def __enter__(self) -> "ManagementClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
