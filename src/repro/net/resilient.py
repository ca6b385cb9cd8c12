"""A JSON-RPC connection that survives its transport.

:class:`ResilientConnection` owns everything both protocol clients used
to duplicate — the socket, the reader thread, the pending-call table,
and the notification dispatcher — and adds the part neither had: when
the transport dies it reconnects with exponential backoff (per a
:class:`~repro.net.retry.RetryPolicy`), fails the calls that were in
flight, and replays registered ``on_reconnect`` hooks so higher layers
can rebuild session state (monitor subscriptions, digest subscriptions,
device table contents).

State machine::

    connected --transport error--> retrying --success--> connected
         |                            |
         |                            +--attempts exhausted--> broken
         +----------- close() from any state ----------------> closed

Liveness is probed with the wire protocol's ``echo`` method when the
policy enables a heartbeat; a failed probe aborts the socket so the
reader notices immediately instead of waiting for TCP timeouts.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.errors import ConnectionLostError, ProtocolError, ReproError
from repro.mgmt.jsonrpc import (
    NotificationDispatcher,
    classify,
    encode_frame,
    make_request,
    recv_message,
)
from repro.net.retry import RetryPolicy

#: Sentinel stored in a pending call's error slot when the transport
#: died before a response arrived (distinguishes transport loss from a
#: real error response sent by the peer).
_LOST = object()

# Per-send non-blocking flag (0 where unsupported, degrading to the
# old blocking behavior; see _send_bounded for why it matters).
_MSG_DONTWAIT = getattr(socket, "MSG_DONTWAIT", 0)

CONNECTED = "connected"
RETRYING = "retrying"
BROKEN = "broken"
CLOSED = "closed"


class _PendingCall:
    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result = None
        self.error = None


class ResilientConnection:
    """Reconnecting request/response + notification transport.

    ``on_notification`` receives each notification message (a dict) on
    the dispatcher thread — it may issue calls on this connection.
    ``error_type`` is the exception class raised when the peer returns
    an error response (``TransactionError`` for the management plane,
    ``RuntimeApiError`` for P4Runtime).
    """

    def __init__(
        self,
        host: str,
        port: int,
        policy: Optional[RetryPolicy] = None,
        name: str = "rpc",
        on_notification: Optional[Callable[[dict], None]] = None,
        error_type: type = ReproError,
    ):
        self.host = host
        self.port = port
        self.policy = policy or RetryPolicy()
        self.name = name
        self.error_type = error_type
        self._on_notification = on_notification
        self._on_reconnect: List[Callable[[], None]] = []

        self._send_lock = threading.Lock()
        self._sock_lock = threading.Lock()
        self._pending: Dict[int, _PendingCall] = {}
        self._pending_lock = threading.Lock()
        self._next_id = 0

        self._closed = False
        self._close_lock = threading.Lock()
        self._closed_event = threading.Event()
        self._connected_event = threading.Event()

        # Observability: state history + counters for health reports.
        self._state = RETRYING
        self.transitions: List[str] = []
        self.connect_attempts = 0
        self.reconnects = 0
        self.retry_count = 0
        self.last_error: Optional[str] = None

        # First connect is synchronous and non-retrying so a bad
        # address fails loudly at construction time (legacy behavior).
        self.sock = self._connect()
        self._set_state(CONNECTED)
        self._connected_event.set()

        self._dispatcher = NotificationDispatcher(f"{name}-dispatch")
        self._reader = threading.Thread(
            target=self._run, name=f"{name}-reader", daemon=True
        )
        self._reader.start()
        if self.policy.heartbeat_interval > 0:
            threading.Thread(
                target=self._heartbeat_loop,
                name=f"{name}-heartbeat",
                daemon=True,
            ).start()

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def connected(self) -> bool:
        return self._state == CONNECTED

    def _set_state(self, state: str) -> None:
        if state != self._state:
            self._state = state
            self.transitions.append(state)
            if obs.enabled():
                obs.REGISTRY.counter(
                    "net_transitions_total", conn=self.name, state=state
                ).inc()

    def health(self) -> Dict[str, object]:
        return {
            "peer": f"{self.host}:{self.port}",
            "state": self._state,
            "transitions": list(self.transitions),
            "connect_attempts": self.connect_attempts,
            "reconnects": self.reconnects,
            "retry_count": self.retry_count,
            "last_error": self.last_error,
        }

    def on_reconnect(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` (on the dispatcher thread) after each
        successful reconnect.  It may issue calls on this connection."""
        self._on_reconnect.append(callback)

    # -- calls ---------------------------------------------------------------

    def call(self, method: str, params, retryable: bool = False) -> object:
        """Send a request, wait for its response.

        ``retryable=True`` marks the method safe to re-send if the
        transport dies mid-call (idempotent reads, echo).  Mutating
        calls are never auto-retried — a lost response leaves it
        unknown whether they applied, and recovery for those is the
        controller's reconcile path, not blind resend.
        """
        deadline = time.monotonic() + self.policy.call_timeout
        while True:
            self._check_usable(method)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolError(f"timeout waiting for {method} response")
            if not self._connected_event.wait(remaining):
                self._check_usable(method)
                raise ProtocolError(f"timeout waiting for {method} response")
            with self._pending_lock:
                if self._closed:
                    raise ConnectionLostError(
                        f"connection closed (calling {method})"
                    )
                self._next_id += 1
                request_id = self._next_id
                pending = _PendingCall()
                self._pending[request_id] = pending
            try:
                with self._sock_lock:
                    sock = self.sock
                with self._send_lock:
                    self._send_bounded(
                        sock, make_request(method, params, request_id), method
                    )
            except OSError as exc:
                with self._pending_lock:
                    self._pending.pop(request_id, None)
                self._note_error(exc)
                self._abort_socket()
                if retryable:
                    continue
                raise ConnectionLostError(
                    f"connection lost sending {method}: {exc}"
                ) from exc
            remaining = deadline - time.monotonic()
            if not pending.event.wait(max(0.0, remaining)):
                with self._pending_lock:
                    self._pending.pop(request_id, None)
                raise ProtocolError(f"timeout waiting for {method} response")
            if pending.error is _LOST:
                if retryable:
                    continue
                raise ConnectionLostError(
                    f"connection lost awaiting {method} response"
                )
            if pending.error is not None:
                raise self.error_type(str(pending.error))
            return pending.result

    def _send_bounded(self, sock, message: dict, method: str) -> None:
        """``sendall`` with a stall bound.

        A peer that accepted the connection but stopped reading lets
        the kernel send buffer fill; a bare ``sendall`` then blocks the
        caller forever (the reader thread sees nothing wrong — the
        connection is "up", just wedged).  Instead, wait for
        writability with ``select`` and send chunk by chunk under a
        deadline from ``RetryPolicy.send_timeout`` (default: the call
        timeout).  Expiry raises ``socket.timeout`` — an ``OSError`` —
        so the caller's transport-failure path aborts the socket into
        reconnect exactly as for any other send failure.
        """
        timeout = self.policy.send_timeout
        if timeout is None:
            timeout = self.policy.call_timeout
        deadline = time.monotonic() + timeout
        view = memoryview(encode_frame(message))
        while view.nbytes:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout(
                    f"send of {method} stalled for {timeout:.1f}s "
                    f"(peer not reading)"
                )
            try:
                _, writable, _ = select.select([], [sock], [], remaining)
            except ValueError as exc:
                # Socket torn down under us (concurrent abort): surface
                # as OSError so the caller's transport path handles it.
                raise OSError(f"socket closed during send: {exc}") from exc
            if not writable:
                raise socket.timeout(
                    f"send of {method} stalled for {timeout:.1f}s "
                    f"(peer not reading)"
                )
            # MSG_DONTWAIT is load-bearing: on a blocking socket, a
            # plain ``send`` of a buffer larger than the free kernel
            # space has sendall semantics on Linux — it returns only
            # once *everything* is queued, so a peer that stalls
            # mid-payload wedges the caller inside the send and the
            # deadline above never gets another look.  Non-blocking
            # per-attempt sends return partial progress instead.
            try:
                sent = sock.send(view, _MSG_DONTWAIT)
            except (BlockingIOError, InterruptedError):
                continue  # lost the race for buffer space; re-check deadline
            view = view[sent:]

    def _check_usable(self, method: str) -> None:
        """Fail fast instead of blocking when no response can ever come."""
        if self._closed:
            raise ConnectionLostError(f"connection closed (calling {method})")
        if self._state == BROKEN:
            raise ConnectionLostError(
                f"connection broken after {self.retry_count} "
                f"reconnect attempt(s) (calling {method}): {self.last_error}"
            )

    # -- transport lifecycle -------------------------------------------------

    def _connect(self) -> socket.socket:
        self.connect_attempts += 1
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.policy.connect_timeout
        )
        if sock.getsockname() == sock.getpeername():
            # TCP self-connection: rapidly retrying an ephemeral-range
            # port with no listener can simultaneous-open onto itself.
            # The "connection" would echo our own bytes back AND hold
            # the port hostage against the real server's bind.
            sock.close()
            raise ConnectionError("refusing TCP self-connection")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        return sock

    def _run(self) -> None:
        while True:
            try:
                self._read_until_failure()
            except (ProtocolError, OSError) as exc:
                self._note_error(exc)
            if self._closed:
                self._fail_all_pending()
                return
            # Order matters: flip to ``retrying`` BEFORE failing pending
            # calls, so callers unblocked by the failure observe (and
            # log, e.g. quarantine decisions) a consistent history.
            self._connected_event.clear()
            self._set_state(RETRYING)
            self._fail_all_pending()
            if not self._reconnect():
                return

    def _read_until_failure(self) -> None:
        with self._sock_lock:
            sock = self.sock
        while not self._closed:
            message = recv_message(sock)
            if message is None:
                self._note_error(ConnectionLostError("peer closed connection"))
                return
            kind = classify(message)
            if kind == "response":
                with self._pending_lock:
                    pending = self._pending.pop(message["id"], None)
                if pending is not None:
                    pending.result = message.get("result")
                    pending.error = message.get("error")
                    pending.event.set()
            elif kind == "notification" and self._on_notification is not None:
                self._dispatcher.submit(self._on_notification, message)

    def _reconnect(self) -> bool:
        delays = self.policy.delays()
        while not self._closed:
            try:
                sock = self._connect()
            except OSError as exc:
                self.retry_count += 1
                self._note_error(exc)
                try:
                    delay = next(delays)
                except StopIteration:
                    self._set_state(BROKEN)
                    self._fail_all_pending()
                    return False
                if self._closed_event.wait(delay):
                    return False
                continue
            # Decide under the lock ``close()``'s ``_abort_socket`` takes:
            # either it sees (and closes) the fresh socket, or we see
            # ``_closed`` and close it here — never neither.
            with self._sock_lock:
                if self._closed:
                    sock.close()
                    return False
                stale, self.sock = self.sock, sock
            stale.close()  # the reader is done with it; nobody else will
            self.reconnects += 1
            if obs.enabled():
                obs.REGISTRY.counter(
                    "net_reconnects_total", conn=self.name
                ).inc()
            self._set_state(CONNECTED)
            self._connected_event.set()
            for callback in list(self._on_reconnect):
                self._dispatcher.submit(self._run_reconnect_hook, callback)
            return True
        return False

    def _run_reconnect_hook(self, callback: Callable[[], None]) -> None:
        try:
            callback()
        except ReproError as exc:
            # A hook racing a second failure is normal; the next
            # successful reconnect will run it again.
            self._note_error(exc)

    def _heartbeat_loop(self) -> None:
        while not self._closed_event.wait(self.policy.heartbeat_interval):
            if self._state != CONNECTED:
                continue
            try:
                self.call("echo", ["heartbeat"], retryable=False)
            except ReproError as exc:
                self._note_error(exc)
                self._abort_socket()

    def _note_error(self, exc: BaseException) -> None:
        self.last_error = str(exc) or type(exc).__name__

    def _abort_socket(self) -> None:
        """Force the reader out of ``recv`` so reconnection starts now."""
        with self._sock_lock:
            sock = self.sock
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _fail_all_pending(self) -> None:
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for p in pending:
            p.error = _LOST
            p.event.set()

    def close(self) -> None:
        """Idempotent; fails all pending calls immediately."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._closed_event.set()
        self._set_state(CLOSED)
        self._dispatcher.close()
        self._fail_all_pending()
        self._abort_socket()
