"""Event-loop transport: framed JSON-RPC peers on a shared reactor.

:class:`AioConnection` is the one reconnecting transport — every
P4Runtime client and the management client ride it — on a
:class:`~repro.net.reactor.Reactor`:

* framed JSON-RPC (``repro.mgmt.jsonrpc``);
* **write-through sends with high/low watermarks**
  (:class:`SocketWriter`, shared with every server's connections) —
  a frame goes straight to the socket and only what the kernel did not
  take is buffered; past the high watermark the connection reports
  itself unwritable and fires ``on_drain`` callbacks once the remainder
  falls under the low one, so producers can flow-control instead of
  ballooning memory;
* **pending-call correlation** — requests carry ids; responses resolve
  callbacks on the loop thread.  Each call records an absolute
  deadline, and a connection arms **one** reactor timer, at the
  earliest of them: it re-arms when that timer fires or when a new
  call's deadline is earlier (the heartbeat's shorter timeout), so a
  call answered in time costs no timer work at all;
* **reconnect with backoff, heartbeat, and state history** per a
  :class:`~repro.net.retry.RetryPolicy`, all timers, no threads::

      connected --transport error--> retrying --success--> connected
           |                            |
           |                            +--attempts exhausted--> broken
           +----------- close() from any state ----------------> closed

  Liveness is probed with the wire protocol's ``echo`` when the policy
  enables a heartbeat; a failed probe tears the socket down into
  ``retrying`` instead of waiting for TCP timeouts.

Loop discipline: everything suffixed ``_on_loop`` (and every readiness
or timer callback) runs on the reactor thread and must not block.
Notifications are delivered there too, inline and in wire order, and
so are reconnect hooks.  The public surface (``call``, ``call_async``,
``close``, ``health``, ``wait_connected``) is thread-safe.
"""

from __future__ import annotations

import errno
import selectors
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import ConnectionLostError, ProtocolError, ReproError
from repro.mgmt.jsonrpc import FrameReader, dumps, frame_request
from repro.net.reactor import Reactor, Timer
from repro.net.retry import RetryPolicy

CONNECTED = "connected"
RETRYING = "retrying"
BROKEN = "broken"
CLOSED = "closed"

#: Default write-buffer watermarks: past ``HIGH`` the connection stops
#: reporting itself writable; ``on_drain`` callbacks fire once the
#: buffer empties below ``LOW``.
HIGH_WATERMARK = 256 * 1024
LOW_WATERMARK = 64 * 1024

_EINPROGRESS = {errno.EINPROGRESS, errno.EWOULDBLOCK, errno.EALREADY}


class SocketWriter:
    """Write-through sender for one connected non-blocking socket.

    :meth:`send` writes straight to the socket; only what the kernel
    did not take is buffered, and the selector is armed for
    ``EVENT_WRITE`` only while such a remainder exists — the common
    frame costs one ``send`` and no ``epoll_ctl``.  At ``high``
    buffered bytes the writer stops reporting itself writable; once
    :meth:`flush` has the remainder under ``low`` the parked
    :meth:`on_drain` callbacks fire.

    Loop thread only.  ``on_io`` is the socket's readiness callback
    (the selector wants it again on every interest change) and must
    call :meth:`flush` on ``EVENT_WRITE``; ``on_error`` receives the
    ``OSError`` of a failed write; the owner tears the socket down,
    drops the writer and calls :meth:`release`.
    """

    def __init__(
        self,
        reactor: Reactor,
        sock: socket.socket,
        on_io: Callable[[int], None],
        on_error: Callable[[OSError], None],
        high: int = HIGH_WATERMARK,
        low: int = LOW_WATERMARK,
    ):
        self._reactor = reactor
        self._sock = sock
        self._on_io = on_io
        self._on_error = on_error
        self.high = high
        self.low = low
        self._buf = bytearray()
        self._paused = False
        self._drain_cbs: List[Callable[[], None]] = []
        #: Fewer than ``high`` bytes are buffered (kept up to date by
        #: :meth:`send` and :meth:`flush`, the only writers of the buffer).
        self.writable = True

    @property
    def pending(self) -> int:
        """Bytes accepted by :meth:`send` and not yet by the kernel."""
        return len(self._buf)

    def send(self, data: bytes) -> None:
        if self._buf:
            self._buf += data  # in order, behind the remainder
        else:
            try:
                sent = self._sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError as exc:
                self._on_error(exc)
                return
            if sent == len(data):
                return
            self._buf += memoryview(data)[sent:]
            self._reactor.modify(
                self._sock,
                selectors.EVENT_READ | selectors.EVENT_WRITE,
                self._on_io,
            )
        if len(self._buf) >= self.high:
            self._paused = True
            self.writable = False

    def flush(self) -> None:
        """The socket is writable again: push the remainder."""
        if self._buf:
            try:
                sent = self._sock.send(self._buf)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self._on_error(exc)
                return
            del self._buf[:sent]
            self.writable = len(self._buf) < self.high
        if not self._buf:
            self._reactor.modify(
                self._sock, selectors.EVENT_READ, self._on_io
            )
        if self._paused and len(self._buf) <= self.low:
            self.release()

    def on_drain(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the remainder is under the low
        watermark — now, unless the high one was reached since."""
        if self._paused:
            self._drain_cbs.append(callback)
        else:
            callback()

    def release(self) -> None:
        """Un-park the ``on_drain`` producers: the remainder drained —
        or the owner is tearing the socket down and the remainder died
        with it, so their next send fails fast into the owner's error
        path instead of wedging.  Every callback runs even when one
        raises (the reactor counts each failure)."""
        self._paused = False
        drains, self._drain_cbs = self._drain_cbs, []
        for callback in drains:
            try:
                callback()
            except Exception as exc:  # noqa: BLE001 - one producer's bug
                self._reactor.note_callback_error(exc)


def _reading(callback: Callable, read: Callable) -> Callable:
    """``callback`` given what ``read`` makes of an answer."""

    def answered(result, error) -> None:
        if error is None:
            try:
                result = read(result)
            except Exception as exc:  # noqa: BLE001 - a malformed answer
                result, error = None, exc
        callback(result, error)

    return answered


class AioConnection:
    """A reconnecting framed JSON-RPC peer on a :class:`Reactor`.

    Callback contract: ``call_async`` callbacks run **on the loop
    thread** as ``callback(result, error)`` with exactly one of the two
    set (``error`` is an exception instance).  ``on_notification`` runs
    on the loop thread too, once per notification in wire order, and
    must not block: a blocking :meth:`call` from it raises
    :class:`~repro.errors.ReproError`, which the reactor counts like
    any callback error before the next notification is delivered.
    ``on_reconnect`` hooks run the same way, each in turn right after
    ``on_connect``: one that raises is counted and the next still runs.
    """

    def __init__(
        self,
        host: str,
        port: int,
        reactor: Reactor,
        policy: Optional[RetryPolicy] = None,
        name: str = "aio-rpc",
        on_notification: Optional[Callable[[dict], None]] = None,
        on_connect: Optional[Callable[[], None]] = None,
        error_type: type = ReproError,
        high_watermark: int = HIGH_WATERMARK,
        low_watermark: int = LOW_WATERMARK,
    ):
        self.host = host
        self.port = port
        self.reactor = reactor
        self.policy = policy or RetryPolicy()
        self.name = name
        self.error_type = error_type
        self._on_notification = on_notification
        #: ``on_connect(conn)`` runs on the **loop thread** immediately
        #: after every successful connect (first and re-), before any
        #: queued producer calls are dispatched — session setup issued
        #: here via :meth:`call_async` is guaranteed to be the first
        #: frames on the fresh connection (e.g. the farm's
        #: ``bind_device``).  It receives the connection because the
        #: first connect can complete before the constructor returns.
        self._on_connect = on_connect
        self._on_reconnect: List[Callable[[], None]] = []
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark

        # Loop-thread state.
        self._sock: Optional[socket.socket] = None
        self._connecting = False
        self._connect_timer: Optional[Timer] = None
        self._frames = FrameReader()
        #: The connected socket's sender (``None`` while not connected).
        self._writer: Optional[SocketWriter] = None
        #: Request id → ``(method, callback, deadline)``; the deadline
        #: is an absolute ``time.monotonic`` instant, or ``None``.
        self._pending: Dict[int, Tuple[str, Callable, Optional[float]]] = {}
        #: The one deadline timer, armed for the instant ``_deadline_at``
        #: (``None``: none armed).  A resolved call leaves it be.
        self._deadline_timer: Optional[Timer] = None
        self._deadline_at: Optional[float] = None
        self._next_id = 0
        self._delays = None
        self._ever_connected = False
        self._hb_inflight = False

        # Cross-thread state.
        self._cond = threading.Condition()
        self._state = RETRYING
        self._closed = False

        # Health history.
        self.transitions: List[str] = []
        self.connect_attempts = 0
        self.reconnects = 0
        self.retry_count = 0
        self.last_error: Optional[str] = None

        reactor.start()
        reactor.submit(self._begin_connect)
        if self.policy.heartbeat_interval > 0:
            reactor.call_later(
                self.policy.heartbeat_interval, self._heartbeat
            )

    # -- state (thread-safe) -------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def connected(self) -> bool:
        return self._state == CONNECTED

    @property
    def send_buffer_bytes(self) -> int:
        """Outbound bytes the kernel has not taken yet (the per-device
        backlog gauge) — 0 unless the peer reads slower than we send."""
        writer = self._writer
        return writer.pending if writer is not None else 0

    @property
    def writable(self) -> bool:
        """False while the outbound buffer is past the high watermark."""
        writer = self._writer
        return writer is None or writer.writable

    def wait_connected(self, timeout: Optional[float] = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._state not in (CONNECTED, BROKEN, CLOSED):
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return self._state == CONNECTED

    def note_event(self, tag: str) -> None:
        self.transitions.append(tag)

    def health(self) -> Dict[str, object]:
        return {
            "peer": f"{self.host}:{self.port}",
            "state": self._state,
            "transitions": list(self.transitions),
            "connect_attempts": self.connect_attempts,
            "reconnects": self.reconnects,
            "retry_count": self.retry_count,
            "last_error": self.last_error,
            "send_buffer_bytes": self.send_buffer_bytes,
        }

    def on_reconnect(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` on the loop thread after each successful
        *re*-connect, in registration order.  It must not block; one
        that raises is counted and the next hook still runs."""
        self._on_reconnect.append(callback)

    def on_drain(self, callback: Callable[[], None]) -> None:
        """One-shot: run ``callback`` on the loop thread once the write
        buffer falls below the low watermark (immediately if already
        there)."""

        def arm():
            if self._writer is None:
                callback()
            else:
                self._writer.on_drain(callback)

        self.reactor.submit(arm)

    def _set_state(self, state: str) -> None:
        with self._cond:
            if state == self._state:
                return
            self._state = state
            self.transitions.append(state)
            self._cond.notify_all()
        if obs.ENABLED:
            obs.REGISTRY.counter(
                "net_transitions_total", conn=self.name, state=state
            ).inc()

    def _note_error(self, exc: BaseException) -> None:
        self.last_error = str(exc) or type(exc).__name__

    # -- calls (thread-safe) -------------------------------------------------

    def call_async(
        self,
        method: str,
        params,
        callback: Callable,
        timeout: Optional[float] = None,
        read: Optional[Callable] = None,
    ) -> None:
        """Issue a request; ``callback(result, error)`` fires on the
        loop thread when the response, a per-call deadline, or a
        transport loss resolves it.  A connection that is not currently
        usable fails the call immediately with
        :class:`ConnectionLostError` — backpressure-aware callers park
        on :meth:`wait_connected` or a reconnect hook instead.
        ``read(answer)``, if given, runs on the loop as the answer is
        read, before any frame behind it: what it returns is the
        call's result, and what it raises the call's error.

        ``params`` is a JSON-able value or, as ``bytes``, its
        serialisation (:func:`~repro.mgmt.jsonrpc.dumps`) — a payload
        fanned out to many connections is encoded once.  On the loop
        thread the request goes out before this returns (from an
        ``on_connect`` hook: ahead of anything queued via ``submit``);
        any other thread encodes here and hops to the loop."""
        if not isinstance(params, bytes):
            params = dumps(params)
        if read is not None:
            callback = _reading(callback, read)
        if threading.get_ident() == self.reactor.ident:
            self._start_call_on_loop(method, params, callback, timeout)
        else:
            self.reactor.submit(
                self._start_call_on_loop, method, params, callback, timeout
            )

    def call(
        self,
        method: str,
        params,
        retryable: bool = False,
        timeout: Optional[float] = None,
        read: Optional[Callable] = None,
    ) -> object:
        """Blocking wrapper over :meth:`call_async`: waits out
        reconnects up to the call timeout and re-issues ``retryable``
        (idempotent reads, echo) methods whose transport died mid-call.
        Mutations are never auto-retried — a lost response leaves it
        unknown whether they applied, and recovery for those is the
        controller's reconcile path, not blind resend.

        Off-loop threads only: the loop thread is the one that reads
        the response, so blocking it here could never return."""
        if threading.get_ident() == self.reactor.ident:
            raise ReproError(
                f"blocking call to {method} from the reactor loop thread "
                "(use call_async)"
            )
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.policy.call_timeout
        )
        while True:
            self._check_usable(method)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolError(f"timeout waiting for {method} response")
            if not self.wait_connected(remaining):
                self._check_usable(method)
                raise ProtocolError(f"timeout waiting for {method} response")
            box: dict = {}
            done = threading.Event()

            def resolve(result, error, box=box, done=done):
                box["result"] = result
                box["error"] = error
                done.set()

            remaining = max(0.001, deadline - time.monotonic())
            self.call_async(
                method, params, resolve, timeout=remaining, read=read
            )
            # The reactor owns the per-call deadline; the grace margin
            # only covers a stopped reactor.
            if not done.wait(remaining + 2.0):
                raise ProtocolError(f"timeout waiting for {method} response")
            error = box.get("error")
            if error is None:
                return box.get("result")
            if isinstance(error, ConnectionLostError) and retryable:
                continue
            raise error

    def _check_usable(self, method: str) -> None:
        if self._closed or self._state == CLOSED:
            raise ConnectionLostError(f"connection closed (calling {method})")
        if self._state == BROKEN:
            raise ConnectionLostError(
                f"connection broken after {self.retry_count} "
                f"reconnect attempt(s) (calling {method}): {self.last_error}"
            )

    # -- loop-side call machinery --------------------------------------------

    def _start_call_on_loop(
        self, method: str, params: bytes, callback, timeout
    ) -> None:
        if self._closed or self._state in (BROKEN, CLOSED):
            callback(
                None,
                ConnectionLostError(f"connection closed (calling {method})"),
            )
            return
        if self._state != CONNECTED or self._writer is None:
            callback(
                None,
                ConnectionLostError(
                    f"connection lost sending {method} (reconnecting)"
                ),
            )
            return
        self._next_id += 1
        request_id = self._next_id
        try:
            frame = frame_request(method, params, request_id)
        except ProtocolError as exc:
            # Frame too large — a caller bug, not a transport fault.
            callback(None, exc)
            return
        deadline = None
        if timeout is not None:
            deadline = time.monotonic() + timeout
            self._arm_deadline(deadline)
        self._pending[request_id] = (method, callback, deadline)
        self._writer.send(frame)

    def _arm_deadline(self, deadline: float) -> None:
        """Have the connection's one deadline timer fire by ``deadline``:
        re-arm it unless it is armed for that instant or earlier."""
        if self._deadline_at is not None and self._deadline_at <= deadline:
            return
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()
        self._deadline_at = deadline
        self._deadline_timer = self.reactor.call_later(
            deadline - time.monotonic(), self._deadlines_due
        )

    def _deadlines_due(self) -> None:
        """The deadline timer fired: fail every expired call, earliest
        first, then re-arm for the earliest deadline still pending."""
        self._deadline_timer = self._deadline_at = None
        now = time.monotonic()
        expired = sorted(
            (deadline, request_id)
            for request_id, (_, _, deadline) in self._pending.items()
            if deadline is not None and deadline <= now
        )
        for _, request_id in expired:
            # A callback may have torn the connection down, failing the
            # rest as lost instead.
            call = self._pending.pop(request_id, None)
            if call is not None:
                method, callback, _ = call
                callback(
                    None,
                    ProtocolError(f"timeout waiting for {method} response"),
                )
        earliest = min(
            (deadline for _, _, deadline in self._pending.values()
             if deadline is not None),
            default=None,
        )
        if earliest is not None:
            self._arm_deadline(earliest)

    def _fail_pending(self, why: str) -> None:
        pending = list(self._pending.values())
        self._pending.clear()
        for method, callback, _ in pending:
            callback(
                None,
                ConnectionLostError(
                    f"connection lost awaiting {method} response: {why}"
                ),
            )

    # -- transport (loop thread only) ----------------------------------------

    def _begin_connect(self) -> None:
        if self._closed:
            return
        self.connect_attempts += 1
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        err = sock.connect_ex((self.host, self.port))
        if err != 0 and err not in _EINPROGRESS:
            sock.close()
            self._retry_later(OSError(err, errno.errorcode.get(err, "?")))
            return
        self._sock = sock
        self._connecting = True
        self.reactor.register(sock, selectors.EVENT_WRITE, self._on_io)
        self._connect_timer = self.reactor.call_later(
            self.policy.connect_timeout, self._connect_timed_out
        )

    def _connect_timed_out(self) -> None:
        if self._connecting:
            self._transport_error(
                OSError(errno.ETIMEDOUT, "connect timed out")
            )

    def _finish_connect(self) -> None:
        sock = self._sock
        err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err != 0:
            self._transport_error(
                OSError(err, errno.errorcode.get(err, "?"))
            )
            return
        if sock.getsockname() == sock.getpeername():
            # TCP self-connection: rapidly retrying an ephemeral-range
            # port with no listener can simultaneous-open onto itself.
            # The "connection" would echo our own bytes back AND hold
            # the port hostage against the real server's bind.
            self._transport_error(
                ConnectionError("refusing TCP self-connection")
            )
            return
        self._connecting = False
        if self._connect_timer is not None:
            self._connect_timer.cancel()
            self._connect_timer = None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._delays = None
        was_reconnect = self._ever_connected
        self._ever_connected = True
        if was_reconnect:
            self.reconnects += 1
            if obs.ENABLED:
                obs.REGISTRY.counter(
                    "net_reconnects_total", conn=self.name
                ).inc()
        self.reactor.modify(sock, selectors.EVENT_READ, self._on_io)
        self._writer = SocketWriter(
            self.reactor,
            sock,
            self._on_io,
            self._transport_error,
            self.high_watermark,
            self.low_watermark,
        )
        self._set_state(CONNECTED)
        if self._on_connect is not None:
            # Synchronous, on the loop thread: frames issued here
            # precede every call queued behind the reconnect.
            self._on_connect(self)
        if was_reconnect:
            # The dead session's notifications were all delivered on
            # this thread before its socket was torn down, so a hook
            # that rebuilds session state never races an update
            # addressed to the state it replaces.
            for callback in list(self._on_reconnect):
                try:
                    callback()
                except Exception as exc:  # noqa: BLE001 - one hook's bug
                    self.reactor.note_callback_error(exc)

    def _on_io(self, mask: int) -> None:
        if self._sock is None:
            return
        if self._connecting:
            if mask & selectors.EVENT_WRITE:
                self._finish_connect()
            return
        if mask & selectors.EVENT_READ:
            self._do_read()
        if self._writer is not None and (mask & selectors.EVENT_WRITE):
            self._writer.flush()

    def _do_read(self) -> None:
        try:
            data = self.reactor.recv(self._sock)
        except OSError as exc:
            self._transport_error(exc)
            return
        if data is None:
            return
        if not data:
            self._transport_error(
                ConnectionLostError("peer closed connection")
            )
            return
        try:
            messages = self._frames.feed(data)
        except ProtocolError as exc:
            self._transport_error(exc)
            return
        pending = self._pending
        for message in messages:
            # jsonrpc.classify, inline: this runs once per frame.  A
            # request from the server, or junk, is skipped.
            if not isinstance(message, dict):
                continue
            if "method" not in message:
                call = pending.pop(message.get("id"), None)
                if call is None:
                    continue  # junk, or an answer to a call given up on
                _, callback, _ = call
                error = message.get("error")
                if error is not None:
                    callback(None, self.error_type(str(error)))
                else:
                    callback(message.get("result"), None)
            elif (
                message.get("id") is None
                and self._on_notification is not None
            ):
                # Inline, in wire order; a callback that raises is
                # counted and the frames behind it are still delivered.
                try:
                    self._on_notification(message)
                except Exception as exc:  # noqa: BLE001 - one callback's bug
                    self.reactor.note_callback_error(exc)

    def _transport_error(self, exc: BaseException) -> None:
        self._note_error(exc)
        self._teardown_socket()
        self._fail_pending(str(exc) or type(exc).__name__)
        if self._closed:
            return
        self._set_state(RETRYING)
        if self._delays is None:
            self._delays = self.policy.delays()
        try:
            delay = next(self._delays)
        except StopIteration:
            self._set_state(BROKEN)
            return
        self.retry_count += 1
        self.reactor.call_later(delay, self._begin_connect)

    def _teardown_socket(self) -> None:
        if self._connect_timer is not None:
            self._connect_timer.cancel()
            self._connect_timer = None
        self._connecting = False
        sock, self._sock = self._sock, None
        writer, self._writer = self._writer, None
        self._frames = FrameReader()
        if sock is not None:
            self.reactor.unregister(sock)
            try:
                sock.close()
            except OSError:
                pass
        # Producers parked on the watermark must not wedge when the
        # transport dies: their next send fails fast into the
        # reconnect/breaker path.
        if writer is not None:
            writer.release()

    # -- heartbeat (loop thread only) ----------------------------------------

    def _heartbeat(self) -> None:
        if self._closed:
            return
        if self._state == CONNECTED and not self._hb_inflight:
            self._hb_inflight = True

            def done(result, error):
                self._hb_inflight = False
                if error is not None and self._state == CONNECTED:
                    self._note_error(error)
                    self._transport_error(error)

            self.call_async(
                "echo",
                ["heartbeat"],
                done,
                min(self.policy.call_timeout, self.policy.heartbeat_interval),
            )
        self.reactor.call_later(
            self.policy.heartbeat_interval, self._heartbeat
        )

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Idempotent; fails all pending calls."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
        submitted = self.reactor.submit(self._close_on_loop)
        if not submitted:
            # Reactor already stopped: tear down inline (no loop-thread
            # races remain once the loop is gone).
            self._close_on_loop()

    def _close_on_loop(self) -> None:
        self._set_state(CLOSED)
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()
        self._fail_pending("connection closed")
        self._teardown_socket()
