"""Event-loop transport: one reactor multiplexing thousands of peers.

:class:`Reactor` is a selector-based event loop on a single thread —
readiness callbacks, cross-thread ``submit``, and ``call_later`` timers
— sized so that *connections are cheap*: an :class:`AioConnection`
costs two buffers and a selector registration, not the reader thread +
heartbeat thread + dispatcher thread a
:class:`~repro.net.resilient.ResilientConnection` spends.  That is the
difference between a fleet of hundreds of devices (one OS thread each)
and thousands (one loop for all of them).

:class:`AioConnection` ports the resilient transport's semantics onto
the loop:

* the same framed JSON-RPC protocol (``repro.mgmt.jsonrpc``);
* **write buffering with high/low watermarks** — sends append to an
  outbound buffer flushed on socket writability; past the high
  watermark the connection reports itself unwritable and fires
  ``on_drain`` callbacks once the buffer falls under the low one, so
  producers can flow-control instead of ballooning memory;
* **pending-call correlation** — requests carry ids; responses resolve
  callbacks on the loop thread, per-call deadlines fire as timers;
* **reconnect with backoff, heartbeat, and state history** ported from
  ``ResilientConnection`` (same ``connected → retrying → broken``
  lattice, same :class:`~repro.net.retry.RetryPolicy` knobs), all
  implemented as timers instead of threads.

Loop discipline: everything suffixed ``_on_loop`` (and every readiness
or timer callback) runs on the reactor thread and must not block.
Blocking work — notification fan-out, reconnect hooks that resync a
device — is handed to the reactor's dispatcher thread or hook pool.
The public surface (``call``, ``call_async``, ``close``, ``health``,
``wait_connected``) is thread-safe.
"""

from __future__ import annotations

import errno
import itertools
import heapq
import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.errors import ConnectionLostError, ProtocolError, ReproError
from repro.mgmt.jsonrpc import (
    NotificationDispatcher,
    classify,
    decode_frames,
    encode_frame,
    make_request,
)
from repro.net.resilient import BROKEN, CLOSED, CONNECTED, RETRYING
from repro.net.retry import RetryPolicy

_RECV_CHUNK = 1 << 18

#: Default write-buffer watermarks: past ``HIGH`` the connection stops
#: reporting itself writable; ``on_drain`` callbacks fire once the
#: buffer empties below ``LOW``.
HIGH_WATERMARK = 256 * 1024
LOW_WATERMARK = 64 * 1024

_EINPROGRESS = {errno.EINPROGRESS, errno.EWOULDBLOCK, errno.EALREADY}


#: Below this many cancelled timers the heap is never rebuilt
#: (asyncio's ``_MIN_SCHEDULED_TIMER_HANDLES``).
_MIN_CANCELLED_TIMERS = 100


class Timer:
    """A cancellable ``call_later`` handle."""

    __slots__ = ("when", "fn", "cancelled", "_reactor")

    def __init__(self, when: float, fn: Callable[[], None], reactor: "Reactor"):
        self.when = when
        self.fn = fn
        self.cancelled = False
        self._reactor = reactor

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._reactor._timer_cancelled()


class Reactor:
    """A selector event loop plus its helper executors.

    One reactor serves any number of connections and fan-out channels.
    It owns three things callbacks must never do on the loop thread:

    * ``dispatcher`` — a single FIFO thread for notification callbacks
      (digests, packet-ins), mirroring the resilient transport's
      per-connection dispatcher but shared loop-wide;
    * ``run_hook`` — a small pool for reconnect hooks, which block for
      whole resync round trips and must not serialize behind each
      other during a fleet-wide reconnect storm;
    * the loop-lag histogram ``reactor_loop_lag_seconds`` — how late
      submitted callbacks and timers run versus when they were due,
      the canonical "is the loop overloaded" signal.
    """

    def __init__(self, name: str = "aio"):
        self.name = name
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(
            self._wake_r, selectors.EVENT_READ, self._drain_wakeup
        )
        self._pending: deque = deque()  # (fn, args, enqueued_at)
        self._lock = threading.Lock()
        self._timers: list = []  # heap of (when, tiebreak, Timer)
        #: cancel() calls not yet matched by a pop: an upper bound on
        #: the cancelled entries still in the heap (a timer cancelled
        #: after it fired is counted too, and costs one early rebuild).
        self._cancelled_timers = 0
        self._timer_seq = itertools.count()
        self._closed = False
        self._started = False
        self._thread = threading.Thread(
            target=self._run, name=f"{name}-reactor", daemon=True
        )
        self.dispatcher = NotificationDispatcher(f"{name}-dispatch")
        self._hook_pool = None
        self._hook_pool_lock = threading.Lock()
        #: Loop iterations served (coarse liveness counter for tests).
        self.loops = 0
        #: Last exception raised by a readiness/timer/submitted
        #: callback (callbacks must not kill the loop; this is the
        #: debugging breadcrumb when one misbehaves).
        self.last_callback_error: Optional[BaseException] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Reactor":
        with self._lock:
            if self._started or self._closed:
                return self
            self._started = True
        self._thread.start()
        return self

    @property
    def closed(self) -> bool:
        return self._closed

    def in_loop(self) -> bool:
        return threading.current_thread() is self._thread

    def stop(self) -> None:
        """Stop the loop and its executors; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wakeup()
        if self._started and not self.in_loop():
            self._thread.join(timeout=5.0)
        self.dispatcher.close()
        with self._hook_pool_lock:
            pool = self._hook_pool
            self._hook_pool = None
        if pool is not None:
            pool.shutdown(wait=False)
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass

    # -- scheduling ----------------------------------------------------------

    def submit(self, fn: Callable, *args) -> bool:
        """Schedule ``fn(*args)`` on the loop thread.

        Returns False (and does nothing) once the reactor is stopped —
        shutdown is best-effort, like a closed queue's ``put``.
        """
        with self._lock:
            if self._closed:
                return False
            self._pending.append((fn, args, time.perf_counter()))
        self._wakeup()
        return True

    def call_later(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Schedule ``fn()`` on the loop thread after ``delay`` seconds."""
        timer = Timer(time.monotonic() + max(0.0, delay), fn, self)
        with self._lock:
            if self._closed:
                timer.cancelled = True
                return timer
            heapq.heappush(
                self._timers, (timer.when, next(self._timer_seq), timer)
            )
        self._wakeup()
        return timer

    def run_hook(self, fn: Callable, *args) -> None:
        """Run a potentially-blocking callback on the hook pool."""
        from concurrent.futures import ThreadPoolExecutor

        with self._hook_pool_lock:
            if self._closed:
                return
            if self._hook_pool is None:
                self._hook_pool = ThreadPoolExecutor(
                    max_workers=4, thread_name_prefix=f"{self.name}-hook"
                )
            self._hook_pool.submit(fn, *args)

    # -- fd registration (loop thread only) ----------------------------------

    def register(self, sock, events: int, callback) -> None:
        self._selector.register(sock, events, callback)

    def modify(self, sock, events: int, callback) -> None:
        self._selector.modify(sock, events, callback)

    def unregister(self, sock) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass

    # -- the loop ------------------------------------------------------------

    def _wakeup(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (OSError, ValueError):
            pass

    def _drain_wakeup(self, mask: int) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass

    def _next_timeout(self) -> Optional[float]:
        with self._lock:
            if self._pending:
                return 0.0
            # A cancelled timer is only ever popped at the head, so a
            # per-call deadline that never fires would sit here for its
            # whole timeout.  Rebuild without them once they are more
            # than half of the heap (the asyncio rule): amortised O(1)
            # per cancel, heap size O(live timers).
            if (
                self._cancelled_timers > _MIN_CANCELLED_TIMERS
                and self._cancelled_timers * 2 > len(self._timers)
            ):
                self._timers = [e for e in self._timers if not e[2].cancelled]
                heapq.heapify(self._timers)
                self._cancelled_timers = 0
            while self._timers and self._timers[0][2].cancelled:
                heapq.heappop(self._timers)
                self._cancelled_timers -= 1
            if self._timers:
                return max(0.0, self._timers[0][0] - time.monotonic())
        return None

    def _timer_cancelled(self) -> None:
        with self._lock:
            self._cancelled_timers += 1

    def _run(self) -> None:
        while not self._closed:
            timeout = self._next_timeout()
            try:
                events = self._selector.select(timeout)
            except OSError:
                continue
            self.loops += 1
            if self._closed:
                break
            for key, mask in events:
                try:
                    key.data(mask)
                except Exception as exc:  # noqa: BLE001 - loop must survive
                    self._note_callback_error(exc)
            self._run_timers()
            self._run_pending()
        # ``submit`` refuses work once ``_closed`` is set, so this last
        # pass is bounded: callbacks accepted before ``stop()`` (above
        # all connection closes) still run and close their sockets
        # instead of leaving them to the garbage collector.
        self._run_pending()

    def _run_timers(self) -> None:
        now = time.monotonic()
        due: List[Timer] = []
        with self._lock:
            while self._timers and self._timers[0][0] <= now:
                _, _, timer = heapq.heappop(self._timers)
                if timer.cancelled:
                    self._cancelled_timers -= 1
                else:
                    due.append(timer)
        record = obs.enabled()
        for timer in due:
            if record:
                obs.REGISTRY.histogram("reactor_loop_lag_seconds").observe(
                    max(0.0, now - timer.when)
                )
            try:
                timer.fn()
            except Exception as exc:  # noqa: BLE001 - loop must survive
                self._note_callback_error(exc)

    def _run_pending(self) -> None:
        with self._lock:
            batch = list(self._pending)
            self._pending.clear()
        record = obs.enabled()
        started = time.perf_counter()
        for fn, args, enqueued in batch:
            if record:
                obs.REGISTRY.histogram("reactor_loop_lag_seconds").observe(
                    max(0.0, started - enqueued)
                )
            try:
                fn(*args)
            except Exception as exc:  # noqa: BLE001 - loop must survive
                self._note_callback_error(exc)

    def _note_callback_error(self, exc: BaseException) -> None:
        if obs.enabled():
            obs.REGISTRY.counter(
                "reactor_callback_errors_total", reactor=self.name
            ).inc()
        self.last_callback_error = exc


_default_reactor: Optional[Reactor] = None
_default_reactor_lock = threading.Lock()


def default_reactor() -> Reactor:
    """The process-wide reactor for callers that bring none of their own.

    Created and started on first use (never at import), shared by every
    later caller, and replaced if someone stopped it — so any number of
    stand-alone clients cost one loop thread between them.
    """
    global _default_reactor
    with _default_reactor_lock:
        if _default_reactor is None or _default_reactor.closed:
            _default_reactor = Reactor("default").start()
        return _default_reactor


class _AsyncCall:
    __slots__ = ("method", "callback", "timer")

    def __init__(self, method: str, callback, timer: Optional[Timer]):
        self.method = method
        self.callback = callback
        self.timer = timer


class AioConnection:
    """A reconnecting framed JSON-RPC peer on a :class:`Reactor`.

    Callback contract: ``call_async`` callbacks run **on the loop
    thread** as ``callback(result, error)`` with exactly one of the two
    set (``error`` is an exception instance).  ``on_notification`` runs
    on the reactor's dispatcher thread; ``on_reconnect`` hooks run on
    the hook pool (they may issue blocking calls on this connection).
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
        #: here via :meth:`call_now` is guaranteed to be the first
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
        self._inbuf = b""
        self._outbuf = bytearray()
        self._paused = False
        self._drain_cbs: List[Callable[[], None]] = []
        self._pending: Dict[int, _AsyncCall] = {}
        self._next_id = 0
        self._delays = None
        self._ever_connected = False
        self._hb_inflight = False

        # Cross-thread state.
        self._cond = threading.Condition()
        self._state = RETRYING
        self._closed = False

        # Health history, mirroring ResilientConnection.
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
        """Unsent outbound bytes (the per-device backlog gauge)."""
        return len(self._outbuf)

    @property
    def writable(self) -> bool:
        """False while the outbound buffer is past the high watermark."""
        return len(self._outbuf) < self.high_watermark

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
            "send_buffer_bytes": len(self._outbuf),
        }

    def on_reconnect(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` (on the hook pool) after each successful
        *re*-connect; it may issue blocking calls on this connection."""
        self._on_reconnect.append(callback)

    def on_drain(self, callback: Callable[[], None]) -> None:
        """One-shot: run ``callback`` on the loop thread once the write
        buffer falls below the low watermark (immediately if already
        there)."""

        def arm():
            if self.writable and not self._paused:
                callback()
            else:
                self._drain_cbs.append(callback)

        self.reactor.submit(arm)

    def _set_state(self, state: str) -> None:
        with self._cond:
            if state == self._state:
                return
            self._state = state
            self.transitions.append(state)
            self._cond.notify_all()
        if obs.enabled():
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
    ) -> None:
        """Issue a request; ``callback(result, error)`` fires on the
        loop thread when the response, a per-call deadline, or a
        transport loss resolves it.  A connection that is not currently
        usable fails the call immediately with
        :class:`ConnectionLostError` — backpressure-aware callers park
        on :meth:`wait_connected` or a reconnect hook instead."""
        self.reactor.submit(
            self._start_call_on_loop, method, params, callback, timeout
        )

    def call_now(
        self,
        method: str,
        params,
        callback: Callable,
        timeout: Optional[float] = None,
    ) -> None:
        """:meth:`call_async` without the cross-thread hop — **loop
        thread only**.  From an ``on_connect`` hook this puts the
        request on the wire ahead of anything queued via ``submit``."""
        self._start_call_on_loop(method, params, callback, timeout)

    def call(
        self,
        method: str,
        params,
        retryable: bool = False,
        timeout: Optional[float] = None,
    ) -> object:
        """Blocking wrapper over :meth:`call_async` with the resilient
        transport's contract: waits out reconnects up to the call
        timeout, auto-reissues ``retryable`` (idempotent) methods whose
        transport died mid-call, never auto-retries mutations.

        Off-loop threads only: the loop thread is the one that reads
        the response, so blocking it here could never return."""
        if self.reactor.in_loop():
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
            self.call_async(method, params, resolve, timeout=remaining)
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

    def _start_call_on_loop(self, method, params, callback, timeout) -> None:
        if self._closed or self._state in (BROKEN, CLOSED):
            callback(
                None,
                ConnectionLostError(f"connection closed (calling {method})"),
            )
            return
        if self._state != CONNECTED or self._sock is None:
            callback(
                None,
                ConnectionLostError(
                    f"connection lost sending {method} (reconnecting)"
                ),
            )
            return
        self._next_id += 1
        request_id = self._next_id
        timer = None
        if timeout is not None:
            timer = self.reactor.call_later(
                timeout, lambda: self._call_timed_out(request_id)
            )
        self._pending[request_id] = _AsyncCall(method, callback, timer)
        try:
            self._send_on_loop(make_request(method, params, request_id))
        except ProtocolError as exc:
            # Frame too large — a caller bug, not a transport fault.
            call = self._pending.pop(request_id, None)
            if call is not None:
                if call.timer is not None:
                    call.timer.cancel()
                callback(None, exc)

    def _call_timed_out(self, request_id: int) -> None:
        call = self._pending.pop(request_id, None)
        if call is not None:
            call.callback(
                None,
                ProtocolError(
                    f"timeout waiting for {call.method} response"
                ),
            )

    def _resolve_call(self, request_id, result, error) -> None:
        call = self._pending.pop(request_id, None)
        if call is None:
            return
        if call.timer is not None:
            call.timer.cancel()
        if error is not None:
            call.callback(None, self.error_type(str(error)))
        else:
            call.callback(result, None)

    def _fail_pending(self, why: str) -> None:
        pending = list(self._pending.items())
        self._pending.clear()
        for _, call in pending:
            if call.timer is not None:
                call.timer.cancel()
            call.callback(
                None,
                ConnectionLostError(
                    f"connection lost awaiting {call.method} response: {why}"
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
            # TCP self-connection (see ResilientConnection._connect).
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
            if obs.enabled():
                obs.REGISTRY.counter(
                    "net_reconnects_total", conn=self.name
                ).inc()
        self._update_interest()
        self._set_state(CONNECTED)
        if self._on_connect is not None:
            # Synchronous, on the loop thread: frames issued here (via
            # call_now) precede every call queued behind the reconnect.
            self._on_connect(self)
        if was_reconnect:
            for callback in list(self._on_reconnect):
                self.reactor.run_hook(self._run_reconnect_hook, callback)

    def _run_reconnect_hook(self, callback: Callable[[], None]) -> None:
        try:
            callback()
        except ReproError as exc:
            # Racing a second failure is normal; the next successful
            # reconnect runs the hook again.
            self._note_error(exc)

    def _update_interest(self) -> None:
        if self._sock is None:
            return
        events = selectors.EVENT_READ
        if self._outbuf or self._connecting:
            events |= selectors.EVENT_WRITE
        self.reactor.modify(self._sock, events, self._on_io)

    def _on_io(self, mask: int) -> None:
        if self._sock is None:
            return
        if self._connecting:
            if mask & selectors.EVENT_WRITE:
                self._finish_connect()
            return
        if mask & selectors.EVENT_READ:
            self._do_read()
        if self._sock is not None and (mask & selectors.EVENT_WRITE):
            self._do_write()

    def _do_read(self) -> None:
        try:
            data = self._sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._transport_error(exc)
            return
        if not data:
            self._transport_error(
                ConnectionLostError("peer closed connection")
            )
            return
        try:
            messages, self._inbuf = decode_frames(self._inbuf + data)
        except ProtocolError as exc:
            self._transport_error(exc)
            return
        for message in messages:
            try:
                kind = classify(message)
            except ProtocolError:
                continue
            if kind == "response":
                self._resolve_call(
                    message["id"],
                    message.get("result"),
                    message.get("error"),
                )
            elif kind == "notification" and self._on_notification is not None:
                self.reactor.dispatcher.submit(
                    self._on_notification, message
                )

    def _do_write(self) -> None:
        if not self._outbuf:
            self._update_interest()
            return
        try:
            sent = self._sock.send(memoryview(self._outbuf))
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._transport_error(exc)
            return
        del self._outbuf[:sent]
        if not self._outbuf:
            self._update_interest()
        if self._paused and len(self._outbuf) <= self.low_watermark:
            self._paused = False
            drains, self._drain_cbs = self._drain_cbs, []
            for cb in drains:
                cb()

    def _send_on_loop(self, message: dict) -> None:
        frame = encode_frame(message)
        was_empty = not self._outbuf
        self._outbuf.extend(frame)
        if len(self._outbuf) >= self.high_watermark:
            self._paused = True
        if was_empty:
            self._update_interest()

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
        self._inbuf = b""
        self._outbuf = bytearray()
        self._paused = False
        drains, self._drain_cbs = self._drain_cbs, []
        if sock is not None:
            self.reactor.unregister(sock)
            try:
                sock.close()
            except OSError:
                pass
        # Producers parked on the watermark must not wedge when the
        # transport dies: the buffer is gone, so they are "drained" —
        # their next send fails fast into the reconnect/breaker path.
        for cb in drains:
            cb()

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

            self._start_call_on_loop(
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
        self._fail_pending("connection closed")
        self._teardown_socket()
