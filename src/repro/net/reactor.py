"""The event loop: one thread multiplexing thousands of peers.

:class:`Reactor` is a selector-based event loop on a single thread —
readiness callbacks, cross-thread ``submit``, and ``call_later`` timers
— sized so that *connections are cheap*: a
:class:`~repro.net.aio.AioConnection` costs a buffer and a selector
registration, not a reader, a heartbeat and a dispatcher thread of its
own.  That is the difference between a fleet of hundreds of devices
(one OS thread each) and thousands (one loop for all of them).  A
reactor is exactly one thread.

Loop discipline: every readiness, timer, submitted, notification or
reconnect-hook callback runs on the reactor thread and must not block.
That includes a controller's in-process device services, which answer
its apply stage inline on its loop, and an HA replica's ticks, its
promotion and its demotion: its lease calls are non-blocking (answered
inline by an in-process database, over the management client's
connection otherwise).  A controller's engine transactions and
checkpoint saves are the long CPU-bound callbacks — a lease renew due
behind one runs late — and its management ``subscribe`` on recovery
or reconnect the one blocking call (allowed: a ``ManagementClient``
always runs on a reactor of its own).
``submit`` and ``call_later`` are thread-safe.  Work scheduled *from*
the loop thread costs no syscall (the loop re-reads its queue and timer
heap before it sleeps), and cross-thread calls share one wake byte per
loop turn.
"""

from __future__ import annotations

import heapq
import itertools
import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable, List, Optional

from repro import obs


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
    """A selector event loop on one thread.

    One reactor serves any number of connections and fan-out channels,
    and every callback it runs shares that thread.  It records the
    loop-lag histogram ``reactor_loop_lag_seconds`` — how late submitted
    callbacks and timers run versus when they were due, the canonical
    "is the loop overloaded" signal.
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
        self._recv_buffer = memoryview(bytearray(1 << 18))
        self._pending: deque = deque()  # (fn, args, enqueued_at)
        #: The ``_pending`` entry ``submit_merging`` appended last.
        self._merging: Optional[tuple] = None
        self._lock = threading.Lock()
        #: A wake byte is in the socket pair and the loop has not yet
        #: drained it: further cross-thread work rides on that wake.
        self._waking = False
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
        #: Loop iterations served (coarse liveness counter for tests).
        self.loops = 0
        #: Last exception raised by a readiness/timer/submitted or
        #: notification callback (callbacks must not kill the loop;
        #: this is the debugging breadcrumb when one misbehaves).
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
        """Stop the loop; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wakeup()
        if self._started and not self.in_loop():
            self._thread.join(timeout=5.0)
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
            wake = self._needs_wake()
        if wake:
            self._wakeup()
        return True

    def submit_merging(self, fn: Callable, item) -> bool:
        """``submit(fn, item)``, unless the newest call waiting is ``fn``
        on an item that absorbs this one (``waiting.coalesce(item)``
        returns the merge, not ``None``): then it merges there, on the
        caller's thread.  A producer that outruns the loop so hands it
        one call per turn, however many items it sent, and pays for the
        merging itself: the loop cannot fall behind it for good."""
        with self._lock:
            if self._closed:
                return False
            tail = self._merging
            if tail is not None and tail is self._pending[-1] and tail[0] == fn:
                merged = tail[1][0].coalesce(item)
                if merged is not None:
                    tail[1][0] = merged
                    return True
            self._merging = (fn, [item], time.perf_counter())
            self._pending.append(self._merging)
            wake = self._needs_wake()
        if wake:
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
            wake = self._needs_wake()
        if wake:
            self._wakeup()
        return timer

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

    def recv(self, sock) -> Optional[bytes]:
        """What a readable non-blocking socket holds, up to 256 KiB:
        ``b""`` at end of stream, ``None`` if nothing was there after
        all.  Read into the loop's one scratch buffer — a fresh buffer
        of that size per read is an mmap/munmap pair, ten times the
        cost of the read itself."""
        try:
            n = sock.recv_into(self._recv_buffer)
        except (BlockingIOError, InterruptedError):
            return None
        return bytes(self._recv_buffer[:n])

    # -- the loop ------------------------------------------------------------

    def _wakeup(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (OSError, ValueError):
            pass

    def _needs_wake(self) -> bool:
        """Under ``_lock``, after queueing work or a timer: must the
        caller write a wake byte?  Not from the loop thread (it re-reads
        ``_pending`` and the heap before its next ``select``), and not
        while an earlier byte is still unread — one per loop turn."""
        if self._waking or self.in_loop():
            return False
        self._waking = True
        return True

    def _drain_wakeup(self, mask: int) -> None:
        try:
            self._wake_r.recv(64)  # one byte per turn: one read empties it
        except OSError:
            pass
        # Only after the byte is gone: work queued from here on writes
        # a fresh one, work queued before is in ``_pending`` already
        # and runs later this turn.
        with self._lock:
            self._waking = False

    def _next_timeout(self) -> Optional[float]:
        with self._lock:
            if self._pending:
                return 0.0
            # A cancelled timer is only ever popped at the head, so one
            # cancelled long before it is due (a connection's deadline
            # timer, re-armed earlier) would sit here for its whole
            # timeout.  Rebuild without them once they are more
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
                    self.note_callback_error(exc)
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
                self.note_callback_error(exc)

    def _run_pending(self) -> None:
        with self._lock:
            batch = list(self._pending)
            self._pending.clear()
            self._merging = None
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
                self.note_callback_error(exc)

    def note_callback_error(self, exc: BaseException) -> None:
        """Count a loop callback that raised; code running several
        callbacks in one loop turn reports each failure here."""
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
