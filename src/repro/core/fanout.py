"""Stage 3 as an event-loop plane: one reactor, N device state machines.

The apply stage's semantics — per-device FIFO, tail coalescing,
barrier/supersede on the :class:`~repro.core.pipeline.queues.
CoalescingQueue`, the circuit breaker, ``drain()`` accounting — run
without a thread or a blocking socket per device, on:

* a shared :class:`~repro.net.aio.Reactor` multiplexing every device
  connection, and
* one :class:`DeviceChannel` per device — a lightweight state machine
  (``idle → batch-in-flight → awaiting-ack``, with the breaker's
  quarantine visible alongside) driven by the queue's ``on_ready``
  callback instead of a thread parked in ``pop()``.

Two execution paths per channel:

* **async** — devices backed by an
  :class:`~repro.p4runtime.aio_client.AioP4RuntimeClient` issue the
  batched write through the reactor (non-blocking, watermark-aware:
  a channel whose connection is past its high watermark parks on
  ``on_drain`` instead of buffering unboundedly) and complete on the
  ack.  Thousands of such devices cost zero threads.
* **blocking** — in-process simulators run each operation on a small
  shared pool.  At most one operation per device is ever in flight
  (that is what preserves FIFO), so the pool serves as a concurrency
  cap, not a correctness mechanism.

Control items (:class:`_WriterTask` resyncs, warm syncs) always take
the blocking path — they perform read-diff round trips and must never
run on the loop thread.

Obs: ``fanout_inflight`` (operations between pop and completion),
``fanout_send_buffer_bytes{device=}`` (async channels' outbound
backlog), plus the reactor's own ``reactor_loop_lag_seconds``.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional

from repro import obs
from repro.core.pipeline.queues import CoalescingQueue
from repro.net.aio import Reactor, default_reactor

#: Channel states (``quarantined`` is the breaker's view, reported
#: alongside rather than replacing the I/O state).
IDLE = "idle"
IN_FLIGHT = "batch-in-flight"
AWAITING_ACK = "awaiting-ack"


class FanoutPlane:
    """The shared machinery behind every :class:`DeviceChannel`.

    ``reactor`` is the one the channels' device clients
    (:class:`~repro.p4runtime.aio_client.AioP4RuntimeClient`) run on —
    it *must* be the same so channel callbacks and connection callbacks
    never race; ``None`` (no remote devices) uses the process-wide
    :func:`~repro.net.aio.default_reactor`.  The plane never stops it.
    """

    def __init__(
        self,
        reactor: Optional[Reactor] = None,
        max_blocking_workers: int = 8,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ):
        self.reactor = reactor if reactor is not None else default_reactor()
        #: Receives exceptions a runner reported through ``done(exc)``
        #: (the controller defers them to ``drain()``).
        self.on_error = on_error
        self.reactor.start()
        self._pool = ThreadPoolExecutor(
            max_workers=max_blocking_workers,
            thread_name_prefix="fanout-blocking",
        )
        self.channels: List["DeviceChannel"] = []
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._stopped = False

    @property
    def inflight(self) -> int:
        """Operations currently between pop and completion."""
        return self._inflight

    def _inflight_delta(self, delta: int) -> None:
        with self._inflight_lock:
            self._inflight += delta
            value = self._inflight
        if obs.enabled():
            obs.REGISTRY.gauge("fanout_inflight").set(value)

    def channel(
        self,
        device,
        runner: Callable,
        name: str,
        maxlen: int = 512,
        merge: bool = True,
    ) -> "DeviceChannel":
        chan = DeviceChannel(self, device, runner, name, maxlen, merge)
        self.channels.append(chan)
        return chan

    def run_blocking(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the shared pool (never on the loop thread)."""
        self._pool.submit(fn)

    def stop(self) -> None:
        """Idempotent: close queues, stop the pool."""
        if self._stopped:
            return
        self._stopped = True
        for chan in self.channels:
            chan.queue.close()
        self._pool.shutdown(wait=False)


class DeviceChannel:
    """One device's queue→reactor bridge.

    A state machine the reactor runs on demand — every ``queue.put``
    schedules a pump, so there is nothing to start; the controller's
    drain/resync/health code reaches it through ``.queue`` and
    ``.device``.

    ``runner(channel, item, done)`` executes one queue item; it must
    arrange for ``done(exc_or_none)`` to be called exactly once, from
    any thread (a non-``None`` ``exc`` is deferred to ``drain()``).
    The channel never pops a second item until the first completes —
    per-device FIFO holds no matter where the runner does its work.
    """

    def __init__(
        self,
        plane: FanoutPlane,
        device,
        runner: Callable,
        name: str,
        maxlen: int = 512,
        merge: bool = True,
    ):
        self.plane = plane
        self.device = device
        self._runner = runner
        self.state = IDLE
        self._busy = False
        self.queue = CoalescingQueue(
            name=name,
            maxlen=maxlen,
            merge=merge,
            on_ready=self._notify,
        )

    def _notify(self) -> None:
        self.plane.reactor.submit(self._pump)

    # -- loop thread ---------------------------------------------------------

    def _pump(self) -> None:
        """Pop-and-run until empty or busy.  A plain loop (never
        recursive): a burst of empty batches must not grow the stack."""
        while True:
            if self._busy:
                return
            item = self.queue.pop_nowait()
            if item is None:
                self.state = IDLE
                return
            self._busy = True
            self.state = IN_FLIGHT
            self.plane._inflight_delta(1)
            try:
                self._runner(self, item, self._completion())
            except Exception as exc:  # noqa: BLE001 - surfaced at drain()
                self._finish(exc)
            return  # completion re-enters _pump

    def mark_awaiting_ack(self) -> None:
        """Runner hook: the batch left the process; we hold only the
        pending ack (async path)."""
        self.state = AWAITING_ACK

    def _completion(self) -> Callable:
        fired = threading.Event()

        def done(exc: Optional[BaseException] = None) -> None:
            if fired.is_set():
                return
            fired.set()
            # Trampoline onto the loop thread: completion mutates
            # channel state and may pop the next item.
            if not self.plane.reactor.submit(self._finish, exc):
                self._finish(exc)  # reactor stopped: finish inline

        return done

    def _finish(self, exc: Optional[BaseException]) -> None:
        self._busy = False
        self.plane._inflight_delta(-1)
        self.queue.task_done()
        if exc is not None and self.plane.on_error is not None:
            self.plane.on_error(exc)
        self._pump()
