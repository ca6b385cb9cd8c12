"""Stage 3 as an event-loop plane: one reactor, N device state machines.

The apply stage's semantics — per-device FIFO, tail coalescing,
barrier/supersede on the :class:`~repro.core.pipeline.queues.
CoalescingQueue`, the circuit breaker, ``drain()`` accounting — run
without a thread or a blocking socket per device, on:

* a shared :class:`~repro.net.reactor.Reactor` multiplexing every device
  connection — the controller's one loop, which runs stage 2's engine
  transactions too, so every batch and sync task is queued from the
  loop and channel queues have no bound to wait on — and
* one :class:`DeviceChannel` per device — a lightweight state machine
  (``idle → batch-in-flight → awaiting-ack``, with the breaker's
  quarantine visible alongside) driven by the queue's ``on_ready``.

Two execution paths per channel:

* **async** — devices backed by an
  :class:`~repro.p4runtime.aio_client.AioP4RuntimeClient` issue the
  batched write through the reactor (non-blocking, watermark-aware:
  a channel whose connection is past its high watermark parks on
  ``on_drain`` instead of buffering unboundedly) and complete on the
  ack.  Thousands of such devices cost zero threads.  A fan-out's
  devices all pop the *same* batch object, so its write list is built
  and encoded once and each device pays one frame splice and one
  ``send`` (``docs/ARCHITECTURE.md``, "One encode per changeset").
* **blocking** — in-process simulators run each operation on a small
  shared pool.  At most one operation per device is ever in flight
  (that is what preserves FIFO), so the pool serves as a concurrency
  cap, not a correctness mechanism.

Control items (:class:`~repro.core.pipeline.queues.Task` full syncs)
always take the blocking path — they perform read-diff round
trips and must never run on the loop thread.

:class:`FanoutPlane` and :class:`DeviceChannel` are the machinery;
:class:`BatchApplier` is the runner the controller plugs into every
channel — both paths, the breaker gate in front of them and the
per-device bookkeeping behind them.

Obs: ``fanout_inflight`` (operations between pop and completion),
``fanout_send_buffer_bytes{device=}`` (async channels' outbound
backlog), plus the reactor's own ``reactor_loop_lag_seconds``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional

from repro import obs
from repro.core.pipeline.changeset import DeviceBatch
from repro.core.pipeline.queues import CoalescingQueue, Task
from repro.core.planes import TRANSPORT_ERRORS, ManagedDevice, RemoteDevice
from repro.net.reactor import Reactor, default_reactor
from repro.obs.trace import use_update_id
from repro.p4runtime.api import WriteList

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
    :func:`~repro.net.reactor.default_reactor`.  The plane never stops it.
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

    def channel(self, device, runner: Callable, name: str) -> "DeviceChannel":
        chan = DeviceChannel(self, device, runner, name)
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

    def __init__(self, plane: FanoutPlane, device, runner: Callable, name: str):
        self.plane = plane
        self.device = device
        self._runner = runner
        self.state = IDLE
        self._busy = False
        # The once-guard of the in-flight item's ``done``: the ticket
        # it must present, 0 once it has (one item per channel at a
        # time, so one slot serves them all).
        self._ticket = 0
        self._open_ticket = 0
        self._done_lock = threading.Lock()
        self.queue = CoalescingQueue(name=name, on_ready=self._notify)

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
        self._ticket += 1
        ticket = self._open_ticket = self._ticket

        def done(exc: Optional[BaseException] = None) -> None:
            # Runners may race two calls (a pool thread against the
            # reactor); exactly one may finish the item.
            with self._done_lock:
                if self._open_ticket != ticket:
                    return
                self._open_ticket = 0
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


class BatchApplier:
    """The channel runner of the controller's apply stage: one queue
    item → one device, through the circuit breaker.

    ``fence`` is the fencing epoch stamped on every write;
    ``on_applied(device, n_writes, latency, io_latency, apply_seconds)``
    receives every successful batch for the controller's own
    statistics.  Everything here runs with no controller-wide lock
    held — device I/O never blocks the engine or a device's peers.
    """

    def __init__(
        self,
        plane: FanoutPlane,
        breaker_threshold: int,
        fence: Optional[int],
        on_applied: Callable,
    ):
        self.plane = plane
        self.breaker_threshold = breaker_threshold
        self._fence = fence
        self._on_applied = on_applied

    def __call__(self, channel: DeviceChannel, item, done) -> None:
        """Execute one queue item (loop thread).  Batches for remote
        devices go out non-blocking; everything else (in-process
        simulators, full-sync tasks) runs on the plane's pool —
        with the channel holding the slot either way, so per-device
        FIFO is preserved across both paths."""
        device = channel.device
        channel.queue.gauge_depth()
        if isinstance(item, Task):

            def run_task() -> None:
                item.run(device)
                done(None)

            self.plane.run_blocking(run_task)
        elif isinstance(device.io, RemoteDevice):
            self._apply_async(channel, item, done)
        else:

            def run_batch() -> None:
                try:
                    self._apply_blocking(device, item)
                except Exception as exc:  # noqa: BLE001 - surfaced at drain()
                    done(exc)
                    return
                done(None)

            self.plane.run_blocking(run_batch)

    def _prepare(
        self, device: ManagedDevice, batch: DeviceBatch
    ) -> Optional[WriteList]:
        """Breaker gate shared by both paths: emit the batch's writes,
        or return ``None`` when there is nothing to do (empty after
        coalescing, or the device is quarantined — counted as a missed
        sync either way the breaker requires)."""
        writes = batch.emit_writes()
        if not writes and not batch.mcast:
            return None
        if device.quarantined:
            device.syncs_missed += 1
            if obs.enabled():
                obs.REGISTRY.counter(
                    "controller_syncs_skipped_total", device=device.name
                ).inc()
            return None
        return writes

    def _finish(
        self,
        device: ManagedDevice,
        batch: DeviceBatch,
        writes: WriteList,
        started: float,
        issued_at: float,
    ) -> None:
        """Success bookkeeping shared by both paths."""
        device.record_success()
        device.writes_issued += 1
        if writes:
            # Mirror the device side exactly: only table writes advance
            # the on-device epoch (a multicast-only batch never reaches
            # ``DeviceService.write``), and warm start's skip decision
            # relies on the two staying equal.
            device.config_epoch = batch.update_id
        applied = time.perf_counter()
        self._on_applied(
            device,
            len(writes),
            applied - batch.first_enqueued,
            applied - issued_at,
            applied - started,
        )

    def _failed(self, device: ManagedDevice, exc: BaseException) -> None:
        """Transport-failure bookkeeping shared by both paths."""
        tripped = device.record_failure(exc, self.breaker_threshold)
        device.syncs_missed += 1
        if obs.enabled():
            obs.REGISTRY.counter(
                "controller_breaker_failures_total", device=device.name
            ).inc()
            if tripped:
                obs.REGISTRY.counter(
                    "controller_breaker_trips_total", device=device.name
                ).inc()

    @staticmethod
    def _write_span(device: ManagedDevice, batch: DeviceBatch, writes):
        return obs.span(
            "device.write",
            update_id=batch.update_id,
            device=device.name,
            writes=len(writes),
            txns=batch.txns,
        )

    def _apply_blocking(
        self, device: ManagedDevice, batch: DeviceBatch
    ) -> None:
        """Issue one (possibly merged) batch on the pool — the path
        in-process devices take."""
        started = time.perf_counter()
        writes = self._prepare(device, batch)
        if writes is None:
            return
        issued_at = time.perf_counter()
        try:
            with obs.TRACER.adopt(batch.parent), use_update_id(
                batch.update_id
            ), self._write_span(device, batch, writes) as span:
                device.io.apply_batch(
                    writes, batch.mcast, batch.update_ids, fence=self._fence
                )
                span.set(applied=True)
        except TRANSPORT_ERRORS as exc:
            self._failed(device, exc)
            return
        self._finish(device, batch, writes, started, issued_at)

    def _apply_async(
        self, channel: DeviceChannel, batch: DeviceBatch, done
    ) -> None:
        """Non-blocking apply for one batch (loop thread).

        Watermark-aware: a connection whose send buffer is past its
        high watermark parks the channel on ``on_drain`` instead of
        buffering without bound — the device's queue then coalesces
        the backlog, exactly as it does for a slow blocking device.
        """
        device = channel.device
        io = device.io.client
        started = time.perf_counter()

        def gauge_send_buffer() -> None:
            if obs.enabled():
                obs.REGISTRY.gauge(
                    "fanout_send_buffer_bytes", device=device.name
                ).set(io.send_buffer_bytes)

        def issue() -> None:
            # Parked on ``on_drain``, this runs as a bare loop callback:
            # whatever it raises (a converter's TypeCheckError while the
            # batch is encoded) must still complete the item, or the
            # channel stays busy and drain() times out.
            try:
                send()
            except Exception as exc:  # noqa: BLE001 - surfaced at drain()
                done(exc)

        def send() -> None:
            # Re-gated after a potential drain wait: the breaker may
            # have tripped while this channel was parked.
            writes = self._prepare(device, batch)
            if writes is None:
                done(None)
                return
            channel.mark_awaiting_ack()
            issued_at = time.perf_counter()
            gauge_send_buffer()

            def on_ack(applied, error) -> None:
                gauge_send_buffer()
                if error is not None:
                    if isinstance(error, TRANSPORT_ERRORS):
                        self._failed(device, error)
                        done(None)
                    else:
                        # Semantic rejection — a controller bug, not a
                        # flaky peer: surfaced at drain() like the
                        # blocking path's WriteError.
                        done(error)
                    return
                if obs.enabled():
                    with obs.TRACER.adopt(batch.parent), use_update_id(
                        batch.update_id
                    ), self._write_span(device, batch, writes) as span:
                        span.set(applied=True, ack=True)
                    # The span records at ack time; its duration is the
                    # send→ack interval, not the (instant) body above.
                    span.duration = time.perf_counter() - issued_at
                self._finish(device, batch, writes, started, issued_at)
                done(None)

            io.apply_batch_async(
                writes,
                batch.mcast,
                batch.update_ids,
                on_ack,
                seq=(batch.seq, batch.last_seq),
                fence=self._fence,
            )

        if io.writable:
            issue()
        else:
            io.on_drain(issue)
