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

A batch costs its ``send`` and its ack read and no loop bookkeeping
beyond them: a ``put`` on the loop pumps the channel in place, the ack
finishes the item and pops the next in place, and the connection's one
deadline timer is not touched (:mod:`repro.net.aio`).

One execution path per channel: every item runs on the loop through
the device's non-blocking calls (:mod:`repro.core.planes`).  A batch
goes out through ``apply_batch_async`` — watermark-aware: a channel
whose connection is past its high watermark parks on ``on_drain``
instead of buffering unboundedly — and completes on the ack: at once
for an in-process device, whose service is therefore a loop callback
that must not block; when the response arrives for a remote one.  A
full sync (a :class:`~repro.core.pipeline.queues.SyncTask`) is a chain
of the same calls (:func:`repro.core.reconcile.full_sync`).  Thousands of
devices cost zero threads.  A fan-out's devices all pop the *same*
batch object, so its write list is built and encoded once and each
device pays one frame splice and one ``send``
(``docs/ARCHITECTURE.md``, "One encode per changeset").  Devices that
fell behind together merge the next fan-out into one shared copy of
their common tail, so a backlog, too, is built and encoded once per
distinct queue state rather than once per device.

:class:`FanoutPlane` and :class:`DeviceChannel` are the machinery;
:class:`BatchApplier` is the runner the controller plugs into every
channel — the breaker gate in front of the device and the per-device
bookkeeping behind it.

Obs: ``fanout_inflight`` (operations between pop and completion),
``fanout_send_buffer_bytes{device=}`` (a channel's outbound backlog),
plus the reactor's own ``reactor_loop_lag_seconds``.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, List, Optional

from repro import obs
from repro.core.pipeline.changeset import DeviceBatch
from repro.core.pipeline.queues import CoalescingQueue, SyncTask
from repro.core.planes import TRANSPORT_ERRORS, ManagedDevice
from repro.core.reconcile import drive
from repro.net.reactor import Reactor, default_reactor

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
        on_error: Optional[Callable[[BaseException], None]] = None,
    ):
        self.reactor = reactor if reactor is not None else default_reactor()
        #: Receives exceptions a runner reported through ``done(exc)``
        #: (the controller defers them to ``drain()``).
        self.on_error = on_error
        self.reactor.start()
        self.channels: List["DeviceChannel"] = []
        self._inflight = 0

    @property
    def inflight(self) -> int:
        """Operations currently between pop and completion."""
        return self._inflight

    def _inflight_delta(self, delta: int) -> None:
        self._inflight += delta
        if obs.enabled():
            obs.REGISTRY.gauge("fanout_inflight").set(self._inflight)

    def channel(self, device, runner: Callable, name: str) -> "DeviceChannel":
        chan = DeviceChannel(self, device, runner, name)
        self.channels.append(chan)
        return chan


class DeviceChannel:
    """One device's queue→reactor bridge.

    A state machine the reactor runs on demand — every ``queue.put`` is
    on the loop and pumps it in place, so there is nothing to start;
    the controller's drain/resync/health code reaches it through
    ``.queue`` and ``.device``.

    ``runner(channel, item, done)`` starts one queue item on the loop;
    it must arrange for ``done(exc_or_none)`` to be called once, on the
    loop, when the item completes (a non-``None`` ``exc`` is deferred to
    ``drain()``; later calls are ignored).  The channel never pops a
    second item until the first completes — that is per-device FIFO.
    """

    def __init__(self, plane: FanoutPlane, device, runner: Callable, name: str):
        self.plane = plane
        self.device = device
        self._runner = runner
        self.state = IDLE
        self._busy = False
        #: The runner is on the stack: a completion now must not pump.
        self._pumping = False
        self.queue = CoalescingQueue(name=name, on_ready=self._pump)

    # -- loop thread ---------------------------------------------------------

    def _pump(self) -> None:
        """Pop-and-start the next item unless one is in flight; how it
        finishes is :meth:`_completion`'s."""
        if self._busy:
            return
        item = self.queue.pop_nowait()
        if item is None:
            self.state = IDLE
            return
        self._busy = True
        self.state = IN_FLIGHT
        self.plane._inflight_delta(1)
        done = self._completion()
        self._pumping = True
        try:
            self._runner(self, item, done)
        except Exception as exc:  # noqa: BLE001 - surfaced at drain()
            done(exc)
        finally:
            self._pumping = False

    def mark_awaiting_ack(self) -> None:
        """Runner hook: the batch is with the device; we hold only the
        pending ack."""
        self.state = AWAITING_ACK

    def _completion(self) -> Callable:
        """The item's ``done``.  Completion mutates channel state and
        pops the next item: in place when called from I/O (an ack, a
        deadline, a teardown — the runner has long returned), one loop
        turn later when the runner completes inside :meth:`_pump` (an
        in-process device, an empty batch), so that a burst of those
        never recurses through it."""
        completed = False

        def done(exc: Optional[BaseException] = None) -> None:
            nonlocal completed
            if completed:
                return  # a second call for the same item
            completed = True
            if not self._pumping or not self.plane.reactor.submit(
                self._finish, exc
            ):
                self._finish(exc)  # from I/O, or the reactor stopped

        return done

    def _finish(self, exc: Optional[BaseException]) -> None:
        self._busy = False
        self.plane._inflight_delta(-1)
        # The error first: the task_done that empties the pipeline
        # finishes a waiting drain, which raises it.
        if exc is not None and self.plane.on_error is not None:
            self.plane.on_error(exc)
        self.queue.task_done()
        self._pump()


class BatchApplier:
    """The channel runner of the controller's apply stage: one queue
    item → one device, through the circuit breaker.

    ``fence`` is the fencing epoch stamped on every write;
    ``on_applied(device, n_writes, latency, io_latency, apply_seconds)``
    receives every successful batch for the controller's own
    statistics.  Everything here runs on the loop with no
    controller-wide lock held — device I/O never blocks the engine or a
    device's peers.
    """

    def __init__(
        self,
        breaker_threshold: int,
        fence: Optional[int],
        on_applied: Callable,
    ):
        self.breaker_threshold = breaker_threshold
        self._fence = fence
        self._on_applied = on_applied

    def __call__(self, channel: DeviceChannel, item, done) -> None:
        """Start one queue item (loop thread): a :class:`SyncTask` by
        driving its steps, a batch through the device's
        ``apply_batch_async``.  Either way the channel holds its slot
        until the item completes."""
        channel.queue.gauge_depth()
        if isinstance(item, SyncTask):

            def finish(result, error) -> None:
                try:
                    item.finish(result, error)  # runs its then() callback
                finally:
                    done(None)

            drive(item.steps, finish)
            return
        send = partial(self._send, channel, item, time.perf_counter(), done)
        if channel.device.io.writable:
            send()
        else:
            # Past its high watermark: park instead of buffering without
            # bound — the device's queue coalesces the backlog meanwhile.
            channel.device.io.on_drain(send)

    def _send(
        self, channel: DeviceChannel, batch: DeviceBatch, started, done
    ) -> None:
        """Gate one (possibly merged) batch through the breaker — after
        any drain wait, as it may have tripped meanwhile — and send it;
        its ack completes the item."""
        device = channel.device
        writes = batch.emit_writes()
        if not writes and not batch.mcast:
            done(None)  # coalesced away to nothing
            return
        if device.quarantined:
            device.syncs_missed += 1
            if obs.enabled():
                obs.REGISTRY.counter(
                    "controller_syncs_skipped_total", device=device.name
                ).inc()
            done(None)
            return
        channel.mark_awaiting_ack()
        issued_at = time.perf_counter()
        _gauge_send_buffer(device)
        span = obs.span(
            "device.write",
            update_id=batch.update_id,
            device=device.name,
            writes=len(writes),
            txns=batch.txns,
        )

        def on_ack(applied, error) -> None:
            _gauge_send_buffer(device)
            if error is None:
                if span is not obs.NULL_SPAN:
                    # A remote device acks after the span was recorded at
                    # the send: its duration becomes the send→ack interval.
                    span.set(applied=True, ack=True)
                    span.duration = time.perf_counter() - issued_at
                device.record_success()
                device.writes_issued += 1
                if writes:
                    # Mirror the device side exactly: only table writes
                    # advance the on-device epoch (a multicast-only batch
                    # never reaches ``DeviceService.write``), and warm
                    # start's skip decision relies on the two staying equal.
                    device.config_epoch = batch.update_id
                now = time.perf_counter()
                self._on_applied(
                    device,
                    len(writes),
                    now - batch.first_enqueued,
                    now - issued_at,
                    now - started,
                )
                done(None)
            elif isinstance(error, TRANSPORT_ERRORS):
                tripped = device.record_failure(error, self.breaker_threshold)
                device.syncs_missed += 1
                if obs.enabled():
                    obs.REGISTRY.counter(
                        "controller_breaker_failures_total", device=device.name
                    ).inc()
                    if tripped:
                        obs.REGISTRY.counter(
                            "controller_breaker_trips_total", device=device.name
                        ).inc()
                done(None)
            else:
                # Semantic rejection — a controller bug, not a flaky
                # peer: surfaced at drain().
                done(error)

        send = partial(
            device.io.apply_batch_async,
            writes,
            batch.mcast,
            batch.update_ids,
            on_ack,
            seq=(batch.seq, batch.last_seq),
            fence=self._fence,
        )
        try:
            if span is obs.NULL_SPAN:
                send()  # tracing off: no span to open, no parent to adopt
            else:
                # Open across the send, so an in-process device's
                # ``device.apply`` nests under it.
                with obs.TRACER.adopt(batch.parent), span:
                    send()
        except Exception as exc:  # noqa: BLE001 - surfaced at drain()
            # Raised while the batch was encoded (an ill-typed row's
            # TypeCheckError); parked on ``on_drain`` this is a bare loop
            # callback, and the item must still complete.
            done(exc)


def _gauge_send_buffer(device: ManagedDevice) -> None:
    if obs.enabled() and device.io.send_buffer_bytes is not None:
        obs.REGISTRY.gauge(
            "fanout_send_buffer_bytes", device=device.name
        ).set(device.io.send_buffer_bytes)
