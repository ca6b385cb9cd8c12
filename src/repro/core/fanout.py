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
deadline timer is not touched (:mod:`repro.net.aio`).  Nothing is
allocated per batch to find it again: the channel holds the item in
flight, and its own bound method is the ack's callback.

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
batch object, so its write batch is built and encoded once and each
device pays one frame splice and one ``send``
(``docs/ARCHITECTURE.md``, "One encode per changeset").  Devices that
fell behind together merge the next fan-out into one shared copy of
their common tail, so a backlog, too, is built and encoded once per
distinct queue state rather than once per device.

:class:`FanoutPlane` holds what every channel shares — the loop, the
breaker threshold, the fencing epoch and the controller's hooks —
and :class:`DeviceChannel` is the per-device machine.

Obs: ``fanout_inflight`` (operations between pop and completion),
``fanout_send_buffer_bytes{device=}`` (a channel's outbound backlog),
plus the reactor's own ``reactor_loop_lag_seconds``.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, List, Optional

from repro import obs
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
    """What every :class:`DeviceChannel` shares.

    ``reactor`` is the one the channels' device clients
    (:class:`~repro.p4runtime.aio_client.AioP4RuntimeClient`) run on —
    it *must* be the same so channel callbacks and connection callbacks
    never race; ``None`` (no remote devices) uses the process-wide
    :func:`~repro.net.reactor.default_reactor`.  The plane never stops it.

    ``fence`` is the fencing epoch stamped on every write, and a device
    is quarantined after ``breaker_threshold`` transport failures in a
    row.  ``on_applied(device, n_writes, latency, io_latency,
    apply_seconds)`` receives every acknowledged batch; ``on_error``
    the semantic failures (a rejected write, an ill-typed row), which
    the controller defers to ``drain()``.
    """

    def __init__(
        self,
        reactor: Optional[Reactor] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
        breaker_threshold: int = 3,
        fence: Optional[int] = None,
        on_applied: Optional[Callable] = None,
    ):
        self.reactor = reactor if reactor is not None else default_reactor()
        self.on_error = on_error
        self.breaker_threshold = breaker_threshold
        self.fence = fence
        self.on_applied = on_applied
        self.reactor.start()
        self.channels: List["DeviceChannel"] = []
        #: Operations currently between pop and completion.
        self.inflight = 0

    def channel(self, device: ManagedDevice, name: str) -> "DeviceChannel":
        chan = DeviceChannel(self, device, name)
        self.channels.append(chan)
        return chan


class DeviceChannel:
    """One device's queue→reactor bridge.

    A state machine the reactor runs on demand — every ``queue.put`` is
    on the loop and pumps it in place, so there is nothing to start;
    the controller's drain/resync/health code reaches it through
    ``.queue`` and ``.device``.

    The channel pops an item only once the one before it has completed
    — that is per-device FIFO — and holds it until then.  A
    :class:`SyncTask` is driven step by step
    (:func:`~repro.core.reconcile.drive`); a batch goes through the
    circuit breaker to the device's ``apply_batch_async``, with the
    channel's :meth:`_on_ack` as the callback.  The device calls it
    once per batch (a connection resolves each call once: response,
    deadline or teardown; an in-process device answers inline), and an
    ack with no batch awaiting it is ignored.
    """

    def __init__(self, plane: FanoutPlane, device: ManagedDevice, name: str):
        self.plane = plane
        self.device = device
        self.state = IDLE
        #: The item between pop and completion; ``None`` once completed.
        self._item = None
        #: Popped and not finished yet (outlives ``_item`` while an
        #: inline completion waits for its loop turn).
        self._busy = False
        #: The item is being started: a completion now must not pump.
        self._pumping = False
        # The batch in flight: when it was popped and sent, its write
        # count and its span.
        self._started = self._issued_at = 0.0
        self._n_writes = 0
        self._span = obs.NULL_SPAN
        #: Every batch's ack callback, bound once.
        self._ack = self._on_ack
        self.queue = CoalescingQueue(name=name, on_ready=self._pump)

    # -- loop thread ---------------------------------------------------------

    def _pump(self) -> None:
        """Pop-and-start the next item unless one is in flight."""
        if self._busy:
            return
        item = self.queue.pop_nowait()
        plane = self.plane
        if item is None:
            self.state = IDLE
            if obs.ENABLED:
                obs.REGISTRY.gauge("fanout_inflight").set(plane.inflight)
            return
        self._busy = True
        self._item = item
        self.state = IN_FLIGHT
        self._started = time.perf_counter()
        plane.inflight += 1
        self._pumping = True
        try:
            if isinstance(item, SyncTask):
                if obs.ENABLED:
                    self.queue.gauge_depth()
                    obs.REGISTRY.gauge("fanout_inflight").set(plane.inflight)
                drive(item.steps, partial(self._on_synced, item))
            elif self.device.io.writable:
                self._send(item)
            else:
                # Past its high watermark: park instead of buffering
                # without bound — the queue coalesces the backlog
                # meanwhile.
                self.device.io.on_drain(self._on_drained)
        except Exception as exc:  # noqa: BLE001 - surfaced at drain()
            self._complete(item, exc)
        finally:
            self._pumping = False

    def _on_drained(self) -> None:
        """The parked batch's connection drained (or died)."""
        if self._item is not None:
            self._send(self._item)

    def _on_synced(self, task: SyncTask, result, error) -> None:
        if task is not self._item:
            return  # the steps answered twice
        try:
            task.finish(result, error)  # runs its then() callback
        finally:
            self._complete(task)

    def _send(self, batch) -> None:
        """Gate one (possibly merged) batch through the breaker — after
        any drain wait, as it may have tripped meanwhile — and send it;
        its ack completes the item."""
        device = self.device
        writes = batch.emit_writes()
        n_writes = len(writes)
        if not n_writes and not batch.mcast:
            self._complete(batch)  # coalesced away to nothing
            return
        if device.quarantined:
            device.syncs_missed += 1
            if obs.ENABLED:
                obs.REGISTRY.counter(
                    "controller_syncs_skipped_total", device=device.name
                ).inc()
            self._complete(batch)
            return
        self.state = AWAITING_ACK
        self._n_writes = n_writes
        self._issued_at = time.perf_counter()
        span = obs.NULL_SPAN
        if obs.ENABLED:
            self.queue.gauge_depth()
            obs.REGISTRY.gauge("fanout_inflight").set(self.plane.inflight)
            _gauge_send_buffer(device)
            span = obs.TRACER.span(
                "device.write",
                update_id=batch.update_id,
                device=device.name,
                writes=n_writes,
                txns=batch.txns,
            )
        self._span = span
        try:
            if span is obs.NULL_SPAN:
                device.io.apply_batch_async(
                    writes, batch.mcast, batch.update_ids, self._ack,
                    seq=(batch.seq, batch.last_seq), fence=self.plane.fence,
                )
            else:
                # Open across the send, so an in-process device's
                # ``device.apply`` nests under it.
                with obs.TRACER.adopt(batch.parent), span:
                    device.io.apply_batch_async(
                        writes, batch.mcast, batch.update_ids, self._ack,
                        seq=(batch.seq, batch.last_seq),
                        fence=self.plane.fence,
                    )
        except Exception as exc:  # noqa: BLE001 - surfaced at drain()
            # Raised while the batch was encoded (an ill-typed row's
            # TypeCheckError); parked on ``on_drain`` this is a bare loop
            # callback, and the item must still complete.
            self._complete(batch, exc)

    def _on_ack(self, applied, error) -> None:
        """The device's answer to the batch in flight."""
        batch = self._item
        if batch is None or self.state != AWAITING_ACK:
            return
        device = self.device
        span = self._span
        if span is not obs.NULL_SPAN:
            _gauge_send_buffer(device)
        if error is None:
            now = time.perf_counter()
            if span is not obs.NULL_SPAN:
                # A remote device acks after the span was recorded at
                # the send: its duration becomes the send→ack interval.
                span.set(applied=True, ack=True)
                span.duration = now - self._issued_at
            device.consecutive_failures = 0  # record_success(), inline
            device.writes_issued += 1
            if self._n_writes:
                # Mirror the device side exactly: only table writes
                # advance the on-device epoch (a multicast-only batch
                # never reaches ``DeviceService.write``), and warm
                # start's skip decision relies on the two staying equal.
                ids = batch.update_ids
                device.config_epoch = ids[-1] if ids else None
            on_applied = self.plane.on_applied
            if on_applied is not None:
                on_applied(
                    device,
                    self._n_writes,
                    now - batch.first_enqueued,
                    now - self._issued_at,
                    now - self._started,
                )
            self._complete(batch)
        elif isinstance(error, TRANSPORT_ERRORS):
            tripped = device.record_failure(error, self.plane.breaker_threshold)
            device.syncs_missed += 1
            if obs.ENABLED:
                obs.REGISTRY.counter(
                    "controller_breaker_failures_total", device=device.name
                ).inc()
                if tripped:
                    obs.REGISTRY.counter(
                        "controller_breaker_trips_total", device=device.name
                    ).inc()
            self._complete(batch)
        else:
            # Semantic rejection — a controller bug, not a flaky peer:
            # surfaced at drain().
            self._complete(batch, error)

    def _complete(self, item, exc: Optional[BaseException] = None) -> None:
        """``item`` is done; a second completion of it is ignored.
        Finishing mutates channel state and pops the next item: in
        place when called from I/O (an ack, a deadline, a teardown —
        :meth:`_pump` has long returned), one loop turn later when the
        item completes inside :meth:`_pump` (an in-process device, an
        empty batch), so that a burst of those never recurses."""
        if item is not self._item:
            return
        self._item = None
        if not self._pumping or not self.plane.reactor.submit(
            self._finish, exc
        ):
            self._finish(exc)  # from I/O, or the reactor stopped

    def _finish(self, exc: Optional[BaseException]) -> None:
        self._busy = False
        plane = self.plane
        plane.inflight -= 1
        # The error first: the task_done that empties the pipeline
        # finishes a waiting drain, which raises it.
        if exc is not None and plane.on_error is not None:
            plane.on_error(exc)
        self.queue.task_done()
        self._pump()


def _gauge_send_buffer(device: ManagedDevice) -> None:
    if device.io.send_buffer_bytes is not None:
        obs.REGISTRY.gauge(
            "fanout_send_buffer_bytes", device=device.name
        ).set(device.io.send_buffer_bytes)
