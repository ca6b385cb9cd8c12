"""The Nerpa controller: state synchronization across the three planes.

The controller owns the runtime loop the paper describes in §3, run as
a **staged pipeline** on one reactor, ``controller.reactor`` (the
stages in detail: ``docs/ARCHITECTURE.md``):

* **ingest** (stage 1) — each committed management transaction becomes
  a :class:`~repro.core.pipeline.Changeset`, each data-plane digest a
  digest changeset (the feedback loop), on an unbounded coalescing
  queue: a burst collapses into one net changeset while the engine is
  busy.  Another thread builds its changeset and hands the put to the
  loop (``reactor.submit``; untraced puts merge while they wait), so
  only the loop touches a pipeline queue, and no put ever blocks;
* **evaluate** (stage 2) — one engine transaction per changeset per
  loop turn; its *output deltas* fan out as one
  :class:`~repro.core.pipeline.DeviceBatch`, shared by every device
  (``MulticastGroup(group, port)`` rows fold into per-group port lists
  on the same batch);
* **apply** (stage 3, :mod:`repro.core.fanout`) — batches merge on
  each device's own queue and go out as one batched P4Runtime write
  (deletes before inserts, in engine-transaction order), through
  non-blocking calls: a slow or broken device backs up only its own
  queue, never the engine or its peers.

:class:`NerpaController` is the wiring of those stages plus their
lifecycle; the decisions around them live beside it, one owner each
(:mod:`~repro.core.planes`, :mod:`~repro.core.warmstate`,
:mod:`~repro.core.reconcile`, :mod:`~repro.core.codegen`,
:mod:`~repro.core.metrics`).  :meth:`NerpaController.drain` waits for
end-to-end quiescence and raises the semantic errors (``WriteError``
etc.) the later stages deferred.  Every failure is recovered by
*rebuilding from the engine*, as pipeline work items (engine tasks,
tasks on a device's own queue), never under a global lock.

Per-sync latency — the interval the paper measures in §4.3 between the
controller *reading* a change and the data-plane entry being written —
is recorded end-to-end (ingest enqueue → device apply) in
:attr:`NerpaController.sync_latencies` (the fleet's last batches, in
order), and per device in ``latencies``/``io_latencies``: fixed-bucket
:class:`repro.obs.Histogram` objects, like the stage timings, that do
not grow with the number of batches.
"""

from __future__ import annotations

import itertools
import time
import uuid
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core import collector, metrics, reconcile, warmstate
from repro.core.fanout import FanoutPlane
from repro.core.pipeline import MULTICAST_RELATION, NerpaProject
from repro.core.pipeline.changeset import (
    Changeset,
    DeviceBatch,
    MulticastState,
)
from repro.core.pipeline.queues import (
    CoalescingQueue,
    PipelineStalledError,
    QueueGroup,
    SyncTask,
    Task,
    when_all,
)
from repro.core.planes import (
    ManagedDevice,
    shared_reactor,
    when_connected,
    wrap_device,
    wrap_mgmt,
)
from repro.errors import ReproError
from repro.mgmt.monitor import TableUpdates
from repro.net.reactor import Reactor
from repro.obs.trace import current_update_id, use_update_id


class NerpaController:
    """Keeps management, control, and data planes synchronized."""

    def __init__(
        self,
        project: NerpaProject,
        mgmt,
        devices,
        breaker_threshold: int = 3,
        state_dir: Optional[str] = None,
        shards: int = 1,
        shard_workers: str = "process",
        apply_plane: str = "aio",
        reactor: Optional[Reactor] = None,
        checkpoint_every: int = 8,
        checkpoint_interval_s: Optional[float] = None,
        fencing_epoch: Optional[int] = None,
        warm_source: Optional[tuple] = None,
    ):
        self.project = project
        # One plane exists; the keyword stays (validated) only because
        # benchmarks/e2e, which this tree may not edit, still passes it.
        if apply_plane != "aio":
            raise ReproError(f"unknown apply plane {apply_plane!r}")
        devices = list(devices)
        #: The loop stages 2 and 3 run on: the device clients' own, or
        #: (set by :meth:`start`) the process default.
        self.reactor: Optional[Reactor] = shared_reactor(devices, reactor)
        self.bindings = project.bindings
        #: Directory for the controller checkpoint (engine state +
        #: per-device config epochs), typically beside the mgmt
        #: ``Persister`` directory.  ``None`` disables checkpointing.
        self.state_dir = state_dir
        #: Evaluate-stage shard count; >1 runs a ``ShardedRuntime``
        #: behind the same pipeline (a per-shard-count checkpoint:
        #: changing ``shards`` degrades the next start to cold).
        self.shards = shards
        #: Cut a fresh full snapshot once the chain holds this many
        #: delta segments (``save_checkpoint(mode="auto")`` compaction).
        self.checkpoint_every = checkpoint_every
        #: Background checkpoint cadence in seconds; ``None`` (default)
        #: disables the timer.  When set (and ``state_dir`` is too), a
        #: reactor timer runs ``save_checkpoint(mode="auto")`` on the
        #: loop every interval while the pipeline runs; :meth:`stop`
        #: cancels it before closing anything it depends on.
        self.checkpoint_interval_s = checkpoint_interval_s
        #: Fencing epoch stamped on every device write this controller
        #: issues (``None`` = unfenced, the single-controller default).
        #: Devices reject writes carrying an epoch older than the
        #: highest they have seen, so a deposed leader — paused, then
        #: resumed after a takeover — cannot corrupt device state.
        #: Fixed for the controller's life: epochs increase across
        #: leaderships (``repro.mgmt.lease``), and each leadership is a
        #: new controller.
        self.fencing_epoch: Optional[int] = fencing_epoch
        # Hooks told how start()'s recovery ended (repro.core.ha leads
        # only once it has succeeded).
        self._start_hooks: List = []
        # Warm-start state: if a compatible checkpoint chain exists,
        # restore the engine from it instead of recomputing the
        # fixpoint; anything else silently degrades to a cold start.
        # A warm standby (repro.core.ha.CheckpointFollower) instead
        # hands over the runtime it kept hot by tailing the shared
        # chain, plus the chain's warm state — no disk load needed.
        program = project.program
        #: The checkpoint chain's writer (store, save stats, timer).
        self.checkpoints = warmstate.Checkpointer(
            state_dir, program.program_hash
        )
        runtime, warm = None, None
        if warm_source is not None:
            runtime, handed_state = warm_source
            if runtime is not None and handed_state:
                warm = dict(handed_state)
        elif state_dir is not None:
            runtime, warm = warmstate.restore(
                self.checkpoints.store, program, shards, shard_workers
            )
        self.runtime = (
            runtime
            if runtime is not None
            else program.start(shards=shards, shard_workers=shard_workers)
        )
        if warm is None:
            self.checkpoints.reset()
        if state_dir is not None:
            # Journal the engine's normalized input transactions so
            # delta checkpoints persist just the changes since the last
            # save.  Enabled only after any chain replay above, so
            # replayed transactions are not re-journaled.
            self.runtime.enable_journal()
        # ``_seq`` and multicast membership are engine state: only stage
        # 2 reads or mutates them (snapshots are taken via engine tasks).
        self._seq, groups, epochs = warmstate.unpack(warm or {})
        self._mcast = MulticastState(groups)
        #: The config epoch each device held when the engine state this
        #: controller was built with was checkpointed; ``None`` = the
        #: engine is fresh (no chain, no hand-off warm state).
        self._restored = epochs if warm is not None else None
        self.mgmt = wrap_mgmt(mgmt)
        self.devices = [
            ManagedDevice(wrap_device(d), f"device-{i}")
            for i, d in enumerate(devices)
        ]
        self.breaker_threshold = breaker_threshold
        self._started = False
        #: This controller's hold on the process's collector policy
        #: (:mod:`~repro.core.collector`), from start() to stop().
        self._collector_hold: Optional[object] = None

        # Pipeline plumbing (built in start()).
        self.engine_queue: Optional[CoalescingQueue] = None
        # A pump is submitted and not yet started (a spare one is harmless).
        self._engine_due = False
        #: One `DeviceChannel` per device, in ``devices`` order.
        self.channels: List = []
        self._fanout_plane: Optional[FanoutPlane] = None
        #: Every pipeline queue; the last to go idle settles the drains.
        self._queue_group = QueueGroup(self._settle_drains)
        self._errors: List[BaseException] = []
        self._drains: List[Task] = []  # parked until nothing is in flight

        # Config epochs: every fanned-out batch carries an update-id
        # stamp; when tracing is off none is minted upstream, so the
        # fan-out mints one from this process-unique run id (a restarted
        # controller must never reuse a prior run's ids — epoch equality
        # means "device state is exactly what I checkpointed").
        self._run_id = uuid.uuid4().hex[:8]
        self._epoch_counter = itertools.count(1)

        # Metrics.
        self.sync_count = 0
        self.sync_latencies: List[float] = []
        self.entries_written = 0
        self.digests_processed = 0
        self.mgmt_reconciles = 0
        self.device_resyncs = 0
        self.last_result = None
        #: ``"warm"`` or ``"cold"`` once :meth:`start` has run.
        self.restart_mode: Optional[str] = None
        #: Devices whose reported config epoch matched the checkpoint,
        #: letting the warm start skip their full resync.
        self.warm_skips = 0
        #: Wall-clock seconds from :meth:`start` to the end of its
        #: recovery (every device's initial sync done).
        self.start_seconds = 0.0
        self._stage_seconds: Dict[str, obs.Histogram] = {
            "ingest": obs.Histogram(),
            "evaluate": obs.Histogram(),
            "apply": obs.Histogram(),
        }
        self._ovsdb_tables = list(self.bindings.relation_for_ovsdb)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "NerpaController":
        """Start the pipeline, subscribe to both ends, and repair
        whatever differs — worked out from what can be observed:

        * the engine is **fresh**: the management snapshot is evaluated
          first, with nothing fanned out, then every device is brought
          to the result — a device reporting no config epoch (nothing
          was ever written to it through this stack) is simply sent
          the desired state, any other is read and diffed: stale
          entries deleted, missing ones inserted, correct ones left
          untouched;
        * the engine was **restored** (a checkpoint chain under
          ``state_dir``, or a standby's hand-off): every device's sync
          is queued first, then the management delta accumulated since
          the checkpoint — inserts *and* deletes — runs through the
          pipeline, its batches queued behind those syncs.  A device
          still reporting the epoch it was checkpointed with provably
          holds the checkpointed state: its sync is skipped and the
          batches bring it forward.  Any other is repaired to the
          engine's state when its sync runs, which supersedes the
          batches behind it.

        Blocks until the initial state is applied; semantic write
        failures are raised here.  Called on the controller's own
        reactor (a loop callback: an HA promotion), it queues that same
        recovery and returns, as :meth:`stop` there does not wait
        either; :meth:`on_started` hooks learn how the recovery ended.
        """
        if self._started:
            raise ReproError("controller already started")
        started_at = time.perf_counter()
        self._started = True
        self._collector_hold = collector.hold()
        try:
            return self._begin(started_at)
        except BaseException:
            collector.release(self._collector_hold)
            raise

    def _begin(self, started_at: float) -> "NerpaController":
        """:meth:`start` once it holds the collector policy."""
        self._fanout_plane = FanoutPlane(
            reactor=self.reactor,
            on_error=self._defer_error,
            breaker_threshold=self.breaker_threshold,
            fence=self.fencing_epoch,
            on_applied=partial(metrics.record_apply, self),
        )
        self.reactor = self._fanout_plane.reactor
        self.engine_queue = CoalescingQueue(
            name="engine", on_ready=self._wake_engine
        )
        self.channels = [
            self._fanout_plane.channel(device, name=device.name)
            for device in self.devices
        ]
        for queue in self._queues():
            queue.group = self._queue_group
        steps = self._start_steps(started_at)
        if self.reactor.in_loop():
            reconcile.drive(steps, self._run_start_hooks)
            return self
        recovered = Task(None)
        self.on_started(lambda error: recovered.finish(None, error))
        if not self.reactor.submit(
            reconcile.drive, steps, self._run_start_hooks
        ):
            raise ReproError("the controller's reactor is stopped")
        recovered.wait("initial device sync")
        self.drain()
        return self

    def _start_steps(self, started_at: float):
        """The body of :meth:`start`, on the loop, as a generator for
        :func:`~repro.core.reconcile.drive`: wait out devices still
        dialling (a sync's calls fail fast, and a first connect runs no
        reconnect hook to repair it), subscribe to them, run
        :meth:`_recover` as an engine task, wait for every device's
        initial sync, then go live."""
        yield partial(when_connected, self.devices, self.reactor)
        if not self._started:
            raise ReproError("controller stopped before its devices connected")
        for device in self.devices:
            device.io.attach_digests(self._on_digest)
            device.io.on_reconnect(
                lambda device=device: self.resync_device(device, wait=False)
            )
        self.restart_mode = "cold" if self._restored is None else "warm"
        syncs = yield self._submit_engine(self._recover, wait=False).then
        yield partial(when_all, syncs)
        if not self._started:
            raise ReproError("controller stopped before its initial sync")
        collector.freeze(self._collector_hold)
        self.mgmt.on_reconnect(self._on_mgmt_reconnect)
        if self.state_dir is not None and self.checkpoint_interval_s:
            self.checkpoints.start_timer(
                self.reactor, self.checkpoint_interval_s, self.save_checkpoint
            )
        self.start_seconds = time.perf_counter() - started_at
        if obs.ENABLED:
            obs.REGISTRY.counter(
                "controller_restart_total", mode=self.restart_mode
            ).inc()
            if self.restart_mode == "warm":
                obs.REGISTRY.histogram(
                    "controller_warm_start_seconds"
                ).observe(self.start_seconds)

    def on_started(self, hook) -> None:
        """Register ``hook(error)`` to run on the controller's reactor
        once :meth:`start`'s recovery has ended: ``error`` is ``None``
        when every device's initial sync succeeded, else what
        :meth:`start` raises.  Hooks run once; one that raises is
        counted as a loop callback error."""
        self._start_hooks.append(hook)

    def _run_start_hooks(self, _result, error: Optional[BaseException]) -> None:
        hooks, self._start_hooks = self._start_hooks, []
        for hook in hooks:
            try:
                hook(error)
            except Exception as exc:  # noqa: BLE001 - the next still runs
                self.reactor.note_callback_error(exc)

    def _recover(self) -> List[SyncTask]:
        """Engine task behind :meth:`start`; returns the per-device sync
        tasks.  One task on purpose: the subscription is ordered before
        every monitor update, and the syncs before every fan-out.

        Order matters for a restored engine: the syncs are enqueued
        *before* the post-checkpoint delta fans out, so each channel's
        FIFO queue sees (1) the sync decision against exactly the
        checkpointed state, then (2) the delta batches.  A fresh engine
        has no such state on any device, so it evaluates first and
        syncs to the result — a blank device then costs one write.
        """
        inserts, deletes = self._mgmt_delta()
        if self._restored is None:
            self._fold_mcast(self.runtime.initial_result)
            self._replay(inserts, deletes, fan_out=False)
            return self._queue_full_syncs(self.channels)
        tasks = self._queue_full_syncs(self.channels, self._restored, resync=True)
        self._replay(inserts, deletes)
        return tasks

    def drain(self, timeout: float = 30.0) -> "NerpaController":
        """Block until the pipeline is quiescent end to end.

        Every ingested changeset has been evaluated and every resulting
        device batch applied (or skipped by a quarantined device's
        breaker).  Semantic errors deferred by the later stages
        — a rejected write, an ill-typed action row — are re-raised
        here; transport failures are *not* errors (the breaker and
        resync machinery own those).  Raises
        :class:`~repro.core.pipeline.PipelineStalledError` when
        ``timeout`` passes first (``ReproError`` on the reactor).

        The wait is one loop callback, behind every event already handed
        to the loop, that parks until no queue has work in flight.
        """
        self._refuse_on_loop("drain()")
        quiet = Task(None)
        if self.engine_queue is None or not self.reactor.submit(
            self._settle_drains, quiet
        ):
            return self  # never started, or the loop is gone
        if not quiet.event.wait(timeout):
            self.reactor.submit(self._unpark_drain, quiet)
            raise PipelineStalledError(
                "pipeline did not quiesce before the drain deadline"
            )
        if quiet.error is not None:
            raise quiet.error
        return self

    def _queues(self) -> List[CoalescingQueue]:
        return [self.engine_queue, *(c.queue for c in self.channels)]

    def _settle_drains(self, quiet: Optional[Task] = None) -> None:
        """drain()'s callback, which parks ``quiet``, and the queue
        group's ``on_idle``: once no queue has work in flight, finish
        the parked drains — the first with the first deferred error."""
        if quiet is not None:
            self._drains.append(quiet)
        if not self._drains or self._queue_group.busy:
            return
        drains, self._drains = self._drains, []
        error = self._errors[0] if self._errors else None
        self._errors.clear()
        for drain in drains:
            drain.finish(None, error)
            error = None

    def _unpark_drain(self, quiet: Task) -> None:
        # drain() gave up at its deadline: forget its task or, if it was
        # finished meanwhile, keep its error for the next drain.
        if quiet in self._drains:
            self._drains.remove(quiet)
        elif quiet.error is not None:
            self._errors.insert(0, quiet.error)

    def stop(self) -> None:
        """Drain best-effort, then shut the pipeline down.

        Teardown ordering is load-bearing (audited for the HA path):

        1. cancel the background checkpoint timer, on the loop — a save
           in flight there finishes first, and none starts after it, so
           none reads the runtime closed below;
        2. drain, unsubscribe, close the queues, wait out a transaction
           running on the loop, close the runtime.

        Re-entrancy: stop() may be invoked from an engine task or a
        monitor callback reacting to a lease-table update, and an HA
        replica calls it on the loop (a demotion, or a stop racing a
        promotion whose recovery is still queued).  On the
        reactor it skips the drain and the wait, which would wait for
        itself.  Unsubscribing never waits (a remote monitor's cancel is
        sent, not awaited), so no loop is held, a management client's
        own included.  Stopping a stack whose management plane is
        already down must not raise out of teardown either.  The hold
        on the collector policy goes first, so no teardown step can
        keep it.
        """
        collector.release(self._collector_hold)
        self.checkpoints.stop_timer()
        on_loop = self.reactor is not None and self.reactor.in_loop()
        if self._started and not on_loop:
            try:
                self.drain(timeout=10.0)
            except ReproError:
                pass
        try:
            self.mgmt.unsubscribe()
        except (ReproError, OSError):
            pass
        self._started = False
        if self._fanout_plane is not None:

            def close_queues() -> None:  # a parked drain then returns
                for queue in self._queues():
                    queue.close()
                self._settle_drains()

            try:  # on the loop: no transaction is mid-way when the runtime closes
                self._wait_on_loop(close_queues, "closing the queues", 2.0)
            except ReproError:
                pass
            self._fanout_plane = None
        self.runtime.close()

    def __enter__(self) -> "NerpaController":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- warm-start checkpointing ------------------------------------------------

    def save_checkpoint(self, mode: str = "auto") -> str:
        """Persist the engine state, multicast membership, and per-device
        config epochs to ``state_dir`` (atomic writes, fsynced).

        ``mode`` selects what hits the disk:

        * ``"full"`` — a complete snapshot (engine checkpoint + controller
          bookkeeping) at ``controller.ckpt``, purging any delta segments
          (chain compaction);
        * ``"delta"`` — one append-only segment holding just the journaled
          engine transactions since the previous save, plus the current
          mcast/seq/epoch bookkeeping as segment meta.  Cost tracks the
          change rate, not total state size;
        * ``"auto"`` (default) — ``"delta"`` while the chain holds fewer
          than ``checkpoint_every`` segments, ``"full"`` otherwise (and
          always for the first save, which anchors the chain).

        The whole save — snapshot, pickle, write, fsync — is one
        callback where the engine state is consistent with respect to
        fan-out: inline on the controller's reactor (a loop callback may
        call this) or before :meth:`start`, otherwise as an engine task
        this call waits for.  Call after :meth:`drain` so the device
        epochs reflect everything the checkpointed engine state implies.
        """
        if self.state_dir is None:
            raise ReproError("controller has no state_dir to checkpoint to")
        if mode not in ("auto", "full", "delta"):
            raise ReproError(f"unknown checkpoint mode {mode!r}")

        def save() -> str:
            return self.checkpoints.save(
                mode,
                self.checkpoint_every,
                self.runtime,
                self._mcast.snapshot(),
                self._seq,
                {device.name: device.config_epoch for device in self.devices},
            )

        if self._started and not self.reactor.in_loop():
            return self._submit_engine(save)
        return save()

    @property
    def checkpoint_bytes(self) -> int:
        return self.checkpoints.bytes

    @property
    def checkpoint_seconds(self) -> float:
        return self.checkpoints.seconds

    @property
    def last_checkpoint_mode(self) -> Optional[str]:
        """``"full"`` or ``"delta"`` — what the last
        :meth:`save_checkpoint` actually wrote."""
        return self.checkpoints.last_mode

    @property
    def auto_checkpoints(self) -> int:
        """Checkpoints cut by the background timer."""
        return self.checkpoints.auto_saves

    # -- stage 1: ingest ---------------------------------------------------------

    def _hop(self, fn, *args) -> bool:
        """Hand ``fn(*args)`` to the loop under the update-id and trace
        span bound on this thread; False if the loop is gone."""
        parent = obs.TRACER.active() if obs.ENABLED else None
        return self.reactor.submit(_rebound, current_update_id(), parent, fn, args)

    def _on_updates(self, updates: TableUpdates) -> None:
        """Monitor delivery → changeset → engine queue (a notification
        callback on any thread, which builds the changeset: only the put
        hops to the loop, untraced merged into one waiting there)."""
        started = time.perf_counter()
        changeset = Changeset("mgmt")
        changeset.txns = 1
        input_row = self.bindings.input_row
        for table, rows in updates:
            relation = self.bindings.relation_for_ovsdb.get(table)
            if relation is None:
                continue
            for uuid, update in rows.items():
                key = (table, uuid)
                if update.kind == "insert":
                    changeset.record_insert(
                        relation, key, input_row(table, uuid, update.new)
                    )
                elif update.kind == "delete":
                    changeset.record_delete(
                        relation, key, input_row(table, uuid, update.old)
                    )
                else:  # modify: old carries only the changed columns
                    old_full = dict(update.new)
                    old_full.update(update.old)
                    changeset.record_delete(
                        relation, key, input_row(table, uuid, old_full)
                    )
                    changeset.record_insert(
                        relation, key, input_row(table, uuid, update.new)
                    )
        if not changeset.ops:
            return
        if self.reactor.in_loop():
            self._ingest(changeset, started)
        elif obs.ENABLED or current_update_id() is not None:
            self._hop(self._ingest, changeset)  # its own ingest span
        else:
            self.reactor.submit_merging(self._ingest, changeset)

    def _ingest(self, changeset: Changeset, started: Optional[float] = None):
        """Enqueue on the loop; ingest time counts from the build, if here."""
        started = started or time.perf_counter()
        span = obs.NULL_SPAN
        if obs.ENABLED:
            # The delivery's update-id (a fresh one if its peer bound
            # none) and parent span, for the evaluation to nest under.
            uid = current_update_id() or obs.mint_update_id()
            changeset.update_ids.append(uid)
            changeset.parent = obs.TRACER.active()
            span = obs.TRACER.span(
                "pipeline.ingest", update_id=uid, rows=changeset.row_count()
            )
        with span:
            self.engine_queue.coalesced += changeset.txns - 1  # merged waiting
            self.engine_queue.put(changeset)
            self.engine_queue.gauge_depth()
        self._stage_seconds["ingest"].observe(time.perf_counter() - started)

    def _on_digest(self, name: str, values: Tuple[int, ...]) -> None:
        """Data-plane feedback → digest changeset → engine queue (a
        notification callback on any thread: it hops onto the loop)."""
        if not self.reactor.in_loop():
            self._hop(self._on_digest, name, values)
            return
        relation = self.bindings.digest_relations.get(name)
        if relation is None:
            return
        changeset = Changeset("digest")
        changeset.digests = 1
        changeset.digest_name = name
        # The update-id of the config change whose entries produced the
        # digest: the feedback transaction's fresh id links back to it.
        changeset.link = current_update_id()
        row = tuple(values)
        changeset.record_insert(relation, (relation, row), row)
        self.engine_queue.put(changeset)
        self.engine_queue.gauge_depth()

    # -- stage 2: evaluate -------------------------------------------------------

    def _wake_engine(self) -> None:
        """``engine_queue.on_ready``: schedule the pump."""
        if not self._engine_due:
            self._engine_due = True
            self.reactor.submit(self._engine_pump)

    def _engine_pump(self) -> None:
        """One changeset or engine task per loop turn, so I/O and timers
        interleave with a backlog; re-submits itself while items remain."""
        self._engine_due = False
        queue = self.engine_queue
        item = queue.pop_nowait()
        if item is None:
            return
        queue.gauge_depth()
        try:
            if isinstance(item, Task):
                item.run()
            else:
                self._evaluate(item)
        except Exception as exc:  # noqa: BLE001 - surfaced at drain()
            self._defer_error(exc)
        finally:
            queue.task_done()
        if len(queue):
            self._wake_engine()

    def _submit_engine(self, fn, wait: bool = True):
        """Run ``fn`` as an engine task (it owns runtime + mcast): its
        result, or with ``wait=False`` the queued :class:`Task`."""
        queue = self.engine_queue
        if queue is None:
            raise ReproError("controller not started")
        if wait:
            self._refuse_on_loop("waiting for an engine task")
        task = Task(fn)
        if self.reactor.in_loop():
            queue.put(task)
        elif not self._hop(queue.put, task):
            task.abandon()
        return task.wait("engine task") if wait else task

    def _wait_on_loop(self, fn, what: str, timeout: float = 30.0):
        """``fn()``'s result, computed on the loop: inline there (or
        once the loop is gone), else handed to it and waited for."""
        if self.reactor.in_loop():
            return fn()
        task = Task(fn)
        if not self.reactor.submit(task.run):
            return fn()  # nothing runs on the loop any more
        return task.wait(what, timeout)

    def _refuse_on_loop(self, what: str) -> None:
        if self.reactor is not None and self.reactor.in_loop():
            raise ReproError(
                f"{what} on the controller's reactor would wait on itself"
            )

    def _evaluate(self, changeset: Changeset) -> None:
        """One engine transaction for one (possibly coalesced) changeset."""
        started = time.perf_counter()
        inserts, deletes = changeset.to_transaction()
        if not inserts and not deletes:
            return  # burst coalesced away to nothing
        is_digest = changeset.source == "digest"
        uid, update_ids, parent, span = None, [], None, obs.NULL_SPAN
        if obs.ENABLED:
            if is_digest:
                uid = obs.mint_update_id()
                span = obs.TRACER.span(
                    "controller.digest",
                    update_id=uid,
                    digest=changeset.digest_name,
                    link=changeset.link,
                )
                update_ids = [uid]
            else:
                uid = changeset.update_id or obs.mint_update_id()
                span = obs.TRACER.span(
                    "controller.sync",
                    update_id=uid,
                    rows=changeset.row_count(),
                    txns=changeset.txns,
                )
                update_ids = changeset.update_ids or [uid]
            parent = span
        with obs.TRACER.adopt(changeset.parent), use_update_id(uid), span:
            result = self.runtime.transaction(inserts=inserts, deletes=deletes)
            self._fan_out(
                result,
                update_ids=update_ids,
                parent=parent,
                first_enqueued=changeset.first_enqueued,
                txns=max(changeset.txns, 1),
            )
        if parent is not None:
            if is_digest:
                obs.REGISTRY.counter(
                    "controller_digests_total",
                    digest=changeset.digest_name or "?",
                ).inc(changeset.digests)
            else:
                obs.REGISTRY.counter("controller_syncs_total").inc()
                obs.REGISTRY.histogram("controller_sync_seconds").observe(
                    time.perf_counter() - started
                )
        if is_digest:
            self.digests_processed += changeset.digests
        if result.deltas or not is_digest:
            self.sync_count += 1
            self.last_result = result
        self._stage_seconds["evaluate"].observe(time.perf_counter() - started)

    def _fan_out(
        self,
        result,
        update_ids=(),
        parent=None,
        first_enqueued: Optional[float] = None,
        txns: int = 1,
    ) -> None:
        """Output deltas → one coalescible batch, the same object on
        every device queue.  Queues whose tails are one shared batch
        share one merge of it (:meth:`DeviceBatch.coalesce`), recorded
        on the batch until the last put.  The defaults are an untraced
        transaction enqueued just now."""
        self._seq += 1
        template = DeviceBatch(self._seq)
        # With tracing off no update-id was minted upstream, but the
        # batch still needs a config-epoch stamp for warm restarts.
        template.update_ids = list(update_ids) or [self._mint_epoch()]
        template.parent = parent
        if first_enqueued is not None:
            template.first_enqueued = first_enqueued
        template.txns = txns
        for relation, delta in result.deltas.items():
            binding = self.bindings.table_relations.get(relation)
            if binding is not None:
                template.add_delta(binding, delta)
            elif relation == MULTICAST_RELATION:
                template.mcast.update(self._mcast.fold(delta))
        if template.is_empty():
            return
        template.shared = True
        gauge = obs.ENABLED
        try:
            for channel in self.channels:
                channel.queue.put(template)
                if gauge:
                    channel.queue.gauge_depth()
        finally:
            template._merges = None  # queues that merged hold their batch

    # -- stage 3: apply ----------------------------------------------------------
    # (the per-batch work is repro.core.fanout.DeviceChannel's, and what
    # a batch records is repro.core.metrics.record_apply)

    # -- recovery ----------------------------------------------------------------

    def _on_mgmt_reconnect(self) -> None:
        """The management channel came back (possibly to a restarted
        server).  Running subscribe + diff *as an engine task* orders
        the reconcile strictly before any monitor update racing it."""
        if self._started:
            self._submit_engine(self._reconcile_mgmt, wait=False)

    def _reconcile_mgmt(self) -> None:
        inserts, deletes = self._mgmt_delta()
        self.mgmt_reconciles += 1
        self._replay(inserts, deletes)

    def _mgmt_delta(self):
        """Engine task step: (re-)subscribe, then diff the fresh
        snapshot against the engine's input relations."""
        fresh = self.mgmt.subscribe(self._ovsdb_tables, self._on_updates)
        return reconcile.mgmt_delta(fresh, self.bindings, self.runtime)

    def _replay(self, inserts, deletes, fan_out: bool = True) -> None:
        """Engine task step: run a reconciled delta through the normal
        evaluate → apply path.  ``fan_out=False`` only evaluates it: the
        caller queues full syncs next, and those carry the result."""
        if not inserts and not deletes:
            return
        result = self.runtime.transaction(inserts=inserts, deletes=deletes)
        if fan_out:
            self._fan_out(result)
        else:
            self._fold_mcast(result)
        self.sync_count += 1
        self.last_result = result

    def _fold_mcast(self, result) -> None:
        self._mcast.fold(result.deltas.get(MULTICAST_RELATION, {}))

    def resync_device(self, device, wait: bool = True) -> None:
        """Full-sync one device from the engine's output relations.

        ``device`` may be a :class:`~repro.core.planes.ManagedDevice` or
        an index into :attr:`devices`.  The engine is authoritative: a
        resync task on the device's *own* channel queue supersedes its
        queued incremental batches and performs the read-diff repair
        against a snapshot it takes when it runs — holding no
        controller-wide lock, and never blocking other devices or the
        engine.  Clears quarantine on success.

        ``wait=False`` only queues the task, on the loop, and returns —
        what a reconnect hook and any callback on the controller's
        reactor must use (waiting there would wait on the loop itself).
        """
        if isinstance(device, int):
            device = self.devices[device]
        if not self._started:
            return
        channel = next(
            (c for c in self.channels if c.device is device), None
        )
        if channel is None:
            raise ReproError(f"unknown device {device.name}")
        queue = partial(self._queue_full_syncs, [channel], resync=True)
        if wait:
            self._refuse_on_loop("waiting for a resync")
            task = self._wait_on_loop(queue, "queueing a resync")[0]
            task.wait(f"resync of {device.name}")
        elif self.reactor.in_loop():
            queue()
        else:
            self.reactor.submit(queue)

    def _queue_full_syncs(
        self,
        channels,
        expected: Optional[Dict[str, Optional[str]]] = None,
        resync: bool = False,
    ) -> List[SyncTask]:
        """Queue one full-sync task per channel, on the loop.

        A sync takes the desired state only if its device's reported
        epoch does not prove it — ``expected`` maps device names to the
        epochs a restored engine's state was checkpointed with — so a
        restart whose devices all match never dumps it.  It takes it in
        its channel's callback, outside an engine transaction: fan-out
        only ever happens inside one, so taking the snapshot and
        dropping the batches queued behind the sync is atomic w.r.t.
        fan-out — every dropped batch's changes are in the snapshot,
        and every later batch queues behind it.  The syncs share one
        snapshot until the next fan-out, and it dies with them.  A sync
        that always takes one (no expected epoch) supersedes the
        batches queued ahead of it too.

        ``resync``: a repair, counted as one — not a fresh engine's
        initial push of state this controller never put there.
        """
        taken: list = [None, None]  # (fan-out seq, snapshot)

        def snapshot(queue: CoalescingQueue):
            if taken[0] != self._seq:
                desired = reconcile.desired_writes(self.bindings, self.runtime)
                snap = (desired, self._mcast.snapshot(), self._mint_epoch())
                taken[:] = self._seq, snap
            queue.drop(_is_batch)
            return taken[1]

        tasks = []
        for channel in channels:
            task = SyncTask(
                self._sync_device(
                    channel.device,
                    (expected or {}).get(channel.device.name),
                    partial(snapshot, channel.queue),
                    resync,
                )
            )
            channel.queue.put(task, supersedes=None if expected else _is_batch)
            tasks.append(task)
        return tasks

    def _sync_device(self, device, expected: Optional[str], snapshot, resync):
        """The steps of a full device sync, plus its counters."""
        fixed = yield from reconcile.full_sync(
            device, self.bindings, expected, snapshot,
            self.fencing_epoch, self.breaker_threshold,
        )
        if fixed is reconcile.MATCHED:
            self.warm_skips += 1
            if obs.ENABLED:
                obs.REGISTRY.counter(
                    "controller_warm_resync_skips_total", device=device.name
                ).inc()
        elif fixed is not None:
            if resync:
                device.recover()
                self.device_resyncs += 1
            self.entries_written += fixed
        return fixed

    # -- shared plumbing ---------------------------------------------------------

    def _mint_epoch(self) -> str:
        """A process-unique config-epoch id.  The run-id prefix keeps a
        restarted controller from ever reusing a previous run's ids —
        epoch equality must imply identical device state."""
        return f"ep-{self._run_id}-{next(self._epoch_counter):08d}"

    def _defer_error(self, exc: BaseException) -> None:
        if len(self._errors) < 64:
            self._errors.append(exc)

    # -- introspection -----------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """Per-peer connection state, retry counters, and transitions."""
        devices = [device.health() for device in self.devices]
        for report, channel in zip(devices, self.channels):
            report["queue_depth"] = len(channel.queue)
        return {
            "mgmt": self.mgmt.health(),
            "devices": devices,
            "mgmt_reconciles": self.mgmt_reconciles,
            "device_resyncs": self.device_resyncs,
        }

    def metrics(self) -> Dict[str, object]:
        """Counters, latencies and the pipeline report, read on the
        controller's loop: from any other thread while the pipeline
        runs, this waits for that loop callback."""
        report = partial(metrics.report, self)
        return self._wait_on_loop(report, "metrics()") if self._started else report()


def _is_batch(item) -> bool:
    return isinstance(item, DeviceBatch)


def _rebound(uid: Optional[str], parent, fn, args) -> None:
    """``fn(*args)`` under the update-id and parent span of the thread
    that handed it to the loop."""
    with obs.TRACER.adopt(parent), use_update_id(uid):
        fn(*args)
