"""The Nerpa controller: state synchronization across the three planes.

The controller owns the runtime loop the paper describes in §3, run as
a **staged pipeline** (see ``docs/ARCHITECTURE.md``):

* **ingest** (stage 1, caller threads) — each committed management
  transaction becomes a :class:`~repro.core.pipeline.Changeset`; data
  plane **digests** (e.g. MAC learning) become digest changesets — the
  feedback loop.  Changesets land on a bounded coalescing queue, so a
  burst of transactions collapses into one net changeset while the
  engine is busy (modify = delete+insert pairs cancel, last writer
  wins per row key);
* **evaluate** (stage 2, the engine thread) — one engine transaction
  per changeset; the control program's *output deltas* fan out as one
  :class:`~repro.core.pipeline.DeviceBatch` per device.  Rows of the
  reserved ``MulticastGroup(group, port)`` output relation are folded
  into per-group port lists and ride the same batch;
* **apply** (stage 3, the fan-out plane) — batches merge on each
  device's own coalescing queue and go out as a single batched
  P4Runtime write (deletes before inserts, atomic per batch, in
  engine-transaction order).  One shared
  :class:`~repro.net.aio.Reactor` — the device clients' own — drives
  a lightweight :class:`~repro.core.fanout.DeviceChannel` state
  machine per device: remote devices write non-blocking through their
  P4Runtime client, in-process simulators run on a small pool, so
  thousands of devices cost one loop thread.  Device I/O holds **no**
  controller-wide lock, so a slow or broken device backs up only its
  own queue — never the engine or its peers.

:meth:`NerpaController.drain` waits for end-to-end quiescence and
surfaces semantic errors (``WriteError`` etc.) deferred by the
pipeline's later stages; ``start()`` and ``stop()`` drain internally, so
synchronous callers keep their old contract.

**Fault tolerance.**  The control plane is the authoritative copy of
both neighbors' state, so every failure is recovered by *rebuilding
from the engine* — as pipeline work items, never under a global lock:

* management-plane reconnect → an engine-thread task re-issues the
  monitor subscription and diffs the fresh snapshot against the
  engine's input relations (``runtime.dump``); because the task runs
  on the engine thread, monitor updates racing the reconnect are
  ordered strictly after the reconcile;
* device reconnect → a resync task on that device's channel queue
  replays the engine's output relations as a read-diff full sync,
  superseding any queued incremental batches;
* a device that fails ``breaker_threshold`` consecutive syncs with a
  transport error is **quarantined**: its channel drops batches without
  touching the wire until the connection recovers and the resync
  repairs everything it missed.

Per-sync latency — the interval the paper measures in §4.3 between the
controller *reading* a change and the data-plane entry being written —
is recorded end-to-end (ingest enqueue → device apply) in
:attr:`NerpaController.sync_latencies`, and per device in each managed
device's ``latencies``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.stats import percentile
from repro.core.codegen import TableBinding
from repro.core.fanout import FanoutPlane
from repro.core.pipeline import MULTICAST_RELATION, NerpaProject
from repro.core.pipeline.changeset import Changeset, DeviceBatch
from repro.core.pipeline.queues import CoalescingQueue
from repro.core.typebridge import dlog_value_to_match, ovsdb_value_to_dlog
from repro.dlog import checkpoint as ckpt
from repro.dlog.values import StructValue
from repro.errors import ProtocolError, ReproError, TypeCheckError
from repro.mgmt.database import Database
from repro.mgmt.monitor import MonitorSpec, TableUpdates
from repro.net.aio import Reactor
from repro.obs.trace import current_update_id, use_update_id
from repro.p4.simulator import Simulator
from repro.p4.tables import TableEntry
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.api import DeviceService, TableWrite

#: Exceptions treated as *transport* failures by the circuit breaker.
#: Semantic rejections (``WriteError`` etc.) are deferred to
#: :meth:`NerpaController.drain` — they indicate a controller bug, not
#: a flaky peer.
_TRANSPORT_ERRORS = (ProtocolError, OSError)

#: Samples retained per latency/stage-timing series — bounded so a
#: long-running controller's metrics bookkeeping cannot grow without
#: limit.
_STATS_WINDOW = 8192


def _append_sample(samples: List[float], value: float) -> None:
    """Append to a bounded sample list (caller holds ``_stats_lock``)."""
    samples.append(value)
    if len(samples) > _STATS_WINDOW:
        del samples[: len(samples) - _STATS_WINDOW]


class _LocalMgmt:
    def __init__(self, db: Database):
        self.db = db
        self.monitor = None

    def subscribe(self, tables, callback) -> TableUpdates:
        spec = MonitorSpec({t: None for t in tables})
        self.monitor, initial = self.db.add_monitor(spec, callback)
        return initial

    def unsubscribe(self) -> None:
        if self.monitor is not None:
            self.db.remove_monitor(self.monitor)
            self.monitor = None

    def on_reconnect(self, hook) -> None:
        pass  # in-process databases do not disconnect

    def health(self) -> Dict[str, object]:
        return {"peer": "local-db", "state": "connected", "transitions": []}


class _RemoteMgmt:
    def __init__(self, client):
        self.client = client
        self.monitor_id = None

    def subscribe(self, tables, callback) -> TableUpdates:
        self.monitor_id, initial = self.client.monitor(
            {t: None for t in tables}, callback
        )
        return initial

    def unsubscribe(self) -> None:
        if self.monitor_id is not None:
            self.client.monitor_cancel(self.monitor_id)
            self.monitor_id = None

    def on_reconnect(self, hook) -> None:
        self.client.on_reconnect(hook)

    def health(self) -> Dict[str, object]:
        return self.client.health()


class _LocalDevice:
    def __init__(self, target):
        if isinstance(target, Simulator):
            self.service = DeviceService(target)
        else:
            self.service = target
        self._event_log: List[str] = []

    def write(self, updates, fence=None) -> None:
        self.service.fenced_write(updates, fence)

    def apply_batch(
        self, updates, mcast=None, update_ids=None, fence=None
    ) -> None:
        # The caller (a pool thread) binds the batch's update-id on the
        # context, which is how the service stamps the config epoch.
        self.service.fenced_apply_batch(updates, mcast, fence)

    def read_table(self, table: str):
        return [
            TableWrite("INSERT", table, e)
            for e in self.service.read_table(table)
        ]

    def set_multicast_group(self, group_id, ports) -> None:
        self.service.set_multicast_group(group_id, ports)

    def get_config_epoch(self):
        return self.service.get_config_epoch()

    def set_config_epoch(self, epoch, fence=None) -> None:
        self.service.fenced_set_config_epoch(epoch, fence)

    def attach_digests(self, callback) -> None:
        sim = self.service.sim
        previous = sim.digest_callback

        def chained(message):
            if previous is not None:
                previous(message)
            # Bind the update-id of the config change that installed
            # the digest-producing entries, so the feedback transaction
            # can link back to it without a signature change.
            uid = getattr(message, "update_id", None)
            if uid is not None:
                with use_update_id(uid):
                    callback(message.name, message.values)
            else:
                callback(message.name, message.values)

        sim.digest_callback = chained

    def on_reconnect(self, hook) -> None:
        pass  # in-process devices do not disconnect

    def wait_ready(self, timeout: float) -> bool:
        return True

    def note_event(self, tag: str) -> None:
        self._event_log.append(tag)

    def health(self) -> Dict[str, object]:
        return {
            "peer": "local-device",
            "state": "connected",
            "transitions": list(self._event_log),
        }


class _RemoteDevice:
    """A device behind a P4Runtime client.  The client's own surface is
    used as is — its blocking calls by resync tasks on the fan-out
    plane's pool, ``client.apply_batch_async`` by batches on the loop
    thread; only what :class:`_LocalDevice` spells differently is
    adapted here."""

    def __init__(self, client: AioP4RuntimeClient):
        self.client = client

    def __getattr__(self, name: str):
        return getattr(self.client, name)

    def attach_digests(self, callback) -> None:
        self.client.subscribe_digests(callback)

    def wait_ready(self, timeout: float) -> bool:
        # Backpressure awareness: park until the transport is usable
        # instead of burning a call timeout per queued batch.
        return self.client.conn.wait_connected(timeout)

    def note_event(self, tag: str) -> None:
        self.client.conn.note_event(tag)


class _ManagedDevice:
    """A device plus its circuit-breaker state."""

    def __init__(self, io, name: str):
        self.io = io
        self.name = name
        self.consecutive_failures = 0
        self.quarantined = False
        self.syncs_missed = 0
        self.resyncs = 0
        self.last_error: Optional[str] = None
        #: Round trips issued by this device's writer (a coalesced
        #: batch counts once — the batching win is visible here).
        self.writes_issued = 0
        #: End-to-end latencies (ingest enqueue → applied) per batch.
        self.latencies: List[float] = []
        #: Wire round-trip latencies (issue → ack) per batch — the
        #: device's own service time, excluding queue wait.  A slow
        #: peer shows up here *and* in ``latencies``; fleet-wide queue
        #: pressure only in ``latencies``.
        self.io_latencies: List[float] = []
        #: The update-id of the last batch/resync this controller saw
        #: applied to the device — the device's config epoch as the
        #: controller believes it.  Checkpointed for warm restarts.
        self.config_epoch: Optional[str] = None

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self, exc: BaseException, threshold: int) -> bool:
        """Returns True if this failure tripped the breaker."""
        self.consecutive_failures += 1
        self.last_error = str(exc) or type(exc).__name__
        if not self.quarantined and self.consecutive_failures >= threshold:
            self.quarantined = True
            self.io.note_event("quarantined")
            return True
        return False

    def recover(self) -> None:
        if self.quarantined:
            self.io.note_event("recovered")
        self.quarantined = False
        self.consecutive_failures = 0
        self.resyncs += 1

    def health(self) -> Dict[str, object]:
        report = dict(self.io.health())
        report.update(
            {
                "name": self.name,
                "quarantined": self.quarantined,
                "consecutive_failures": self.consecutive_failures,
                "syncs_missed": self.syncs_missed,
                "resyncs": self.resyncs,
            }
        )
        if self.last_error is not None:
            report["last_device_error"] = self.last_error
        return report


class _EngineTask:
    """A control item for the engine thread (reconciles, snapshots)."""

    __slots__ = ("fn", "event", "result", "error")

    def __init__(self, fn):
        self.fn = fn
        self.event = threading.Event()
        self.result = None
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self.result = self.fn()
        except BaseException as exc:  # noqa: BLE001 - handed to waiter
            self.error = exc
        finally:
            self.event.set()


class _WriterTask:
    """A control item on one device's channel queue (resyncs); runs on
    the fan-out plane's pool."""

    __slots__ = ("fn", "event", "error")

    def __init__(self, fn):
        self.fn = fn
        self.event = threading.Event()
        self.error: Optional[BaseException] = None

    def run(self, device: "_ManagedDevice") -> None:
        try:
            self.fn(device)
        except BaseException as exc:  # noqa: BLE001 - handed to waiter
            self.error = exc
        finally:
            self.event.set()


def _wrap_device(target):
    if isinstance(target, AioP4RuntimeClient):
        return _RemoteDevice(target)
    if isinstance(target, (Simulator, DeviceService)):
        return _LocalDevice(target)
    raise TypeError(f"cannot manage device {target!r}")


def _wrap_mgmt(target):
    from repro.mgmt.client import ManagementClient

    if isinstance(target, Database):
        return _LocalMgmt(target)
    if isinstance(target, ManagementClient):
        return _RemoteMgmt(target)
    raise TypeError(f"cannot use {target!r} as a management plane")


class NerpaController:
    """Keeps management, control, and data planes synchronized."""

    def __init__(
        self,
        project: NerpaProject,
        mgmt,
        devices,
        breaker_threshold: int = 3,
        coalesce: bool = True,
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
        # Channel and connection callbacks must share one loop thread,
        # so stage 3 runs on the device clients' own reactor; an
        # explicit ``reactor`` has to be that same one.  ``None`` (only
        # in-process devices) falls back to the process-wide default.
        reactors = {
            d.reactor for d in devices if isinstance(d, AioP4RuntimeClient)
        }
        if reactor is not None:
            reactors.add(reactor)
        if len(reactors) > 1:
            raise ReproError(
                "controller and device clients must share one reactor "
                f"(got {sorted(r.name for r in reactors)})"
            )
        self._reactor = reactors.pop() if reactors else None
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
        #: daemon thread calls ``save_checkpoint(mode="auto")`` every
        #: interval while the pipeline runs; :meth:`stop` cancels it
        #: before closing anything it depends on.
        self.checkpoint_interval_s = checkpoint_interval_s
        self._ckpt_timer_stop: Optional[threading.Event] = None
        self._ckpt_timer_thread: Optional[threading.Thread] = None
        # Serializes save_checkpoint bodies: the background timer and an
        # explicit caller may race, and the store's index/anchor
        # bookkeeping is not concurrency-safe.
        self._ckpt_lock = threading.RLock()
        #: Checkpoints cut by the background timer.
        self.auto_checkpoints = 0
        #: Fencing epoch stamped on every device write this controller
        #: issues (``None`` = unfenced, the single-controller default).
        #: Devices reject writes carrying an epoch older than the
        #: highest they have seen, so a deposed leader — paused, then
        #: resumed after a takeover — cannot corrupt device state.
        self._fencing_epoch: Optional[int] = fencing_epoch
        # Hooks run at the top of stop(), before any transport is torn
        # down (repro.core.ha releases its leadership lease here).
        self._stop_hooks: List = []
        # Warm-start state: if a compatible checkpoint exists, restore
        # the engine from it instead of recomputing the fixpoint.  An
        # unreadable or hash-mismatched checkpoint silently degrades to
        # a cold start — always correct, just slower.  The checkpoint
        # is a *chain* (full snapshot + delta segments, see
        # :class:`repro.dlog.checkpoint.CheckpointStore`); the full
        # snapshot keeps the pre-chain ``controller.ckpt`` name and
        # payload, so checkpoints from older controllers restore fine.
        self._warm_state: Optional[dict] = None
        self._ckpt_store: Optional[ckpt.CheckpointStore] = None
        runtime = None
        if warm_source is not None:
            # A warm standby (repro.core.ha.CheckpointFollower) hands
            # over the runtime it kept hot by tailing the shared chain,
            # plus the warm bookkeeping (mcast/seq/device_epochs) from
            # the chain's tail — no disk load needed.  The store starts
            # unanchored, so the first auto checkpoint cuts a fresh
            # full snapshot (this controller is the chain's writer now).
            runtime, handed_state = warm_source
            if runtime is not None:
                self._warm_state = dict(handed_state or {})
            if state_dir is not None:
                self._ckpt_store = self._make_store()
        elif state_dir is not None:
            self._ckpt_store = self._make_store()
            try:
                full, segments = self._ckpt_store.load_chain(
                    lambda data: int(data.get("engine_txns", 0))
                )
            except ckpt.CheckpointError:
                full, segments = None, []
            if full is not None:
                engine_ckpt = full.get("engine")
                if segments:
                    engine_ckpt = {
                        "delta_chain": True,
                        "full": engine_ckpt,
                        "segments": segments,
                    }
                runtime = project.program.start(
                    checkpoint=engine_ckpt,
                    shards=shards,
                    shard_workers=shard_workers,
                )
                if runtime.restored:
                    self._warm_state = dict(full)
                    if segments:
                        # The chain's tail is the freshest controller
                        # state: each segment's meta snapshots the
                        # mcast/seq/epoch bookkeeping as of its cut.
                        meta = segments[-1].get("meta") or {}
                        for key in ("mcast", "seq", "device_epochs"):
                            if key in meta:
                                self._warm_state[key] = meta[key]
        self.runtime = (
            runtime
            if runtime is not None
            else project.program.start(
                shards=shards, shard_workers=shard_workers
            )
        )
        if self._ckpt_store is not None and self._warm_state is None:
            # The chain (if any) does not describe this runtime's state
            # — cold start or hash mismatch.  Reset to an unanchored
            # store so the next save_checkpoint cuts a full snapshot.
            self._ckpt_store = self._make_store()
        # Journal the engine's normalized input transactions so delta
        # checkpoints can persist just the changes since the last save.
        # Enabled only after any chain replay above, so replayed
        # transactions are not re-journaled.
        self._journal_on = False
        if self.state_dir is not None:
            self.runtime.enable_journal()
            self._journal_on = True
        self.mgmt = _wrap_mgmt(mgmt)
        self.devices = [
            _ManagedDevice(_wrap_device(d), f"device-{i}")
            for i, d in enumerate(devices)
        ]
        self.breaker_threshold = breaker_threshold
        #: ``coalesce=False`` disables queue-tail merging (one wire
        #: write per engine transaction) — the unbatched baseline the
        #: pipeline benchmark compares against.
        self.coalesce = coalesce
        # Multicast membership is engine-thread state: only stage 2
        # reads or mutates it (snapshots are taken via engine tasks).
        self._mcast_members: Dict[int, set] = {}
        self._started = False
        # When not None, the evaluate stage collects table writes here
        # instead of fanning them out (used to compute the desired
        # state on a reconciling restart).  Multicast config is
        # idempotent and is always applied directly.
        self._buffer: Optional[List[TableWrite]] = None

        # Pipeline plumbing (built in start()).  ``_writers`` holds one
        # `DeviceChannel` per device.
        self._engine_queue: Optional[CoalescingQueue] = None
        self._engine_thread: Optional[threading.Thread] = None
        self._writers: List = []
        self._fanout_plane: Optional[FanoutPlane] = None
        self._seq = 0
        self._errors: List[BaseException] = []
        self._stats_lock = threading.Lock()

        # Config epochs: every fanned-out batch carries an update-id
        # stamp; when tracing is off none is minted upstream, so the
        # fan-out mints one from this process-unique run id (a restarted
        # controller must never reuse a prior run's ids — epoch equality
        # means "device state is exactly what I checkpointed").
        self._run_id = uuid.uuid4().hex[:8]
        self._epoch_counter = itertools.count(1)
        if self._warm_state is not None:
            self._seq = int(self._warm_state.get("seq", 0))
            self._mcast_members = {
                int(group): set(members)
                for group, members in self._warm_state.get(
                    "mcast", {}
                ).items()
            }

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
        #: Wall-clock seconds of the last :meth:`start` call.
        self.start_seconds = 0.0
        self.checkpoint_bytes = 0
        self.checkpoint_seconds = 0.0
        #: ``"full"`` or ``"delta"`` — what the last
        #: :meth:`save_checkpoint` actually wrote.
        self.last_checkpoint_mode: Optional[str] = None
        self._stage_seconds: Dict[str, List[float]] = {
            "ingest": [],
            "evaluate": [],
            "apply": [],
        }

        self._ovsdb_tables = list(self.bindings.relation_for_ovsdb)
        # Cache of schema column order per OVSDB table.
        self._columns = {
            table: list(project.schema.table(table).columns.values())
            for table in self._ovsdb_tables
        }

    # -- lifecycle ---------------------------------------------------------------

    def start(
        self, reconcile: bool = False, warm: bool = False
    ) -> "NerpaController":
        """Start the pipeline, subscribe to both ends, sync initial state.

        With ``reconcile=True`` the controller assumes it may be
        restarting against devices that already hold entries (e.g. the
        previous controller instance crashed): instead of blindly
        inserting, it computes the desired state from the initial
        snapshot, reads each device's tables, and issues only the
        difference — stale entries are deleted, missing ones inserted,
        already-correct ones left untouched.

        With ``warm=True`` (requires ``state_dir``) the controller
        restarts from the checkpoint written by :meth:`save_checkpoint`:
        the engine state is restored without recompute, only the
        management-DB delta accumulated since the checkpoint runs
        through the pipeline, and devices whose reported config epoch
        matches the checkpointed one skip the full read-diff resync.
        Missing or incompatible checkpoints (and epoch-mismatched
        devices) fall back to the cold ``reconcile`` path, which is
        always correct.

        Blocks until the initial state is applied; semantic write
        failures (e.g. colliding entries without ``reconcile``) are
        raised here.
        """
        if self._started:
            raise ReproError("controller already started")
        started_at = time.perf_counter()
        warm_state = self._warm_state if warm else None
        self._warm_state = None
        if warm and warm_state is None:
            # Asked for warm but there is nothing compatible to restore:
            # behave like a crash restart against possibly-stale devices.
            reconcile = True
        self._started = True
        self._engine_queue = CoalescingQueue(
            name="engine", maxlen=1024, merge=self.coalesce
        )
        self._engine_thread = threading.Thread(
            target=self._engine_loop, name="nerpa-engine", daemon=True
        )
        self._engine_thread.start()
        self._fanout_plane = FanoutPlane(
            reactor=self._reactor,
            max_blocking_workers=min(64, max(8, len(self.devices))),
            on_error=self._defer_error,
        )
        self._writers = [
            self._fanout_plane.channel(
                device,
                self._channel_runner,
                name=device.name,
                maxlen=512,
                merge=self.coalesce,
            )
            for device in self.devices
        ]
        for device in self.devices:
            device.io.attach_digests(self._on_digest)
            device.io.on_reconnect(self._device_reconnect_hook(device))
        if warm_state is not None:
            self.restart_mode = "warm"
            epochs = dict(warm_state.get("device_epochs", {}))
            tasks = self._submit_engine(
                lambda: self._warm_restore(epochs)
            )
            for task in tasks:
                if not task.event.wait(30.0):
                    raise ReproError("warm device sync timed out")
                if task.error is not None:
                    raise task.error
        elif reconcile:
            self.restart_mode = "cold"
            # Compute desired state silently (buffer the writes), then
            # read-diff every device in parallel on its own channel.
            self._buffer = []
            self._submit_engine(self._push_initial, wait=False)
            initial = self.mgmt.subscribe(self._ovsdb_tables, self._on_updates)
            self._on_updates(initial)
            self.drain()
            desired = self._buffer or []
            self._buffer = None
            epoch = self._mint_epoch("reconcile")
            tasks = []
            for writer in self._writers:
                task = _WriterTask(
                    lambda device, d=desired: self._run_resync(
                        device, d, {}, recover=False, count=False,
                        epoch=epoch,
                    )
                )
                writer.queue.put(task)
                tasks.append(task)
            for task in tasks:
                if not task.event.wait(30.0):
                    raise ReproError("reconciling device sync timed out")
                if task.error is not None:
                    raise task.error
        else:
            self.restart_mode = "cold"
            self._submit_engine(self._push_initial, wait=False)
            initial = self.mgmt.subscribe(self._ovsdb_tables, self._on_updates)
            self._on_updates(initial)
        self.mgmt.on_reconnect(self._on_mgmt_reconnect)
        self.drain()
        if self.state_dir is not None and self.checkpoint_interval_s:
            self._ckpt_timer_stop = threading.Event()
            self._ckpt_timer_thread = threading.Thread(
                target=self._checkpoint_timer_loop,
                name="nerpa-ckpt-timer",
                daemon=True,
            )
            self._ckpt_timer_thread.start()
        self.start_seconds = time.perf_counter() - started_at
        if obs.enabled():
            obs.REGISTRY.counter(
                "controller_restart_total", mode=self.restart_mode
            ).inc()
            if self.restart_mode == "warm":
                obs.REGISTRY.histogram(
                    "controller_warm_start_seconds"
                ).observe(self.start_seconds)
        return self

    def _push_initial(self) -> None:
        """Engine task: fan out the program's initial output state."""
        self._fan_out(
            self.runtime.initial_result,
            update_ids=[],
            parent=None,
            first_enqueued=time.perf_counter(),
            txns=1,
        )

    def drain(self, timeout: float = 30.0) -> "NerpaController":
        """Block until the pipeline is quiescent end to end.

        Every ingested changeset has been evaluated and every resulting
        device batch applied (or skipped by a quarantined device's
        breaker).  Semantic errors deferred by the later stages
        — a rejected write, an ill-typed action row — are re-raised
        here; transport failures are *not* errors (the breaker and
        resync machinery own those).
        """
        deadline = time.monotonic() + timeout
        while True:
            if self._engine_queue is not None:
                self._engine_queue.join(deadline)
            for writer in self._writers:
                writer.queue.join(deadline)
            error: Optional[BaseException] = None
            with self._stats_lock:
                if self._errors:
                    error = self._errors[0]
                    self._errors.clear()
            if error is not None:
                raise error
            # A digest arriving mid-drain (or a stage handing work to
            # the next) re-fills an earlier queue — loop until a full
            # pass sees everything quiet.
            if (
                self._engine_queue is None
                or self._engine_queue.unfinished == 0
            ) and all(w.queue.unfinished == 0 for w in self._writers):
                return self

    def stop(self) -> None:
        """Drain best-effort, then shut the pipeline down.

        Teardown ordering is load-bearing (audited for the HA path):

        1. cancel the background checkpoint timer — its saves submit
           engine tasks, which must not race the queue close below;
        2. run the registered stop hooks (lease release, etc.) while
           the transports are still up;
        3. drain, unsubscribe, close queues, join threads, stop the
           fan-out plane, close the runtime.

        Re-entrancy: stop() may be invoked from a pipeline thread (an
        engine task or a monitor callback reacting to a lease-table
        update).  Joining the calling thread would deadlock, so joins
        of the current thread are skipped — the daemon thread exits on
        its own once its closed queue drains.  Stopping a stack whose
        management plane is already down must not raise out of
        teardown.
        """
        current = threading.current_thread()
        timer_stop = self._ckpt_timer_stop
        if timer_stop is not None:
            timer_stop.set()
        timer_thread = self._ckpt_timer_thread
        if timer_thread is not None and timer_thread is not current:
            timer_thread.join(timeout=5.0)
        self._ckpt_timer_thread = None
        self._ckpt_timer_stop = None
        for hook in list(self._stop_hooks):
            try:
                hook()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
        self._stop_hooks = []
        on_engine = current is self._engine_thread
        if self._started and not on_engine:
            try:
                self.drain(timeout=10.0)
            except ReproError:
                pass
        try:
            self.mgmt.unsubscribe()
        except (ProtocolError, OSError):
            pass
        self._started = False
        if self._engine_queue is not None:
            self._engine_queue.close()
        for writer in self._writers:
            writer.queue.close()
        if self._engine_thread is not None:
            if not on_engine:
                self._engine_thread.join(timeout=2.0)
            self._engine_thread = None
        if self._fanout_plane is not None:
            self._fanout_plane.stop()
            self._fanout_plane = None
        close = getattr(self.runtime, "close", None)
        if close is not None:
            close()

    def on_stop(self, hook) -> None:
        """Register ``hook`` to run at the top of :meth:`stop`, before
        any transport or thread is torn down.  Hooks run once and are
        cleared; exceptions are swallowed (teardown must complete)."""
        self._stop_hooks.append(hook)

    # -- warm-start checkpointing ------------------------------------------------

    def _checkpoint_path(self) -> str:
        return os.path.join(self.state_dir, "controller.ckpt")

    def _make_store(self) -> ckpt.CheckpointStore:
        return ckpt.CheckpointStore(
            self.state_dir, "controller.ckpt",
            self.project.program.program_hash,
        )

    def _mcast_snapshot(self) -> Dict[int, List[int]]:
        return {
            group: sorted(members)
            for group, members in self._mcast_members.items()
            if members
        }

    def _engine_txns(self) -> int:
        return int(getattr(self.runtime, "txn_count", 0))

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

        The engine-owned state is snapshotted via an engine task when
        the pipeline is running, so it is consistent with respect to
        fan-out.  Call after :meth:`drain` so the device epochs reflect
        everything the checkpointed engine state implies.
        """
        if self.state_dir is None:
            raise ReproError("controller has no state_dir to checkpoint to")
        if mode not in ("auto", "full", "delta"):
            raise ReproError(f"unknown checkpoint mode {mode!r}")
        with self._ckpt_lock:
            return self._save_checkpoint_locked(mode)

    def _save_checkpoint_locked(self, mode: str) -> str:
        started = time.perf_counter()
        if self._ckpt_store is None:
            self._ckpt_store = self._make_store()
        store = self._ckpt_store
        effective = mode
        if effective == "auto":
            effective = (
                "delta"
                if self._journal_on
                and not store.should_full(self.checkpoint_every)
                else "full"
            )
        if effective == "delta" and not self._journal_on:
            raise ReproError(
                "delta checkpoint needs a journaling runtime "
                "(controller built without state_dir journaling)"
            )
        os.makedirs(self.state_dir, exist_ok=True)
        epochs = {
            device.name: device.config_epoch for device in self.devices
        }
        if effective == "full":

            def snap() -> dict:
                if self._journal_on:
                    # The snapshot captures everything journaled so far;
                    # the chain restarts here.
                    self.runtime.drain_journal()
                return {
                    "format": ckpt.CHECKPOINT_FORMAT,
                    "engine": self.runtime.checkpoint(),
                    "engine_txns": self._engine_txns(),
                    "mcast": self._mcast_snapshot(),
                    "seq": self._seq,
                }

            data = self._submit_engine(snap) if self._started else snap()
            data["device_epochs"] = epochs
            size = store.save_full(data, data["engine_txns"])
            path = self._checkpoint_path()
        else:

            def snap() -> dict:
                return {
                    "txns": self.runtime.drain_journal(),
                    "engine_txns": self._engine_txns(),
                    "meta": {
                        "mcast": self._mcast_snapshot(),
                        "seq": self._seq,
                    },
                }

            data = self._submit_engine(snap) if self._started else snap()
            data["meta"]["device_epochs"] = epochs
            path = store._segment_path(store._next_index)
            size = store.save_delta(
                data["txns"], data["engine_txns"], meta=data["meta"]
            )
        self.checkpoint_bytes = size
        self.checkpoint_seconds = time.perf_counter() - started
        self.last_checkpoint_mode = effective
        if obs.enabled():
            obs.REGISTRY.gauge(
                "controller_checkpoint_bytes", mode=effective
            ).set(size)
            obs.REGISTRY.gauge("controller_checkpoint_seconds").set(
                self.checkpoint_seconds
            )
        return path

    def _checkpoint_timer_loop(self) -> None:
        """Background-checkpoint thread: ``save_checkpoint("auto")``
        every ``checkpoint_interval_s`` until :meth:`stop` sets the
        event.  A save racing teardown (engine queue closed) degrades
        to a no-op — the explicit stop-path checkpoint, if the caller
        wants one, still runs under :attr:`_ckpt_lock`."""
        stop = self._ckpt_timer_stop
        interval = self.checkpoint_interval_s
        while stop is not None and not stop.wait(interval):
            try:
                self.save_checkpoint(mode="auto")
            except ReproError:
                continue
            self.auto_checkpoints += 1
            if obs.enabled():
                obs.REGISTRY.counter("controller_auto_checkpoints_total").inc()

    def _warm_restore(self, epochs: Dict[str, Optional[str]]):
        """Engine task for a warm start; returns the per-device tasks.

        Order matters: the per-device warm-sync tasks are enqueued
        *before* the post-checkpoint delta fans out, so each writer's
        FIFO queue sees (1) the sync decision against exactly the
        checkpointed state, then (2) the delta batches.  An
        epoch-matched device therefore skips its resync and simply
        applies the delta; a mismatched one is repaired to the
        checkpointed state first and converges the same way.
        """
        # (1) Diff the restored engine inputs against the durable
        # management DB — everything missed while down, computed before
        # anything is transacted so the desired-writes snapshot below
        # still equals the checkpointed state.
        fresh = self.mgmt.subscribe(self._ovsdb_tables, self._on_updates)
        inserts: Dict[str, List[tuple]] = {}
        deletes: Dict[str, List[tuple]] = {}
        for table in self._ovsdb_tables:
            relation = self.bindings.relation_for_ovsdb[table]
            fresh_rows = set()
            for uuid_, update in fresh.table(table).items():
                if update.new is not None:
                    fresh_rows.add(
                        self._row_to_dlog(table, uuid_, update.new)
                    )
            current = self.runtime.dump(relation)
            stale = current - fresh_rows
            missing = fresh_rows - current
            if stale:
                deletes[relation] = list(stale)
            if missing:
                inserts[relation] = list(missing)
        # (2) Probe each device's config epoch.  When every reachable
        # device already reports its checkpointed epoch — the common
        # fast-failover case — the O(state) desired-writes dump below
        # is never taken, which is what keeps takeover latency
        # independent of the derived-state size.  The probe is only an
        # optimization: `_warm_sync` re-checks as a channel task and
        # falls back to a full `resync_device` if a device moved in
        # between (e.g. a deposed leader wrote before being fenced).
        need_dump = False
        for writer in self._writers:
            expected = epochs.get(writer.device.name)
            if expected is None:
                need_dump = True
                continue
            io = writer.device.io
            if not io.wait_ready(0.0):
                # Unreachable now → it will need a resync once back.
                need_dump = True
                continue
            try:
                if io.get_config_epoch() != expected:
                    need_dump = True
            except _TRANSPORT_ERRORS:
                need_dump = True
        desired = self._desired_writes() if need_dump else None
        mcast = {
            group: sorted(members)
            for group, members in self._mcast_members.items()
            if members
        }
        tasks = []
        for writer in self._writers:
            expected = epochs.get(writer.device.name)
            task = _WriterTask(
                lambda device, e=expected: self._warm_sync(
                    device, e, desired, mcast
                )
            )
            writer.queue.put(task)
            tasks.append(task)
        # (3) Replay the missed delta through the normal pipeline.
        if inserts or deletes:
            result = self.runtime.transaction(
                inserts=inserts, deletes=deletes
            )
            self._fan_out(
                result,
                update_ids=[],
                parent=None,
                first_enqueued=time.perf_counter(),
                txns=1,
            )
            self.sync_count += 1
            self.last_result = result
        return tasks

    def _warm_sync(
        self,
        device: _ManagedDevice,
        expected: Optional[str],
        desired: Optional[List[TableWrite]],
        mcast: Dict[int, List[int]],
    ) -> None:
        """Channel-task warm-start decision for one device: skip the
        full resync when the device's reported config epoch proves its
        tables already hold the checkpointed desired state.

        ``desired`` is ``None`` when the engine-thread probe saw every
        device epoch-matched and skipped the desired-state dump; a
        mismatch discovered here anyway is repaired through
        :meth:`resync_device`, whose snapshot supersedes the queued
        delta batches."""
        io = device.io
        io.wait_ready(2.0)
        reported: Optional[str] = None
        try:
            reported = io.get_config_epoch()
        except _TRANSPORT_ERRORS:
            reported = None
        if expected is not None and reported == expected:
            device.record_success()
            device.config_epoch = reported
            if self._fencing_epoch is not None:
                # The resync is skipped, but the device must still
                # learn this leader's fencing epoch *during* takeover —
                # otherwise the deposed leader's writes (stamped with
                # the old epoch) would keep passing until our first
                # batch happened to arrive.
                try:
                    io.set_config_epoch(reported, fence=self._fencing_epoch)
                except _TRANSPORT_ERRORS:
                    pass
            with self._stats_lock:
                self.warm_skips += 1
            if obs.enabled():
                obs.REGISTRY.counter(
                    "controller_warm_resync_skips_total", device=device.name
                ).inc()
            return
        if desired is None:
            # The probe said this device matched but it no longer does:
            # something wrote to it in between.  Take a fresh engine
            # snapshot (which by now includes the replayed delta) and
            # repair; the snapshot task supersedes the delta batches
            # queued behind this one, so nothing is applied twice.
            # wait=False: the resync lands on *this* writer queue,
            # behind the task executing right now.
            self.resync_device(device, wait=False)
            return
        self._run_resync(
            device,
            desired,
            mcast,
            recover=False,
            count=True,
            epoch=self._mint_epoch("warmsync"),
        )

    def __enter__(self) -> "NerpaController":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- stage 1: ingest ---------------------------------------------------------

    def _on_updates(self, updates: TableUpdates) -> None:
        """Monitor delivery → changeset → engine queue (caller thread)."""
        started = time.perf_counter()
        changeset = Changeset("mgmt")
        changeset.txns = 1
        for table, rows in updates:
            relation = self.bindings.relation_for_ovsdb.get(table)
            if relation is None:
                continue
            for uuid, update in rows.items():
                key = (table, uuid)
                if update.kind == "insert":
                    changeset.record_insert(
                        relation, key, self._row_to_dlog(table, uuid, update.new)
                    )
                elif update.kind == "delete":
                    changeset.record_delete(
                        relation, key, self._row_to_dlog(table, uuid, update.old)
                    )
                else:  # modify: old carries only the changed columns
                    old_full = dict(update.new)
                    old_full.update(update.old)
                    changeset.record_delete(
                        relation, key, self._row_to_dlog(table, uuid, old_full)
                    )
                    changeset.record_insert(
                        relation, key, self._row_to_dlog(table, uuid, update.new)
                    )
        if not changeset.ops:
            return
        if obs.enabled():
            # Inherit the transact's update-id (bound by the mgmt plane
            # around this callback); the initial snapshot has none, so
            # mint one for it.  The parent span (``mgmt.transact``) is
            # captured so the evaluation can nest under it across the
            # thread hop.
            uid = current_update_id() or obs.mint_update_id()
            changeset.update_ids.append(uid)
            changeset.parent = obs.TRACER.active()
            with obs.TRACER.span(
                "pipeline.ingest", update_id=uid, rows=changeset.row_count()
            ):
                self._enqueue(changeset)
        else:
            self._enqueue(changeset)
        with self._stats_lock:
            _append_sample(
                self._stage_seconds["ingest"], time.perf_counter() - started
            )

    def _on_digest(self, name: str, values: Tuple[int, ...]) -> None:
        """Data-plane feedback → digest changeset → engine queue."""
        relation = self.bindings.digest_relations.get(name)
        if relation is None:
            return
        changeset = Changeset("digest")
        changeset.digests = 1
        changeset.digest_name = name
        # The delivery path bound the update-id of the config change
        # whose entries produced this digest; the feedback transaction
        # gets a fresh id linked back (minted at evaluation).
        changeset.link = current_update_id()
        row = tuple(values)
        changeset.record_insert(relation, (relation, row), row)
        self._enqueue(changeset)

    def _enqueue(self, changeset: Changeset) -> None:
        queue = self._engine_queue
        if queue is None:
            raise ReproError("controller not started")
        queue.put(changeset)
        self._gauge_depth("engine", queue)

    def _row_to_dlog(self, table: str, uuid: str, row: dict) -> tuple:
        values = [uuid]
        for column in self._columns[table]:
            values.append(ovsdb_value_to_dlog(column.type, row[column.name]))
        return tuple(values)

    # -- stage 2: evaluate -------------------------------------------------------

    def _engine_loop(self) -> None:
        queue = self._engine_queue
        while True:
            item = queue.pop()
            if item is None:
                return
            self._gauge_depth("engine", queue)
            try:
                if isinstance(item, _EngineTask):
                    item.run()
                else:
                    self._evaluate(item)
            except Exception as exc:  # noqa: BLE001 - surfaced at drain()
                self._defer_error(exc)
            finally:
                queue.task_done()

    def _submit_engine(self, fn, wait: bool = True, timeout: float = 30.0):
        """Run ``fn`` on the engine thread (it owns runtime + mcast)."""
        queue = self._engine_queue
        if queue is None or queue.closed:
            raise ReproError("controller not started")
        task = _EngineTask(fn)
        queue.put(task)
        if not wait:
            return None
        if not task.event.wait(timeout):
            raise ReproError("engine task timed out")
        if task.error is not None:
            raise task.error
        return task.result

    def _evaluate(self, changeset: Changeset) -> None:
        """One engine transaction for one (possibly coalesced) changeset."""
        started = time.perf_counter()
        inserts, deletes = changeset.to_transaction()
        if not inserts and not deletes:
            return  # burst coalesced away to nothing
        is_digest = changeset.source == "digest"
        if obs.enabled():
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
            with obs.TRACER.adopt(changeset.parent), use_update_id(uid), span:
                result = self.runtime.transaction(
                    inserts=inserts, deletes=deletes
                )
                self._fan_out(
                    result,
                    update_ids=update_ids,
                    parent=span,
                    first_enqueued=changeset.first_enqueued,
                    txns=max(changeset.txns, 1),
                )
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
        else:
            result = self.runtime.transaction(inserts=inserts, deletes=deletes)
            self._fan_out(
                result,
                update_ids=[],
                parent=None,
                first_enqueued=changeset.first_enqueued,
                txns=max(changeset.txns, 1),
            )
        if is_digest:
            self.digests_processed += changeset.digests
            if result.deltas:
                self.sync_count += 1
                self.last_result = result
        else:
            self.sync_count += 1
            self.last_result = result
        with self._stats_lock:
            _append_sample(
                self._stage_seconds["evaluate"], time.perf_counter() - started
            )

    def _fan_out(
        self,
        result,
        update_ids: List[str],
        parent,
        first_enqueued: float,
        txns: int,
    ) -> None:
        """Output deltas → one coalescible batch per device queue."""
        self._seq += 1
        template = DeviceBatch(self._seq)
        template.update_ids = list(update_ids)
        if not template.update_ids:
            # With tracing off no update-id was minted upstream, but the
            # batch still needs a config-epoch stamp for warm restarts.
            template.update_ids = [self._mint_epoch()]
        template.parent = parent
        template.first_enqueued = first_enqueued
        template.txns = txns
        for relation, delta in result.deltas.items():
            binding = self.bindings.table_relations.get(relation)
            if binding is not None:
                table = binding.info.name
                for row, weight in delta.items():
                    entry = self._row_to_entry(binding, row)
                    if weight > 0:
                        template.record_insert(table, entry.match_key(), entry)
                    else:
                        template.record_delete(table, entry.match_key(), entry)
            elif relation == MULTICAST_RELATION:
                template.mcast.update(self._fold_multicast(delta))
        if self._buffer is not None:
            # Reconciling restart: collect the would-be writes; only
            # (idempotent) multicast config goes to the devices now.
            self._buffer.extend(template.emit_writes())
            if not template.mcast:
                return
            template.ops = {}
        if template.is_empty():
            return
        for writer in self._writers:
            writer.queue.put(template.copy_for_device())
            self._gauge_depth(writer.device.name, writer.queue)

    def _fold_multicast(self, delta) -> Dict[int, Optional[List[int]]]:
        """Fold a MulticastGroup delta into per-group port lists.

        Mutates the engine-thread-owned membership map and returns the
        net config ops (``None`` = delete the group) for the batch.
        """
        ops: Dict[int, Optional[List[int]]] = {}
        changed = set()
        for row, weight in delta.items():
            group, port = int(row[0]), int(row[1])
            members = self._mcast_members.setdefault(group, set())
            if weight > 0:
                members.add(port)
            else:
                members.discard(port)
            changed.add(group)
        for group in sorted(changed):
            members = self._mcast_members.get(group, set())
            if members:
                ops[group] = sorted(members)
            else:
                ops[group] = None
                self._mcast_members.pop(group, None)
        return ops

    def _row_to_entry(self, binding: TableBinding, row: tuple) -> TableEntry:
        n_keys = len(binding.key_columns)
        matches = [
            dlog_value_to_match(field, value)
            for (_, field), value in zip(binding.key_columns, row[:n_keys])
        ]
        action_value = row[n_keys]
        if not isinstance(action_value, StructValue):
            raise TypeCheckError(
                f"{binding.relation}: action column must be a constructor "
                f"of {binding.info.name}'s action union, got {action_value!r}"
            )
        resolved = binding.actions_by_constructor.get(action_value.constructor)
        if resolved is None:
            raise TypeCheckError(
                f"{binding.relation}: {action_value.constructor} is not an "
                f"action of table {binding.info.name}"
            )
        action_name, param_count = resolved
        if len(action_value.fields) != param_count:
            raise TypeCheckError(
                f"{binding.relation}: action {action_name} expects "
                f"{param_count} parameter(s)"
            )
        priority = row[n_keys + 1] if binding.has_priority else 0
        return TableEntry(
            matches, action_name, list(action_value.fields), priority
        )

    # -- stage 3: apply ----------------------------------------------------------

    def _prepare_batch(
        self, device: _ManagedDevice, batch: DeviceBatch
    ) -> Optional[List[TableWrite]]:
        """Breaker gate shared by both apply paths: emit the batch's
        writes, or return ``None`` when there is nothing to do (empty
        after coalescing, or the device is quarantined — counted as a
        missed sync either way the breaker requires)."""
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

    def _finish_batch(
        self,
        device: _ManagedDevice,
        batch: DeviceBatch,
        writes: List[TableWrite],
        started: float,
        issued_at: Optional[float] = None,
    ) -> None:
        """Success bookkeeping shared by both apply paths."""
        device.record_success()
        device.writes_issued += 1
        if writes:
            # Mirror the device side exactly: only table writes advance
            # the on-device epoch (a multicast-only batch never reaches
            # ``DeviceService.write``), and warm start's skip decision
            # relies on the two staying equal.
            device.config_epoch = batch.update_id
        applied = time.perf_counter()
        latency = applied - batch.first_enqueued
        with self._stats_lock:
            self.entries_written += len(writes)
            _append_sample(self.sync_latencies, latency)
            _append_sample(device.latencies, latency)
            if issued_at is not None:
                _append_sample(device.io_latencies, applied - issued_at)
            _append_sample(self._stage_seconds["apply"], applied - started)

    def _batch_failed(
        self, device: _ManagedDevice, exc: BaseException
    ) -> None:
        """Transport-failure bookkeeping shared by both apply paths."""
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

    def _apply_device_batch(
        self, device: _ManagedDevice, batch: DeviceBatch
    ) -> None:
        """Issue one (possibly merged) batch through the breaker —
        the blocking path in-process devices take on the fan-out
        plane's pool.

        Runs with no controller-wide lock held — device I/O never
        blocks the engine or its peers.
        """
        started = time.perf_counter()
        writes = self._prepare_batch(device, batch)
        if writes is None:
            return
        uid = batch.update_id
        issued_at = time.perf_counter()
        try:
            if obs.enabled():
                with obs.TRACER.adopt(batch.parent), use_update_id(
                    uid
                ), obs.TRACER.span(
                    "device.write",
                    update_id=uid,
                    device=device.name,
                    writes=len(writes),
                    txns=batch.txns,
                ) as span:
                    device.io.apply_batch(
                        writes, batch.mcast, batch.update_ids,
                        fence=self._fencing_epoch,
                    )
                    span.set(applied=True)
            else:
                with use_update_id(uid):
                    device.io.apply_batch(
                        writes, batch.mcast, batch.update_ids,
                        fence=self._fencing_epoch,
                    )
        except _TRANSPORT_ERRORS as exc:
            self._batch_failed(device, exc)
            return
        self._finish_batch(device, batch, writes, started, issued_at)

    # -- stage 3, the loop side --------------------------------------------------

    def _channel_runner(self, channel, item, done) -> None:
        """Execute one queue item for a :class:`DeviceChannel`.

        Loop thread.  Batches for remote devices go out non-blocking;
        everything else (in-process simulators, resync/warm-sync
        ``_WriterTask``s) runs on the plane's pool — with the channel
        holding the slot either way, so per-device FIFO is preserved
        across both paths.
        """
        device = channel.device
        self._gauge_depth(device.name, channel.queue)
        if isinstance(item, _WriterTask):

            def run_task() -> None:
                item.run(device)
                done(None)

            self._fanout_plane.run_blocking(run_task)
            return
        if isinstance(device.io, _RemoteDevice):
            self._apply_batch_async(channel, item, done)
            return

        def run_batch() -> None:
            try:
                self._apply_device_batch(device, item)
            except Exception as exc:  # noqa: BLE001 - surfaced at drain()
                done(exc)
                return
            done(None)

        self._fanout_plane.run_blocking(run_batch)

    def _apply_batch_async(self, channel, batch: DeviceBatch, done) -> None:
        """Non-blocking apply for one batch (loop thread).

        Watermark-aware: a connection whose send buffer is past its
        high watermark parks the channel on ``on_drain`` instead of
        buffering without bound — the device's queue then coalesces
        the backlog, exactly as it does for a slow blocking device.
        """
        device = channel.device
        io = device.io.client
        started = time.perf_counter()

        def issue() -> None:
            # Re-gated after a potential drain wait: the breaker may
            # have tripped while this channel was parked.
            writes = self._prepare_batch(device, batch)
            if writes is None:
                done(None)
                return
            uid = batch.update_id
            channel.mark_awaiting_ack()
            issued_at = time.perf_counter()
            if obs.enabled():
                obs.REGISTRY.gauge(
                    "fanout_send_buffer_bytes", device=device.name
                ).set(io.send_buffer_bytes)

            def on_ack(applied, error) -> None:
                if obs.enabled():
                    obs.REGISTRY.gauge(
                        "fanout_send_buffer_bytes", device=device.name
                    ).set(io.send_buffer_bytes)
                if error is not None:
                    if isinstance(error, _TRANSPORT_ERRORS):
                        self._batch_failed(device, error)
                        done(None)
                    else:
                        # Semantic rejection — a controller bug, not a
                        # flaky peer: surfaced at drain() like the
                        # blocking path's WriteError.
                        done(error)
                    return
                if obs.enabled():
                    with obs.TRACER.adopt(batch.parent), use_update_id(uid):
                        with obs.TRACER.span(
                            "device.write",
                            update_id=uid,
                            device=device.name,
                            writes=len(writes),
                            txns=batch.txns,
                        ) as span:
                            span.set(applied=True, ack=True)
                    # The span records at ack time; its duration is the
                    # send→ack interval, not the (instant) body above.
                    span.duration = time.perf_counter() - issued_at
                self._finish_batch(device, batch, writes, started, issued_at)
                done(None)

            io.apply_batch_async(
                writes,
                batch.mcast,
                batch.update_ids,
                on_ack,
                seq=(batch.seq, batch.last_seq),
                fence=self._fencing_epoch,
            )

        if io.writable:
            issue()
        else:
            io.on_drain(issue)

    # -- recovery ----------------------------------------------------------------

    def _on_mgmt_reconnect(self) -> None:
        """The management channel came back (possibly to a restarted
        server).  An engine-thread task re-subscribes and reconciles
        the fresh snapshot against the engine's input relations: rows
        that vanished while we were deaf become deletes, new rows
        become inserts, and the deltas fan out through the normal apply
        stage.  Running subscribe + diff *on the engine thread* orders
        the reconcile strictly before any monitor update racing it."""
        if not self._started:
            return
        self._submit_engine(self._reconcile_mgmt, wait=False)

    def _reconcile_mgmt(self) -> None:
        fresh = self.mgmt.subscribe(self._ovsdb_tables, self._on_updates)
        inserts: Dict[str, List[tuple]] = {}
        deletes: Dict[str, List[tuple]] = {}
        for table in self._ovsdb_tables:
            relation = self.bindings.relation_for_ovsdb[table]
            fresh_rows = set()
            for uuid, update in fresh.table(table).items():
                if update.new is not None:
                    fresh_rows.add(self._row_to_dlog(table, uuid, update.new))
            current = self.runtime.dump(relation)
            stale = current - fresh_rows
            missing = fresh_rows - current
            if stale:
                deletes[relation] = list(stale)
            if missing:
                inserts[relation] = list(missing)
        self.mgmt_reconciles += 1
        if not inserts and not deletes:
            return
        result = self.runtime.transaction(inserts=inserts, deletes=deletes)
        self._fan_out(
            result,
            update_ids=[],
            parent=None,
            first_enqueued=time.perf_counter(),
            txns=1,
        )
        self.sync_count += 1
        self.last_result = result

    def _device_reconnect_hook(self, device: _ManagedDevice):
        def hook() -> None:
            self.resync_device(device)

        return hook

    def resync_device(self, device, wait: bool = True) -> None:
        """Full-sync one device from the engine's output relations.

        ``device`` may be a :class:`_ManagedDevice` or an index into
        :attr:`devices`.  The engine is authoritative: a consistent
        snapshot of the desired writes is taken on the engine thread,
        then a resync task on the device's *own* writer queue performs
        the read-diff repair — superseding any queued incremental
        batches, holding no controller-wide lock, and never blocking
        other devices or the engine.  Clears quarantine on success.

        ``wait=False`` only enqueues the resync — required when the
        caller itself runs as a task on this device's channel (waiting
        for a task queued behind the current one would deadlock).
        """
        if isinstance(device, int):
            device = self.devices[device]
        if not self._started:
            return
        writer = next(
            (w for w in self._writers if w.device is device), None
        )
        if writer is None:
            raise ReproError(f"unknown device {device.name}")
        def snapshot_and_enqueue() -> _WriterTask:
            # Engine thread: fan-out only ever happens here, so taking
            # the snapshot and superseding the queued batches in one
            # task is atomic w.r.t. fan-out — no batch can land on the
            # writer queue after the snapshot yet be dropped by the
            # supersede without its changes being in the snapshot.
            desired = self._desired_writes()
            mcast = {
                group: sorted(members)
                for group, members in self._mcast_members.items()
                if members
            }
            epoch = self._mint_epoch("resync")
            task = _WriterTask(
                lambda dev: self._run_resync(
                    dev, desired, mcast, recover=True, count=True,
                    epoch=epoch,
                )
            )
            # The full sync subsumes every queued incremental batch.
            writer.queue.put(
                task, supersedes=lambda item: isinstance(item, DeviceBatch)
            )
            return task

        task = self._submit_engine(snapshot_and_enqueue)
        if not wait:
            return
        if not task.event.wait(30.0):
            raise ReproError(f"resync of {device.name} timed out")
        if task.error is not None:
            raise task.error

    def _run_resync(
        self,
        device: _ManagedDevice,
        desired_writes: List[TableWrite],
        mcast: Dict[int, List[int]],
        recover: bool,
        count: bool,
        epoch: Optional[str] = None,
    ) -> bool:
        """Channel-task body of a full device sync (read-diff repair)."""
        io = device.io
        io.wait_ready(2.0)
        fixes = []
        try:
            fixes = self._compute_fixes(io, desired_writes)
            if fixes:
                io.write(fixes, fence=self._fencing_epoch)
            for group in sorted(mcast):
                io.set_multicast_group(group, mcast[group])
            if epoch is not None:
                # A full sync leaves the device holding exactly the
                # snapshotted desired state; stamp that fact so a later
                # warm restart can recognize it.
                io.set_config_epoch(epoch, fence=self._fencing_epoch)
        except _TRANSPORT_ERRORS as exc:
            # Racing a second failure is normal; the next successful
            # reconnect triggers the resync again.
            device.record_failure(exc, self.breaker_threshold)
            return False
        device.record_success()
        if epoch is not None:
            device.config_epoch = epoch
        if fixes:
            with self._stats_lock:
                self.entries_written += len(fixes)
        if recover:
            device.recover()
        if count:
            with self._stats_lock:
                self.device_resyncs += 1
        return True

    def _compute_fixes(
        self, io, desired_writes: List[TableWrite]
    ) -> List[TableWrite]:
        """Read-diff one device against the desired entry set."""
        desired: Dict[str, Dict[tuple, TableWrite]] = {}
        for write in desired_writes:
            if write.kind == "INSERT":
                desired.setdefault(write.table, {})[
                    write.entry.match_key()
                ] = write
            elif write.kind == "DELETE":
                desired.get(write.table, {}).pop(write.entry.match_key(), None)
        fixes: List[TableWrite] = []
        for binding in self.bindings.table_relations.values():
            table = binding.info.name
            want = dict(desired.get(table, {}))
            for existing in io.read_table(table):
                key = existing.entry.match_key()
                wanted = want.pop(key, None)
                if wanted is None:
                    fixes.append(TableWrite.delete(table, existing.entry))
                elif (
                    wanted.entry.action != existing.entry.action
                    or wanted.entry.action_params
                    != existing.entry.action_params
                ):
                    fixes.append(TableWrite.modify(table, wanted.entry))
            fixes.extend(want.values())  # still-missing entries
        fixes.sort(key=lambda w: 0 if w.kind == "DELETE" else 1)
        return fixes

    def _desired_writes(self) -> List[TableWrite]:
        """Replay the engine's current output relations as inserts —
        the authoritative desired state of every device table.  Engine
        thread only."""
        writes: List[TableWrite] = []
        for relation, binding in self.bindings.table_relations.items():
            for row in self.runtime.dump(relation):
                writes.append(
                    TableWrite.insert(
                        binding.info.name, self._row_to_entry(binding, row)
                    )
                )
        return writes

    # -- shared plumbing ---------------------------------------------------------

    @property
    def fencing_epoch(self) -> Optional[int]:
        return self._fencing_epoch

    def set_fencing_epoch(self, epoch: Optional[int]) -> None:
        """Stamp subsequent device writes with ``epoch`` (monotonically
        increasing across leaderships; see ``repro.mgmt.lease``)."""
        self._fencing_epoch = epoch

    def _mint_epoch(self, tag: str = "") -> str:
        """A process-unique config-epoch id.  The run-id prefix keeps a
        restarted controller from ever reusing a previous run's ids —
        epoch equality must imply identical device state."""
        suffix = f"-{tag}" if tag else ""
        return f"ep-{self._run_id}-{next(self._epoch_counter):08d}{suffix}"

    def _defer_error(self, exc: BaseException) -> None:
        with self._stats_lock:
            if len(self._errors) < 64:
                self._errors.append(exc)

    def _gauge_depth(self, name: str, queue: CoalescingQueue) -> None:
        if obs.enabled():
            obs.REGISTRY.gauge("pipeline_queue_depth", queue=name).set(
                len(queue)
            )

    # -- introspection ---------------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """Per-peer connection state, retry counters, and transitions."""
        devices = []
        for i, device in enumerate(self.devices):
            report = device.health()
            if i < len(self._writers):
                report["queue_depth"] = len(self._writers[i].queue)
            devices.append(report)
        return {
            "mgmt": self.mgmt.health(),
            "devices": devices,
            "mgmt_reconciles": self.mgmt_reconciles,
            "device_resyncs": self.device_resyncs,
        }

    @staticmethod
    def _summarize(samples: List[float]) -> Dict[str, float]:
        data = list(samples)
        if not data:
            return {"count": 0, "mean": 0.0, "p95": 0.0}
        return {
            "count": len(data),
            "mean": sum(data) / len(data),
            "p95": percentile(data, 95),
        }

    def metrics(self) -> Dict[str, object]:
        with self._stats_lock:
            latencies = list(self.sync_latencies)
            stage_seconds = {
                stage: list(samples)
                for stage, samples in self._stage_seconds.items()
            }
        out = {
            "syncs": self.sync_count,
            "entries_written": self.entries_written,
            "digests_processed": self.digests_processed,
            "mgmt_reconciles": self.mgmt_reconciles,
            "device_resyncs": self.device_resyncs,
            "mean_sync_latency": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "last_sync_latency": latencies[-1] if latencies else 0.0,
            "sync_latency_p50": percentile(latencies, 50) if latencies else 0.0,
            "sync_latency_p95": percentile(latencies, 95) if latencies else 0.0,
            "restart": {
                "mode": self.restart_mode,
                "warm_skips": self.warm_skips,
                "start_seconds": self.start_seconds,
                "checkpoint_bytes": self.checkpoint_bytes,
                "checkpoint_seconds": self.checkpoint_seconds,
                "auto_checkpoints": self.auto_checkpoints,
                "fencing_epoch": self._fencing_epoch,
            },
            "engine": self.runtime.profile(),
            "pipeline": {
                "engine_queue_depth": (
                    len(self._engine_queue)
                    if self._engine_queue is not None
                    else 0
                ),
                "engine_coalesced": (
                    self._engine_queue.coalesced
                    if self._engine_queue is not None
                    else 0
                ),
                "device_queue_depths": {
                    w.device.name: len(w.queue) for w in self._writers
                },
                "device_coalesced": {
                    w.device.name: w.queue.coalesced for w in self._writers
                },
                "device_writes_issued": {
                    d.name: d.writes_issued for d in self.devices
                },
                "stage_seconds": {
                    stage: self._summarize(samples)
                    for stage, samples in stage_seconds.items()
                },
            },
        }
        if self._fanout_plane is not None:
            states: Dict[str, int] = {}
            for chan in self._fanout_plane.channels:
                states[chan.state] = states.get(chan.state, 0) + 1
            out["pipeline"]["fanout"] = {
                "inflight": self._fanout_plane.inflight,
                "channel_states": states,
                "send_buffer_bytes": {
                    d.name: d.io.client.send_buffer_bytes
                    for d in self.devices
                    if isinstance(d.io, _RemoteDevice)
                },
            }
        if obs.enabled():
            out["registry"] = obs.REGISTRY.snapshot()
        return out
