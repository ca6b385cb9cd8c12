"""Multi-controller HA: leased leadership and warm-standby takeover.

Two pieces, composable with everything the stack already has:

* :class:`CheckpointFollower` — a **warm standby's engine**.  It tails
  the shared ``state_dir`` checkpoint chain the leader writes
  (:meth:`~repro.core.controller.NerpaController.save_checkpoint`):
  the full snapshot restores a runtime, each new delta segment is
  replayed through the normal transaction path as the leader cuts it.
  The follower opens the chain **read-only** (``heal=False`` — see
  :class:`~repro.dlog.checkpoint.CheckpointStore`): it must never
  unlink a segment, because an "invalid" tail may be the anchor of a
  newer chain the concurrent writer just compacted.

* :class:`HAController` — the **leader-election state machine** around
  a :class:`~repro.core.controller.NerpaController`.  Leadership is a
  lease row in the management database's reserved ``_Lease`` table
  (:mod:`repro.mgmt.lease` — RFC 7047 ``lock``/``steal``/``unlock``
  semantics over plain ``transact``), watched with an ordinary
  monitor for fast takeover on graceful release.  Every acquisition
  increments the **fencing epoch**; the promoted controller stamps it
  on all device writes, and devices reject epochs older than the
  highest seen — so a paused-then-resumed deposed leader cannot
  corrupt device state (its writes fail with
  :class:`~repro.p4runtime.api.FencedWriteError`, surfaced at its own
  ``drain()``).

Roles::

        acquire lease (epoch N)
    standby ──────────────────────► leader
        ▲   follower.detach() →         │ renew every renew_interval
        │   NerpaController(            │
        │     fencing_epoch=N,          │ renew fails (deposed)
        │     warm_source=...)          ▼
        └────────────────────────── demoted
             fresh follower,  controller.stop()

Timestamps for lease operations come from an injectable ``clock`` so
tests drive expiry deterministically; all waiting is event-based
(``poke()`` / the lease-table monitor), never bare sleeps.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from typing import Dict, Optional, Tuple

from repro import obs
from repro.core import warmstate
from repro.core.controller import NerpaController
from repro.core.pipeline import NerpaProject
from repro.core.planes import wrap_mgmt
from repro.dlog import checkpoint as ckpt
from repro.errors import ReproError, TransactionError
from repro.mgmt.lease import LEASE_TABLE

class CheckpointFollower:
    """Keeps a runtime warm by tailing a shared checkpoint chain.

    ``poll()`` absorbs whatever the leader has persisted since the last
    call: a new full snapshot reloads the runtime from scratch, new
    delta segments replay incrementally.  ``detach()`` hands the warm
    runtime (plus the chain's controller bookkeeping) to a promoting
    :class:`~repro.core.controller.NerpaController` via its
    ``warm_source`` parameter.
    """

    def __init__(
        self,
        project: NerpaProject,
        state_dir: str,
        shards: int = 1,
        shard_workers: str = "process",
    ):
        self.project = project
        self.state_dir = state_dir
        self.shards = shards
        self.shard_workers = shard_workers
        # Read-only view of the chain: a follower must never heal.
        self.store = warmstate.open_store(
            state_dir, project.program.program_hash, heal=False
        )
        self.runtime = None
        #: Controller bookkeeping (mcast/seq/device_epochs) as of the
        #: newest absorbed checkpoint — what a warm takeover restores.
        self.warm_state: Optional[dict] = None
        self._full_sig: Optional[Tuple[int, int, int]] = None
        # Metrics.
        self.polls = 0
        self.full_reloads = 0
        self.segments_replayed = 0

    @property
    def ready(self) -> bool:
        """True once a compatible checkpoint has been absorbed."""
        return self.runtime is not None

    def _full_signature(self) -> Optional[Tuple[int, int, int]]:
        # Atomic replace gives the snapshot a fresh inode; (inode,
        # mtime_ns, size) therefore changes on every save_full and the
        # stat itself never reads a torn file.
        try:
            stat = os.stat(self.store.full_path)
        except OSError:
            return None
        return (stat.st_ino, stat.st_mtime_ns, stat.st_size)

    def poll(self) -> bool:
        """Absorb new checkpoint state; True if anything was applied."""
        self.polls += 1
        sig = self._full_signature()
        if sig is None:
            return False
        if sig != self._full_sig:
            return self._reload_full(sig)
        if self.runtime is None:
            return False
        return self._tail_segments()

    def _reload_full(self, sig: Tuple[int, int, int]) -> bool:
        runtime, warm = warmstate.restore(
            self.store, self.project.program, self.shards, self.shard_workers
        )
        if warm is None:
            # Unreadable, or a hash mismatch (program changed under
            # us): keep whatever we had; a takeover will cold-start and
            # still be correct.
            self._close_runtime(runtime)
            return False
        self._close_runtime(self.runtime)
        self.runtime = runtime
        self.warm_state = warm
        self._full_sig = sig
        self.full_reloads += 1
        if obs.enabled():
            obs.REGISTRY.counter("ha_follower_full_reloads_total").inc()
        return True

    def _tail_segments(self) -> bool:
        segments = self.store.tail()
        if not segments:
            return False
        ckpt.replay_segments(
            self.runtime, segments, self.store.program_hash
        )
        self.segments_replayed += len(segments)
        warmstate.absorb_meta(self.warm_state, segments)
        if obs.enabled():
            obs.REGISTRY.counter("ha_follower_segments_total").inc(
                len(segments)
            )
        return True

    def detach(self) -> Tuple[object, dict]:
        """Hand over ``(runtime, warm_state)`` for a promotion and
        forget them (the controller owns the runtime's lifecycle now).
        ``(None, {})`` when nothing was absorbed — the promotion then
        starts from a fresh engine and repairs every device to it."""
        runtime, warm = self.runtime, self.warm_state
        self.runtime = None
        self.warm_state = None
        return runtime, dict(warm or {})

    @staticmethod
    def _close_runtime(runtime) -> None:
        if runtime is not None:
            try:
                runtime.close()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass

    def close(self) -> None:
        self._close_runtime(self.runtime)
        self.runtime = None
        self.warm_state = None


class HAController:
    """One replica of a highly-available controller pair (or fleet).

    Runs a loop thread that is either **standby** — tailing the shared
    checkpoint chain and trying to acquire the leadership lease every
    ``poll_interval`` — or **leader** — renewing the lease every
    ``renew_interval`` behind a running
    :class:`~repro.core.controller.NerpaController`.  A failed renewal
    demotes immediately (stop the controller, resume following); a
    successful acquisition promotes a controller built on the
    follower's runtime (``warm_source``).

    ``mgmt`` is a :class:`~repro.mgmt.database.Database` or
    :class:`~repro.mgmt.client.ManagementClient` — both expose the
    ``lease_*`` operations and a lease-table monitor, and both are
    accepted by ``NerpaController`` directly.
    """

    def __init__(
        self,
        project: NerpaProject,
        mgmt,
        devices,
        state_dir: str,
        lease_name: str = "nerpa-leader",
        owner: Optional[str] = None,
        ttl: float = 2.0,
        renew_interval: Optional[float] = None,
        poll_interval: Optional[float] = None,
        clock=time.time,
        controller_kwargs: Optional[dict] = None,
    ):
        self.project = project
        self.mgmt = mgmt
        self.devices = devices
        self.state_dir = state_dir
        self.lease_name = lease_name
        self.owner = owner or f"nerpa-{uuid.uuid4().hex[:8]}"
        self.ttl = ttl
        self.renew_interval = (
            renew_interval if renew_interval is not None else ttl / 3.0
        )
        self.poll_interval = (
            poll_interval if poll_interval is not None else ttl / 3.0
        )
        self.clock = clock
        self.controller_kwargs = dict(controller_kwargs or {})

        self.controller: Optional[NerpaController] = None
        self.follower: Optional[CheckpointFollower] = None
        self.role = "standby"
        self.epoch: Optional[int] = None
        # Metrics.
        self.takeovers = 0
        self.takeover_seconds: Optional[float] = None
        self.renewals = 0
        self.lost_leaderships = 0

        self._wake = threading.Event()
        self._stop_event = threading.Event()
        self._role_events: Dict[str, threading.Event] = {
            "standby": threading.Event(),
            "leader": threading.Event(),
        }
        self._thread: Optional[threading.Thread] = None
        self._lease_watch = None  # plane adapter holding the lease monitor
        self._release_on_stop = True

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "HAController":
        if self._thread is not None:
            raise ReproError("HA controller already started")
        self.follower = self._make_follower()
        self._watch_lease()
        self._set_role("standby")
        self._thread = threading.Thread(
            target=self._loop, name=f"nerpa-ha-{self.owner}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: the controller's stop hook releases the
        lease, so a standby takes over without waiting out the TTL."""
        self._shutdown(release=True)

    def kill(self) -> None:
        """Crash simulation: tear everything down **without** releasing
        the lease — a standby must wait out the TTL, exactly as it
        would for a dead process."""
        self._shutdown(release=False)

    def _shutdown(self, release: bool) -> None:
        self._release_on_stop = release
        self._stop_event.set()
        self._wake.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)
        self._thread = None
        self._unwatch_lease()
        self._stop_controller()  # runs the lease-release hook
        if self.follower is not None:
            self.follower.close()
            self.follower = None

    def poke(self) -> None:
        """Wake the loop now (tests use this instead of sleeping)."""
        self._wake.set()

    @property
    def is_leader(self) -> bool:
        return self.role == "leader"

    def wait_for_role(self, role: str, timeout: float = 10.0) -> bool:
        return self._role_events[role].wait(timeout)

    def metrics(self) -> Dict[str, object]:
        out = {
            "role": self.role,
            "owner": self.owner,
            "epoch": self.epoch,
            "takeovers": self.takeovers,
            "takeover_seconds": self.takeover_seconds,
            "renewals": self.renewals,
            "lost_leaderships": self.lost_leaderships,
        }
        follower = self.follower
        if follower is not None:
            out["follower"] = {
                "ready": follower.ready,
                "polls": follower.polls,
                "full_reloads": follower.full_reloads,
                "segments_replayed": follower.segments_replayed,
            }
        return out

    # -- the role loop -------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop_event.is_set():
            if self.role == "standby":
                self._standby_tick()
            else:
                self._leader_tick()

    def _standby_tick(self) -> None:
        follower = self.follower
        if follower is not None:
            try:
                follower.poll()
            except Exception:  # noqa: BLE001 - keep following
                pass
        try:
            lease = self.mgmt.lease_acquire(
                self.lease_name, self.owner, self.ttl, now=self.clock()
            )
        except (ReproError, TransactionError, OSError):
            lease = None
        if self._stop_event.is_set():
            return
        if lease is not None and lease["owner"] == self.owner:
            self._promote(lease)
            return
        self._wake.clear()
        self._wake.wait(self.poll_interval)

    def _leader_tick(self) -> None:
        self._wake.clear()
        self._wake.wait(self.renew_interval)
        if self._stop_event.is_set():
            return
        try:
            renewed = self.mgmt.lease_renew(
                self.lease_name,
                self.owner,
                self.epoch,
                self.ttl,
                now=self.clock(),
            )
        except (ReproError, TransactionError, OSError):
            renewed = False
        if renewed:
            self.renewals += 1
            if obs.enabled():
                obs.REGISTRY.counter("ha_lease_renewals_total").inc()
        else:
            self._demote()

    def _promote(self, lease: dict) -> None:
        started = time.perf_counter()
        self.epoch = int(lease["epoch"])
        runtime, warm = self.follower.detach()
        controller = NerpaController(
            self.project,
            self.mgmt,
            self.devices,
            state_dir=self.state_dir,
            fencing_epoch=self.epoch,
            warm_source=(runtime, warm),
            **self.controller_kwargs,
        )
        controller.on_stop(self._release_lease)
        try:
            controller.start()
        except Exception:
            # A failed takeover must not wedge the replica as a
            # half-leader: drop the lease and resume following.
            self._stop_controller(controller)
            self._release_lease()
            self.epoch = None
            self.follower = self._make_follower()
            return
        self.controller = controller
        self.takeovers += 1
        self.takeover_seconds = time.perf_counter() - started
        if obs.enabled():
            obs.REGISTRY.counter("ha_takeovers_total").inc()
            obs.REGISTRY.histogram("ha_takeover_seconds").observe(
                self.takeover_seconds
            )
            obs.REGISTRY.gauge("ha_is_leader", owner=self.owner).set(1)
            obs.REGISTRY.gauge("ha_fencing_epoch").set(self.epoch)
        self._set_role("leader")

    def _demote(self) -> None:
        """The lease was lost (expired under us, or another replica's
        acquisition deposed this one): stop acting as leader *now* and
        resume following.  The stopped controller's writes were fenced
        the moment the successor acquired, so even in-flight batches
        cannot corrupt device state."""
        self.lost_leaderships += 1
        if obs.enabled():
            obs.REGISTRY.counter("ha_lease_losses_total").inc()
            obs.REGISTRY.gauge("ha_is_leader", owner=self.owner).set(0)
        self._stop_controller()
        self.epoch = None
        self.follower = self._make_follower()
        self._set_role("standby")

    # -- plumbing ------------------------------------------------------------

    def _stop_controller(self, controller=None) -> None:
        """Stop ``controller`` (default: the running one, which is
        forgotten first).  Never raises: shutdown, a failed takeover and
        a demotion must all reach their next state."""
        if controller is None:
            controller, self.controller = self.controller, None
        if controller is not None:
            try:
                controller.stop()
            except Exception:  # noqa: BLE001
                pass

    def _make_follower(self) -> CheckpointFollower:
        # The standby's engine must be sharded like the controller's.
        sharding = {
            key: self.controller_kwargs[key]
            for key in ("shards", "shard_workers")
            if key in self.controller_kwargs
        }
        return CheckpointFollower(self.project, self.state_dir, **sharding)

    def _release_lease(self) -> None:
        if not self._release_on_stop:
            return
        try:
            self.mgmt.lease_release(self.lease_name, self.owner)
        except (ReproError, TransactionError, OSError):
            pass

    def _set_role(self, role: str) -> None:
        self.role = role
        for name, event in self._role_events.items():
            if name == role:
                event.set()
            else:
                event.clear()

    def _on_lease_update(self, _updates) -> None:
        # A lease-table commit: a graceful release or a peer's
        # acquisition.  Wake a standby so takeover latency is bounded
        # by delivery, not by poll_interval.  The leader's own renewals
        # land here too — do not wake it, or renew would busy-loop.
        if self.role != "leader":
            self._wake.set()

    def _watch_lease(self) -> None:
        self._lease_watch = wrap_mgmt(self.mgmt)
        self._lease_watch.subscribe([LEASE_TABLE], self._on_lease_update)

    def _unwatch_lease(self) -> None:
        watch, self._lease_watch = self._lease_watch, None
        if watch is not None:
            try:
                watch.unsubscribe()
            except (ReproError, TransactionError, OSError):
                pass

    def __enter__(self) -> "HAController":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
