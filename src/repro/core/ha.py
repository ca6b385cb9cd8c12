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

Every tick, lease answer, promotion and demotion is a callback on the
reactor the replica's controller runs on, so a lease renew is ordered
with the engine's transactions instead of racing them from a thread of
its own; lease calls never block that loop.  Timestamps for lease
operations come from an injectable ``clock`` so tests drive expiry
deterministically; ticks are loop timers, woken early by ``poke()`` and
the lease-table monitor, never bare sleeps.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from functools import partial
from typing import Dict, Optional, Tuple

from repro import obs
from repro.core import warmstate
from repro.core.controller import NerpaController
from repro.core.pipeline import NerpaProject
from repro.core.pipeline.queues import Task
from repro.core.planes import shared_reactor, wrap_mgmt
from repro.dlog import checkpoint as ckpt
from repro.errors import ConnectionLostError, ReproError, TransactionError
from repro.mgmt.lease import LEASE_TABLE
from repro.net.reactor import Reactor, default_reactor

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
        if obs.ENABLED:
            obs.REGISTRY.counter("ha_follower_full_reloads_total").inc()
        return True

    def _tail_segments(self) -> bool:
        segments = self.store.tail()
        if not segments:
            return False
        ckpt.replay_segments(self.runtime, segments)
        self.segments_replayed += len(segments)
        warmstate.absorb_meta(self.warm_state, segments)
        if obs.ENABLED:
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

    A state machine on the reactor its controller runs on (the device
    clients' own, else the process default).  A **standby** tails the
    shared checkpoint chain and tries to acquire the leadership lease
    every ``poll_interval``, and whenever the lease table changes.  A
    won acquisition builds a
    :class:`~repro.core.controller.NerpaController` on the follower's
    runtime (``warm_source``) and queues its recovery; the replica is
    **leader** once that recovery has finished, and drops the lease if
    it failed.  The lease is renewed every ``renew_interval`` from the
    acquisition on.  A renewal that fails, or is not answered within
    the time left on the lease, demotes at once (stop the controller,
    resume following); one that finds the management connection
    re-dialling is tried again while the lease lasts.

    ``mgmt`` is a :class:`~repro.mgmt.database.Database` or
    :class:`~repro.mgmt.client.ManagementClient`, as ``NerpaController``
    accepts.  Lease calls (:data:`repro.mgmt.lease.METHODS`) go through
    the plane adapter's non-blocking ``call_async``: inline on an
    in-process database, over the client's connection otherwise; the
    lease table is watched with a plain monitor.
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
        #: The fencing epoch of the lease this replica holds, from the
        #: won acquisition on (``None``: it holds none).
        self.epoch: Optional[int] = None
        #: The loop every tick runs on (set by :meth:`start`).
        self.reactor: Optional[Reactor] = None
        # Metrics.
        self.takeovers = 0
        self.takeover_seconds: Optional[float] = None
        self.renewals = 0
        self.lost_leaderships = 0
        #: The latest a renew tick ran after it was due, in seconds:
        #: what the loop's longest callbacks cost the lease.
        self.renew_lateness_max = 0.0

        self._role_changed = threading.Condition()
        self._lease = None  # plane adapter: lease calls and the watch
        self._running = False
        self._timer = None  # the armed tick
        self._renew_due = 0.0  # time.monotonic() the armed renew is due
        # time.monotonic() the held lease runs out: the send of the
        # last acquire or renew the server granted, plus the TTL.
        self._expires = 0.0
        self._promoting: Optional[NerpaController] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "HAController":
        if self._running:
            raise ReproError("HA controller already started")
        self.reactor = (
            shared_reactor(self.devices, self.controller_kwargs.get("reactor"))
            or default_reactor()
        )
        self.follower = self._make_follower()
        self._running = True
        self._set_role("standby")
        self._lease = wrap_mgmt(self.mgmt)
        self._lease.subscribe([LEASE_TABLE], self._on_lease_update)
        self.reactor.submit(self._poll)
        return self

    def stop(self) -> None:
        """Graceful shutdown: release any lease this replica holds, so a
        standby takes over without waiting out the TTL."""
        self._shutdown(release=True)

    def kill(self) -> None:
        """Crash simulation: tear everything down **without** releasing
        the lease — a standby must wait out the TTL, exactly as it
        would for a dead process."""
        self._shutdown(release=False)

    def _shutdown(self, release: bool) -> None:
        """Halt on the loop.  A caller off it waits until the replica is
        quiet: a graceful release answered."""
        reactor = self.reactor
        if reactor is None:
            return
        if reactor.in_loop():
            self._halt(release, None)
        else:
            quiet = Task(None)
            if not reactor.submit(self._halt, release, quiet.finish):
                self._halt(release, quiet.finish)  # nothing runs there now
            try:
                quiet.wait("HA shutdown", self.ttl + 30.0)
            except ReproError:
                pass  # teardown must not raise
        self._unwatch_lease()

    def poke(self) -> None:
        """Run the next tick now (tests use this instead of sleeping)."""
        if self.reactor is not None:
            self.reactor.submit(self._tick_now)

    @property
    def is_leader(self) -> bool:
        return self.role == "leader"

    def wait_for_role(self, role: str, timeout: float = 10.0) -> bool:
        """Off the loop: wait until this replica's role is ``role``."""
        with self._role_changed:
            return self._role_changed.wait_for(
                lambda: self.role == role, timeout
            )

    def metrics(self) -> Dict[str, object]:
        out = {
            "role": self.role,
            "owner": self.owner,
            "epoch": self.epoch,
            "takeovers": self.takeovers,
            "takeover_seconds": self.takeover_seconds,
            "renewals": self.renewals,
            "lost_leaderships": self.lost_leaderships,
            "renew_lateness_max": self.renew_lateness_max,
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

    # -- the state machine (loop callbacks) ----------------------------------

    def _tick_now(self) -> None:
        """Run the armed tick now.  None is armed while an acquire or a
        renew is out: its answer arms the next."""
        timer, self._timer = self._timer, None
        if timer is not None:
            timer.cancel()
            timer.fn()

    def _poll(self) -> None:
        """Standby tick: absorb what the leader has checkpointed since.
        The acquire is a timer of its own, never part of this callback:
        a full reload holds the loop for a tenth of a second or more,
        and a leader sharing the loop must get its overdue renew in
        first — timers run in due order.  (That order holds at an
        in-process database; two management clients are two
        connections, which the server may read in either order.)"""
        self._timer = None
        if not self._running or self.epoch is not None:
            return
        try:
            self.follower.poll()
        except Exception:  # noqa: BLE001 - keep following
            pass
        self._timer = self.reactor.call_later(0.0, self._acquire)

    def _acquire(self) -> None:
        self._timer = None
        if not self._running or self.epoch is not None:
            return
        self._call(
            "lease_acquire",
            [self.lease_name, self.owner, self.ttl, self.clock(), False],
            partial(self._acquired, self._lease, time.monotonic() + self.ttl),
            self.ttl,
        )

    def _acquired(self, plane, expires: float, lease, error) -> None:
        if not self._running or plane is not self._lease:
            # Halted since (and maybe restarted): a graceful stop's
            # release went out behind this call, a kill keeps the lease.
            return
        if error is None and lease is not None and lease["owner"] == self.owner:
            self.epoch = int(lease["epoch"])
            self._expires = expires
            self._promote()
        else:
            self._arm_poll()

    def _promote(self) -> None:
        """Build the controller on the follower's runtime and queue its
        recovery; :meth:`_promoted` makes this replica the leader once
        that has finished.  The lease is renewed meanwhile."""
        started = time.perf_counter()
        runtime, warm = self.follower.detach()
        self._arm_renew()
        try:
            controller = NerpaController(
                self.project,
                self.mgmt,
                self.devices,
                state_dir=self.state_dir,
                fencing_epoch=self.epoch,
                warm_source=(runtime, warm),
                **dict(self.controller_kwargs, reactor=self.reactor),
            )
        except Exception:  # noqa: BLE001 - a takeover that cannot begin
            self._step_down()
            return
        self._promoting = controller
        controller.on_started(partial(self._promoted, controller, started))
        try:
            controller.start()  # on its own loop: queues the recovery
        except Exception as exc:  # noqa: BLE001
            self._promoted(controller, started, exc)

    def _promoted(self, controller, started: float, error) -> None:
        if self._promoting is not controller:
            return  # stopped or deposed while it recovered
        if error is not None:
            # A failed takeover must not wedge the replica as a
            # half-leader: drop the lease and resume following.
            self._step_down()
            return
        self._promoting = None
        self.controller = controller
        self.takeovers += 1
        self.takeover_seconds = time.perf_counter() - started
        if obs.ENABLED:
            obs.REGISTRY.counter("ha_takeovers_total").inc()
            obs.REGISTRY.histogram("ha_takeover_seconds").observe(
                self.takeover_seconds
            )
            obs.REGISTRY.gauge("ha_is_leader", owner=self.owner).set(1)
            obs.REGISTRY.gauge("ha_fencing_epoch").set(self.epoch)
        self._set_role("leader")

    def _renew(self) -> None:
        """Lease tick.  The call's deadline is the time left on the
        lease: past it another replica may hold the lease, so a renewal
        not answered by then demotes.  A renew that runs after the
        expiry (a long loop callback ran first) still goes out, with
        ``renew_interval`` to answer: the server's (owner, epoch) guard
        decides, as it does inline for an in-process database."""
        self._timer = None
        if not self._running or self.epoch is None:
            return
        sent = time.monotonic()
        lateness = max(0.0, sent - self._renew_due)
        self.renew_lateness_max = max(self.renew_lateness_max, lateness)
        if obs.ENABLED:
            obs.REGISTRY.histogram("ha_renew_lateness_seconds").observe(
                lateness
            )
        self._call(
            "lease_renew",
            [self.lease_name, self.owner, self.epoch, self.ttl, self.clock()],
            partial(self._renewed, self.epoch, sent + self.ttl),
            max(self._expires - sent, self.renew_interval),
        )

    def _renewed(self, epoch: int, expires: float, renewed, error) -> None:
        if not self._running or epoch != self.epoch:
            return  # halted, or stepped down while the call was out
        if error is None and renewed:
            self._expires = expires
            self.renewals += 1
            if obs.ENABLED:
                obs.REGISTRY.counter("ha_lease_renewals_total").inc()
            self._arm_renew()
        elif (
            isinstance(error, ConnectionLostError)
            and time.monotonic() < self._expires
        ):
            # The connection dropped or is re-dialling: try again while
            # the lease lasts, as a blocking call would have waited.
            self._arm_renew()
        else:
            self._demote()

    def _demote(self) -> None:
        """The lease was lost (expired under us, or another replica's
        acquisition deposed this one): stop acting as leader *now* and
        resume following.  The stopped controller's writes were fenced
        the moment the successor acquired, so even in-flight batches
        cannot corrupt device state."""
        self.lost_leaderships += 1
        if obs.ENABLED:
            obs.REGISTRY.counter("ha_lease_losses_total").inc()
            obs.REGISTRY.gauge("ha_is_leader", owner=self.owner).set(0)
        self._step_down()

    def _step_down(self) -> None:
        """Leave the lease and the controller; resume following."""
        self._set_role("standby")
        if self._timer is not None:
            self._timer.cancel()
        self._stop_controller()
        self._release()
        self.follower.close()
        self.follower = self._make_follower()
        self._arm_poll()

    def _halt(self, release: bool, done) -> None:
        """The shutdown itself; ``done(None, None)`` once it is quiet.
        A graceful stop releases the lease whether or not it holds one:
        an acquire still in flight may have won it, and the release,
        sent behind it on the same connection, acts only for this
        owner.  A kill keeps it, as a crash would."""
        if not self._running:
            if done is not None:
                done(None, None)
            return
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._stop_controller()
        if self.follower is not None:
            self.follower.close()
            self.follower = None
        self._set_role("standby")
        if release:
            self._release(done)
        else:
            self.epoch = None
            if done is not None:
                done(None, None)

    # -- plumbing ------------------------------------------------------------

    def _call(self, method: str, args: list, callback, timeout: float) -> None:
        """A lease call, whose answer runs on the replica's loop (in
        place, if that one has stopped)."""
        reactor = self.reactor

        def answered(result, error) -> None:
            if reactor.in_loop() or not reactor.submit(callback, result, error):
                callback(result, error)

        self._lease.call_async(method, args, answered, timeout=timeout)

    def _release(self, done=None) -> None:
        """Give the lease up; if the call fails, it simply expires."""
        self.epoch = None
        self._call(
            "lease_release",
            [self.lease_name, self.owner],
            lambda _released, _error: done and done(None, None),
            self.ttl,
        )

    def _arm_poll(self) -> None:
        self._timer = self.reactor.call_later(self.poll_interval, self._poll)

    def _arm_renew(self) -> None:
        self._renew_due = time.monotonic() + self.renew_interval
        self._timer = self.reactor.call_later(self.renew_interval, self._renew)

    def _stop_controller(self) -> None:
        """Stop the running controller, or one still recovering.  Never
        raises: a shutdown, a failed takeover and a demotion must all
        reach their next state."""
        controller = self.controller or self._promoting
        self.controller = self._promoting = None
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

    def _set_role(self, role: str) -> None:
        with self._role_changed:
            self.role = role
            self._role_changed.notify_all()

    def _on_lease_update(self, _updates) -> None:
        # A lease-table commit: a graceful release or a peer's
        # acquisition.  Wake a standby so takeover latency is bounded
        # by delivery, not by poll_interval.  A replica holding the
        # lease sees its own renewals here too — do not wake it, or
        # renew would busy-loop.
        if self._running and self.epoch is None:
            self.reactor.submit(self._tick_now)

    def _unwatch_lease(self) -> None:
        if self._lease is not None:
            try:
                self._lease.unsubscribe()
            except (ReproError, TransactionError, OSError):
                pass

    def __enter__(self) -> "HAController":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
