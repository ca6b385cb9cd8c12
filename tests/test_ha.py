"""Multi-controller HA tests: leased leadership, warm-standby takeover,
end-to-end write fencing, and shared-checkpoint races.

Four layers are covered:

* lease — the ``_Lease`` CAS protocol (``repro.mgmt.lease``): epoch
  monotonicity across acquire/release/steal, renew guarded by
  ``(owner, epoch)``, and the ``fence_ops`` wait guard aborting a
  deposed leader's management transactions;
* follower — ``CheckpointFollower`` tailing a live leader's delta
  chain: incremental segment replay, full-reload detection after a
  compaction, and the read-only (``heal=False``) discipline that must
  never unlink a concurrent writer's segments;
* state machine — ``HAController`` promotion/demotion driven by a fake
  clock and ``poke()`` (no sleeps): standby→leader on expiry, fast
  takeover on graceful release, demotion on a failed renew;
* failover oracle — a leader killed mid-sequence (and mid-checkpoint)
  must hand off to a standby whose final engine dumps and device
  tables are identical to an uninterrupted run's, while the deposed
  leader's writes are provably rejected by the fencing epoch.
"""

import dataclasses
import threading
import time

import pytest

from repro.apps.snvs import build_snvs
from repro.core import reconcile, warmstate
from repro.core.controller import NerpaController
from repro.core.ha import CheckpointFollower, HAController
from repro.core.planes import RemoteMgmt
from repro.errors import ReproError, TransactionError
from repro.mgmt import lease as leaselib
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.mgmt.schema import simple_schema
from repro.mgmt.server import ManagementServer
from repro.net.faults import FaultInjector
from repro.net.reactor import Reactor
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.api import (
    DeviceService,
    FencedWriteError,
    encode_update,
)
from repro.p4runtime.farm import DeviceFarm
from tests.test_fanout import FAST, free_port

LEASE = "test-lease"


class FakeClock:
    """Injectable wall clock: lease expiry is driven by the test."""

    def __init__(self, start: float = 1000.0):
        self._now = start
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += seconds


def make_db():
    return Database(
        simple_schema(
            "net",
            {
                "Port": {"name": "string", "vlan": "integer"},
            },
        )
    )


def wait_for(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {what}")


# -- the lease protocol ------------------------------------------------------


class TestLease:
    def test_first_acquire_creates_row_at_epoch_one(self):
        db = make_db()
        got = leaselib.acquire(db.transact, LEASE, "a", ttl=10.0, now=100.0)
        assert got == {
            "name": LEASE,
            "owner": "a",
            "epoch": 1,
            "expires": 110.0,
        }

    def test_live_lease_is_refused(self):
        db = make_db()
        leaselib.acquire(db.transact, LEASE, "a", ttl=10.0, now=100.0)
        assert leaselib.acquire(db.transact, LEASE, "b", ttl=10.0, now=105.0) is None
        # The holder is unchanged.
        assert leaselib.peek(db.transact, LEASE)["owner"] == "a"

    def test_expired_lease_taken_with_epoch_bump(self):
        db = make_db()
        leaselib.acquire(db.transact, LEASE, "a", ttl=10.0, now=100.0)
        got = leaselib.acquire(db.transact, LEASE, "b", ttl=10.0, now=111.0)
        assert got["owner"] == "b"
        assert got["epoch"] == 2

    def test_steal_ignores_expiry_but_still_bumps_epoch(self):
        db = make_db()
        leaselib.acquire(db.transact, LEASE, "a", ttl=10.0, now=100.0)
        got = leaselib.acquire(db.transact, LEASE, "b", ttl=10.0, now=101.0, steal=True)
        assert got["owner"] == "b"
        assert got["epoch"] == 2

    def test_release_expires_but_keeps_row_and_epoch(self):
        db = make_db()
        leaselib.acquire(db.transact, LEASE, "a", ttl=10.0, now=100.0)
        assert leaselib.release(db.transact, LEASE, "a")
        row = leaselib.peek(db.transact, LEASE)
        assert row["epoch"] == 1
        assert row["expires"] == 0.0
        # Next acquire needs no TTL wait and the epoch keeps counting.
        got = leaselib.acquire(db.transact, LEASE, "b", ttl=10.0, now=100.0)
        assert got["epoch"] == 2

    def test_release_by_non_owner_is_a_noop(self):
        db = make_db()
        leaselib.acquire(db.transact, LEASE, "a", ttl=10.0, now=100.0)
        assert not leaselib.release(db.transact, LEASE, "b")
        assert leaselib.peek(db.transact, LEASE)["expires"] == 110.0

    def test_epochs_strictly_increase_across_leaderships(self):
        db = make_db()
        epochs = []
        for i in range(6):
            owner = "a" if i % 2 == 0 else "b"
            got = leaselib.acquire(db.transact, LEASE, owner, ttl=10.0, now=100.0)
            epochs.append(got["epoch"])
            leaselib.release(db.transact, LEASE, owner)
        assert epochs == [1, 2, 3, 4, 5, 6]

    def test_renew_extends_only_while_owner_and_epoch_match(self):
        db = make_db()
        got = leaselib.acquire(db.transact, LEASE, "a", ttl=10.0, now=100.0)
        assert leaselib.renew(db.transact, LEASE, "a", got["epoch"], ttl=10.0, now=105.0)
        assert leaselib.peek(db.transact, LEASE)["expires"] == 115.0
        # Wrong epoch (a stale leader from a previous leadership).
        assert not leaselib.renew(db.transact, LEASE, "a", got["epoch"] - 1, 10.0, now=106.0)
        # Wrong owner (a deposed leader after a takeover).
        assert not leaselib.renew(db.transact, LEASE, "b", got["epoch"], 10.0, now=106.0)
        assert leaselib.peek(db.transact, LEASE)["expires"] == 115.0

    def test_fence_ops_abort_deposed_leaders_transactions(self):
        db = make_db()
        got = leaselib.acquire(db.transact, LEASE, "a", ttl=10.0, now=100.0)
        fence = leaselib.fence_ops(LEASE, "a", got["epoch"])
        insert = {"op": "insert", "table": "Port", "row": {"name": "p", "vlan": 1}}
        # While the lease is held, the guarded commit goes through.
        db.transact(fence + [dict(insert, row={"name": "held", "vlan": 1})])
        assert db.count("Port") == 1
        # Another replica takes over; the old guard now aborts the whole
        # transaction atomically — nothing commits.
        leaselib.acquire(db.transact, LEASE, "b", ttl=10.0, now=111.0)
        with pytest.raises(TransactionError):
            db.transact(fence + [insert])
        assert db.count("Port") == 1

    def test_peek_without_row(self):
        assert leaselib.peek(make_db().transact, LEASE) is None


class TestLeaseRemote:
    """The same protocol through ManagementServer/Client RPCs."""

    @pytest.fixture()
    def server(self):
        srv = ManagementServer(make_db()).start()
        yield srv
        srv.stop()

    @pytest.fixture()
    def client(self, server):
        host, port = server.address
        with ManagementClient(host, port) as c:
            yield c

    def test_round_trip(self, server, client):
        got = client.call("lease_acquire", [LEASE, "a", 10.0, 100.0, False])
        assert got["lease"]["epoch"] == 1
        assert client.call("lease_renew", [LEASE, "a", 1, 10.0, 105.0]) == {
            "renewed": True
        }
        assert client.call("lease_get", [LEASE])["lease"]["expires"] == 115.0
        assert client.call("lease_release", [LEASE, "a"]) == {"released": True}
        # Epochs are shared state: a different client sees the bump.
        host, port = server.address
        with ManagementClient(host, port) as other:
            got = other.call("lease_acquire", [LEASE, "b", 10.0, 100.0, False])
            assert got["lease"]["epoch"] == 2

    def test_an_answer_without_its_key_fails_the_call(self, server, client):
        """The plane adapter reads each method's answer key on the
        client's loop: a malformed answer is the call's error, not an
        exception on the loop."""
        server.handle = lambda conn, method, params: {"wrong": 1}
        assert client.conn.wait_connected(5.0)
        answers = []
        done = threading.Event()

        def callback(result, error):
            answers.append((result, error))
            done.set()

        RemoteMgmt(client).call_async(
            "lease_renew", [LEASE, "a", 1, 10.0, 105.0], callback, 5.0
        )
        assert done.wait(5.0)
        ((result, error),) = answers
        assert result is None and isinstance(error, KeyError)
        assert client.conn.reactor.last_callback_error is None


# -- device-side fencing -----------------------------------------------------


class TestDeviceFencing:
    def _service(self):
        project = build_snvs()
        sim = project.new_simulator(n_ports=4)
        return sim, DeviceService(sim)

    def test_unfenced_writes_always_pass(self):
        _, svc = self._service()
        assert svc.write([]) == 0
        svc.apply_batch([], fence=5)
        assert svc.apply_batch([], fence=None) == 0  # still unfenced path

    def test_stale_epoch_rejected_and_state_preserved(self):
        sim, svc = self._service()
        svc.apply_batch([], fence=2)
        assert svc.fencing_epoch() == 2
        with pytest.raises(FencedWriteError) as exc:
            svc.apply_batch([], {1: [0, 1]}, fence=1)
        assert exc.value.stale == 1
        assert exc.value.current == 2
        assert sim.multicast_groups == {}  # rejected before any effect
        # A rejection must not regress the high-water mark.
        assert svc.fencing_epoch() == 2

    def test_equal_epoch_accepted(self):
        _, svc = self._service()
        svc.apply_batch([], fence=3)
        assert svc.apply_batch([], fence=3) == 0

    def test_fence_is_device_state_not_session_state(self):
        # Two controllers reach the *same* switch through independent
        # DeviceService sessions; the fence must still hold.
        sim, svc = self._service()
        other = DeviceService(sim)
        other.apply_batch([], fence=7)
        with pytest.raises(FencedWriteError):
            svc.apply_batch([], fence=6)

    def test_set_config_epoch_is_fenced_too(self):
        _, svc = self._service()
        svc.apply_batch([], fence=4)
        with pytest.raises(FencedWriteError):
            svc.set_config_epoch("stale-epoch", fence=3)
        assert svc.get_config_epoch() is None  # rejected before the stamp


# -- the checkpoint follower -------------------------------------------------


def _snvs_config(db, ports):
    db.transact(
        [{"op": "insert", "table": "Vlan", "row": {"vid": 10}}]
        + [
            {
                "op": "insert",
                "table": "Port",
                "row": {
                    "name": f"p{p}",
                    "port_num": p,
                    "vlan_mode": "access",
                    "tag": 10,
                },
            }
            for p in ports
        ]
    )


def _add_port(db, p):
    db.transact(
        [
            {
                "op": "insert",
                "table": "Port",
                "row": {
                    "name": f"p{p}",
                    "port_num": p,
                    "vlan_mode": "access",
                    "tag": 10,
                },
            }
        ]
    )


def _del_port(db, p):
    db.transact(
        [{"op": "delete", "table": "Port", "where": [["name", "==", f"p{p}"]]}]
    )


_HEX = set("0123456789abcdef")


def _scrub(row):
    # Row uuids are minted per insert: two runs applying the same
    # logical transactions never share them.  Mask them so equality
    # compares the *semantic* content of each tuple.
    return tuple(
        "<uuid>"
        if isinstance(v, str) and len(v) == 32 and set(v) <= _HEX
        else v
        for v in row
    )


def _engine_state(runtime, bindings):
    relations = sorted(
        set(bindings.relation_for_ovsdb.values())
        | set(bindings.table_relations)
    )
    return {rel: sorted(_scrub(r) for r in runtime.dump(rel)) for rel in relations}


def _device_state(sim):
    return {
        name: sorted(
            (entry.match_key(), entry.action, entry.action_params)
            for entry in table.entries()
        )
        for name, table in sim.tables.items()
    }


class TestCheckpointFollower:
    def test_tails_full_then_segments(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        leader = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        try:
            _snvs_config(db, (0, 1))
            leader.drain()
            leader.save_checkpoint()

            follower = CheckpointFollower(project, str(tmp_path))
            assert not follower.ready
            assert follower.poll()
            assert follower.ready
            assert follower.full_reloads == 1
            assert _engine_state(follower.runtime, project.bindings) == (
                _engine_state(leader.runtime, project.bindings)
            )
            # Nothing new: poll is a cheap no-op.
            assert not follower.poll()

            # The leader keeps going; the follower replays just the
            # delta segment, no full reload.
            _add_port(db, 2)
            leader.drain()
            leader.save_checkpoint("delta")
            assert follower.poll()
            assert follower.full_reloads == 1
            assert follower.segments_replayed == 1
            assert _engine_state(follower.runtime, project.bindings) == (
                _engine_state(leader.runtime, project.bindings)
            )
            _add_port(db, 3)
            leader.drain()
            leader.save_checkpoint("delta")
            tailed_warm = dict(follower.warm_state)
            assert follower.poll()
        finally:
            leader.stop()
        # Hand-off oracle: tailing the chain cut by cut and restoring
        # it from disk in one go are the same fold — equal warm state
        # (each delta moved mcast membership and the device epoch) and
        # equal contents of every relation.
        tailed, warm = follower.detach()
        restored, disk_warm = warmstate.restore(
            warmstate.open_store(str(tmp_path), project.program.program_hash),
            project.program, 1, "process",
        )
        try:
            assert warm == disk_warm
            assert set(warm) == {"mcast", "seq", "device_epochs"}
            assert all(warm[key] != tailed_warm[key] for key in warm)
            program = project.program
            for rel in program.input_relations + program.output_relations:
                assert tailed.dump(rel) == restored.dump(rel), rel
        finally:
            tailed.close()
            restored.close()

    def test_detects_compaction_and_reloads(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        leader = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        try:
            _snvs_config(db, (0,))
            leader.drain()
            leader.save_checkpoint()
            follower = CheckpointFollower(project, str(tmp_path))
            assert follower.poll()

            # Compaction rewrites the full snapshot (fresh inode) and
            # purges the segments the follower was anchored on.
            _add_port(db, 1)
            leader.drain()
            leader.save_checkpoint("delta")
            _add_port(db, 2)
            leader.drain()
            leader.save_checkpoint("full")
            assert follower.poll()
            assert follower.full_reloads == 2
            assert _engine_state(follower.runtime, project.bindings) == (
                _engine_state(leader.runtime, project.bindings)
            )
            follower.close()
        finally:
            leader.stop()

    def test_follower_never_unlinks_a_torn_tail(self, tmp_path):
        """Regression: the follower opens the chain with ``heal=False``.
        A torn or stale segment may be the *writer's* — a follower that
        unlinked it would destroy a live leader's chain."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        leader = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        try:
            _snvs_config(db, (0,))
            leader.drain()
            leader.save_checkpoint()
            follower = CheckpointFollower(project, str(tmp_path))
            assert follower.poll()

            # Simulate the leader dying mid-segment-write.
            torn = tmp_path / "controller.ckpt.delta-000001.seg"
            torn.write_bytes(b"torn mid-write")
            assert not follower.poll()  # stops at the invalid tail...
            assert torn.exists()  # ...but must not delete it
            follower.close()
        finally:
            leader.stop()

    def test_detach_hands_over_runtime_and_warm_state(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        leader = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        try:
            _snvs_config(db, (0, 1))
            leader.drain()
            leader.save_checkpoint()
        finally:
            leader.stop()
        follower = CheckpointFollower(project, str(tmp_path))
        assert follower.poll()
        runtime, warm = follower.detach()
        assert runtime is not None
        assert "device_epochs" in warm
        assert follower.runtime is None  # ownership transferred
        runtime.close()

    def test_detach_before_any_checkpoint_is_empty(self, tmp_path):
        follower = CheckpointFollower(build_snvs(), str(tmp_path))
        assert not follower.poll()
        assert follower.detach() == (None, {})


# -- the HA state machine ----------------------------------------------------


def _ha(project, db, sims, state_dir, owner, clock, **overrides):
    kwargs = dict(
        lease_name=LEASE,
        owner=owner,
        ttl=60.0,
        renew_interval=0.05,
        poll_interval=0.05,
        clock=clock.now,
    )
    kwargs.update(overrides)
    return HAController(project, db, sims, str(state_dir), **kwargs)


class TestHAController:
    def test_single_replica_promotes_and_releases(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        clock = FakeClock()
        a = _ha(project, db, [switch], tmp_path, "a", clock)
        a.start()
        try:
            assert a.wait_for_role("leader", 15.0)
            assert a.epoch == 1
            assert a.is_leader
            _snvs_config(db, (0, 1))
            a.controller.drain()
            assert len(switch.table("in_vlan")) == 2
            assert a.metrics()["takeovers"] == 1
        finally:
            a.stop()
        # Graceful stop released the lease (expired, row kept).
        row = leaselib.peek(db.transact, LEASE)
        assert row["expires"] == 0.0
        assert row["epoch"] == 1

    def test_kill_requires_ttl_graceful_stop_does_not(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        clock = FakeClock()
        a = _ha(project, db, [switch], tmp_path, "a", clock)
        a.start()
        assert a.wait_for_role("leader", 15.0)
        _snvs_config(db, (0, 1))
        a.controller.drain()
        a.controller.save_checkpoint()

        b = _ha(project, db, [switch], tmp_path, "b", clock)
        b.start()
        try:
            # The lease is live: b must stay standby.
            assert not b.wait_for_role("leader", 0.3)

            a.kill()  # crash: no release
            assert leaselib.peek(db.transact, LEASE)["expires"] > 0.0
            assert not b.wait_for_role("leader", 0.3)

            clock.advance(61.0)  # TTL runs out
            b.poke()
            assert b.wait_for_role("leader", 15.0)
            assert b.epoch == 2
            # The takeover was warm: the checkpointed device epoch
            # matched, so no resync traffic was needed.
            assert b.controller.restart_mode == "warm"
            assert b.controller.warm_skips == 1
            # The new leader is live end to end.
            _add_port(db, 2)
            b.controller.drain()
            assert len(switch.table("in_vlan")) == 3
        finally:
            b.stop()

    def test_graceful_release_triggers_fast_takeover(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        clock = FakeClock()
        a = _ha(project, db, [switch], tmp_path, "a", clock)
        a.start()
        assert a.wait_for_role("leader", 15.0)
        _snvs_config(db, (0,))
        a.controller.drain()
        a.controller.save_checkpoint()
        b = _ha(project, db, [switch], tmp_path, "b", clock)
        b.start()
        try:
            assert not b.wait_for_role("leader", 0.3)
            # stop() releases the lease; the lease-table monitor pokes
            # the standby, which takes over with NO clock advance — the
            # fake clock proves no TTL wait was involved.
            a.stop()
            assert b.wait_for_role("leader", 15.0)
            assert b.epoch == 2
        finally:
            b.stop()

    def test_deposed_leader_demotes_on_failed_renew(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        clock = FakeClock()
        # a renews only when poked (huge interval): the test owns the
        # interleaving.
        a = _ha(
            project, db, [switch], tmp_path, "a", clock, renew_interval=120.0
        )
        a.start()
        try:
            assert a.wait_for_role("leader", 15.0)
            # a sleeps; its lease expires; b takes the leadership.
            b = _ha(project, db, [switch], tmp_path, "b", clock)
            clock.advance(61.0)
            b.start()
            try:
                assert b.wait_for_role("leader", 15.0)
                assert b.epoch == 2
                # a wakes, fails its renew, and demotes itself.
                a.poke()
                assert a.wait_for_role("standby", 15.0)
                assert a.lost_leaderships == 1
                assert a.controller is None
            finally:
                b.stop()
        finally:
            a.stop()


class TestHAOnTheLoop:
    """Races between a replica's own lease calls, its promotion and a
    stop: each is a callback on the replica's loop, and a stop leaves
    nothing running and no lease held."""

    def test_stop_racing_a_won_acquire_releases_the_lease(self, tmp_path):
        """The acquire commits, and stop() lands before its answer has
        come back (the proxy delays each direction): the replica must
        not promote, and must give back the lease it turns out to hold
        instead of sitting on it for a full TTL."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        server = ManagementServer(db).start()
        proxy = FaultInjector(*server.address).start()
        proxy.set_latency(0.3)
        client = ManagementClient(*proxy.address, policy=FAST)
        a = _ha(project, client, [switch], tmp_path, "a", FakeClock())
        try:
            a.start()
            wait_for(
                lambda: (leaselib.peek(db.transact, LEASE) or {}).get("owner") == "a",
                what="the acquire to commit",
            )
            a.stop()  # its answer is still in the proxy
            assert leaselib.peek(db.transact, LEASE)["expires"] == 0.0
            assert a.controller is None
            assert a.takeovers == 0
            assert not a.is_leader
        finally:
            a.stop()
            client.close()
            proxy.stop()
            server.stop()

    def test_stop_during_a_promotion_leaves_nothing_running(self, tmp_path):
        """stop() while the promotion's recovery waits on a device that
        does not answer (for longer than any stop could wait): no
        controller is left running or led, the lease is released and no
        follower is left open."""
        project = build_snvs()
        db = Database(project.schema)
        farm = DeviceFarm(1).start()
        proxy = FaultInjector(*farm.address).start()
        reactor = Reactor("t-ha-held").start()
        client = AioP4RuntimeClient(
            *proxy.address,
            reactor,
            policy=dataclasses.replace(FAST, call_timeout=60.0),
            device_hint=0,
        )
        a = _ha(project, db, [client], tmp_path, "a", FakeClock())
        try:
            assert client.conn.wait_connected(5.0)
            proxy.set_blackhole(True)  # the takeover's device calls hang
            a.start()
            wait_for(lambda: a.epoch == 1, what="the acquisition")
            assert not a.is_leader  # its recovery is still waiting
            a.stop()
            assert a.controller is None
            assert a.follower is None
            assert not a.is_leader
            assert leaselib.peek(db.transact, LEASE)["expires"] == 0.0
            assert a.takeovers == 0
        finally:
            a.stop()
            client.close()
            proxy.stop()
            farm.stop()
            reactor.stop()

    def test_unanswered_renew_demotes_within_the_lease(self, tmp_path):
        """A frozen management proxy: the leader's renew gets no answer.
        Its deadline is the time left on the lease, so the leader steps
        down before a standby could take over — not after the client's
        call timeout."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        server = ManagementServer(db).start()
        proxy = FaultInjector(*server.address).start()
        client = ManagementClient(*proxy.address, policy=FAST)
        ttl, renew_interval = 0.6, 0.2
        a = HAController(
            project,
            client,
            [switch],
            str(tmp_path),
            lease_name=LEASE,
            owner="a",
            ttl=ttl,
            renew_interval=renew_interval,
            poll_interval=0.05,
        )
        try:
            a.start()
            assert a.wait_for_role("leader", 15.0)
            renewals = a.renewals
            wait_for(lambda: a.renewals > renewals, what="a renewal")
            proxy.set_stall(True)
            frozen = time.monotonic()
            assert a.wait_for_role("standby", ttl + renew_interval + 5.0)
            assert time.monotonic() - frozen <= ttl + renew_interval
            assert a.lost_leaderships == 1
            # The demotion stopped the controller on the shared loop
            # without waiting on the frozen server.
            probe = threading.Event()
            a.reactor.submit(probe.set)
            assert probe.wait(0.2)
        finally:
            proxy.set_stall(False)
            a.stop()
            client.close()
            proxy.stop()
            server.stop()


    def test_a_promotion_waits_for_a_device_still_dialling(self, tmp_path):
        """The device's proxy comes up only after the replica has won
        the lease, and the test never waits for the dial itself: the
        promotion waits for it without holding the loop, then syncs the
        device, which ends up holding the state."""
        project = build_snvs()
        db = Database(project.schema)
        _snvs_config(db, (0, 1))
        farm = DeviceFarm(1).start()
        port = free_port()
        reactor = Reactor("t-ha-dial").start()
        client = AioP4RuntimeClient(
            "127.0.0.1", port, reactor, policy=FAST, device_hint=0
        )
        a = _ha(project, db, [client], tmp_path, "a", FakeClock())
        proxy = FaultInjector(*farm.address, port=port)
        try:
            a.start()
            wait_for(lambda: a.epoch == 1, what="the acquisition")
            time.sleep(0.3)
            assert not a.is_leader  # still waiting for the dial
            proxy.start()
            assert a.wait_for_role("leader", 15.0)
            snapshot = farm.devices[0].table_snapshot()
            assert len(snapshot.get("in_vlan", {})) == 2
            assert a.controller.devices[0].syncs_missed == 0
            assert reactor.last_callback_error is None
        finally:
            a.stop()
            client.close()
            proxy.stop()
            farm.stop()
            reactor.stop()

    @pytest.mark.parametrize("plane", ["local", "remote"])
    def test_a_late_renew_still_holds_the_lease(self, tmp_path, plane):
        """A long loop callback holds the leader's renew past the lease's
        expiry.  The renew still goes out and, with no rival, the
        server's (owner, epoch) guard grants it: both planes agree."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        server = client = None
        mgmt = db
        if plane == "remote":
            server = ManagementServer(db).start()
            mgmt = client = ManagementClient(*server.address, policy=FAST)
        ttl = 0.3
        a = HAController(
            project,
            mgmt,
            [switch],
            str(tmp_path),
            lease_name=LEASE,
            owner="a",
            ttl=ttl,
            renew_interval=0.1,
            poll_interval=0.05,
        )
        try:
            a.start()
            assert a.wait_for_role("leader", 15.0)
            stalled = {}

            def stall():
                stalled["renewals"] = a.renewals
                time.sleep(2 * ttl)

            a.reactor.submit(stall)
            wait_for(
                lambda: a.renewals > stalled.get("renewals", a.renewals),
                what="a renewal after the stall",
            )
            assert a.renew_lateness_max >= ttl
            assert a.lost_leaderships == 0
            assert a.is_leader
        finally:
            a.stop()
            if client is not None:
                client.close()
                server.stop()

    def test_a_management_blip_inside_the_lease_does_not_demote(
        self, tmp_path
    ):
        """The management proxy goes away for a third of the TTL and
        comes back on the same port.  Renewals that find the connection
        re-dialling are tried again while the lease lasts, so the leader
        keeps its leadership, as a blocking renew that waited out the
        reconnect did."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        server = ManagementServer(db).start()
        port = free_port()
        proxy = FaultInjector(*server.address, port=port).start()
        client = ManagementClient("127.0.0.1", port, policy=FAST)
        a = HAController(
            project,
            client,
            [switch],
            str(tmp_path),
            lease_name=LEASE,
            owner="a",
            ttl=1.5,
            renew_interval=0.1,
            poll_interval=0.05,
        )
        try:
            a.start()
            assert a.wait_for_role("leader", 15.0)
            proxy.stop()
            time.sleep(0.5)
            proxy = FaultInjector(*server.address, port=port).start()
            wait_for(lambda: client.conn.connected, what="the reconnect")
            renewals = a.renewals
            wait_for(lambda: a.renewals > renewals, what="a renewal")
            assert a.lost_leaderships == 0
            assert a.is_leader
        finally:
            a.stop()
            client.close()
            proxy.stop()
            server.stop()


class TestHARemotePair:
    def test_takeovers_over_remote_planes_run_on_reactors_only(
        self, tmp_path
    ):
        """Both replicas talk to a management server and a device farm
        through their own clients.  A killed leader is replaced once its
        lease runs out, a stopped one at once; meanwhile every thread
        the pair added is a reactor loop, and no loop callback failed
        (a blocking call on a loop raises there)."""
        before = set(threading.enumerate())
        project = build_snvs()
        db = Database(project.schema)
        server = ManagementServer(db).start()
        farm = DeviceFarm(1).start()
        device = farm.devices[0]
        reactors, clients = [], []

        def replica(owner):
            reactor = Reactor(f"t-ha-{owner}").start()
            mclient = ManagementClient(*server.address, policy=FAST)
            dclient = AioP4RuntimeClient(
                *farm.address, reactor, policy=FAST, device_hint=0
            )
            reactors.extend([reactor, mclient.conn.reactor])
            clients.extend([dclient, mclient])
            assert dclient.conn.wait_connected(5.0)
            return HAController(
                project,
                mclient,
                [dclient],
                str(tmp_path),
                lease_name=LEASE,
                owner=owner,
                ttl=1.0,
                renew_interval=0.1,
                poll_interval=0.05,
            )

        def vlan_entries():
            return len(device.table_snapshot().get("in_vlan", {}))

        a, b = replica("a"), replica("b")
        try:
            a.start()
            assert a.wait_for_role("leader", 15.0)
            _snvs_config(db, (0, 1))
            wait_for(lambda: vlan_entries() == 2, what="two ports")
            a.controller.drain()
            a.controller.save_checkpoint()
            b.start()
            wait_for(
                lambda: b.metrics()["follower"]["ready"], what="b following"
            )

            a.kill()  # crash: b waits out the TTL
            assert b.wait_for_role("leader", 15.0)
            assert b.epoch == 2
            assert b.controller.warm_skips == 1
            _add_port(db, 2)
            wait_for(lambda: vlan_entries() == 3, what="b's first port")
            b.controller.drain()
            b.controller.save_checkpoint()

            a.start()  # back as a standby
            wait_for(
                lambda: a.metrics()["follower"]["ready"], what="a following"
            )
            b.stop()  # graceful: the release hands over
            assert a.wait_for_role("leader", 15.0)
            assert a.epoch == 3
            _del_port(db, 0)
            wait_for(lambda: vlan_entries() == 2, what="a's first delete")

            added = [
                t.name
                for t in threading.enumerate()
                if t not in before and not t.name.endswith("-reactor")
            ]
            assert added == []
            assert [r.last_callback_error for r in reactors] == [None] * 4
        finally:
            a.stop()
            b.stop()
            for client in clients:
                client.close()
            for reactor in reactors:
                reactor.stop()
            farm.stop()
            server.stop()


# -- failover correctness ----------------------------------------------------


OPS = list(range(7))


def _apply_ops(db, ops):
    """A deterministic SNVS churn sequence, one transaction per step."""
    for op in ops:
        if op == 0:
            _snvs_config(db, (0, 1, 2, 3))
        elif op == 1:
            _del_port(db, 1)
        elif op == 2:
            _add_port(db, 4)
        elif op == 3:
            _add_port(db, 5)
        elif op == 4:
            _del_port(db, 0)
        elif op == 5:
            _add_port(db, 6)
        elif op == 6:
            _del_port(db, 4)


def _reference_state(tmp_path):
    """The uninterrupted run the failover must be indistinguishable
    from: one controller applies every transaction."""
    project = build_snvs()
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=8)
    controller = NerpaController(
        project, db, [switch], state_dir=str(tmp_path / "ref")
    ).start()
    try:
        _apply_ops(db, OPS)
        controller.drain()
        return (
            _engine_state(controller.runtime, project.bindings),
            _device_state(switch),
        )
    finally:
        controller.stop()


class TestFailoverOracle:
    def test_kill_mid_sequence_converges_identically(self, tmp_path):
        ref_engine, ref_device = _reference_state(tmp_path)

        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        clock = FakeClock()
        state = tmp_path / "shared"
        a = _ha(project, db, [switch], state, "a", clock)
        a.start()
        assert a.wait_for_role("leader", 15.0)
        _apply_ops(db, OPS[:3])
        a.controller.drain()
        a.controller.save_checkpoint()
        # Transactions 3..4 reach the devices but never a checkpoint:
        # the successor must recover them from the durable mgmt DB.
        _apply_ops(db, OPS[3:5])
        a.controller.drain()

        b = _ha(project, db, [switch], state, "b", clock)
        b.start()
        try:
            a.kill()
            clock.advance(61.0)
            b.poke()
            assert b.wait_for_role("leader", 15.0)
            _apply_ops(db, OPS[5:])
            b.controller.drain()
            assert _engine_state(b.controller.runtime, project.bindings) == ref_engine
            assert _device_state(switch) == ref_device
        finally:
            b.stop()

    def test_kill_mid_checkpoint_converges_identically(self, tmp_path):
        """The leader dies *while* appending a delta segment: the torn
        segment must neither corrupt the takeover nor be unlinked by
        the follower (it belongs to whoever writes the chain next)."""
        ref_engine, ref_device = _reference_state(tmp_path)

        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        clock = FakeClock()
        state = tmp_path / "shared"
        a = _ha(project, db, [switch], state, "a", clock)
        a.start()
        assert a.wait_for_role("leader", 15.0)
        _apply_ops(db, OPS[:4])
        a.controller.drain()
        a.controller.save_checkpoint()
        # The crash happens mid-write of the next delta segment.
        store = a.controller.checkpoints.store
        torn = store.segment_path(store.next_index)
        with open(torn, "wb") as handle:
            handle.write(b"\x80torn delta segment")

        b = _ha(project, db, [switch], state, "b", clock)
        b.start()
        try:
            a.kill()
            clock.advance(61.0)
            b.poke()
            assert b.wait_for_role("leader", 15.0)
            import os

            assert os.path.exists(torn)  # the follower did not heal
            _apply_ops(db, OPS[4:])
            b.controller.drain()
            assert _engine_state(b.controller.runtime, project.bindings) == ref_engine
            assert _device_state(switch) == ref_device
        finally:
            b.stop()

    def test_deposed_leader_writes_are_fenced_at_the_device(self, tmp_path):
        """End-to-end fencing: a paused-then-resumed old leader keeps
        fanning out batches stamped with its dead epoch — every device
        rejects them, and the failure surfaces at *its* drain()."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        old = NerpaController(
            project, db, [switch], fencing_epoch=1
        ).start()
        try:
            _snvs_config(db, (0, 1))
            old.drain()
            before = _device_state(switch)
            # A successor acquires epoch 2 and stamps it on the device
            # (what HAController does during its takeover).
            DeviceService(switch).apply_batch([], fence=2)
            # The old leader, unaware, keeps driving its pipeline.
            _add_port(db, 2)
            with pytest.raises(FencedWriteError):
                old.drain()
            # The device never applied the deposed leader's batch.
            assert _device_state(switch) == before
        finally:
            old.stop()

    def test_fenced_rejection_is_not_a_transport_error(self, tmp_path):
        """A fenced write must not trip the breaker/resync machinery —
        a resync from a deposed leader would be fenced too, but it must
        fail loudly instead of looping."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        old = NerpaController(project, db, [switch], fencing_epoch=1).start()
        try:
            _snvs_config(db, (0,))
            old.drain()
            DeviceService(switch).apply_batch([], fence=2)
            _add_port(db, 1)
            with pytest.raises(FencedWriteError):
                old.drain()
            device = old.devices[0]
            assert not device.quarantined
        finally:
            old.stop()

    def test_epoch_matched_takeover_never_dumps_desired_state(
        self, tmp_path, monkeypatch
    ):
        """When every device already reports its checkpointed epoch,
        the takeover must not take the O(state) desired-writes dump —
        that skip is what makes failover latency independent of the
        derived-state size (the H1 headline)."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        leader = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        try:
            _snvs_config(db, (0, 1))
            leader.drain()
            leader.save_checkpoint()
        finally:
            leader.stop()

        follower = CheckpointFollower(project, str(tmp_path))
        assert follower.poll()

        dumps = []
        inner = reconcile.desired_writes
        monkeypatch.setattr(
            reconcile,
            "desired_writes",
            lambda *args: dumps.append(1) or inner(*args),
        )
        successor = NerpaController(
            project,
            db,
            [switch],
            state_dir=str(tmp_path),
            fencing_epoch=2,
            warm_source=follower.detach(),
        ).start()
        try:
            successor.drain()
            assert successor.restart_mode == "warm"
            assert successor.warm_skips == 1
            assert dumps == []
            # The device learned the successor's fence during takeover.
            assert switch.fencing_epoch == 2
        finally:
            successor.stop()

    def test_epoch_matched_takeover_fences_a_remote_device(self, tmp_path):
        """The same takeover against a device behind the wire: the
        fence reaches it as a bare ``set_config_epoch`` call, nothing is
        read or written, and the deposed leader's epoch is rejected."""
        project = build_snvs()
        db = Database(project.schema)
        farm = DeviceFarm(1).start()
        reactor = Reactor("t-ha-remote").start()
        client = AioP4RuntimeClient(
            *farm.address, reactor, policy=FAST, device_hint=0
        )
        try:
            leader = NerpaController(
                project, db, [client], state_dir=str(tmp_path), fencing_epoch=1
            ).start()
            try:
                _snvs_config(db, (0, 1))
                leader.drain()
                leader.save_checkpoint()
            finally:
                leader.stop()
            device = farm.devices[0]
            state, batches = device.table_snapshot(), device.batches_applied
            successor = NerpaController(
                project, db, [client], state_dir=str(tmp_path), fencing_epoch=2
            ).start()
            try:
                successor.drain()
                assert successor.warm_skips == 1
                assert device.fencing_epoch() == 2
                assert device.batches_applied == batches
                assert device.table_snapshot() == state
                with pytest.raises(ReproError, match="fenced"):
                    client.set_config_epoch("deposed", fence=1)
            finally:
                successor.stop()
        finally:
            client.close()
            farm.stop()
            reactor.stop()

    def test_device_written_between_probe_and_sync_is_repaired(
        self, tmp_path, monkeypatch
    ):
        """The engine-thread epoch probe is only an optimization: if a
        device moves between the probe and the writer-thread check
        (e.g. a deposed leader wrote before being fenced), the takeover
        must fall back to a full read-diff resync."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        leader = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        try:
            _snvs_config(db, (0, 1))
            leader.drain()
            leader.save_checkpoint()
        finally:
            leader.stop()
        reference = _device_state(switch)

        follower = CheckpointFollower(project, str(tmp_path))
        assert follower.poll()

        inner = reconcile.full_sync

        def raced(device, *args):
            # Rogue write landing after the engine-thread probe but
            # before the channel-task epoch check: corrupts a table
            # entry and advances the device's config epoch.
            monkeypatch.setattr(reconcile, "full_sync", inner)
            service = DeviceService(switch)
            key, value = service.read_table("in_vlan")[0]
            service.apply_updates(
                [encode_update("DELETE", "in_vlan", key, value)]
            )
            service.set_config_epoch("rogue-write")
            return inner(device, *args)

        monkeypatch.setattr(reconcile, "full_sync", raced)
        successor = NerpaController(
            project,
            db,
            [switch],
            state_dir=str(tmp_path),
            fencing_epoch=2,
            warm_source=follower.detach(),
        ).start()
        try:
            successor.drain()
            assert successor.warm_skips == 0
            assert successor.device_resyncs >= 1
            assert _device_state(switch) == reference
        finally:
            successor.stop()


# -- stop() ordering ---------------------------------------------------------


class TestStopOrdering:
    def test_stop_under_churn_terminates(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        clock = FakeClock()
        a = _ha(project, db, [switch], tmp_path, "a", clock)
        a.start()
        assert a.wait_for_role("leader", 15.0)
        _snvs_config(db, (0,))
        a.controller.drain()

        stop_churn = threading.Event()

        def churn():
            port = 1
            while not stop_churn.is_set():
                _add_port(db, port)
                _del_port(db, port)

        churner = threading.Thread(target=churn, daemon=True)
        churner.start()
        try:
            # stop() must terminate while transactions keep flowing —
            # run it on a watchdog thread so a deadlock fails the test
            # instead of hanging it.
            stopper = threading.Thread(target=a.stop, daemon=True)
            stopper.start()
            stopper.join(30.0)
            assert not stopper.is_alive(), "HA stop() deadlocked under churn"
        finally:
            stop_churn.set()
            churner.join(10.0)
        assert leaselib.peek(db.transact, LEASE)["expires"] == 0.0

    def test_stop_from_monitor_callback_does_not_deadlock(self):
        """A monitor callback runs on the transacting thread while the
        database's notify machinery is mid-delivery; stopping the
        controller from there must not deadlock."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        controller = NerpaController(project, db, [switch]).start()
        _snvs_config(db, (0,))
        controller.drain()

        from repro.mgmt.monitor import MonitorSpec

        stopped = threading.Event()

        def on_update(_updates):
            if not stopped.is_set():
                stopped.set()
                controller.stop()

        db.add_monitor(MonitorSpec({"Port": None}), on_update)

        worker = threading.Thread(
            target=lambda: _add_port(db, 1), daemon=True
        )
        worker.start()
        worker.join(30.0)
        assert not worker.is_alive(), "stop() from a monitor callback hung"
        assert stopped.is_set()

    def test_stop_from_a_remote_monitor_callback_completes(self):
        """The twin over a management client: its monitor callbacks run
        on the client's loop, where ``stop()`` must not wait for its
        ``monitor_cancel``.  Teardown must still run to the end."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        with ManagementServer(db) as server:
            client = ManagementClient(*server.address)
            controller = NerpaController(project, client, [switch]).start()
            _snvs_config(db, (0,))
            wait_for(
                lambda: len(switch.table("in_vlan")) == 1, what="first port"
            )
            returned = threading.Event()
            errors = []

            def on_update(_updates):
                if returned.is_set() or errors:
                    return
                try:
                    controller.stop()
                except Exception as exc:  # noqa: BLE001 - the failure
                    errors.append(exc)
                    raise
                returned.set()

            client.monitor({"Port": None}, on_update)
            try:
                _add_port(db, 1)
                wait_for(
                    lambda: returned.is_set() or errors,
                    timeout=30.0,
                    what="stop() from the callback",
                )
                assert errors == []
                assert controller._fanout_plane is None
                assert client.echo(["alive"]) == ["alive"]
            finally:
                client.close()

    def test_background_timer_cancelled_before_teardown(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        controller = NerpaController(
            project,
            db,
            [switch],
            state_dir=str(tmp_path),
            checkpoint_interval_s=0.01,
        ).start()
        _snvs_config(db, (0, 1))
        controller.drain()
        wait_for(
            lambda: controller.auto_checkpoints >= 2,
            timeout=15.0,
            what="background checkpoints",
        )
        controller.stop()
        saves = controller.auto_checkpoints
        time.sleep(0.05)
        assert controller.auto_checkpoints == saves  # really cancelled
        # The chain the timer wrote is a valid warm-start source.
        follower = CheckpointFollower(project, str(tmp_path))
        assert follower.poll()
        follower.close()
