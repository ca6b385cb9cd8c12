"""Staged changeset pipeline: IR algebra, queues, and end-to-end
ordering/isolation properties.

Covers the pipeline subsystem introduced by the ingest/evaluate/apply
decomposition of the controller:

* the shared coalescing algebra of :class:`Changeset` and
  :class:`DeviceBatch` (modify = delete+insert, cancellation, last
  writer wins, round-trip elision);
* the **ordering invariant**: per-device writes apply deltas in
  engine-transaction order, deletes before inserts within a batch;
* :class:`CoalescingQueue` semantics (tail merge, barriers,
  supersession, in-flight accounting, close) and drain deadlines;
* the OVSDB ``modify`` path, where ``old`` carries only the changed
  columns;
* a management-plane reconnect-reconcile racing a concurrent monitor
  update (the reconcile runs as an engine task, so the race is ordered);
* slow-device isolation: a fault-injected device backs up only its own
  queue.
"""

import inspect
import json
import os
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.controller import NerpaController
from repro.core.pipeline import (
    Changeset,
    CoalescingQueue,
    DeviceBatch,
    PipelineStalledError,
    nerpa_build,
)
from repro.core.pipeline.queues import QueueGroup, Task
from repro.dlog.values import StructValue
from repro.errors import ReproError
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.mgmt.schema import simple_schema
from repro.mgmt.server import ManagementServer
from repro.net import RetryPolicy
from repro.net.reactor import Reactor
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.farm import DeviceFarm
from tests.doubles import RecordingService, uncoalesce

SCHEMA = simple_schema(
    "net", {"PortCfg": {"port": "integer", "out_port": "integer"}}
)

P4 = """
header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
struct headers_t { eth_t eth; }
struct meta_t { bit<1> pad; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
         inout standard_metadata_t std) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control Ing(inout headers_t hdr, inout meta_t m,
            inout standard_metadata_t std) {
    action forward(bit<16> port) { std.egress_spec = port; }
    action drop() { mark_to_drop(); }
    table patch {
        key = { std.ingress_port : exact; }
        actions = { forward; drop; }
        default_action = drop();
    }
    apply { patch.apply(); }
}
"""

RULES = "Patch(p as bit<16>, PatchActionForward{o as bit<16>}) :- PortCfg(_, p, o)."

SURFACE_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "controller_surface.json"
)

FAST = RetryPolicy(
    connect_timeout=2.0,
    call_timeout=2.0,
    max_reconnect_attempts=100,
    base_delay=0.01,
    max_delay=0.1,
)


def build():
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=16)
    return project, db, switch


def add_port(db, port, out_port):
    db.transact(
        [
            {
                "op": "insert",
                "table": "PortCfg",
                "row": {"port": port, "out_port": out_port},
            }
        ]
    )


def set_out_port(db, port, out_port):
    db.transact(
        [
            {
                "op": "update",
                "table": "PortCfg",
                "where": [["port", "==", port]],
                "row": {"out_port": out_port},
            }
        ]
    )


def wait_for(predicate, timeout=10.0, what="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {what}")


PATCH = nerpa_build(SCHEMA, RULES, P4).bindings.table_relations["Patch"]


def record(batch, op, port, out_port):
    """Fold one ``Patch`` output row into a device batch (``op`` is
    ``"insert"`` or ``"delete"``)."""
    row = (port, StructValue("PatchActionForward", (out_port,)))
    getattr(batch, f"record_{op}")(PATCH, PATCH.key_of(row), row)


def out_ports(batch):
    """``(kind, out port)`` of each ``Patch`` row a batch writes, read
    from its runs of rows: a decoded DELETE carries no action."""
    return [
        (kind, row[1].fields[0])
        for kind, _, rows in batch.emit_writes().runs
        for row in rows
    ]


# ---------------------------------------------------------------------------
# Coalescing algebra (the IR level).
# ---------------------------------------------------------------------------


class TestChangesetAlgebra:
    def test_modify_is_delete_plus_insert(self):
        cs = Changeset()
        cs.record_delete("R", ("T", "u1"), ("u1", 1))
        cs.record_insert("R", ("T", "u1"), ("u1", 2))
        inserts, deletes = cs.to_transaction()
        assert deletes == {"R": [("u1", 1)]}
        assert inserts == {"R": [("u1", 2)]}

    def test_insert_then_delete_cancels(self):
        cs = Changeset()
        cs.record_insert("R", ("T", "u1"), ("u1", 1))
        cs.record_delete("R", ("T", "u1"), ("u1", 1))
        assert cs.to_transaction() == ({}, {})
        assert cs.is_empty()

    def test_last_writer_wins(self):
        cs = Changeset()
        cs.record_insert("R", ("T", "u1"), ("u1", 1))
        cs.record_delete("R", ("T", "u1"), ("u1", 1))
        cs.record_insert("R", ("T", "u1"), ("u1", 3))
        inserts, deletes = cs.to_transaction()
        assert deletes == {}
        assert inserts == {"R": [("u1", 3)]}

    def test_round_trip_is_dropped(self):
        # delete(a) then insert(a) — the row ends where it started.
        cs = Changeset()
        cs.record_delete("R", ("T", "u1"), ("u1", 1))
        cs.record_insert("R", ("T", "u1"), ("u1", 1))
        assert cs.to_transaction() == ({}, {})

    def test_coalesce_merges_per_key(self):
        first = Changeset()
        first.txns = 1
        first.record_insert("R", ("T", "u1"), ("u1", 1))
        second = Changeset()
        second.txns = 1
        second.record_delete("R", ("T", "u1"), ("u1", 1))
        second.record_insert("R", ("T", "u1"), ("u1", 2))
        second.record_insert("R", ("T", "u2"), ("u2", 9))
        assert first.coalesce(second)
        inserts, deletes = first.to_transaction()
        # u1: insert(1); delete(1)+insert(2) => net insert(2), no delete
        assert deletes == {}
        assert sorted(inserts["R"]) == [("u1", 2), ("u2", 9)]
        assert first.txns == 2

    def test_different_sources_do_not_merge(self):
        mgmt = Changeset("mgmt")
        digest = Changeset("digest")
        assert not mgmt.coalesce(digest)
        assert not digest.coalesce(mgmt)


class TestDeviceBatchOrdering:
    def test_deletes_emitted_before_inserts(self):
        batch = DeviceBatch(1)
        record(batch, "insert", 2, 7)
        record(batch, "delete", 1, 5)
        writes = list(batch.emit_writes())
        kinds = [w.kind for w in writes]
        assert kinds == ["DELETE", "INSERT"]

    def test_unchanged_round_trip_dropped(self):
        batch = DeviceBatch(1)
        record(batch, "delete", 1, 5)
        record(batch, "insert", 1, 5)
        assert len(batch.emit_writes()) == 0

    def test_changed_entry_is_delete_then_insert(self):
        batch = DeviceBatch(1)
        record(batch, "delete", 1, 5)
        record(batch, "insert", 1, 7)
        assert out_ports(batch) == [("DELETE", 5), ("INSERT", 7)]

    def test_merge_only_moves_forward(self):
        batch = DeviceBatch(5)
        stale = DeviceBatch(4)
        same = DeviceBatch(5)
        newer = DeviceBatch(9)  # gaps are txns with no writes for us
        assert not batch.coalesce(stale)
        assert not batch.coalesce(same)
        assert batch.coalesce(newer)
        assert batch.last_seq == 9

    def test_merge_net_effect_matches_sequential_application(self):
        first = DeviceBatch(1)
        record(first, "insert", 1, 5)
        second = DeviceBatch(2)
        record(second, "delete", 1, 5)
        record(second, "insert", 1, 7)
        assert first.coalesce(second)
        writes = list(first.emit_writes())
        # insert(5); delete(5)+insert(7) => net insert(7) only
        assert [w.kind for w in writes] == ["INSERT"]
        assert writes[0].entry.action_params == (7,)


# ---------------------------------------------------------------------------
# Queue semantics.
# ---------------------------------------------------------------------------


class _Item:
    """Mergeable test item: absorbs any other _Item."""

    def __init__(self, n):
        self.values = [n]

    def coalesce(self, other):
        if not isinstance(other, _Item):
            return None
        self.values.extend(other.values)
        return self


class _Barrier:
    def coalesce(self, other):
        return None


class TestCoalescingQueue:
    def test_tail_merges_bursts(self):
        q = CoalescingQueue()
        for n in range(5):
            q.put(_Item(n))
        assert len(q) == 1
        assert q.coalesced == 4
        assert q.pop_nowait().values == [0, 1, 2, 3, 4]

    def test_consumed_head_never_merges(self):
        q = CoalescingQueue()
        q.put(_Item(0))
        head = q.pop_nowait()
        q.put(_Item(1))
        assert head.values == [0]
        assert q.pop_nowait().values == [1]

    def test_control_items_are_barriers(self):
        q = CoalescingQueue()
        q.put(_Item(0))
        q.put(_Barrier())
        q.put(_Item(1))  # must not merge backwards past the barrier
        assert len(q) == 3

    def test_supersedes_drops_queued_matches(self):
        q = CoalescingQueue()
        q.put(_Item(0))
        q.put(_Barrier())
        q.put(_Barrier(), supersedes=lambda item: isinstance(item, _Item))
        items = [q.pop_nowait() for _ in range(2)]
        assert all(isinstance(i, _Barrier) for i in items)
        # Join accounting followed the drop: 2 items remain unfinished.
        assert q.unfinished == 2

    def test_on_idle_waits_for_the_last_task_done(self):
        idle = []
        q = CoalescingQueue(
            name="stuck", group=QueueGroup(lambda: idle.append(q.unfinished))
        )
        q.put(_Barrier())
        q.put(_Barrier())
        q.pop_nowait()
        q.task_done()
        assert idle == [] and q.unfinished == 1
        q.pop_nowait()
        q.task_done()
        assert idle == [0]

    def test_a_consumer_on_the_loop_brings_the_queue_idle(self):
        """Producer and consumer both on one reactor: the put wakes the
        consumer, whose task_done fires on_idle on that same loop."""
        reactor = Reactor("t-queue").start()
        try:
            seen = []
            idle = threading.Event()

            def consume():
                seen.append(q.pop_nowait())
                q.task_done()

            q = CoalescingQueue(on_ready=lambda: reactor.submit(consume))

            def on_idle():
                assert reactor.in_loop()
                idle.set()

            q.group = QueueGroup(on_idle)
            barrier = _Barrier()
            reactor.submit(q.put, barrier)
            assert idle.wait(5.0)
            assert seen == [barrier] and q.unfinished == 0
        finally:
            reactor.stop()

    def test_close_releases_the_waiters_of_abandoned_tasks(self):
        q = CoalescingQueue()
        task = Task(lambda: "never")
        q.put(task)
        started = time.monotonic()
        q.close()
        with pytest.raises(ReproError, match="abandoned"):
            task.wait("abandoned task", timeout=5.0)
        assert time.monotonic() - started < 1.0
        q.put(_Item(1))  # dropped, not raised
        assert len(q) == 0 and q.pop_nowait() is None


# ---------------------------------------------------------------------------
# End-to-end pipeline properties.
# ---------------------------------------------------------------------------


@contextmanager
def slow_device(delay):
    """A remote device whose every ack lags ``delay`` seconds (a
    ``DeviceFarm`` ack delay) — slow without blocking anything, where an
    in-process double that slept would stall the controller's loop.
    Yields the client to hand the controller and the farm's device."""
    farm = DeviceFarm(1).start()
    farm.set_ack_delay(0, delay)
    reactor = Reactor("t-slow-device").start()
    client = AioP4RuntimeClient(
        *farm.address, reactor, policy=FAST, device_hint=0
    )
    try:
        yield client, farm.devices[0]
    finally:
        client.close()
        farm.stop()
        reactor.stop()


def patch_actions(device):
    """A farm device's ``patch`` table as ``{port: action params}``."""
    return {
        update["match"][0]["exact"]: update["action"]["params"]
        for update in device.table_snapshot().get("patch", {}).values()
    }


class TestEndToEndOrdering:
    def test_writes_apply_in_transaction_order_deletes_first(self):
        project, db, switch = build()
        service = RecordingService(switch)
        controller = NerpaController(project, db, [service]).start()
        try:
            add_port(db, 1, 5)
            controller.drain()
            set_out_port(db, 1, 7)  # delete (5) + insert (7), one batch
            controller.drain()
            add_port(db, 2, 9)
            controller.drain()
        finally:
            controller.stop()
        flat = [op for batch in service.log if batch for op in batch]
        assert flat == [
            ("INSERT", (5,)),
            ("DELETE", (5,)),
            ("INSERT", (7,)),
            ("INSERT", (9,)),
        ]
        # Within the modify batch, the delete preceded the insert.
        modify_batch = service.log[1]
        assert [k for k, _ in modify_batch] == ["DELETE", "INSERT"]

    def test_burst_coalesces_into_fewer_device_round_trips(self):
        project, db, _ = build()
        with slow_device(0.03) as (slow, device):
            controller = NerpaController(project, db, [slow]).start()
            try:
                for port in range(12):
                    add_port(db, port, port + 1)
                controller.drain()
                assert len(patch_actions(device)) == 12
                issued = controller.devices[0].writes_issued
                # The burst outran the 30 ms device; queued work merged.
                # Merging can land at either queue depending on where
                # the burst catches the pipeline: changesets piling up
                # behind a busy engine merge in the engine queue,
                # batches piling up behind the slow device merge in the
                # device queue.  Either way the device saw fewer round
                # trips than transactions.
                assert issued < 12
                merged = (
                    controller.engine_queue.coalesced
                    + controller.channels[0].queue.coalesced
                )
                assert merged > 0
            finally:
                controller.stop()

    @pytest.mark.parametrize("merging", [True, False])
    def test_commits_waiting_for_a_busy_loop_merge_into_one_put(
        self, monkeypatch, merging
    ):
        """Another thread's commits build their changesets there, and
        untraced puts merge while they wait for the loop: a producer
        faster than the loop hands it one ingest per loop turn, not one
        per commit, so it cannot bury the loop (an engine task behind
        the backlog would wait without end)."""
        if not merging:
            uncoalesce(monkeypatch)
        project, db, switch = build()
        controller = NerpaController(project, db, [switch]).start()

        def ingests():
            stages = controller.metrics()["pipeline"]["stage_seconds"]
            return stages["ingest"]["count"]

        try:
            before = ingests()
            gate, entered = threading.Event(), threading.Event()

            def hold_the_loop():
                entered.set()
                gate.wait(10.0)

            # The loop must be inside the held callback before the first
            # commit: a merge submitted ahead of it would run in the same
            # turn, and the commits after it would start a second merge.
            controller.reactor.submit(hold_the_loop)
            assert entered.wait(10.0)
            for port in range(20):
                add_port(db, port, port + 1)
            gate.set()
            controller.drain()
            assert ingests() - before == (1 if merging else 20)
            assert len(switch.table("patch")) == 20
        finally:
            controller.stop()

    def test_unbatched_mode_issues_one_write_per_transaction(self, monkeypatch):
        uncoalesce(monkeypatch)
        project, db, switch = build()
        controller = NerpaController(project, db, [switch]).start()
        try:
            for port in range(5):
                add_port(db, port, port + 1)
            controller.drain()
            assert controller.devices[0].writes_issued >= 5
        finally:
            controller.stop()


class TestDrainDeadline:
    def test_drain_after_stop_from_the_engine_thread_returns(self):
        """stop() run as an engine task (on the reactor) closes the
        engine queue under its own consumer; a later drain() must come
        back instead of spinning on a negative in-flight count."""
        project, db, switch = build()
        controller = NerpaController(project, db, [switch]).start()
        stopped = threading.Event()
        controller._submit_engine(
            lambda: (controller.stop(), stopped.set()), wait=False
        )
        assert stopped.wait(10.0)
        assert controller.engine_queue.unfinished == 0
        controller.drain(timeout=1.0)

    def test_drain_honours_its_deadline_when_nothing_blocks(self):
        """A device holding its batch's ack keeps work in flight without
        blocking the loop: drain() raises PipelineStalledError at its
        deadline, and a later drain still sees the batch through."""
        project, db, _ = build()
        with slow_device(0.6) as (slow, device):
            controller = NerpaController(project, db, [slow]).start()
            try:
                add_port(db, 1, 5)
                started = time.monotonic()
                with pytest.raises(PipelineStalledError):
                    controller.drain(timeout=0.05)
                assert time.monotonic() - started < 0.5
                controller.drain()
                assert patch_actions(device) == {1: [5]}
            finally:
                controller.stop()

    def test_a_parked_drain_is_woken_by_the_last_ack(self):
        """drain() from another thread parks on the loop while a batch
        is in flight, and the ack that empties the pipeline wakes it."""
        project, db, _ = build()
        with slow_device(0.2) as (slow, device):
            controller = NerpaController(project, db, [slow]).start()
            try:
                add_port(db, 1, 5)
                drained = threading.Event()
                waiter = threading.Thread(
                    target=lambda: (controller.drain(), drained.set())
                )
                waiter.start()
                assert not drained.wait(0.05)
                assert drained.wait(5.0)
                waiter.join(5.0)
                assert patch_actions(device) == {1: [5]}
                assert controller._drains == []
            finally:
                controller.stop()

    def test_drains_on_several_threads_all_return(self):
        """Drains from several threads while batches complete: each is
        finished by the task_done that empties the pipeline, none runs
        into its deadline."""
        project, db, _ = build()
        failures = []

        def drain():
            try:
                controller.drain(timeout=10.0)
            except ReproError as exc:
                failures.append(exc)

        with slow_device(0.02) as (slow, device):
            controller = NerpaController(project, db, [slow]).start()
            try:
                for round_ in range(5):
                    for port in range(4):
                        add_port(db, 4 * round_ + port, port + 1)
                    drains = [threading.Thread(target=drain) for _ in range(4)]
                    for thread in drains:
                        thread.start()
                    for thread in drains:
                        thread.join(15.0)
                        assert not thread.is_alive()
                assert failures == []
                assert len(patch_actions(device)) == 20
            finally:
                controller.stop()

    def test_a_digest_arriving_mid_drain_is_waited_for(self, monkeypatch):
        """A digest put on the engine queue while a drain is parked
        behind a commit: the drain returns only once the digest's
        transaction is on the device too.  The loop is held until the
        drain's callback is queued, so the commit is still in flight
        when that callback runs."""
        from repro.apps.snvs.network import SnvsNetwork
        from repro.p4.headers import ethernet

        mac_a, mac_b = "aa:00:00:00:00:0a", "aa:00:00:00:00:0b"
        net = SnvsNetwork(n_ports=8)
        try:
            net.add_vlan(10)
            net.add_access_port(0, vlan=10)
            net.add_access_port(1, vlan=10)
            controller, reactor = net.controller, net.controller.reactor
            learned_before = net.fwd_entries()
            parked = []
            inner_settle = controller._settle_drains

            def park_then_learn(quiet=None):
                inner_settle(quiet)
                if quiet is not None:  # drain()'s own callback
                    parked.append(not quiet.event.is_set())
                    # A frame from an unknown source: its digest is
                    # ingested inline, here on the loop, behind the
                    # parked drain.
                    net.switch.inject(0, ethernet(mac_b, mac_a))

            controller._settle_drains = park_then_learn
            held, release = threading.Event(), threading.Event()
            inner_submit = reactor.submit

            def submit(fn, *args):
                queued = inner_submit(fn, *args)
                if fn == park_then_learn:
                    release.set()
                return queued

            monkeypatch.setattr(reactor, "submit", submit)
            reactor.submit(lambda: (held.set(), release.wait(10.0)))
            assert held.wait(5.0)
            net.db.transact([{
                "op": "insert",
                "table": "Port",
                "row": {"name": "port2", "port_num": 2,
                        "vlan_mode": "access", "tag": 10},
            }])
            controller.drain()
            assert parked == [True]  # the commit was still in flight
            assert controller.digests_processed == 1
            assert net.fwd_entries() == learned_before + 1
        finally:
            net.controller.stop()

    def test_an_error_handed_to_a_drain_that_gave_up_goes_to_the_next(self):
        """A drain finished with a deferred error just after its caller
        hit the deadline: the error is kept, and the next drain raises
        it — once."""
        project, db, switch = build()
        controller = NerpaController(project, db, [switch]).start()
        try:
            late = Task(None)
            late.finish(None, ReproError("rejected write"))
            controller._submit_engine(lambda: controller._unpark_drain(late))
            with pytest.raises(ReproError, match="rejected write"):
                controller.drain()
            controller.drain()
        finally:
            controller.stop()


class TestOvsdbModifyPath:
    def test_modify_old_carries_only_changed_columns(self):
        """The monitor's ``modify`` update sends ``old`` with just the
        changed columns; ingest must reconstruct the full old row or
        the engine retracts the wrong tuple."""
        project, db, switch = build()
        controller = NerpaController(project, db, [switch]).start()
        try:
            add_port(db, 1, 5)
            set_out_port(db, 1, 7)
            controller.drain()
            # Exactly one engine row survives — the updated one.
            relation = project.bindings.relation_for_ovsdb["PortCfg"]
            rows = controller.runtime.dump(relation)
            assert len(rows) == 1
            assert switch.table("patch").lookup([1]) == ("forward", (7,), True)
            assert len(switch.table("patch")) == 1
        finally:
            controller.stop()

    def test_modify_coalesced_with_insert_in_one_changeset(self):
        """A burst holding an insert and a later modify of the same row
        nets out to a single insert of the final value."""
        project, db, _ = build()
        with slow_device(0.05) as (slow, device):
            controller = NerpaController(project, db, [slow]).start()
            try:
                controller.drain()  # initial sync out of the way
                add_port(db, 1, 5)
                set_out_port(db, 1, 6)
                set_out_port(db, 1, 7)
                controller.drain()
                assert patch_actions(device) == {1: [7]}
            finally:
                controller.stop()


class TestSlowDeviceIsolation:
    def test_slow_device_backs_up_only_its_own_queue(self):
        project, db, switch = build()
        with slow_device(0.2) as (slow, device):
            controller = NerpaController(project, db, [switch, slow]).start()
            try:
                started = time.time()
                for port in range(6):
                    add_port(db, port, port + 1)
                # The healthy device converges while the slow one is
                # still waiting out its first round trip.
                wait_for(
                    lambda: len(switch.table("patch")) == 6,
                    timeout=5.0,
                    what="healthy device to converge",
                )
                healthy_latency = time.time() - started
                assert healthy_latency < 0.2  # under one slow round trip
                # Its first batch has not been acked yet.
                assert controller.channels[1].queue.unfinished > 0
                controller.drain()
                assert len(patch_actions(device)) == 6
                # The backlog merged: far fewer round trips than txns.
                assert controller.devices[1].writes_issued < 6
            finally:
                controller.stop()


@pytest.mark.slow
class TestReconnectReconcileRace:
    def test_update_racing_reconcile_is_not_lost(self):
        """A monitor update landing while the reconnect-reconcile runs
        must be ordered after it (both execute as engine work),
        ending converged — nothing lost, nothing double-applied.

        Synchronization is by pipeline stage events, never timing: the
        churn thread is released exactly when the reconcile *starts*
        (so its updates genuinely race the re-subscription), completion
        is observed via a sentinel row whose monitor delivery — FIFO
        behind every churn update — marks full ingestion, and
        ``drain()`` then flushes evaluate/apply before the exact-state
        assertions.
        """
        project = nerpa_build(SCHEMA, RULES, P4)
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=64)
        import socket as _socket

        with _socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        server = ManagementServer(db, port=port).start()
        client = ManagementClient("127.0.0.1", port, policy=FAST)
        controller = NerpaController(project, client, [switch])

        # Stage-boundary events, hooked before start() so the pipeline
        # uses the instrumented callables throughout.
        reconcile_started = threading.Event()
        reconcile_done = threading.Event()
        inner_reconcile = controller._reconcile_mgmt

        def reconcile_spy():
            reconcile_started.set()
            try:
                inner_reconcile()
            finally:
                reconcile_done.set()

        controller._reconcile_mgmt = reconcile_spy

        SENTINEL = 900
        sentinel_ingested = threading.Event()
        inner_on_updates = controller._on_updates

        def on_updates_spy(updates):
            inner_on_updates(updates)
            for _table, rows in updates:
                for _uuid, update in rows.items():
                    row = getattr(update, "new", None)
                    if row and row.get("port") == SENTINEL:
                        sentinel_ingested.set()

        controller._on_updates = on_updates_spy
        controller.start()
        try:
            for p in range(8):
                add_port(db, p, p + 1)
            controller.drain()
            server.stop()
            # Changes while the controller is deaf.
            for p in range(8, 16):
                add_port(db, p, p + 1)

            # Churn racing the reconcile: released by the reconcile
            # actually starting, not by a sleep guessing when it might.
            def churn():
                if not reconcile_started.wait(30.0):
                    return
                for p in range(16, 48):
                    add_port(db, p, p + 1)

            racer = threading.Thread(target=churn, daemon=True)
            racer.start()
            server = ManagementServer(db, port=port).start()
            assert reconcile_done.wait(30.0), "reconcile never ran"
            racer.join(30.0)
            assert not racer.is_alive(), "churn thread stuck"

            # The sentinel commits after every churn row, so its
            # monitor delivery (FIFO per connection) proves all churn
            # updates are ingested; drain() then settles the pipeline.
            add_port(db, SENTINEL, SENTINEL + 1)
            assert sentinel_ingested.wait(30.0), "sentinel never delivered"
            controller.drain()

            # Exact end state: nothing lost, nothing double-applied.
            assert len(switch.table("patch")) == db.count("PortCfg")
            relation = project.bindings.relation_for_ovsdb["PortCfg"]
            assert len(controller.runtime.dump(relation)) == db.count(
                "PortCfg"
            )
        finally:
            controller.stop()
            client.close()
            server.stop()


class TestPipelineObservability:
    pytestmark = pytest.mark.serial  # enables/resets the global obs registry

    def test_metrics_expose_queue_depths_and_stage_timings(self):
        project, db, switch = build()
        controller = NerpaController(project, db, [switch]).start()
        try:
            add_port(db, 1, 5)
            controller.drain()
            pipeline = controller.metrics()["pipeline"]
            assert pipeline["engine_queue_depth"] == 0
            assert pipeline["device_queue_depths"] == {"device-0": 0}
            assert pipeline["device_writes_issued"]["device-0"] >= 1
            stages = pipeline["stage_seconds"]
            for stage in ("ingest", "evaluate", "apply"):
                assert stages[stage]["count"] >= 1
                assert stages[stage]["mean"] >= 0.0
        finally:
            controller.stop()

    def test_queue_depth_gauges_when_obs_enabled(self):
        from repro import obs

        obs.enable()
        obs.reset()
        try:
            project, db, switch = build()
            controller = NerpaController(project, db, [switch]).start()
            try:
                add_port(db, 1, 5)
                controller.drain()
                registry = controller.metrics()["registry"]
                gauges = registry["gauges"]
                depth_gauges = [
                    key for key in gauges if "pipeline_queue_depth" in key
                ]
                # One gauge per queue: the engine's plus each device's.
                assert len(depth_gauges) >= 2
                assert all(gauges[key] == 0 for key in depth_gauges)
            finally:
                controller.stop()
        finally:
            obs.disable()
            obs.reset()


    def test_public_surface_matches_the_recording(self, tmp_path):
        """Constructor/start() signatures, metrics()/health() key sets
        and the obs metric names of a start → commit → resync →
        checkpoint → stop run equal what 4eec714 (the commit before the
        controller was split) produced."""
        with open(SURFACE_FIXTURE) as handle:
            assert controller_surface(str(tmp_path)) == json.load(handle)


def controller_surface(state_dir):
    """The controller's promised-stable surface as plain data."""
    from repro import obs

    project, db, switch = build()
    obs.reset()
    with obs.enabled_scope(), NerpaController(
        project, db, [switch], state_dir=state_dir
    ) as controller:
        for port in (1, 2):  # a full checkpoint, then a delta
            add_port(db, port, port + 4)
            controller.drain()
            controller.resync_device(0)
            controller.save_checkpoint()
        metrics, health = controller.metrics(), controller.health()
    obs.reset()
    registry = metrics.pop("registry")
    return {
        "init": str(inspect.signature(NerpaController.__init__)),
        "start": str(inspect.signature(NerpaController.start)),
        "metrics": sorted(metrics),
        "pipeline": sorted(metrics["pipeline"]),
        "fanout": sorted(metrics["pipeline"]["fanout"]),
        "restart": sorted(metrics["restart"]),
        "health": sorted(health),
        "device_health": sorted(health["devices"][0]),
        "obs": sorted(
            key
            for kind in registry.values()
            for key in kind
            if key.startswith(("controller_", "pipeline_", "fanout_"))
        ),
    }


# ---------------------------------------------------------------------------
# Two-slot algebra edge cases and barrier×supersede×join interactions.
# The shard dispatcher leans on these from multiple processes, so the
# corner transitions are pinned individually.
# ---------------------------------------------------------------------------


class TestChangesetEdgeCases:
    def test_modify_of_missing_row_still_emits_both_halves(self):
        """A modify whose old row this changeset never saw records the
        stale delete as-is; the engine is the layer that resolves it
        (warn + apply the insert), so nothing may be dropped here."""
        cs = Changeset()
        cs.record_delete("R", ("T", "u1"), ("u1", "stale"))
        cs.record_insert("R", ("T", "u1"), ("u1", "fresh"))
        inserts, deletes = cs.to_transaction()
        assert deletes == {"R": [("u1", "stale")]}
        assert inserts == {"R": [("u1", "fresh")]}

    def test_modify_of_missing_row_resolves_at_the_engine(self):
        """End-to-end: the engine ignores the stale delete with a
        warning and applies the insert — the modify degrades to an
        insert instead of corrupting state."""
        from repro.dlog import compile_program

        runtime = compile_program(
            """
input relation R(k: string, v: string)
output relation Out(k: string, v: string)
Out(k, v) :- R(k, v).
"""
        ).start()
        cs = Changeset()
        cs.record_delete("R", ("T", "u1"), ("u1", "stale"))
        cs.record_insert("R", ("T", "u1"), ("u1", "fresh"))
        inserts, deletes = cs.to_transaction()
        result = runtime.transaction(inserts=inserts, deletes=deletes)
        assert len(result.warnings) == 1
        assert "delete of absent row" in result.warnings[0]
        assert runtime.dump("Out") == {("u1", "fresh")}

    def test_delete_then_modify_pins_oldest_delete(self):
        """delete(a) then modify(b→c): the pending delete keeps the
        oldest value a (what the device actually holds); the modify's
        own stale delete must not overwrite it."""
        cs = Changeset()
        cs.record_delete("R", ("T", "u1"), ("u1", "a"))
        cs.record_delete("R", ("T", "u1"), ("u1", "b"))
        cs.record_insert("R", ("T", "u1"), ("u1", "c"))
        inserts, deletes = cs.to_transaction()
        assert deletes == {"R": [("u1", "a")]}
        assert inserts == {"R": [("u1", "c")]}

    def test_insert_then_modify_collapses_to_final_insert(self):
        cs = Changeset()
        cs.record_insert("R", ("T", "u1"), ("u1", "a"))
        cs.record_delete("R", ("T", "u1"), ("u1", "a"))
        cs.record_insert("R", ("T", "u1"), ("u1", "b"))
        inserts, deletes = cs.to_transaction()
        assert deletes == {}
        assert inserts == {"R": [("u1", "b")]}

    def test_round_trip_key_survives_is_empty_but_emits_nothing(self):
        """delete(a)+insert(a) nets to nothing in the transaction while
        the key's cell still exists — is_empty() must look at cell
        contents, not key presence."""
        cs = Changeset()
        cs.record_delete("R", ("T", "u1"), ("u1", "a"))
        cs.record_insert("R", ("T", "u1"), ("u1", "a"))
        inserts, deletes = cs.to_transaction()
        assert inserts == {} and deletes == {}
        assert not cs.is_empty()  # cell is populated, elision is emission-time

    def test_device_batch_modify_of_missing_entry_is_plain_insert(self):
        batch = DeviceBatch(seq=1)
        record(batch, "insert", 5, 7)
        writes = list(batch.emit_writes())
        assert [w.kind for w in writes] == ["INSERT"]

    def test_device_batch_delete_then_modify_emits_delete_first(self):
        batch = DeviceBatch(seq=1)
        record(batch, "delete", 5, 7)
        record(batch, "delete", 5, 8)
        record(batch, "insert", 5, 9)
        # The oldest value pinned.
        assert out_ports(batch) == [("DELETE", 7), ("INSERT", 9)]


class TestQueueBarrierSupersedeJoin:
    def test_supersede_keeps_barriers_and_join_accounting(self):
        """Dropping superseded items must decrement unfinished exactly
        once per drop, so a later join sees only surviving work."""
        idle = []
        q = CoalescingQueue(group=QueueGroup(lambda: idle.append(len(q))))
        q.put(_Item(0))
        q.put(_Barrier())
        q.put(_Item(1))
        assert q.unfinished == 3
        q.put(_Barrier(), supersedes=lambda item: isinstance(item, _Item))
        assert q.unfinished == 2
        while q.pop_nowait() is not None:
            q.task_done()
        assert idle == [0]  # once, when the second survivor was done
        assert q.unfinished == 0

    def test_supersede_exposes_mergeable_tail(self):
        """Removing a barrier via supersede legitimately re-enables tail
        coalescing: nothing remains between the old tail and the new
        item, so merging preserves order."""
        q = CoalescingQueue()
        q.put(_Item(0))
        q.put(_Barrier())
        q.put(_Item(1), supersedes=lambda item: isinstance(item, _Barrier))
        assert len(q) == 1
        assert q.coalesced == 1
        assert q.pop_nowait().values == [0, 1]
        assert q.unfinished == 1

    def test_barrier_blocks_merge_but_join_sees_all_three(self):
        """The in-flight count a drain waits on covers all three items:
        the queue goes idle only at the third task_done."""
        idle = []
        q = CoalescingQueue(group=QueueGroup(lambda: idle.append(q.unfinished)))
        q.put(_Item(0))
        q.put(_Barrier())
        q.put(_Item(1))
        assert len(q) == 3 and q.unfinished == 3
        for n in range(3):
            assert idle == []
            q.pop_nowait()
            q.task_done()
        assert idle == [0]


def test_a_sample_series_keeps_exactly_its_window():
    """The fleet-wide latency series, written once per device batch,
    is cut back in blocks and reports its last ``STATS_WINDOW``
    samples in order; the device's histograms count every batch."""
    from repro.core import metrics

    project, db, switch = build()
    controller = NerpaController(project, db, [switch])
    device = controller.devices[0]
    series, total = controller.sync_latencies, 3 * metrics.STATS_WINDOW + 7
    for n in range(total):
        metrics.record_apply(controller, device, 1, float(n), 0.5, 0.25)
        assert len(series) <= metrics.STATS_LIMIT
        if n == 9:
            assert metrics.window(series) == [float(i) for i in range(10)]
    assert metrics.window(series) == [
        float(i) for i in range(total - metrics.STATS_WINDOW, total)
    ]
    assert device.latencies.count == device.io_latencies.count == total
    assert device.latencies.total == sum(range(total))
    assert controller._stage_seconds["apply"].total == total * 0.25


def test_a_devices_retained_telemetry_does_not_grow_with_its_batches():
    """What a device's latency series hold (tracemalloc: the bytes
    freed when they are dropped) is the same after 2,000 batches and
    after 20,000 — fixed buckets, not samples."""
    import random
    import sys
    import tracemalloc

    from repro.core import metrics

    project, db, _ = build()
    rng = random.Random(7)
    tracemalloc.start()
    try:
        controller = NerpaController(
            project, db, [project.new_simulator(n_ports=4) for _ in range(3)]
        )
        retained = []  # the first reading only warms the measurement up
        for device, batches in zip(controller.devices, (0, 2_000, 20_000)):
            for _ in range(batches):
                latency = rng.lognormvariate(-7.0, 1.0)
                metrics.record_apply(
                    controller, device, 1, latency, latency / 2, latency / 4
                )
            # Empty the float free list (``hold`` takes its floats): a
            # histogram's own floats (total, min, max) then go back to
            # it, unseen by tracemalloc, after either run alike.  The
            # int ``before`` is allocated after its own reading.
            hold = [n + 0.5 for n in range(1_000)]
            before = tracemalloc.get_traced_memory()[0]
            device.latencies = device.io_latencies = None
            after = tracemalloc.get_traced_memory()[0]
            retained.append(before - after + sys.getsizeof(before))
            del hold
    finally:
        tracemalloc.stop()
    assert retained[1] == retained[2]
    assert 0 < retained[1] < 8 * 1024
