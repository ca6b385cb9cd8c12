"""Encode once, send many: what a fan-out shares and what it must not.

* **wire equivalence** — the frame spliced from a batch's shared bytes
  and a request id decodes to exactly the request the dict-building
  path produced before it was deleted.  ``fixtures/
  apply_batch_frames.json`` holds that path's output, recorded at
  17d8fed; :func:`reference_request` is its body, kept as the oracle
  for generated batches, and is itself checked against the recording.
  The same frames are decoded by the two receivers the stack has
  (:class:`P4RuntimeServer`, :class:`DeviceFarm`) over real sockets;
* **aliasing** — one batch object sits on every device queue; a queue
  that merges into it (or supersedes it) must leave every other
  device's batch, the cells and the update-ids untouched;
* **counts** — fanning one changeset to N devices converts each update
  to its JSON text once and encodes the envelope once, and a whole commit costs the
  controller's reactor one wake byte (the ingest's: evaluation and
  fan-out run on the loop itself).  Counts, not timings: they repeat
  exactly;
* **merging behind together** — queues whose tails are the same shared
  batch share one merge of the next fan-out (one copy, one write batch,
  one encode for all of them), queues with different tails do not, the
  record of that merge dies with the fan-out, and any schedule of
  fan-outs, barriers and pops gives every device exactly what it would
  get from batches of its own.
"""

import json
import threading
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import NerpaController
from repro.core.pipeline import nerpa_build
from repro.core.pipeline.changeset import DeviceBatch
from repro.core.pipeline.queues import CoalescingQueue, Task
from repro.dlog.values import StructValue
from repro.mgmt.database import Database
from repro.mgmt.jsonrpc import decode_frames, frame_request, make_request
from repro.net.aio import Reactor
from repro.p4.tables import FieldMatch, TableEntry
from repro.p4runtime import aio_client, api
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.api import PairCodec, TableWrite, WriteBatch
from repro.p4runtime.farm import DeviceFarm
from repro.p4runtime.server import P4RuntimeServer
from tests.test_fanout import (
    FAST,
    P4,
    RULES,
    SCHEMA,
    add_port,
    del_port,
    set_out_port,
    wait_for,
)
from tests.test_pipeline import record

FIXTURE = Path(__file__).parent / "fixtures" / "apply_batch_frames.json"


# ---------------------------------------------------------------------------
# Wire equivalence.
# ---------------------------------------------------------------------------


def reference_request(updates, mcast, update_ids, fence, seq, request_id):
    """The ``apply_batch`` request as 17d8fed built it: a dict envelope
    (``_batch_envelope`` + the ``seq`` key) inside ``make_request``."""
    envelope = {
        "updates": [u.to_wire() for u in updates],
        "mcast": [
            [group, list(ports) if ports is not None else None]
            for group, ports in sorted((mcast or {}).items())
        ],
        "update_ids": list(update_ids or ()),
    }
    if fence is not None:
        envelope["fence"] = fence
    if seq is not None:
        envelope["seq"] = list(seq)
    return make_request("apply_batch", [envelope], request_id)


def spliced_request(updates, mcast, update_ids, fence, seq, request_id):
    """What the client puts on the wire, decoded back."""
    params = aio_client._encode_batch(updates, mcast, update_ids, fence, seq)
    frame = frame_request("apply_batch", params, request_id)
    (message,), rest = decode_frames(frame)
    assert rest == b""
    return message


def write_batch(writes):
    """``writes`` as one shareable batch: a run of one decoded pair
    each."""
    return WriteBatch([
        (
            w.kind,
            PairCodec(w.table),
            [(w.entry.match_key(), (w.entry.action, *w.entry.action_params))],
        )
        for w in writes
    ])


def fixture_cases():
    for case in json.loads(FIXTURE.read_text()):
        yield (
            [TableWrite.from_wire(u) for u in case["updates"]],
            None if case["mcast"] is None else dict(map(tuple, case["mcast"])),
            case["update_ids"],
            case["fence"],
            None if case["seq"] is None else tuple(case["seq"]),
            case["id"],
            case["request"],
        )


def test_recorded_parent_frames_match_reference_and_spliced_frames():
    cases = list(fixture_cases())
    assert len(cases) >= 20
    for *args, recorded in cases:
        assert reference_request(*args) == recorded
        assert spliced_request(*args) == recorded
        # ... and from the memo a shared write batch keeps.
        shared = write_batch(args[0])
        assert spliced_request(shared, *args[1:]) == recorded
        assert shared.encoded is not None
        assert spliced_request(shared, *args[1:]) == recorded


_matches = st.one_of(
    st.builds(FieldMatch.exact, st.integers(0, 2**48 - 1)),
    st.builds(FieldMatch.lpm, st.integers(0, 2**32 - 1), st.integers(0, 32)),
    st.builds(
        FieldMatch.ternary, st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1)
    ),
)
_writes = st.builds(
    TableWrite,
    st.sampled_from(["INSERT", "MODIFY", "DELETE"]),
    st.text(min_size=1, max_size=8),
    st.builds(
        TableEntry,
        st.lists(_matches, max_size=3),
        st.text(min_size=1, max_size=8),
        st.lists(st.integers(0, 2**16 - 1), max_size=3),
        st.integers(0, 7),
    ),
)
_mcast = st.one_of(
    st.none(),
    st.dictionaries(
        st.integers(0, 64),
        st.one_of(st.none(), st.lists(st.integers(0, 255), max_size=4)),
        max_size=3,
    ),
)


@settings(max_examples=150)
@given(
    updates=st.lists(_writes, max_size=6),
    mcast=_mcast,
    update_ids=st.one_of(
        st.none(), st.lists(st.text(max_size=12), max_size=128)
    ),
    fence=st.one_of(st.none(), st.integers(0, 2**31)),
    seq=st.one_of(
        st.none(), st.tuples(st.integers(0, 2**40), st.integers(0, 2**40))
    ),
    request_id=st.integers(1, 2**40),
    shared=st.booleans(),
)
def test_spliced_frame_equals_the_dict_built_request(
    updates, mcast, update_ids, fence, seq, request_id, shared
):
    expected = reference_request(
        updates, mcast, update_ids, fence, seq, request_id
    )
    if shared:
        updates = write_batch(updates)
        # A list encoded before under other arguments encodes again.
        aio_client._encode_batch(updates, {9: [9]}, ["other"], 1, (1, 1))
    for _ in range(2):  # the second pass is served from the memo
        assert (
            spliced_request(updates, mcast, update_ids, fence, seq, request_id)
            == expected
        )


def test_both_receivers_decode_the_spliced_frames(monkeypatch):
    """Real sockets, the receivers' own framing code: only what they
    do with a decoded ``apply_batch`` is replaced by a recorder."""
    seen = {"server": [], "farm": []}
    real_handles = {
        "server": P4RuntimeServer.handle, "farm": DeviceFarm.handle,
    }

    def recorder(name):
        def handle(self, conn, method, params):
            if method != "apply_batch":
                return real_handles[name](self, conn, method, params)
            seen[name].append(params)
            return {"applied": 0}

        return handle

    monkeypatch.setattr(P4RuntimeServer, "handle", recorder("server"))
    monkeypatch.setattr(DeviceFarm, "handle", recorder("farm"))

    project = nerpa_build(SCHEMA, RULES, P4)
    server = P4RuntimeServer(project.new_simulator(n_ports=4)).start()
    farm = DeviceFarm(1).start()
    reactor = Reactor("t-decode").start()
    clients = {
        "server": AioP4RuntimeClient(*server.address, reactor, policy=FAST),
        "farm": AioP4RuntimeClient(
            *farm.address, reactor, policy=FAST, device_hint=0
        ),
    }
    try:
        cases = list(fixture_cases())
        acked = {name: [] for name in clients}
        for updates, mcast, update_ids, fence, seq, _id, _ in cases:
            shared = write_batch(updates)  # one encode, both receivers
            for name, client in clients.items():
                assert client.conn.wait_connected(5.0)
                client.apply_batch_async(
                    shared, mcast, update_ids,
                    lambda applied, error, name=name: acked[name].append(error),
                    seq=seq, fence=fence,
                )
        for name in clients:
            wait_for(lambda: len(acked[name]) == len(cases), what=name)
            assert acked[name] == [None] * len(cases)
            assert seen[name] == [case[-1]["params"] for case in cases]
    finally:
        for client in clients.values():
            client.close()
        farm.stop()
        server.stop()
        reactor.stop()


# ---------------------------------------------------------------------------
# Aliasing.
# ---------------------------------------------------------------------------


def snapshot(batch):
    return (
        batch.seq,
        batch.last_seq,
        {key: list(cell) for key, cell in batch.ops.items()},
        dict(batch.mcast),
        list(batch.update_ids),
        batch.txns,
    )


def fanned_batch(seq, port, out_port, update_id):
    batch = DeviceBatch(seq)
    record(batch, "insert", port, out_port)
    batch.mcast[seq] = [port]
    batch.update_ids = [update_id]
    batch.shared = True
    return batch


def test_merge_into_a_shared_batch_copies_and_leaves_the_rest_alone():
    first = fanned_batch(1, 1, 10, "u-1")
    second = fanned_batch(2, 1, 11, "u-2")
    before = snapshot(first), snapshot(second)
    queues = [CoalescingQueue(name=f"dev-{i}") for i in range(3)]
    for queue in queues:
        queue.put(first)
    writes = first.emit_writes()  # device 0 is already sending it

    queues[1].put(second)  # device 1 has fallen behind: merges
    queues[2].put(Task(lambda device: None), supersedes=lambda i: True)

    assert (snapshot(first), snapshot(second)) == before
    assert first.emit_writes() is writes
    assert queues[0].pop_nowait() is first
    merged = queues[1].pop_nowait()
    assert merged is not first and not merged.shared
    assert (merged.seq, merged.last_seq, merged.txns) == (1, 2, 2)
    assert merged.update_ids == ["u-1", "u-2"]
    assert merged.mcast == {1: [1], 2: [1]}
    assert [(w.kind, w.entry.action_params) for w in merged.emit_writes()] == [
        ("INSERT", (11,))
    ]
    # The copy owns its cells: a third commit merges in place, and
    # still touches neither shared batch.
    third = fanned_batch(3, 2, 20, "u-3")
    assert merged.coalesce(third) is merged
    assert len(merged.emit_writes()) == 2
    assert (snapshot(first), snapshot(second)) == before
    assert isinstance(queues[2].pop_nowait(), Task)
    assert queues[2].pop_nowait() is None


def farm_fleet(n_devices, reactor_name):
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    farm = DeviceFarm(n_devices).start()
    reactor = Reactor(reactor_name).start()
    clients = [
        AioP4RuntimeClient(*farm.address, reactor, policy=FAST, device_hint=i)
        for i in range(n_devices)
    ]
    controller = NerpaController(project, db, clients).start()

    def close():
        controller.stop()
        for client in clients:
            client.close()
        farm.stop()
        reactor.stop()

    return db, farm, controller, close


def installed(device):
    """A farm device's entries, whichever write kind installed them (a
    resync repairs with MODIFY what the others got as INSERT)."""
    return {
        table: {
            key: {k: v for k, v in update.items() if k != "type"}
            for key, update in entries.items()
        }
        for table, entries in device.table_snapshot().items()
    }


def test_one_slow_device_coalesces_alone_and_the_fleet_converges():
    db, farm, controller, close = farm_fleet(6, "t-slow")
    try:
        farm.set_ack_delay(2, 0.05)

        def paced(op, *args):
            op(db, *args)
            time.sleep(0.003)  # the fast devices keep up commit by commit

        for port in range(12):
            paced(add_port, port, port + 100)
        for port in range(0, 12, 2):
            paced(set_out_port, port, port + 200)
        for port in range(0, 12, 3):
            paced(del_port, port)
        controller.resync_device(2)  # supersedes its queued batches
        for port in range(12, 16):
            paced(add_port, port, port + 100)
        controller.drain()
        tables = [installed(device) for device in farm.devices]
        assert len(tables[0]["patch"]) == 12
        assert all(table == tables[0] for table in tables)
        assert farm.total_fifo_violations() == 0
        batches = [device.batches_applied for device in farm.devices]
        # The slow device merged (fewer round trips); nobody else paid.
        assert batches[2] < min(batches[:2] + batches[3:])
        assert controller.channels[2].queue.coalesced > 0
    finally:
        close()


# ---------------------------------------------------------------------------
# Counts.
# ---------------------------------------------------------------------------


def test_one_changeset_to_32_devices_encodes_once_and_wakes_once(monkeypatch):
    n_devices = 32
    db, farm, controller, close = farm_fleet(n_devices, "t-counts")
    try:
        add_port(db, 1, 101)
        controller.drain()  # connections, bindings and start syncs done

        counts = {"to_json": 0, "dumps": 0, "wakes": 0}
        real_to_json, real_dumps = TableWrite.to_json, aio_client.dumps
        reactor = controller.reactor
        real_wakeup = reactor._wakeup

        def to_json(self):
            counts["to_json"] += 1
            return real_to_json(self)

        def counting_wire_run(wire_run):
            def counted(kind, rows):
                counts["to_json"] += len(rows)  # a run's rows, one text each
                return wire_run(kind, rows)

            return counted

        def dumps(*args, **kwargs):
            if threading.current_thread().name == "t-counts-reactor":
                counts["dumps"] += 1
            return real_dumps(*args, **kwargs)

        def wakeup():  # from any thread
            counts["wakes"] += 1
            real_wakeup()

        monkeypatch.setattr(TableWrite, "to_json", to_json)
        for binding in controller.bindings.table_relations.values():
            monkeypatch.setattr(
                binding, "wire_run", counting_wire_run(binding.wire_run)
            )
        # The envelope's encoder (``jsonrpc.dumps`` builds on one shared
        # ``JSONEncoder``, not on ``json.dumps``).
        monkeypatch.setattr(aio_client, "dumps", dumps)
        monkeypatch.setattr(reactor, "_wakeup", wakeup)
        before = [device.batches_applied for device in farm.devices]
        set_out_port(db, 1, 202)  # one delete + one insert per device
        # Polling the farm writes nothing to the controller's reactor, so
        # the wakes read here are the commit's alone: drain()'s own
        # submit comes after.
        wait_for(
            lambda: all(
                d.batches_applied > n for d, n in zip(farm.devices, before)
            ),
            what="every device to apply the commit",
        )
        wakes = counts["wakes"]
        controller.drain()

        assert [d.batches_applied for d in farm.devices] == [
            n + 1 for n in before
        ]
        assert counts["to_json"] == 2  # once per update, not x32
        assert counts["dumps"] == 1  # one envelope for the whole fleet
        assert wakes <= 1  # the ingest's; the rest is on the loop
    finally:
        close()


# ---------------------------------------------------------------------------
# Merging behind together.
# ---------------------------------------------------------------------------


def fan_out(queues, batch):
    """What the controller's ``_fan_out`` does with a finished batch:
    the same object on every queue, the merge record dropped after."""
    batch.shared = True
    try:
        for queue in queues:
            queue.put(batch)
    finally:
        batch._merges = None


class Counting:
    """Counts private copies, write-batch builds and JSON encodes."""

    def __init__(self, monkeypatch):
        self.copies = self.lists = self.encodes = 0
        real_copy, real_dumps = DeviceBatch._private_copy, aio_client.dumps
        counts = self

        def private_copy(batch):
            counts.copies += 1
            return real_copy(batch)

        class CountedWriteBatch(WriteBatch):
            __slots__ = ()

            def __init__(self, *args):
                counts.lists += 1
                super().__init__(*args)

        def dumps(value):
            counts.encodes += 1
            return real_dumps(value)

        monkeypatch.setattr(DeviceBatch, "_private_copy", private_copy)
        monkeypatch.setattr(api, "WriteBatch", CountedWriteBatch)
        monkeypatch.setattr(aio_client, "dumps", dumps)


def encode_for_device(batch, request_id):
    """A device's ``apply_batch`` request for ``batch``, as its client
    builds it (shared write batch, spliced frame), decoded back."""
    seq = (batch.seq, batch.last_seq)
    return spliced_request(
        batch.emit_writes(), batch.mcast, batch.update_ids, None, seq,
        request_id,
    )


def test_a_fleet_behind_together_merges_once_and_encodes_once(monkeypatch):
    n_devices = 64
    queues = [CoalescingQueue(name=f"dev-{i}") for i in range(n_devices)]
    first = fanned_batch(1, 1, 10, "u-1")
    record(first, "insert", 2, 20)
    fan_out(queues, first)  # every device is still awaiting an ack
    counts = Counting(monkeypatch)
    second = fanned_batch(2, 1, 11, "u-2")
    record(second, "delete", 2, 20)
    fan_out(queues, second)

    tails = [queue.pop_nowait() for queue in queues]
    merged = tails[0]
    assert all(tail is merged for tail in tails)
    assert merged.shared and merged is not first
    assert (merged.seq, merged.last_seq, merged.txns) == (1, 2, 2)
    assert merged.update_ids == ["u-1", "u-2"]
    assert [queue.coalesced for queue in queues] == [1] * n_devices
    assert counts.copies == 1

    requests = [encode_for_device(tail, i + 1) for i, tail in enumerate(tails)]
    assert counts.lists == 1
    assert counts.encodes == 1  # one JSON encode, 64 spliced frames
    writes = merged.emit_writes()
    assert [
        (kind, row[0]) for kind, _, rows in writes.runs for row in rows
    ] == [("INSERT", 1)]
    for i, request in enumerate(requests):
        assert request == reference_request(
            writes, merged.mcast, merged.update_ids, None, (1, 2), i + 1
        )


def test_distinct_tails_get_distinct_merges_and_a_private_tail_merges_in_place(
    monkeypatch,
):
    queues = [CoalescingQueue(name=f"dev-{i}") for i in range(10)]
    a = fanned_batch(1, 1, 10, "u-1")
    fan_out(queues[0:4], a)  # devs 0-3 are behind on one batch ...
    b = fanned_batch(2, 2, 20, "u-2")
    fan_out(queues[4:7], b)  # ... devs 4-6 on another
    private = fanned_batch(2, 3, 30, "u-2")
    private.shared = False
    queues[7].put(private)  # dev 7 holds a merge nobody else holds
    lone = fanned_batch(2, 4, 40, "u-2")
    fan_out(queues[9:], lone)  # dev 9 is the last to hold this one
    before = [snapshot(batch) for batch in (a, b, lone)]  # dev 8 is idle

    counts = Counting(monkeypatch)
    latest = fanned_batch(3, 5, 50, "u-3")
    fan_out(queues, latest)
    tails = [queue.pop_nowait() for queue in queues]

    behind_a, behind_b = tails[0], tails[4]
    assert all(tail is behind_a for tail in tails[0:4])
    assert all(tail is behind_b for tail in tails[4:7])
    assert behind_a is not behind_b
    assert behind_a.shared and behind_b.shared
    assert (behind_a.seq, behind_a.last_seq) == (1, 3)
    assert (behind_b.seq, behind_b.last_seq) == (2, 3)
    assert tails[7] is private and not private.shared  # merged in place
    assert private.last_seq == 3
    assert tails[8] is latest
    assert tails[9] is not lone and not tails[9].shared  # its own copy
    assert tails[9].coalesce(fanned_batch(4, 6, 60, "u-4")) is tails[9]
    assert [snapshot(batch) for batch in (a, b, lone)] == before
    assert counts.copies == 3  # one per distinct shared tail


def test_a_merge_dies_with_the_queues_that_held_it():
    """Devices 0-2 are awaiting an ack when two more batches fan out,
    so they merge them; device 3 keeps up and still holds the newer
    batch.  The merge must not live on in that batch's record."""
    db, farm, controller, close = farm_fleet(4, "t-memo")
    try:
        add_port(db, 1, 101)
        controller.drain()
        queues = [channel.queue for channel in controller.channels]
        for i in range(3):
            farm.set_ack_delay(i, 0.5)
        set_out_port(db, 1, 102)
        wait_for(
            lambda: all(len(q) == 0 and q.unfinished == 1 for q in queues[:3])
            and queues[3].unfinished == 0,
            what="devices 0-2 awaiting their ack, device 3 idle",
        )

        def fan_out_behind():
            for port in (50, 51):  # new keys: device 3 applies both
                row = (port, StructValue("PatchActionForward", (port,)))
                controller._fan_out(SimpleNamespace(deltas={"Patch": {row: 1}}))
            merged = queues[0].pop_nowait()
            facts = {
                "shared": merged.shared,
                "span": (merged.last_seq - merged.seq, merged.txns),
                "same": [q.pop_nowait() is merged for q in queues[1:3]],
                "device_3_holds": len(queues[3]),
            }
            for queue in queues[:3]:
                queue.task_done()
            ref = weakref.ref(merged)
            del merged
            facts["alive"] = ref() is not None  # device 3's batch is
            return facts  # still queued behind its in-flight one

        facts = controller._submit_engine(fan_out_behind)
        assert facts == {
            "shared": True, "span": (1, 2), "same": [True, True],
            "device_3_holds": 1, "alive": False,
        }
        controller.drain()
        entries = farm.devices[3].table_snapshot()["patch"]
        assert len(entries) == 3
    finally:
        close()


# A random schedule across a few queues: fan-outs of small batches over
# a few keys, barriers (some superseding what is queued), and pops.
_rows = st.tuples(
    st.sampled_from(["insert", "delete"]), st.integers(0, 3),
    st.integers(0, 3),
)
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("fan"),
            st.lists(_rows, min_size=1, max_size=3),
            st.dictionaries(
                st.integers(0, 2),
                st.one_of(st.none(), st.lists(st.integers(0, 3), max_size=2)),
                max_size=1,
            ),
        ),
        st.tuples(st.just("task"), st.integers(0, 3), st.booleans()),
        st.tuples(st.just("pop"), st.integers(0, 3)),
    ),
    max_size=30,
)


def popped_snapshot(item):
    if isinstance(item, Task):
        return ("task", item.fn)
    return snapshot(item) + (
        [
            (kind, binding.info.name, row)
            for kind, binding, rows in item.emit_writes().runs
            for row in rows
        ],
    )


def run_schedule(steps, n_queues, shared):
    """Every queue's popped sequence; ``shared`` fans one object out
    the way the controller does, otherwise each queue gets a clone."""
    queues = [CoalescingQueue(name=f"dev-{i}") for i in range(n_queues)]
    popped = [[] for _ in queues]
    seq = 0
    for n, step in enumerate(steps):
        if step[0] == "fan":
            seq += 1
            _, rows, mcast = step

            def build(seq=seq, rows=rows, mcast=mcast):
                batch = DeviceBatch(seq)
                for op, port, out_port in rows:
                    record(batch, op, port, out_port)
                batch.mcast.update(mcast)
                batch.update_ids = [f"u-{seq}"]
                return batch

            if shared:
                fan_out(queues, build())
            else:
                for queue in queues:
                    queue.put(build())
        elif step[0] == "task":
            _, index, supersede = step
            queue = queues[index % n_queues]
            queue.put(
                Task(n),  # the step names the barrier in both runs
                supersedes=(lambda item: True) if supersede else None,
            )
        else:
            index = step[1] % n_queues
            item = queues[index].pop_nowait()
            if item is not None:
                popped[index].append(popped_snapshot(item))
    for queue, out in zip(queues, popped):
        while (item := queue.pop_nowait()) is not None:
            out.append(popped_snapshot(item))
    return popped


@settings(max_examples=300)
@given(steps=_steps, n_queues=st.integers(2, 4))
def test_shared_merges_equal_private_batches_per_device(steps, n_queues):
    assert run_schedule(steps, n_queues, shared=True) == run_schedule(
        steps, n_queues, shared=False
    )
