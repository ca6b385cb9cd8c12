"""Output rows on their way to the wire.

A fan-out records the engine's output rows themselves in the device
batch, and each table's generated converters
(:class:`~repro.core.codegen.TableBinding`) turn a row into the
update's JSON text or its decoded ``(kind, table, key, value)`` only
when a device needs it.  These tests pin what that path must keep:

* **bytes** — for exact, lpm and ternary (with priority) tables, the
  ``apply_batch`` params encoded from rows equal, byte for byte, the
  ones encoded from the :class:`TableWrite` of each row's decoded
  form, and each run's decoded form is its wire text decoded;
* **algebra** — a row deleted and re-inserted unchanged is elided, a
  changed action or priority is not;
* **devices** — an in-process simulator and a farm device driven by one
  controller end with the same tables, and the async path builds no
  ``FieldMatch`` or ``TableEntry`` per row;
* **errors** — an ill-typed row surfaces at ``drain()`` on both paths,
  even when the channel was parked on the send buffer's watermark.
"""

import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import NerpaController
from repro.core.fanout import IN_FLIGHT
from repro.core.pipeline import nerpa_build
from repro.core.pipeline.changeset import DeviceBatch
from repro.dlog.values import StructValue
from repro.errors import ReproError, TypeCheckError
from repro.mgmt.database import Database
from repro.mgmt.schema import simple_schema
from repro.net import FaultInjector
from repro.net.aio import Reactor
from repro.p4.tables import FieldMatch, TableEntry
from repro.p4runtime import aio_client
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.api import (
    DeviceService,
    TableWrite,
    decode_update,
    encode_update,
)
from repro.p4runtime.farm import DeviceFarm
from repro.p4runtime.server import P4RuntimeServer
from tests.test_fanout import FAST, wait_for

P4 = """
header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
struct headers_t { eth_t eth; }
struct meta_t { bit<16> vlan; bit<32> dst; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
         inout standard_metadata_t std) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control Ing(inout headers_t hdr, inout meta_t m,
            inout standard_metadata_t std) {
    action forward(bit<16> port) { std.egress_spec = port; }
    action drop() { mark_to_drop(); }
    table exact_t {
        key = { std.ingress_port : exact; m.vlan : exact; }
        actions = { forward; drop; }
        default_action = drop();
    }
    table lpm_t {
        key = { m.vlan : exact; m.dst : lpm; }
        actions = { forward; drop; }
        default_action = drop();
    }
    table acl_t {
        key = { m.vlan : exact; m.dst : ternary; }
        actions = { forward; drop; }
        default_action = drop();
    }
    apply { exact_t.apply(); lpm_t.apply(); acl_t.apply(); }
}
"""

SCHEMA = {
    "Cfg": {"port": "integer", "vlan": "integer", "out": "integer"},
    "Route": {
        "vlan": "integer", "dst": "integer", "len": "integer",
        "out": "integer",
    },
    "Acl": {
        "vlan": "integer", "dst": "integer", "mask": "integer",
        "prio": "integer", "out": "integer",
    },
}

RULES = """
ExactT(p as bit<16>, v as bit<16>, ExactTActionForward{o as bit<16>}) :-
    Cfg(_, p, v, o), o != 0.
ExactT(p as bit<16>, v as bit<16>, ExactTActionDrop) :- Cfg(_, p, v, 0).
LpmT(v as bit<16>, (d as bit<32>, l), LpmTActionForward{o as bit<16>}) :-
    Route(_, v, d, l, o).
AclT(v as bit<16>, (d as bit<32>, m as bit<32>),
     AclTActionForward{o as bit<16>}, pr) :- Acl(_, v, d, m, pr, o).
"""


def project():
    return nerpa_build(simple_schema("emit", SCHEMA), RULES, P4)


def forward(table, port):
    return StructValue(f"{table}ActionForward", (port,))


def insert(db, table, **row):
    db.transact([{"op": "insert", "table": table, "row": row}])


def delete(db, table, **where):
    db.transact([{
        "op": "delete", "table": table,
        "where": [[column, "==", value] for column, value in where.items()],
    }])


def update(db, table, row, **where):
    db.transact([{
        "op": "update", "table": table, "row": row,
        "where": [[column, "==", value] for column, value in where.items()],
    }])


def churn(db):
    """Inserts, modifies and deletes on all three tables."""
    for port in range(4):
        insert(db, "Cfg", port=port, vlan=10 + port, out=port + 1)
    insert(db, "Route", vlan=1, dst=0x0A000000, len=8, out=2)
    insert(db, "Route", vlan=1, dst=0x0A010000, len=16, out=3)
    insert(db, "Route", vlan=2, dst=0, len=0, out=4)
    insert(db, "Acl", vlan=1, dst=0x0A000000, mask=0xFF000000, prio=5, out=1)
    insert(db, "Acl", vlan=1, dst=0x0B000000, mask=0xFF000000, prio=9, out=2)
    insert(db, "Acl", vlan=2, dst=0, mask=0, prio=1, out=3)
    update(db, "Cfg", {"out": 0}, port=1)  # forward -> drop
    update(db, "Cfg", {"out": 7}, port=2)  # new forward param
    update(db, "Route", {"out": 5}, len=16)
    update(db, "Acl", {"prio": 6}, prio=5)  # a new identity
    delete(db, "Cfg", port=3)
    delete(db, "Route", vlan=2)
    delete(db, "Acl", vlan=2)


# ---------------------------------------------------------------------------
# Bytes.
# ---------------------------------------------------------------------------

_vlans = st.integers(0, 2**16 - 1)
_actions = st.one_of(
    st.integers(0, 2**16 - 1).map(lambda port: ("Forward", (port,))),
    st.just(("Drop", ())),
)


@st.composite
def _lpm(draw):
    length = draw(st.integers(0, 32))
    value = draw(st.integers(0, 2**32 - 1)) >> (32 - length) << (32 - length)
    return (value, length)


@st.composite
def _ternary(draw):
    mask = draw(st.integers(0, 2**32 - 1))
    return (draw(st.integers(0, 2**32 - 1)) & mask, mask)


def _rows(relation, key, tail=st.just(())):
    """``(relation, row)``: key columns, an action, then ``tail``."""

    def row(parts):
        keys, (ctor, fields), rest = parts
        action = StructValue(f"{relation}Action{ctor}", fields)
        return relation, keys + (action,) + rest

    return st.tuples(key, _actions, tail).map(row)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.one_of(
            _rows("ExactT", st.tuples(st.integers(0, 511), _vlans)),
            _rows("LpmT", st.tuples(_vlans, _lpm())),
            _rows(
                "AclT", st.tuples(_vlans, _ternary()),
                st.tuples(st.integers(1, 2**31)),
            ),
        ),
    ),
    max_size=12,
)
_BINDINGS = project().bindings.table_relations


@settings(max_examples=100)
@given(ops=_OPS, fence=st.one_of(st.none(), st.integers(0, 9)))
def test_rows_encode_to_the_bytes_of_their_table_entries(ops, fence):
    batch = DeviceBatch(3)
    for op, (relation, row) in ops:
        binding = _BINDINGS[relation]
        getattr(batch, f"record_{op}")(binding, binding.key_of(row), row)
    batch.update_ids = ["u-1", "u-2"]
    writes = batch.emit_writes()
    reference = [
        TableWrite(kind, table, TableEntry.from_key(key, value))
        for kind, table, key, value in writes.decoded()
    ]
    args = ({7: [1, 2]}, batch.update_ids, fence, (3, 4))
    assert aio_client._encode_batch(writes, *args) == (
        aio_client._encode_batch(reference, *args)
    )
    for kind, binding, rows in writes.runs:
        assert list(binding.decoded_run(kind, rows)) == [
            decode_update(update)
            for update in json.loads("[%s]" % binding.wire_run(kind, rows))
        ]


def test_every_match_kind_and_the_priority_reach_the_wire():
    exact, lpm, acl = (_BINDINGS[r] for r in ("ExactT", "LpmT", "AclT"))
    row = (1, 2, forward("ExactT", 3))
    assert json.loads(exact.wire_run("INSERT", [row])) == {
        "type": "INSERT", "table": "exact_t",
        "match": [1, 2],
        "action": {"name": "forward", "params": [3]},
    }
    assert json.loads(
        lpm.wire_run("DELETE", [(1, (0x0A000000, 8), forward("LpmT", 2))])
    )["match"] == [1, {"lpm": [0x0A000000, 8]}]
    row = (1, (5, 7), StructValue("AclTActionDrop", ()), 9)
    wired = json.loads(acl.wire_run("INSERT", [row]))
    assert wired["match"] == [1, {"ternary": [5, 7]}]
    assert (wired["action"], wired["priority"]) == (
        {"name": "drop", "params": []}, 9
    )
    assert acl.key_of(row) == (1, (5, 7), 9)
    assert list(acl.decoded_run("INSERT", [row])) == [(
        "INSERT", "acl_t", (9, "exact", 1, None, "ternary", 5, 7), ("drop",)
    )]


@pytest.mark.parametrize(
    "relation,row,message",
    [
        ("ExactT", ("1", 2, forward("ExactT", 3)), "expects an integer"),
        ("LpmT", (1, 8, forward("LpmT", 3)), "expects a pair"),
        ("ExactT", (1, 2, 3), "must be a constructor"),
        ("ExactT", (1, 2, forward("LpmT", 3)), "is not an action"),
        (
            "ExactT", (1, 2, StructValue("ExactTActionForward", ())),
            "expects 1 parameter",
        ),
    ],
    ids=["exact", "lpm", "action", "constructor", "arity"],
)
def test_ill_typed_rows_raise_from_both_converters(relation, row, message):
    binding = _BINDINGS[relation]
    with pytest.raises(TypeCheckError, match=message):
        binding.wire_run("INSERT", [row])
    with pytest.raises(TypeCheckError, match=message):
        list(binding.decoded_run("INSERT", [row]))


# ---------------------------------------------------------------------------
# Algebra.
# ---------------------------------------------------------------------------


def _batch(*ops):
    batch = DeviceBatch(1)
    for op, relation, row in ops:
        binding = _BINDINGS[relation]
        getattr(batch, f"record_{op}")(binding, binding.key_of(row), row)
    return [
        (kind, row)
        for kind, _, rows in batch.emit_writes().runs
        for row in rows
    ]


def test_delete_and_reinsert_of_the_same_row_is_elided():
    row = (1, 2, forward("ExactT", 3))
    assert _batch(("delete", "ExactT", row), ("insert", "ExactT", row)) == []
    acl = (1, (5, 7), forward("AclT", 1), 4)
    assert _batch(("delete", "AclT", acl), ("insert", "AclT", acl)) == []


def test_a_changed_action_or_priority_is_written():
    old = (1, 2, forward("ExactT", 3))
    for new in (
        (1, 2, forward("ExactT", 4)),
        (1, 2, StructValue("ExactTActionDrop", ())),
    ):
        assert _batch(
            ("delete", "ExactT", old), ("insert", "ExactT", new)
        ) == [("DELETE", old), ("INSERT", new)]
    low = (1, (5, 7), forward("AclT", 1), 4)
    high = (1, (5, 7), forward("AclT", 1), 8)
    assert _batch(("delete", "AclT", low), ("insert", "AclT", high)) == [
        ("DELETE", low), ("INSERT", high)
    ]


# ---------------------------------------------------------------------------
# Devices.
# ---------------------------------------------------------------------------


def _entries(wire_updates):
    """Each update as canonical JSON without its ``type`` (a resync
    writes MODIFY where a batch wrote INSERT)."""
    return sorted(
        json.dumps({k: v for k, v in update.items() if k != "type"},
                   sort_keys=True)
        for update in wire_updates
    )


def _device_entries(service, table):
    return _entries(
        encode_update("INSERT", table, key, value)
        for key, value in service.read_table(table)
    )


def _sim_entries(sim, table):
    return _device_entries(DeviceService(sim), table)


class _Fleet:
    """One controller over the ``local`` devices plus one farm device."""

    def __init__(self, name, local=()):
        self.project = project()
        self.db = Database(self.project.schema)
        self.farm = DeviceFarm(1).start()
        self.reactor = Reactor(name).start()
        self.client = AioP4RuntimeClient(
            *self.farm.address, self.reactor, policy=FAST, device_hint=0
        )
        self.controller = NerpaController(
            self.project, self.db, list(local) + [self.client]
        ).start()

    def farm_entries(self, table):
        return _device_entries(self.farm.devices[0], table)

    def close(self):
        self.controller.stop()
        self.client.close()
        self.farm.stop()
        self.reactor.stop()


def test_in_process_and_farm_devices_end_with_the_same_tables():
    sim = project().new_simulator(n_ports=8)
    fleet = _Fleet("t-emit-same", local=[sim])
    try:
        churn(fleet.db)
        fleet.controller.drain()
        for table, expected in (("exact_t", 3), ("lpm_t", 2), ("acl_t", 2)):
            local = _sim_entries(sim, table)
            assert len(local) == expected
            assert fleet.farm_entries(table) == local
    finally:
        fleet.close()


def test_the_async_path_builds_no_field_match_or_table_entry(monkeypatch):
    fleet = _Fleet("t-emit-count")
    try:
        insert(fleet.db, "Cfg", port=1, vlan=1, out=1)
        fleet.controller.drain()
        built = {"FieldMatch": 0, "TableEntry": 0}
        # The farm's devices decode what they apply, on the farm's loop;
        # the count is the controller side's.
        device_loop = fleet.farm.reactor

        def counting(cls):
            real = cls.__init__

            def init(self, *args, **kwargs):
                if not device_loop.in_loop():
                    built[cls.__name__] += 1
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)

        counting(FieldMatch)
        counting(TableEntry)
        churn(fleet.db)
        fleet.controller.drain()
        # Counted before the reads below: a farm device builds entries
        # for whoever reads its tables, on the reading thread.
        assert built == {"FieldMatch": 0, "TableEntry": 0}
        assert len(fleet.farm_entries("exact_t")) == 4
        assert len(fleet.farm_entries("acl_t")) == 2
    finally:
        fleet.close()


# ---------------------------------------------------------------------------
# Errors.
# ---------------------------------------------------------------------------


def _without_forward(proj):
    """Make ``ExactT``'s converters reject its forward constructor;
    returns the function that puts it back."""
    actions = proj.bindings.table_relations["ExactT"].actions_by_constructor
    resolved = actions.pop("ExactTActionForward")
    return lambda: actions.__setitem__("ExactTActionForward", resolved)


def test_a_bad_action_surfaces_at_drain_on_the_async_path():
    fleet = _Fleet("t-emit-bad-async")
    try:
        restore = _without_forward(fleet.project)
        insert(fleet.db, "Cfg", port=1, vlan=1, out=1)
        with pytest.raises(TypeCheckError, match="is not an action"):
            fleet.controller.drain(timeout=5.0)
        restore()
        insert(fleet.db, "Cfg", port=2, vlan=2, out=2)
        fleet.controller.drain(timeout=5.0)
        assert len(fleet.farm_entries("exact_t")) == 1
    finally:
        fleet.close()


def test_a_bad_action_surfaces_at_drain_on_the_in_process_path():
    proj = project()
    db = Database(proj.schema)
    sim = proj.new_simulator(n_ports=8)
    controller = NerpaController(proj, db, [sim]).start()
    try:
        restore = _without_forward(proj)
        insert(db, "Cfg", port=1, vlan=1, out=1)
        with pytest.raises(ReproError, match="is not an action"):
            controller.drain(timeout=5.0)
        assert len(sim.table("exact_t")) == 0  # the batch rolled back
        restore()
        insert(db, "Cfg", port=2, vlan=2, out=2)
        controller.drain(timeout=5.0)
        assert len(sim.table("exact_t")) == 1
    finally:
        controller.stop()


def test_a_converter_error_in_a_parked_send_completes_the_batch():
    """The channel is parked on ``on_drain`` when the converter raises:
    the error must reach ``drain()`` and free the channel for the next
    batch, not wedge it."""
    proj = project()
    db = Database(proj.schema)
    sim = proj.new_simulator(n_ports=8)
    server = P4RuntimeServer(sim).start()
    proxy = FaultInjector(*server.address).start()
    reactor = Reactor("t-emit-parked").start()
    client = AioP4RuntimeClient(*proxy.address, reactor, policy=FAST)
    controller = NerpaController(proj, db, [client]).start()
    binding = proj.bindings.table_relations["ExactT"]
    try:
        proxy.set_stall(True)
        echoed = threading.Event()
        client.conn.call_async(
            "echo", ["x" * (16 * 1024 * 1024)],
            lambda result, error: echoed.set(),
        )
        wait_for(lambda: not client.writable, what="the high watermark")

        def broken(kind, rows):
            raise TypeCheckError("converter refused the row")

        # A device batch's rows reach the wire through ``wire_run``.
        generated, binding.wire_run = binding.wire_run, broken
        insert(db, "Cfg", port=1, vlan=1, out=1)
        channel = controller.channels[0]
        wait_for(lambda: channel.state == IN_FLIGHT, what="the parked batch")
        time.sleep(0.05)
        assert not client.writable  # still parked

        proxy.set_stall(False)
        released = time.monotonic()
        with pytest.raises(TypeCheckError, match="refused"):
            controller.drain(timeout=5.0)
        assert time.monotonic() - released < 1.0

        binding.wire_run = generated
        insert(db, "Cfg", port=2, vlan=2, out=2)
        controller.drain(timeout=5.0)
        assert [e.action_params for e in sim.table("exact_t").entries()] == [
            (2,)
        ]
        assert echoed.wait(5.0)
    finally:
        controller.stop()
        client.close()
        reactor.stop()
        proxy.stop()
        server.stop()
