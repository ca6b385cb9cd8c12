"""Differential test: a farm device applies batches as a real device does.

A :class:`~repro.p4runtime.farm.FarmDevice` is a
:class:`~repro.p4runtime.api.DeviceService` over dict tables; a
simulator-backed ``DeviceService`` is what a P4Runtime server serves.
Both get the same random ``apply_batch`` envelopes, through their
servers' ``handle`` (the farm's and a :class:`P4RuntimeServer`'s, not
started), over an exact, an lpm and a ternary table with priorities.
After every batch they must have accepted or rejected it alike (with
the same error), hold equal entries and multicast groups, and report
the same config and fencing epochs; a rejected batch leaves the table
entries and the config epoch as they were, whether its fence was stale
or one of its updates failed halfway.

The generated entries are all valid for the pipeline (canonical lpm and
ternary values, a priority exactly where the table needs one): the
store does not validate entries against a P4Info, so only the
rejections a valid entry can meet — a duplicate, a missing key, a stale
fence — are compared, plus the updates no device can decode (a bad
type, no table, a bad match field, not an object) or hold (a list as a
match value), which both reject.  A DELETE comes as the encoders send
it, its match key and priority alone, or with an action, which both
ignore; a DELETE of an absent key is rejected by its key on both.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p4.ir import compile_p4
from repro.p4.simulator import Simulator
from repro.p4.tables import FieldMatch, TableEntry
from repro.p4runtime.api import TableWrite
from repro.p4runtime.farm import DeviceFarm
from repro.p4runtime.server import P4RuntimeServer

P4 = """
header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
struct headers_t { eth_t eth; }
struct meta_t { bit<8> a; bit<8> b; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
         inout standard_metadata_t std) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control Ing(inout headers_t hdr, inout meta_t m,
            inout standard_metadata_t std) {
    action forward(bit<16> port) { std.egress_spec = port; }
    action drop() { mark_to_drop(); }
    table exact_t {
        key = { m.a : exact; }
        actions = { forward; drop; }
        default_action = drop();
    }
    table lpm_t {
        key = { m.a : exact; m.b : lpm; }
        actions = { forward; drop; }
        default_action = drop();
    }
    table acl_t {
        key = { m.b : ternary; }
        actions = { forward; drop; }
        default_action = drop();
    }
    apply { exact_t.apply(); lpm_t.apply(); acl_t.apply(); }
}
"""

PIPELINE = compile_p4(P4)
TABLES = ("exact_t", "lpm_t", "acl_t")


class _Conn:
    """What ``handle`` reads of a connection: the bound device."""

    session = 0


# Few distinct keys, so duplicates and missing keys come up often.
_small = st.integers(0, 3)


@st.composite
def _lpm(draw):
    length = draw(st.sampled_from([0, 4, 6, 8]))
    value = draw(st.integers(0, 255)) & (0xFF << (8 - length)) & 0xFF
    return {"lpm": [value, length]}


@st.composite
def _ternary(draw):
    mask = draw(st.sampled_from([0x00, 0x0F, 0xF0, 0xFF]))
    return {"ternary": [draw(_small) * 0x11 & mask, mask]}


# Updates that fail to decode or to apply, wherever they sit in a batch.
MALFORMED = [
    {"type": "UPSERT", "table": "exact_t", "match": [0]},
    {"type": "INSERT", "match": [0]},
    {"type": "INSERT", "table": "exact_t", "match": [{"range": [0, 1]}]},
    "INSERT exact_t",
    {"type": "INSERT", "table": "exact_t", "match": [[0]]},
    # An exact field is its bare value: the tagged form is refused.
    {"type": "INSERT", "table": "exact_t", "match": [{"exact": 0}]},
]


@st.composite
def _update(draw):
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(MALFORMED))
    table = draw(st.sampled_from(TABLES))
    # A priority only on the ternary table, as every encoder sends it.
    priority = {}
    if table == "exact_t":
        match = [draw(_small)]
    elif table == "lpm_t":
        match = [draw(_small), draw(_lpm())]
    else:
        match = [draw(_ternary())]
        priority = {"priority": draw(st.integers(1, 2))}
    if draw(st.booleans()):
        action = {"name": "forward", "params": [draw(_small)]}
    else:
        action = {"name": "drop", "params": []}
    kind = draw(st.sampled_from(["INSERT", "INSERT", "MODIFY", "DELETE"]))
    if kind == "DELETE" and draw(st.booleans()):
        # Key-only, as every encoder sends it.
        return {"type": kind, "table": table, "match": match, **priority}
    return {
        "type": kind,
        "table": table,
        "match": match,
        "action": action,
        **priority,
    }


@st.composite
def _envelope(draw):
    envelope = {
        "updates": draw(st.lists(_update(), max_size=6)),
        "mcast": draw(st.lists(
            st.tuples(st.integers(1, 2), st.sampled_from([[], [1, 2], [3]])),
            max_size=2,
        )),
        "update_ids": [f"u{draw(st.integers(0, 1_000_000))}"],
    }
    fence = draw(st.sampled_from([None, None, 1, 2, 3]))
    if fence is not None:
        envelope["fence"] = fence
    return envelope


def _outcome(handle, method, params):
    """A call's outcome: its result, or its error's type, text and index."""
    try:
        return handle(_Conn(), method, params)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return (type(exc).__name__, str(exc), getattr(exc, "index", None))


def _apply(handle, envelope):
    return _outcome(handle, "apply_batch", [envelope])


def _tables(service):
    return {
        table: sorted(
            (key, value[0], value[1:])
            for key, value in service.read_table(table)
        )
        for table in TABLES
    }


def _state(service):
    return (
        _tables(service),
        service.get_config_epoch(),
        service.fencing_epoch(),
        dict(service.sim.multicast_groups),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(_envelope(), min_size=1, max_size=12))
def test_farm_device_and_simulator_apply_batches_alike(envelopes):
    farm = DeviceFarm(1)
    device = farm.devices[0]
    server = P4RuntimeServer(Simulator(PIPELINE, n_ports=8))
    real = server.service
    accepted = 0
    for envelope in envelopes:
        before = (_tables(real), real.get_config_epoch())
        fence, current = envelope.get("fence"), real.fencing_epoch()
        stale = fence is not None and current is not None and fence < current
        outcome = _apply(farm.handle, envelope)
        assert _apply(server.handle, envelope) == outcome
        assert _state(device) == _state(real)
        fenced = isinstance(outcome, tuple) and outcome[0] == "FencedWriteError"
        assert fenced == stale
        if not isinstance(outcome, dict):
            # Rejected: no table write and no epoch stamp survived.
            assert (_tables(real), real.get_config_epoch()) == before
            continue
        accepted += 1
        if envelope["updates"]:
            assert real.get_config_epoch() == envelope["update_ids"][-1]
    assert device.batches_applied == accepted


def test_a_stale_fence_changes_nothing():
    """The fence check comes before every other step of a batch: a
    deposed writer's batch leaves tables, multicast and epoch alone."""
    farm = DeviceFarm(1)
    device = farm.devices[0]
    insert = {
        "type": "INSERT", "table": "exact_t", "match": [1],
        "action": {"name": "drop", "params": []},
    }
    current = {"updates": [insert], "update_ids": ["u1"], "fence": 2}
    assert farm.handle(_Conn(), "apply_batch", [current]) == {"applied": 1}
    before = _state(device)
    stale = {
        "updates": [dict(insert, match=[2])],
        "mcast": [[1, [1, 2]]], "update_ids": ["u2"], "fence": 1,
    }
    outcome = _apply(farm.handle, stale)
    assert outcome[0] == "FencedWriteError"
    assert _state(device) == before
    assert device.batches_applied == 1


_INSERT = {
    "type": "INSERT", "table": "exact_t", "match": [1],
    "action": {"name": "drop", "params": []},
}


def _farm_handle():
    farm = DeviceFarm(1)
    return farm.handle, farm.devices[0]


def _server_handle():
    server = P4RuntimeServer(Simulator(PIPELINE, n_ports=8))
    return server.handle, server.service


@pytest.mark.parametrize("make", [_farm_handle, _server_handle])
@pytest.mark.parametrize("method", ["write", "apply_batch"])
@pytest.mark.parametrize("bad", MALFORMED)
def test_a_malformed_update_rolls_its_batch_back(make, method, bad):
    """Updates decode as they are applied, yet a batch whose second
    update is malformed is still all-or-nothing: the first update is
    undone and the error names update 1."""
    handle, service = make()
    handle(_Conn(), "write", [_INSERT])
    before = (_tables(service), service.get_config_epoch())
    delete = dict(_INSERT, type="DELETE")
    insert = dict(_INSERT, match=[2])
    updates = [delete, bad, insert]
    params = (
        updates if method == "write"
        else [{"updates": updates, "update_ids": ["u2"]}]
    )
    outcome = _outcome(handle, method, params)
    assert outcome[:1] == ("WriteError",) and outcome[2] == 1
    assert (_tables(service), service.get_config_epoch()) == before


@pytest.mark.parametrize("method", ["write", "apply_batch"])
def test_a_delete_of_an_absent_key_names_the_key_and_rolls_back(method):
    """A key-only DELETE of a key the table lacks, in the middle of a
    batch: both backends refuse it at its index with the same text,
    which names the table and the key (not an entry the DELETE never
    carried), and undo the batch's prefix."""
    acl_insert = {
        "type": "INSERT", "table": "acl_t",
        "match": [{"ternary": [0x10, 0xF0]}],
        "action": {"name": "forward", "params": [2]}, "priority": 2,
    }
    updates = [
        dict(_INSERT, type="DELETE"),
        dict(_INSERT, match=[2]),
        acl_insert,
        {"type": "DELETE", "table": "lpm_t", "match": [3, {"lpm": [0xF0, 4]}]},
        dict(_INSERT, match=[3]),
    ]
    params = (
        updates if method == "write"
        else [{"updates": updates, "update_ids": ["u2"]}]
    )
    outcomes = []
    for make in (_farm_handle, _server_handle):
        handle, service = make()
        handle(_Conn(), "write", [_INSERT])
        before = (_tables(service), service.get_config_epoch())
        outcomes.append(_outcome(handle, method, params))
        assert (_tables(service), service.get_config_epoch()) == before
    farm, server = outcomes
    assert farm == server == (
        "WriteError",
        "update 3: table lpm_t: no entry to delete for key [=3, 240/4] prio=0",
        3,
    )


def test_the_collector_tracks_nothing_a_farm_table_holds():
    """A farm table keeps each entry as a match key and a value that
    are tuples of atoms, so after one collection the collector has
    untracked them all: a large table adds nothing to its passes."""
    handle, device = _farm_handle()
    updates = [
        {"type": "INSERT", "table": "exact_t", "match": [a],
         "action": {"name": "forward", "params": [a]}}
        for a in range(4)
    ] + [
        {"type": "INSERT", "table": "lpm_t",
         "match": [a, {"lpm": [0xF0, 4]}],
         "action": {"name": "drop", "params": []}}
        for a in range(4)
    ] + [
        {"type": "INSERT", "table": "acl_t",
         "match": [{"ternary": [a * 0x11 & 0x0F, 0x0F]}],
         "action": {"name": "forward", "params": [a]}, "priority": a + 1}
        for a in range(4)
    ]
    assert handle(_Conn(), "write", updates) == {"applied": 12}
    # An in-process write goes to its table in the decoded form too.
    entry = TableEntry([FieldMatch.exact(9)], "drop", [])
    assert device.write([TableWrite("INSERT", "exact_t", entry)]) == 1
    gc.collect()
    held = [
        item
        for table in device.sim.tables.values()
        for pair in table.items()
        for item in pair
    ]
    assert len(held) == 26
    assert [item for item in held if gc.is_tracked(item)] == []


def test_a_table_snapshot_keeps_the_tagged_verification_form():
    """``table_snapshot`` is what the benchmarks digest to compare
    device tables across versions, so it keeps one rendering whatever
    the wire form: every exact field tagged, every entry's priority
    present, keyed by the match fields' JSON and a nonzero priority."""
    handle, device = _farm_handle()
    updates = [
        {"type": "INSERT", "table": "exact_t", "match": [1],
         "action": {"name": "forward", "params": [2]}},
        {"type": "INSERT", "table": "lpm_t", "match": [3, {"lpm": [0xF0, 4]}],
         "action": {"name": "drop", "params": []}},
        {"type": "INSERT", "table": "acl_t",
         "match": [{"ternary": [0x10, 0xF0]}],
         "action": {"name": "forward", "params": [5]}, "priority": 2},
    ]
    assert handle(_Conn(), "write", updates) == {"applied": 3}
    assert device.table_snapshot() == {
        "exact_t": {
            '[{"exact": 1}]': {
                "type": "INSERT", "table": "exact_t",
                "match": [{"exact": 1}],
                "action": {"name": "forward", "params": [2]}, "priority": 0,
            },
        },
        "lpm_t": {
            '[{"exact": 3}, {"lpm": [240, 4]}]': {
                "type": "INSERT", "table": "lpm_t",
                "match": [{"exact": 3}, {"lpm": [240, 4]}],
                "action": {"name": "drop", "params": []}, "priority": 0,
            },
        },
        "acl_t": {
            '[{"ternary": [16, 240]}]#2': {
                "type": "INSERT", "table": "acl_t",
                "match": [{"ternary": [16, 240]}],
                "action": {"name": "forward", "params": [5]}, "priority": 2,
            },
        },
    }
