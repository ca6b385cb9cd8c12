"""Full-stack tests for the richer column types: optionals, sets, and
maps flowing from the management plane through generated relations into
rules — the seams the type bridge exists for."""

import pytest

from repro.core import NerpaController, nerpa_build
from repro.mgmt.database import Database
from repro.mgmt.schema import (
    ColumnSchema,
    ColumnType,
    DatabaseSchema,
    TableSchema,
)

P4 = """
header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
struct headers_t { eth_t eth; }
struct meta_t { bit<8> qos; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
         inout standard_metadata_t std) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control Ing(inout headers_t hdr, inout meta_t m,
            inout standard_metadata_t std) {
    action set_qos(bit<8> level) { m.qos = level; }
    action drop() { mark_to_drop(); }
    table qos {
        key = { std.ingress_port : exact; }
        actions = { set_qos; drop; }
        default_action = drop();
    }
    apply { qos.apply(); }
}
"""

SCHEMA = DatabaseSchema(
    "types",
    [
        TableSchema(
            "Iface",
            [
                ColumnSchema("port", ColumnType("integer")),
                # optional: absent means "use default qos"
                ColumnSchema("qos", ColumnType("integer", min=0, max=1)),
                # set: feature flags
                ColumnSchema(
                    "flags", ColumnType("string", min=0, max="unlimited")
                ),
                # map: arbitrary annotations
                ColumnSchema(
                    "external_ids",
                    ColumnType("string", "string", min=0, max="unlimited"),
                ),
            ],
        )
    ],
)

RULES = """
// qos column is Option<bigint>: absent -> default 1; the "gold" flag
// overrides; an external_ids entry can force a specific level.
Qos(p as bit<16>, QosActionSetQos{level as bit<8>}) :-
    Iface(_, p, q, flags, ids),
    var base = unwrap_or(q, 1),
    var flagged = if (vec_contains(flags, "gold")) 7 else base,
    var level = unwrap_or(parse_int(unwrap_or(map_get(ids, "qos-override"),
                                              to_string(flagged))), flagged).
"""


@pytest.fixture()
def stack():
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=8)
    with NerpaController(project, db, [switch]) as controller:
        yield db, switch, controller


def add_iface(stack, port, qos=None, flags=(), external_ids=None):
    db, _, controller = stack
    row = {"port": port, "flags": frozenset(flags)}
    if qos is not None:
        row["qos"] = qos
    if external_ids:
        row["external_ids"] = external_ids
    db.transact([{"op": "insert", "table": "Iface", "row": row}])
    controller.drain()


class TestRichTypesEndToEnd:
    def test_optional_absent_uses_default(self, stack):
        db, switch, controller = stack
        add_iface(stack, 1)
        assert switch.table("qos").lookup([1]) == ("set_qos", (1,), True)

    def test_optional_present(self, stack):
        db, switch, controller = stack
        add_iface(stack, 2, qos=4)
        assert switch.table("qos").lookup([2])[1] == (4,)

    def test_set_membership_drives_rule(self, stack):
        db, switch, controller = stack
        add_iface(stack, 3, qos=2, flags=["gold", "other"])
        assert switch.table("qos").lookup([3])[1] == (7,)

    def test_map_override_wins(self, stack):
        db, switch, controller = stack
        add_iface(stack, 4, qos=2, external_ids={"qos-override": "5"})
        assert switch.table("qos").lookup([4])[1] == (5,)

    def test_mutating_set_updates_entry(self, stack):
        db, switch, controller = stack
        add_iface(stack, 5, qos=2)
        assert switch.table("qos").lookup([5])[1] == (2,)
        db.transact(
            [
                {
                    "op": "mutate",
                    "table": "Iface",
                    "where": [["port", "==", 5]],
                    "mutations": [["flags", "insert", "gold"]],
                }
            ]
        )
        controller.drain()
        assert switch.table("qos").lookup([5])[1] == (7,)

    def test_clearing_optional_reverts_to_default(self, stack):
        db, switch, controller = stack
        add_iface(stack, 6, qos=4)
        db.transact(
            [
                {
                    "op": "update",
                    "table": "Iface",
                    "where": [["port", "==", 6]],
                    "row": {"qos": None},
                }
            ]
        )
        controller.drain()
        assert switch.table("qos").lookup([6])[1] == (1,)
