"""Tests for cross-plane codegen, the type bridge, and nerpa_build."""

import pytest

from repro.core.codegen import generate_declarations
from repro.core.pipeline import nerpa_build
from repro.core.typebridge import (
    camel,
    match_payload,
    ovsdb_column_to_dlog_text,
    ovsdb_value_to_dlog,
)
from repro.dlog.values import MapValue, StructValue
from repro.errors import TypeCheckError
from repro.mgmt.schema import ColumnType, simple_schema
from repro.p4.ir import compile_p4
from repro.p4.p4info import MatchField

SIMPLE_P4 = """
header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
struct headers_t { eth_t eth; }
struct meta_t { bit<12> vlan; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
         inout standard_metadata_t std) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control Ing(inout headers_t hdr, inout meta_t m,
            inout standard_metadata_t std) {
    action set_vlan(bit<12> vid) { m.vlan = vid; }
    action drop() { mark_to_drop(); }
    table in_vlan {
        key = { std.ingress_port : exact; }
        actions = { set_vlan; drop; }
        default_action = drop();
    }
    apply { in_vlan.apply(); }
}
"""


class TestTypeBridge:
    def test_camel(self):
        assert camel("in_vlan") == "InVlan"
        assert camel("NoAction") == "NoAction"
        assert camel("mac_learn") == "MacLearn"

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (ColumnType("integer"), "bigint"),
            (ColumnType("string"), "string"),
            (ColumnType("boolean"), "bool"),
            (ColumnType("real"), "float"),
            (ColumnType("uuid"), "string"),
            (ColumnType("integer", min=0, max=1), "Option<bigint>"),
            (ColumnType("string", min=0, max="unlimited"), "Vec<string>"),
            (
                ColumnType("string", "integer", min=0, max="unlimited"),
                "Map<string, bigint>",
            ),
        ],
    )
    def test_column_type_text(self, spec, expected):
        assert ovsdb_column_to_dlog_text(spec) == expected

    def test_optional_value_conversion(self):
        opt = ColumnType("integer", min=0, max=1)
        assert ovsdb_value_to_dlog(opt, None) == StructValue("None", ())
        assert ovsdb_value_to_dlog(opt, 5) == StructValue("Some", (5,))

    def test_set_value_sorted(self):
        st = ColumnType("integer", min=0, max="unlimited")
        assert ovsdb_value_to_dlog(st, frozenset([3, 1, 2])) == (1, 2, 3)

    def test_map_value_conversion(self):
        mt = ColumnType("string", "string", min=0, max="unlimited")
        value = ovsdb_value_to_dlog(mt, {"a": "b"})
        assert isinstance(value, MapValue)
        assert value["a"] == "b"

    def test_exact_match_conversion(self):
        field = MatchField("f", 12, "exact")
        assert match_payload(field)(7) == 7

    def test_lpm_match_conversion(self):
        field = MatchField("f", 32, "lpm")
        assert match_payload(field)((0x0A000000, 8)) == [0x0A000000, 8]

    def test_ternary_match_conversion(self):
        field = MatchField("f", 12, "ternary")
        assert match_payload(field)((5, 4095)) == [5, 4095]

    def test_exact_match_wrong_type(self):
        field = MatchField("f", 12, "exact")
        with pytest.raises(TypeCheckError):
            match_payload(field)((1, 2))


class TestCodegen:
    def test_ovsdb_relation_includes_uuid(self):
        schema = simple_schema("db", {"Port": {"name": "string"}})
        text, bindings = generate_declarations(schema, None)
        assert "input relation Port(uuid: string, name: string)" in text
        assert bindings.relation_for_ovsdb["Port"] == "Port"

    def test_table_relation_and_union(self):
        pipeline = compile_p4(SIMPLE_P4)
        text, bindings = generate_declarations(None, pipeline.p4info)
        assert (
            "typedef in_vlan_action_t = InVlanActionSetVlan{vid: bit<12>} "
            "| InVlanActionDrop" in text
        )
        assert (
            "output relation InVlan(ingress_port: bit<16>, "
            "action: in_vlan_action_t)" in text
        )
        binding = bindings.table_relations["InVlan"]
        assert binding.actions_by_constructor["InVlanActionSetVlan"] == (
            "set_vlan",
            1,
        )
        assert not binding.has_priority

    def test_generated_text_parses(self):
        from repro.dlog.parser import parse_program

        schema = simple_schema(
            "db",
            {
                "T": {
                    "a": "string",
                    "b": "?integer",
                    "c": "*string",
                    "d": "map<string,string>",
                }
            },
        )
        pipeline = compile_p4(SIMPLE_P4)
        text, _ = generate_declarations(schema, pipeline.p4info)
        prog = parse_program(text)
        assert {r.name for r in prog.relations} == {"T", "InVlan"}


class TestNerpaBuild:
    SCHEMA = simple_schema(
        "net", {"PortCfg": {"port": "integer", "vlan": "integer"}}
    )

    def test_build_succeeds(self):
        project = nerpa_build(
            self.SCHEMA,
            """
            InVlan(p as bit<16>, InVlanActionSetVlan{v as bit<12>}) :-
                PortCfg(_, p, v).
            """,
            SIMPLE_P4,
        )
        assert "InVlan" in project.bindings.table_relations
        assert project.program.output_relations == ["InVlan"]

    def test_cross_plane_type_error_caught(self):
        # Rule head writes a string where the P4 table wants bit<16>:
        # the cross-plane typecheck must reject it.
        with pytest.raises(TypeCheckError):
            nerpa_build(
                self.SCHEMA,
                """
                InVlan(name, InVlanActionDrop) :- PortCfg(_, p, v),
                    var name = "oops".
                """,
                SIMPLE_P4,
            )

    def test_unknown_action_constructor_caught(self):
        with pytest.raises(TypeCheckError):
            nerpa_build(
                self.SCHEMA,
                "InVlan(p as bit<16>, InVlanActionNonesuch) :- PortCfg(_, p, _).",
                SIMPLE_P4,
            )

    def test_uncovered_output_relation_rejected(self):
        with pytest.raises(TypeCheckError, match="does not correspond"):
            nerpa_build(
                self.SCHEMA,
                """
                output relation Dangling(x: bigint)
                Dangling(p) :- PortCfg(_, p, _).
                """,
                SIMPLE_P4,
            )

    def test_schema_as_json_dict(self):
        project = nerpa_build(
            self.SCHEMA.to_json(),
            "InVlan(p as bit<16>, InVlanActionDrop) :- PortCfg(_, p, _).",
            SIMPLE_P4,
        )
        assert project.schema.name == "net"
