"""Tests for the P4 subset parser, compiler, tables, and simulator."""

import pytest

from repro.dlog.parser import parse_program
from repro.errors import DataPlaneError, ParseError, RuntimeApiError
from repro.p4.headers import ethernet, mac_to_int
from repro.p4.ir import compile_p4
from repro.p4.parser import parse_p4
from repro.p4.simulator import Simulator
from repro.p4.tables import FieldMatch, TableEntry, TableState

# A small L2 switch: VLAN assignment on ingress port, MAC learning via
# digest, L2 forwarding with flood fallback.
SWITCH_P4 = """
header ethernet_t {
    bit<48> dst;
    bit<48> src;
    bit<16> ethertype;
}

struct headers_t {
    ethernet_t eth;
}

struct metadata_t {
    bit<12> vlan;
    bit<1>  flood;
}

struct mac_learn_t {
    bit<48> mac;
    bit<16>  port;
    bit<12> vlan;
}

parser MyParser(packet_in pkt, out headers_t hdr, inout metadata_t meta,
                inout standard_metadata_t std) {
    state start {
        pkt.extract(hdr.eth);
        transition accept;
    }
}

control MyIngress(inout headers_t hdr, inout metadata_t meta,
                  inout standard_metadata_t std) {
    action drop() { mark_to_drop(); }
    action set_vlan(bit<12> vid) { meta.vlan = vid; }
    action learn() {
        digest(mac_learn_t, {hdr.eth.src, std.ingress_port, meta.vlan});
    }
    action forward(bit<16> port) { std.egress_spec = port; }
    action flood() { std.mcast_grp = 1; }

    table in_vlan {
        key = { std.ingress_port : exact; }
        actions = { set_vlan; drop; }
        default_action = drop();
        size = 512;
    }
    table learned {
        key = { meta.vlan : exact; hdr.eth.src : exact; }
        actions = { NoAction; learn; }
        default_action = learn();
    }
    table fwd {
        key = { meta.vlan : exact; hdr.eth.dst : exact; }
        actions = { forward; flood; }
        default_action = flood();
    }
    apply {
        in_vlan.apply();
        learned.apply();
        fwd.apply();
    }
}

control MyEgress(inout headers_t hdr, inout metadata_t meta,
                 inout standard_metadata_t std) {
    apply {
        if (std.egress_port == std.ingress_port) {
            mark_to_drop();
        }
    }
}
"""


@pytest.fixture()
def pipeline():
    return compile_p4(SWITCH_P4)


@pytest.fixture()
def sim(pipeline):
    s = Simulator(pipeline, n_ports=8)
    s.set_multicast_group(1, list(range(8)))
    for port in range(8):
        s.table("in_vlan").insert(
            TableEntry([FieldMatch.exact(port)], "set_vlan", [10])
        )
    return s


def frame(dst, src):
    return ethernet(dst, src, payload=b"payload")


class TestParsing:
    def test_program_structure(self):
        prog = parse_p4(SWITCH_P4)
        assert set(prog.headers) == {"ethernet_t"}
        assert set(prog.structs) == {"headers_t", "metadata_t", "mac_learn_t"}
        assert len(prog.parsers) == 1
        assert list(prog.controls) == ["MyIngress", "MyEgress"]

    def test_table_properties(self):
        prog = parse_p4(SWITCH_P4)
        table = prog.controls["MyIngress"].tables["in_vlan"]
        assert table.size == 512
        assert table.default_action == "drop"
        assert [k.match_kind for k in table.keys] == ["exact"]

    def test_select_parser(self):
        prog = parse_p4(
            """
            header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
            header vlan_t { bit<3> pcp; bit<1> dei; bit<12> vid; bit<16> ethertype; }
            struct headers_t { eth_t eth; vlan_t vlan; }
            struct meta_t { bit<1> pad; }
            parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
                     inout standard_metadata_t std) {
                state start {
                    pkt.extract(hdr.eth);
                    transition select(hdr.eth.ethertype) {
                        0x8100: parse_vlan;
                        default: accept;
                    }
                }
                state parse_vlan { pkt.extract(hdr.vlan); transition accept; }
            }
            control C(inout headers_t hdr, inout meta_t m,
                      inout standard_metadata_t std) {
                apply { }
            }
            """
        )
        parser = next(iter(prog.parsers.values()))
        assert set(parser.states) == {"start", "parse_vlan"}

    def test_missing_start_state_rejected(self):
        with pytest.raises(ParseError, match="start"):
            parse_p4(
                """
                struct h_t { bit<8> x; }
                parser P(packet_in pkt, out h_t hdr) {
                    state other { transition accept; }
                }
                """
            )

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_p4, "header h { bit<8> a; ", "expected 'ident', found end of input"),
            (parse_p4, "const bit<8> X = 3", "expected ';', found end of input"),
            (parse_p4, "control C() { apply { if (", "expected expression, found end of input"),
            (parse_program, "input relation R(x: bit<8>", "expected ')', found end of input"),
        ],
        ids=["p4-field", "p4-const", "p4-expression", "dlog"],
    )
    def test_a_parse_error_at_end_of_input_names_it(self, parse, text, message):
        """Both languages word it alike (P4 used to print the eof
        token's value, None)."""
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert caught.value.message == message
        assert caught.value.column == len(text) + 1

    def test_missing_apply_rejected(self):
        with pytest.raises(ParseError, match="apply"):
            parse_p4(
                """
                struct h_t { bit<8> x; }
                control C(inout h_t hdr) { action a() { } }
                """
            )


class TestCompile:
    def test_p4info_tables(self, pipeline):
        info = pipeline.p4info
        assert set(info.tables) == {"in_vlan", "learned", "fwd"}
        fwd = info.table("fwd")
        assert [f.width for f in fwd.match_fields] == [12, 48]
        assert fwd.default_action == "flood"

    def test_p4info_digest(self, pipeline):
        digest = pipeline.p4info.digests["mac_learn_t"]
        assert [f.name for f in digest.fields] == ["mac", "port", "vlan"]
        assert [f.width for f in digest.fields] == [48, 16, 12]

    def test_p4info_action_params(self, pipeline):
        fwd = pipeline.p4info.action("forward")
        assert [p.width for p in fwd.params] == [16]

    def test_unknown_field_rejected(self):
        bad = SWITCH_P4.replace("hdr.eth.dst", "hdr.eth.nonesuch")
        with pytest.raises(DataPlaneError, match="nonesuch"):
            compile_p4(bad)

    def test_unknown_action_in_table_rejected(self):
        bad = SWITCH_P4.replace("actions = { forward; flood; }",
                                "actions = { forward; missing_action; }")
        with pytest.raises(DataPlaneError, match="missing_action"):
            compile_p4(bad)

    def test_digest_field_count_mismatch(self):
        bad = SWITCH_P4.replace(
            "{hdr.eth.src, std.ingress_port, meta.vlan}",
            "{hdr.eth.src, std.ingress_port}",
        )
        with pytest.raises(DataPlaneError, match="digest"):
            compile_p4(bad)


class TestTableState:
    def _info(self, kinds, widths):
        from repro.p4.p4info import ActionParam, MatchField, P4Info

        info = P4Info()
        info.add_action("act", [ActionParam("p", 16)])
        return info.add_table(
            "t",
            [MatchField(f"k{i}", w, k) for i, (k, w) in enumerate(zip(kinds, widths))],
            ["act"],
            None,
            1024,
        )

    def test_exact_lookup(self):
        state = TableState(self._info(["exact"], [16]))
        state.insert(TableEntry([FieldMatch.exact(5)], "act", [9]))
        assert state.lookup([5]) == ("act", (9,), True)
        assert state.lookup([6]) == (None, (), False)

    def test_lpm_longest_prefix_wins(self):
        state = TableState(self._info(["lpm"], [32]))
        state.insert(TableEntry([FieldMatch.lpm(0x0A000000, 8)], "act", [1]))
        state.insert(TableEntry([FieldMatch.lpm(0x0A010000, 16)], "act", [2]))
        assert state.lookup([0x0A010203])[1] == (2,)
        assert state.lookup([0x0A990203])[1] == (1,)
        assert state.lookup([0x0B000000])[0] is None

    def test_lpm_default_route(self):
        state = TableState(self._info(["lpm"], [32]))
        state.insert(TableEntry([FieldMatch.lpm(0, 0)], "act", [99]))
        assert state.lookup([0xDEADBEEF])[1] == (99,)

    def test_ternary_priority(self):
        state = TableState(self._info(["ternary"], [8]))
        state.insert(
            TableEntry([FieldMatch.ternary(0x80, 0x80)], "act", [1], priority=10)
        )
        state.insert(
            TableEntry([FieldMatch.ternary(0xFF, 0xFF)], "act", [2], priority=20)
        )
        assert state.lookup([0xFF])[1] == (2,)
        assert state.lookup([0x81])[1] == (1,)
        assert state.lookup([0x01])[0] is None

    def test_ternary_requires_priority(self):
        state = TableState(self._info(["ternary"], [8]))
        with pytest.raises(RuntimeApiError, match="priority"):
            state.insert(TableEntry([FieldMatch.ternary(1, 1)], "act", [1]))

    def test_duplicate_entry_rejected(self):
        state = TableState(self._info(["exact"], [8]))
        state.insert(TableEntry([FieldMatch.exact(1)], "act", [1]))
        with pytest.raises(RuntimeApiError, match="duplicate"):
            state.insert(TableEntry([FieldMatch.exact(1)], "act", [2]))

    def test_modify_and_delete(self):
        state = TableState(self._info(["exact"], [8]))
        state.insert(TableEntry([FieldMatch.exact(1)], "act", [1]))
        state.modify(TableEntry([FieldMatch.exact(1)], "act", [7]))
        assert state.lookup([1])[1] == (7,)
        state.delete(TableEntry([FieldMatch.exact(1)], "act", []))
        assert state.lookup([1])[0] is None

    def test_delete_missing_rejected(self):
        state = TableState(self._info(["exact"], [8]))
        with pytest.raises(RuntimeApiError):
            state.delete(TableEntry([FieldMatch.exact(1)], "act", []))

    def test_value_out_of_range_rejected(self):
        state = TableState(self._info(["exact"], [8]))
        with pytest.raises(RuntimeApiError, match="range"):
            state.insert(TableEntry([FieldMatch.exact(256)], "act", [1]))

    def test_capacity_enforced(self):
        from repro.p4.p4info import ActionParam, MatchField, P4Info

        info = P4Info()
        info.add_action("act", [])
        tinfo = info.add_table(
            "t", [MatchField("k", 8, "exact")], ["act"], None, 2
        )
        state = TableState(tinfo)
        state.insert(TableEntry([FieldMatch.exact(1)], "act", []))
        state.insert(TableEntry([FieldMatch.exact(2)], "act", []))
        with pytest.raises(RuntimeApiError, match="full"):
            state.insert(TableEntry([FieldMatch.exact(3)], "act", []))

    def test_mixed_exact_lpm(self):
        state = TableState(self._info(["exact", "lpm"], [12, 32]))
        state.insert(
            TableEntry(
                [FieldMatch.exact(10), FieldMatch.lpm(0x0A000000, 8)], "act", [5]
            )
        )
        assert state.lookup([10, 0x0A123456])[1] == (5,)
        assert state.lookup([11, 0x0A123456])[0] is None


class TestSimulator:
    A = "aa:00:00:00:00:01"
    B = "aa:00:00:00:00:02"

    def test_unknown_dst_floods_except_ingress(self, sim):
        outputs = sim.inject(1, frame(self.B, self.A))
        ports = sorted(p for p, _ in outputs)
        assert ports == [0, 2, 3, 4, 5, 6, 7]  # egress drops hairpin

    def test_digest_emitted_for_unknown_src(self, sim):
        sim.inject(1, frame(self.B, self.A))
        digests = sim.drain_digests()
        assert len(digests) == 1
        assert digests[0].name == "mac_learn_t"
        assert digests[0].values == (mac_to_int(self.A), 1, 10)

    def test_known_dst_unicast(self, sim):
        # Control plane installs what learning would produce.
        sim.table("fwd").insert(
            TableEntry(
                [FieldMatch.exact(10), FieldMatch.exact(mac_to_int(self.B))],
                "forward",
                [2],
            )
        )
        outputs = sim.inject(1, frame(self.B, self.A))
        assert [p for p, _ in outputs] == [2]

    def test_learned_entry_suppresses_digest(self, sim):
        sim.table("learned").insert(
            TableEntry(
                [FieldMatch.exact(10), FieldMatch.exact(mac_to_int(self.A))],
                "NoAction",
                [],
            )
        )
        sim.inject(1, frame(self.B, self.A))
        assert sim.drain_digests() == []

    def test_unconfigured_port_drops(self, pipeline):
        s = Simulator(pipeline, n_ports=8)  # no in_vlan entries: default drop
        assert s.inject(3, frame(self.B, self.A)) == []
        assert s.dropped == 1

    def test_packet_bytes_preserved(self, sim):
        sim.table("fwd").insert(
            TableEntry(
                [FieldMatch.exact(10), FieldMatch.exact(mac_to_int(self.B))],
                "forward",
                [2],
            )
        )
        original = frame(self.B, self.A)
        ((_, out),) = sim.inject(1, original)
        assert out == original  # this program does not rewrite headers

    def test_short_packet_rejected_by_parser(self, sim):
        assert sim.inject(1, b"\x01\x02") == []

    def test_stats(self, sim):
        sim.inject(1, frame(self.B, self.A))
        stats = sim.stats()
        assert stats["rx"][1] == 1
        assert stats["tables"]["in_vlan"] == 8

    def test_bad_port_rejected(self, sim):
        with pytest.raises(DataPlaneError):
            sim.inject(99, frame(self.B, self.A))


class TestVlanRewrite:
    """A pipeline that pushes/strips 802.1Q tags exercises header
    validity manipulation and deparsing."""

    P4 = """
    header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
    header vlan_t { bit<3> pcp; bit<1> dei; bit<12> vid; bit<16> ethertype; }
    struct headers_t { eth_t eth; vlan_t vlan; }
    struct meta_t { bit<12> vlan; }

    parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
             inout standard_metadata_t std) {
        state start {
            pkt.extract(hdr.eth);
            transition select(hdr.eth.ethertype) {
                0x8100: parse_vlan;
                default: accept;
            }
        }
        state parse_vlan { pkt.extract(hdr.vlan); transition accept; }
    }

    control Ing(inout headers_t hdr, inout meta_t m,
                inout standard_metadata_t std) {
        action out_tagged(bit<16> port, bit<12> vid) {
            hdr.vlan.setValid();
            hdr.vlan.ethertype = hdr.eth.ethertype;
            hdr.eth.ethertype = 0x8100;
            hdr.vlan.vid = vid;
            hdr.vlan.pcp = 0;
            hdr.vlan.dei = 0;
            std.egress_spec = port;
        }
        action out_untagged(bit<16> port) {
            if (hdr.vlan.isValid()) {
                hdr.eth.ethertype = hdr.vlan.ethertype;
                hdr.vlan.setInvalid();
            }
            std.egress_spec = port;
        }
        table out_port {
            key = { std.ingress_port : exact; }
            actions = { out_tagged; out_untagged; }
            default_action = out_untagged(0);
        }
        apply { out_port.apply(); }
    }
    """

    def test_push_tag(self):
        sim = Simulator(compile_p4(self.P4), n_ports=4)
        sim.table("out_port").insert(
            TableEntry([FieldMatch.exact(1)], "out_tagged", [2, 99])
        )
        plain = ethernet("aa:00:00:00:00:02", "aa:00:00:00:00:01", payload=b"zz")
        ((port, out),) = sim.inject(1, plain)
        assert port == 2
        from repro.p4.headers import EthernetView

        view = EthernetView(out)
        assert view.vlan == 99
        assert view.payload == b"zz"

    def test_strip_tag(self):
        sim = Simulator(compile_p4(self.P4), n_ports=4)
        sim.table("out_port").insert(
            TableEntry([FieldMatch.exact(1)], "out_untagged", [3])
        )
        tagged = ethernet(
            "aa:00:00:00:00:02", "aa:00:00:00:00:01", vlan=55, payload=b"zz"
        )
        ((port, out),) = sim.inject(1, tagged)
        assert port == 3
        from repro.p4.headers import EthernetView

        view = EthernetView(out)
        assert view.vlan is None
        assert view.payload == b"zz"
