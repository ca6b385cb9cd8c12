"""The three snvs artifacts: management schema, rules, data plane.

The feature set mirrors the paper's description of snvs: "key
networking features, including VLANs, MAC learning, and port
mirroring", plus a small L2 ACL so negation appears in the rules.

How a packet flows (see :data:`SNVS_P4`):

1. the parser extracts Ethernet and an optional 802.1Q tag;
2. ``in_vlan`` classifies the packet into a VLAN based on ingress port
   and tag (access ports assign their tag and reject tagged frames;
   trunk ports accept configured tags and assign the native VLAN to
   untagged frames);
3. ``blocked`` drops frames from blocked MACs (from the ACL table);
4. ``learned`` emits a MAC-learning digest when the source is unknown;
5. ``fwd`` forwards to a learned port or floods the VLAN's multicast
   group (group id = VLAN id, membership computed by the rules);
6. ``mirror`` clones traffic from mirrored ingress ports;
7. the egress control drops hairpins and re-tags per output port
   (trunk ports emit tagged, access ports untagged).
"""

from __future__ import annotations

from repro.core.pipeline import NerpaProject, nerpa_build
from repro.mgmt.schema import (
    ColumnSchema,
    ColumnType,
    DatabaseSchema,
    TableSchema,
)


def snvs_schema() -> DatabaseSchema:
    """The snvs management schema: 5 tables, 2-5 columns each."""
    return DatabaseSchema(
        "snvs",
        [
            TableSchema(
                "Port",
                [
                    ColumnSchema("name", ColumnType("string")),
                    ColumnSchema("port_num", ColumnType("integer")),
                    # "access" or "trunk"
                    ColumnSchema("vlan_mode", ColumnType("string")),
                    # access VLAN, or native VLAN for trunks
                    ColumnSchema("tag", ColumnType("integer")),
                    ColumnSchema(
                        "trunks", ColumnType("integer", min=0, max="unlimited")
                    ),
                ],
                indexes=[("port_num",)],
            ),
            TableSchema(
                "Vlan",
                [
                    ColumnSchema("vid", ColumnType("integer")),
                    ColumnSchema("description", ColumnType("string")),
                ],
                indexes=[("vid",)],
            ),
            TableSchema(
                "Mirror",
                [
                    ColumnSchema("name", ColumnType("string")),
                    ColumnSchema("src_port", ColumnType("integer")),
                    ColumnSchema("dst_port", ColumnType("integer")),
                ],
            ),
            TableSchema(
                "BlockedMac",
                [
                    ColumnSchema("vlan", ColumnType("integer")),
                    ColumnSchema("mac", ColumnType("integer")),
                ],
            ),
            TableSchema(
                "SwitchConfig",
                [
                    ColumnSchema("name", ColumnType("string")),
                    ColumnSchema("learning_enabled", ColumnType("boolean")),
                ],
            ),
        ],
    )


SNVS_SCHEMA = snvs_schema()


SNVS_P4 = """
// snvs data plane: VLAN-aware learning L2 switch with mirroring.

header ethernet_t {
    bit<48> dst;
    bit<48> src;
    bit<16> ethertype;
}

header vlan_t {
    bit<3>  pcp;
    bit<1>  dei;
    bit<12> vid;
    bit<16> ethertype;
}

struct headers_t {
    ethernet_t eth;
    vlan_t     vlan;
}

struct metadata_t {
    bit<12> vlan;     // VLAN the packet was classified into
    bit<12> pkt_vid;  // VID carried by the packet's tag (0 if untagged)
    bit<1>  tagged;
    bit<1>  ok;       // cleared when an ACL/classification drop fires
}

struct mac_learn_t {
    bit<48> mac;
    bit<16>  port;
    bit<12> vlan;
}

parser SnvsParser(packet_in pkt, out headers_t hdr, inout metadata_t meta,
                  inout standard_metadata_t std) {
    state start {
        pkt.extract(hdr.eth);
        transition select(hdr.eth.ethertype) {
            0x8100: parse_vlan;
            default: accept;
        }
    }
    state parse_vlan {
        pkt.extract(hdr.vlan);
        transition accept;
    }
}

control SnvsIngress(inout headers_t hdr, inout metadata_t meta,
                    inout standard_metadata_t std) {
    action drop() {
        mark_to_drop();
        meta.ok = 0;
    }
    action set_vlan(bit<12> vid) { meta.vlan = vid; }
    action use_tag() { meta.vlan = meta.pkt_vid; }
    action learn() {
        digest(mac_learn_t, {hdr.eth.src, std.ingress_port, meta.vlan});
    }
    action forward(bit<16> port) { std.egress_spec = port; }
    action flood() { std.mcast_grp = meta.vlan; }
    action mirror_to(bit<16> port) { clone_port(port); }

    table in_vlan {
        key = {
            std.ingress_port : exact;
            meta.tagged      : exact;
            meta.pkt_vid     : ternary;
        }
        actions = { set_vlan; use_tag; drop; }
        default_action = drop();
        size = 65536;
    }
    table blocked {
        key = { meta.vlan : exact; hdr.eth.src : exact; }
        actions = { drop; NoAction; }
        default_action = NoAction();
        size = 4096;
    }
    table learned {
        key = { meta.vlan : exact; hdr.eth.src : exact; }
        actions = { NoAction; learn; }
        default_action = learn();
        size = 65536;
    }
    table fwd {
        key = { meta.vlan : exact; hdr.eth.dst : exact; }
        actions = { forward; flood; }
        default_action = flood();
        size = 65536;
    }
    table mirror_tap {
        key = { std.ingress_port : exact; }
        actions = { mirror_to; NoAction; }
        default_action = NoAction();
        size = 4096;
    }

    apply {
        meta.ok = 1;
        if (hdr.vlan.isValid()) {
            meta.tagged = 1;
            meta.pkt_vid = hdr.vlan.vid;
        } else {
            meta.tagged = 0;
            meta.pkt_vid = 0;
        }
        in_vlan.apply();
        if (meta.ok == 1) {
            blocked.apply();
        }
        if (meta.ok == 1) {
            learned.apply();
            fwd.apply();
        }
        mirror_tap.apply();
    }
}

control SnvsEgress(inout headers_t hdr, inout metadata_t meta,
                   inout standard_metadata_t std) {
    action out_tagged() {
        if (!hdr.vlan.isValid()) {
            hdr.vlan.setValid();
            hdr.vlan.ethertype = hdr.eth.ethertype;
            hdr.eth.ethertype = 0x8100;
            hdr.vlan.pcp = 0;
            hdr.vlan.dei = 0;
        }
        hdr.vlan.vid = meta.vlan;
    }
    action out_untagged() {
        if (hdr.vlan.isValid()) {
            hdr.eth.ethertype = hdr.vlan.ethertype;
            hdr.vlan.setInvalid();
        }
    }

    table out_tag {
        key = { std.egress_port : exact; }
        actions = { out_tagged; out_untagged; }
        default_action = out_untagged();
        size = 65536;
    }

    apply {
        if (std.egress_port == std.ingress_port) {
            mark_to_drop();
        } else {
            out_tag.apply();
        }
    }
}
"""


SNVS_DLOG = """
// snvs control plane.  Input relations (Port, Vlan, Mirror, BlockedMac,
// SwitchConfig, MacLearn) and output relations (InVlan, Blocked,
// Learned, Fwd, MirrorTap, OutTag) are generated from the schema and
// the P4 program; only the rules below are hand-written.

// Which VLANs each port participates in (only declared VLANs count).
relation PortVlan(port: bigint, vlan: bigint)
PortVlan(p, t) :- Port(_, _, p, "access", t, _), Vlan(_, t, _).
PortVlan(p, t) :- Port(_, _, p, "trunk", t, _), Vlan(_, t, _).
PortVlan(p, v) :- Port(_, _, p, "trunk", _, trunks),
                  var v = FlatMap(trunks), Vlan(_, v, _).

// ---- VLAN classification (table in_vlan) -------------------------------
// Access port, untagged frame: classify into the access VLAN.
InVlan(p as bit<16>, 0, (0, 0), InVlanActionSetVlan{t as bit<12>}, 1) :-
    Port(_, _, p, "access", t, _), Vlan(_, t, _).
// Trunk port, untagged frame: native VLAN.
InVlan(p as bit<16>, 0, (0, 0), InVlanActionSetVlan{t as bit<12>}, 1) :-
    Port(_, _, p, "trunk", t, _), Vlan(_, t, _).
// Trunk port, tagged frame with an allowed VID: use the tag.
InVlan(p as bit<16>, 1, (v as bit<12>, 4095), InVlanActionUseTag, 2) :-
    Port(_, _, p, "trunk", _, trunks), var v = FlatMap(trunks), Vlan(_, v, _).
// (Anything else falls through to in_vlan's default drop.)

// ---- L2 ACL (table blocked) ---------------------------------------------
Blocked(v as bit<12>, m as bit<48>, BlockedActionDrop) :-
    BlockedMac(_, v, m).

// ---- MAC learning (tables learned / fwd, fed by the digest loop) --------
// One (vlan, mac) may momentarily be reported at several ports (station
// moves); pick the highest port deterministically.
relation MacAt(vlan: bit<12>, mac: bit<48>, port: bit<16>)
MacAt(vlan, mac, port) :- MacLearn(mac, port, vlan), LearningOn().

Learned(vlan, mac, LearnedActionNoAction) :- MacAt(vlan, mac, _).
Fwd(vlan, mac, FwdActionForward{p}) :-
    MacAt(vlan, mac, port), var p = Aggregate((vlan, mac), max(port)).

// Learning can be disabled fleet-wide from the management plane.
relation LearningOn()
LearningOn() :- SwitchConfig(_, _, true).

// ---- Flooding (multicast groups; group id = VLAN id) ---------------------
// MulticastGroup is interpreted by the controller as replication
// configuration rather than a P4 table.
output relation MulticastGroup(group: bigint, port: bigint)
MulticastGroup(v, p) :- PortVlan(p, v).

// ---- Port mirroring (table mirror_tap) -------------------------------------
MirrorTap(sp as bit<16>, MirrorTapActionMirrorTo{dp as bit<16>}) :-
    Mirror(_, _, sp, dp).

// ---- Egress tagging (table out_tag) ----------------------------------------
OutTag(p as bit<16>, OutTagActionOutTagged) :- Port(_, _, p, "trunk", _, _).
OutTag(p as bit<16>, OutTagActionOutUntagged) :- Port(_, _, p, "access", _, _).
"""


def build_snvs() -> NerpaProject:
    """Compile the snvs stack into a :class:`NerpaProject`."""
    return nerpa_build(
        SNVS_SCHEMA,
        SNVS_DLOG,
        SNVS_P4,
        dlog_name="snvs.dl",
        p4_name="snvs.p4",
    )
