#!/usr/bin/env python3
"""A static L3 router as a full-stack Nerpa program.

The paper closes by planning "bottom-up implementations of increasingly
complex network programs"; this example is the next step up from snvs:
an IPv4 router whose routing table entries use **longest-prefix match**,
derived from management-plane route rows.  It shows lpm-typed output
relations — the generated column type is a ``(value, prefix_len)``
pair — and header rewriting in the data plane.

Run:  python examples/l3_router.py
"""

from repro.core import NerpaController, nerpa_build
from repro.mgmt.database import Database
from repro.mgmt.schema import simple_schema
from repro.p4.headers import (
    ETHERTYPE_IPV4,
    EthernetView,
    ethernet,
    ipv4,
    mac_to_int,
)

SCHEMA = simple_schema(
    "router",
    {
        "StaticRoute": {
            "prefix": "string",      # dotted quad, e.g. "10.1.0.0"
            "prefix_len": "integer",
            "next_hop_mac": "integer",
            "out_port": "integer",
        }
    },
)

ROUTER_P4 = """
header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
header ipv4_t {
    bit<4>  version; bit<4> ihl; bit<8> tos; bit<16> total_len;
    bit<16> identification; bit<3> flags; bit<13> frag_offset;
    bit<8>  ttl; bit<8> protocol; bit<16> checksum;
    bit<32> src; bit<32> dst;
}
struct headers_t { eth_t eth; ipv4_t ip; }
struct meta_t { bit<1> pad; }

parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
         inout standard_metadata_t std) {
    state start {
        pkt.extract(hdr.eth);
        transition select(hdr.eth.ethertype) {
            0x0800: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 { pkt.extract(hdr.ip); transition accept; }
}

control Ing(inout headers_t hdr, inout meta_t m,
            inout standard_metadata_t std) {
    action drop() { mark_to_drop(); }
    action route(bit<48> next_mac, bit<16> port) {
        hdr.eth.src = hdr.eth.dst;
        hdr.eth.dst = next_mac;
        hdr.ip.ttl = hdr.ip.ttl - 1;
        std.egress_spec = port;
    }
    table routes {
        key = { hdr.ip.dst : lpm; }
        actions = { route; drop; }
        default_action = drop();
        size = 16384;
    }
    apply {
        if (hdr.ip.isValid()) {
            if (hdr.ip.ttl == 0) { drop(); } else { routes.apply(); }
        } else {
            drop();
        }
    }
}
"""

# The control plane: the route table's lpm key column is a
# (value, prefix_len) pair.  parse_ip converts dotted-quad strings.
ROUTER_RULES = """
function parse_ip(s: string): bit<32> {
    parse_octets(string_split(s, "."))
}
function parse_octets(parts: Vec<string>): bit<32> {
    octet(parts, 0) * 16777216 + octet(parts, 1) * 65536 +
    octet(parts, 2) * 256 + octet(parts, 3)
}
function octet(parts: Vec<string>, i: bigint): bit<32> {
    unwrap_or(parse_int(unwrap_or(vec_at(parts, i), "0")), 0) as bit<32>
}

Routes((parse_ip(prefix), len),
       RoutesActionRoute{mac as bit<48>, port as bit<16>}) :-
    StaticRoute(_, prefix, len, mac, port).
"""

NEXT_HOP_A = "02:00:00:00:00:aa"
NEXT_HOP_B = "02:00:00:00:00:bb"
ROUTER_MAC = "02:00:00:00:00:01"
HOST_MAC = "02:00:00:00:00:02"


def send(router, dst_ip):
    frame = ethernet(
        ROUTER_MAC,
        HOST_MAC,
        ethertype=ETHERTYPE_IPV4,
        payload=ipv4("10.0.0.1", dst_ip, payload=b"ping"),
    )
    return router.inject(0, frame)


def main():
    project = nerpa_build(SCHEMA, ROUTER_RULES, ROUTER_P4)
    print("Generated route relation:")
    for line in project.generated_source.splitlines():
        if "Routes" in line:
            print(" ", line)

    db = Database(project.schema)
    router = project.new_simulator(n_ports=8)
    controller = NerpaController(project, db, [router]).start()

    print("\nInstalling routes 10.1.0.0/16 -> port 2, 10.1.2.0/24 -> port 3")
    db.transact(
        [
            {
                "op": "insert",
                "table": "StaticRoute",
                "row": {
                    "prefix": "10.1.0.0",
                    "prefix_len": 16,
                    "next_hop_mac": mac_to_int(NEXT_HOP_A),
                    "out_port": 2,
                },
            },
            {
                "op": "insert",
                "table": "StaticRoute",
                "row": {
                    "prefix": "10.1.2.0",
                    "prefix_len": 24,
                    "next_hop_mac": mac_to_int(NEXT_HOP_B),
                    "out_port": 3,
                },
            },
        ]
    )
    controller.drain()  # wait for the pipeline to program the router

    for dst in ("10.1.9.9", "10.1.2.9", "192.168.0.1"):
        outputs = send(router, dst)
        if outputs:
            ((port, data),) = outputs
            print(f"  {dst:>12} -> port {port}, next hop {EthernetView(data).dst}")
        else:
            print(f"  {dst:>12} -> dropped (no route)")

    print("\nWithdrawing the /24...")
    db.transact(
        [
            {
                "op": "delete",
                "table": "StaticRoute",
                "where": [["prefix_len", "==", 24]],
            }
        ]
    )
    controller.drain()
    ((port, _),) = send(router, "10.1.2.9")
    print(f"  10.1.2.9 now follows the /16 -> port {port}")
    assert port == 2
    controller.stop()


if __name__ == "__main__":
    main()
