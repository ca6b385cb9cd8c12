"""The three full-stack programs the benchmark drives.

Each is the usual three artifacts (management schema, dlog rules, P4)
plus the *marker*: a one-row ``Beat(seq)`` management table whose rule
derives the single entry of a ``probe`` P4 table.  Every benchmark
commit bumps ``Beat.seq`` in the same transaction as its payload, and
device batches are atomic, so a device has applied commit *n* exactly
when its ``probe`` entry carries a seq >= *n*.

The programs live here (not in ``repro.workloads`` or another bench
file) so that a later change under ``src/`` or ``benchmarks/*.py``
cannot alter what the benchmark asks the stack to do.
"""

from repro.mgmt.schema import simple_schema

PROBE_TABLE = "probe"
BEAT_TABLE = "Beat"

_P4_PREAMBLE = """
header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
struct headers_t { eth_t eth; }
struct meta_t {
    bit<8> slot; bit<32> seq;
    bit<16> sw; bit<32> vip; bit<32> backend; bit<16> dst;
}
parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
         inout standard_metadata_t std) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
"""

_PROBE_P4 = """
    action mark(bit<32> seq) { m.seq = seq; }
    table probe {
        key = { m.slot : exact; }
        actions = { mark; drop; }
        default_action = drop();
    }
"""

_PROBE_RULE = (
    "Probe(0 as bit<8>, ProbeActionMark{s as bit<32>}) :- Beat(_, s).\n"
)


def _p4(tables: str, applies: str) -> str:
    return (
        _P4_PREAMBLE
        + "control Ing(inout headers_t hdr, inout meta_t m,\n"
        "            inout standard_metadata_t std) {\n"
        "    action drop() { mark_to_drop(); }\n"
        + tables
        + _PROBE_P4
        + "    apply { " + applies + " probe.apply(); }\n}\n"
    )


class Program:
    """One program's three artifacts."""

    def __init__(self, name, tables, rules, p4_tables, p4_apply):
        self.name = name
        self.schema_tables = dict(tables)
        self.schema_tables[BEAT_TABLE] = {"seq": "integer"}
        self.rules = rules + _PROBE_RULE
        self.p4 = _p4(p4_tables, p4_apply)

    def schema(self):
        """A fresh schema object per build (``Database`` injects its
        lease table into the schema it is given)."""
        return simple_schema(self.name, self.schema_tables)


# E5's program: one management row -> one patch-panel entry.
CHURN = Program(
    "churn",
    {"PortCfg": {"port": "integer", "out_port": "integer"}},
    "Patch(p as bit<16>, PatchActionForward{o as bit<16>}) "
    ":- PortCfg(_, p, o).\n",
    """
    action forward(bit<16> port) { std.egress_spec = port; }
    table patch {
        key = { std.ingress_port : exact; }
        actions = { forward; drop; }
        default_action = drop();
    }
""",
    "patch.apply();",
)

# E3's program: every (load balancer, backend) pair expands into one
# NAT entry per attached switch, so derived state is 8x the input.
LB = Program(
    "lb",
    {
        "LbVip": {"lb": "integer", "vip": "integer", "backend": "integer"},
        "LbSwitch": {"lb": "integer", "switch": "integer"},
    },
    "Nat(sw as bit<16>, vip as bit<32>, b as bit<32>, "
    "NatActionDnat{b as bit<32>}) "
    ":- LbSwitch(_, lb, sw), LbVip(_, lb, vip, b).\n",
    """
    action dnat(bit<32> addr) { m.backend = addr; }
    table nat {
        key = { m.sw : exact; m.vip : exact; m.backend : exact; }
        actions = { dnat; drop; }
        default_action = drop();
        size = 65536;
    }
""",
    "nat.apply();",
)

#: Longest walk ``Hop`` explores.  A fat-tree's shortest paths are at
#: most 4 hops; 6 leaves room for the detour a failed link forces.
MAX_HOPS = 4

# Link-state shortest-path routing: bounded-hop recursive walks tagged
# with their first hop, ``min`` for the distance, ``min`` again to pick
# one next hop among equal-cost ones.
REROUTE = Program(
    "reroute",
    {"Link": {"src": "integer", "dst": "integer"}},
    f"""
relation Hop(src: bigint, dst: bigint, first: bigint, n: bigint)
relation Dist(src: bigint, dst: bigint, d: bigint)
relation NextHop(src: bigint, dst: bigint, first: bigint)

Hop(a, b, b, 1) :- Link(_, a, b).
Hop(a, c, f, n + 1) :- Hop(a, b, f, n), n < {MAX_HOPS}, Link(_, b, c), a != c.
Dist(a, c, d) :- Hop(a, c, _, n), var d = Aggregate((a, c), min(n)).
NextHop(a, c, f) :- Dist(a, c, d), Hop(a, c, h, d),
    var f = Aggregate((a, c), min(h)).
Route(a as bit<16>, c as bit<16>, RouteActionForward{{f as bit<16>}})
    :- NextHop(a, c, f).
""",
    """
    action forward(bit<16> port) { std.egress_spec = port; }
    table route {
        key = { m.sw : exact; m.dst : exact; }
        actions = { forward; drop; }
        default_action = drop();
        size = 65536;
    }
""",
    "route.apply();",
)
