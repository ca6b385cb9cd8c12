"""Differential tests across independent implementations.

Two executors exist for a compiled pipeline: the behavioral simulator
(bit-level packets) and the OpenFlow lowering (field maps through flow
tables).  For the table-lookup core they must agree — a classic
differential-testing setup that guards both.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p4.ir import compile_p4
from repro.p4.openflow import OFSwitch, compile_to_openflow, instantiate_entries
from repro.p4.simulator import Simulator
from repro.p4.tables import FieldMatch, TableEntry

# One-table pipeline with a ternary+exact key: the hardest lookup mode.
PIPELINE_P4 = """
header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
struct headers_t { eth_t eth; }
struct meta_t { bit<8> cls; }

parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
         inout standard_metadata_t std) {
    state start { pkt.extract(hdr.eth); transition accept; }
}

control Ing(inout headers_t hdr, inout meta_t m,
            inout standard_metadata_t std) {
    action classify(bit<8> cls) { m.cls = cls; }
    action drop() { mark_to_drop(); }
    table acl {
        key = {
            std.ingress_port : exact;
            hdr.eth.ethertype : ternary;
        }
        actions = { classify; drop; }
        default_action = drop();
    }
    apply { acl.apply(); }
}
"""


def random_entries(rng, count):
    entries = []
    used = set()
    for _ in range(count):
        port = rng.randrange(4)
        value = rng.randrange(1 << 16)
        mask = rng.choice([0xFFFF, 0xFF00, 0x00FF, 0xF000, 0x0000])
        priority = rng.randrange(1, 20)
        key = (port, value & mask, mask, priority)
        if key in used:
            continue
        used.add(key)
        entries.append(
            TableEntry(
                [FieldMatch.exact(port), FieldMatch.ternary(value & mask, mask)],
                "classify",
                [rng.randrange(256)],
                priority=priority,
            )
        )
    return entries


class TestSimulatorVsOpenFlow:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_lookup_agreement(self, seed):
        rng = random.Random(seed)
        pipeline = compile_p4(PIPELINE_P4)
        sim = Simulator(pipeline, n_ports=4)
        entries = random_entries(rng, 12)
        for entry in entries:
            sim.table("acl").insert(entry)

        program = compile_to_openflow(pipeline)
        switch = OFSwitch(instantiate_entries(program, sim.tables))

        for _ in range(40):
            port = rng.randrange(4)
            ethertype = rng.randrange(1 << 16)
            action, params, hit = sim.table("acl").lookup([port, ethertype])
            trace = switch.process(
                {"std.ingress_port": port, "hdr.eth.ethertype": ethertype}
            )
            assert trace, "OF switch must always apply some action"
            of_action, of_params = trace[0]
            assert of_action == action
            assert of_params == tuple(params)

    def test_priority_tie_break_matches(self):
        """Same-priority overlapping entries: both executors must use a
        deterministic and identical order (insertion order here)."""
        pipeline = compile_p4(PIPELINE_P4)
        sim = Simulator(pipeline, n_ports=4)
        # Both entries match ethertype 0x1234 at the same priority.
        first = TableEntry(
            [FieldMatch.exact(0), FieldMatch.ternary(0x0034, 0x00FF)],
            "classify",
            [1],
            priority=5,
        )
        second = TableEntry(
            [FieldMatch.exact(0), FieldMatch.ternary(0x1200, 0xFF00)],
            "classify",
            [2],
            priority=5,
        )
        sim.table("acl").insert(first)
        sim.table("acl").insert(second)
        action, params, _ = sim.table("acl").lookup([0, 0x1234])

        program = compile_to_openflow(pipeline)
        switch = OFSwitch(instantiate_entries(program, sim.tables))
        trace = switch.process(
            {"std.ingress_port": 0, "hdr.eth.ethertype": 0x1234}
        )
        assert trace[0] == (action, tuple(params))


class TestMultiDevice:
    def test_controller_programs_all_devices_identically(self):
        from repro.apps.snvs import build_snvs
        from repro.core.controller import NerpaController
        from repro.mgmt.database import Database

        project = build_snvs()
        db = Database(project.schema)
        switches = [project.new_simulator(n_ports=8) for _ in range(3)]
        controller = NerpaController(project, db, switches).start()
        db.transact(
            [
                {"op": "insert", "table": "Vlan",
                 "row": {"vid": 7, "description": ""}},
                {"op": "insert", "table": "Port",
                 "row": {"name": "p0", "port_num": 0,
                         "vlan_mode": "access", "tag": 7}},
            ]
        )
        controller.drain()
        for switch in switches:
            assert len(switch.table("in_vlan")) == 1
            assert switch.multicast_groups[7] == [0]
        db.transact([{"op": "delete", "table": "Port", "where": []}])
        controller.drain()
        for switch in switches:
            assert len(switch.table("in_vlan")) == 0
        controller.stop()


class TestPersistedRestart:
    def test_restore_then_reconcile(self, tmp_path):
        """The full robustness story: database persisted, controller
        and database both restart, device keeps running — the system
        converges without duplicate writes or lost entries."""
        from repro.apps.snvs import build_snvs
        from repro.core.controller import NerpaController
        from repro.mgmt.database import Database
        from repro.mgmt.persist import Persister, restore

        project = build_snvs()
        db = Database(project.schema)
        persister = Persister(db, str(tmp_path))
        switch = project.new_simulator(n_ports=8)
        controller = NerpaController(project, db, [switch]).start()
        db.transact(
            [
                {"op": "insert", "table": "Vlan",
                 "row": {"vid": 5, "description": ""}},
                {"op": "insert", "table": "Port",
                 "row": {"name": "p1", "port_num": 1,
                         "vlan_mode": "access", "tag": 5}},
            ]
        )
        controller.drain()
        entries_before = len(switch.table("in_vlan"))
        controller.stop()
        persister.snapshot()
        persister.close()

        db2 = restore(str(tmp_path))
        assert db2.count("Port") == 1
        with NerpaController(project, db2, [switch]) as controller2:
            assert len(switch.table("in_vlan")) == entries_before
            assert controller2.entries_written == 0  # nothing was stale


# ---------------------------------------------------------------------------
# Incremental engine vs full recompute: property-based fixpoint harness.
# ---------------------------------------------------------------------------

from hypothesis import HealthCheck  # noqa: E402

from repro.baselines.full_recompute import FullRecomputeController  # noqa: E402
from repro.dlog.dataflow.operators import Node  # noqa: E402
from repro.dlog.engine import compile_program  # noqa: E402


def _join_program(r_arity: int, s_arity: int, jr: int, js: int) -> str:
    """A randomized two-relation schema: ``J`` joins R and S on one
    column position, ``OnlyR`` is R anti-joined against S."""
    r_cols = ", ".join(f"r{i}: bigint" for i in range(r_arity))
    s_cols = ", ".join(f"s{i}: bigint" for i in range(s_arity))
    r_vars = [f"x{i}" for i in range(r_arity)]
    s_vars = [f"y{i}" for i in range(s_arity)]
    s_vars[js] = r_vars[jr]  # the shared join variable
    out_vars = r_vars + [v for i, v in enumerate(s_vars) if i != js]
    j_cols = ", ".join(f"c{i}: bigint" for i in range(len(out_vars)))
    neg_args = ["_"] * s_arity
    neg_args[js] = r_vars[jr]
    return f"""
input relation R({r_cols})
input relation S({s_cols})
output relation J({j_cols})
output relation OnlyR({r_cols})
J({", ".join(out_vars)}) :- R({", ".join(r_vars)}), S({", ".join(s_vars)}).
OnlyR({", ".join(r_vars)}) :- R({", ".join(r_vars)}), not S({", ".join(neg_args)}).
"""


def _join_derive(jr: int, js: int):
    """The same semantics, computed from scratch over plain sets."""

    def derive(config):
        rs = config.get("R", set())
        ss = config.get("S", set())
        out = set()
        for r in rs:
            matched = False
            for s in ss:
                if s[js] == r[jr]:
                    matched = True
                    out.add(
                        ("J",)
                        + tuple(r)
                        + tuple(v for i, v in enumerate(s) if i != js)
                    )
            if not matched:
                out.add(("OnlyR",) + tuple(r))
        return out

    return derive


@st.composite
def _join_scenarios(draw):
    r_arity = draw(st.integers(1, 3))
    s_arity = draw(st.integers(1, 3))
    jr = draw(st.integers(0, r_arity - 1))
    js = draw(st.integers(0, s_arity - 1))

    def rows(arity):
        return st.lists(
            st.tuples(*[st.integers(0, 3)] * arity), max_size=5
        )

    batches = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "R+": rows(r_arity),
                    "R-": rows(r_arity),
                    "S+": rows(s_arity),
                    "S-": rows(s_arity),
                }
            ),
            min_size=1,
            max_size=5,
        )
    )
    return r_arity, s_arity, jr, js, batches


REACH_PROGRAM = """
input relation Edge(a: bigint, b: bigint)
output relation Reach(x: bigint, y: bigint)
Reach(x, y) :- Edge(x, y).
Reach(x, z) :- Reach(x, y), Edge(y, z).
"""


def _closure_derive(config):
    edges = config.get("Edge", set())
    reach = set(edges)
    while True:
        new = {
            (x, z)
            for (x, y) in reach
            for (y2, z) in edges
            if y == y2
        } - reach
        if not new:
            break
        reach |= new
    return reach


class TestEngineVsFullRecompute:
    """Property harness: the incremental engine against the
    recompute-everything baseline (`repro.baselines.full_recompute`),
    over randomized relation schemas and insert/delete delta sequences,
    asserting identical fixpoints after every batch."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_join_scenarios())
    def test_join_and_negation_fixpoints_agree(self, scenario):
        r_arity, s_arity, jr, js, batches = scenario
        runtime = compile_program(_join_program(r_arity, s_arity, jr, js)).start()
        baseline = FullRecomputeController(_join_derive(jr, js))
        for batch in batches:
            changes = {
                "inserts": {"R": batch["R+"], "S": batch["S+"]},
                "deletes": {"R": batch["R-"], "S": batch["S-"]},
            }
            runtime.transaction(**changes)
            baseline.apply_change(**changes)
            got = {("J",) + row for row in runtime.dump("J")} | {
                ("OnlyR",) + row for row in runtime.dump("OnlyR")
            }
            assert got == baseline.installed

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "Edge+": st.lists(
                        st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        max_size=6,
                    ),
                    "Edge-": st.lists(
                        st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        max_size=6,
                    ),
                }
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_recursive_reachability_fixpoints_agree(self, batches):
        """DRed (delete–rederive) vs a from-scratch transitive closure:
        cycles and deletions inside cycles are where incremental
        maintenance historically goes wrong."""
        runtime = compile_program(REACH_PROGRAM).start()
        baseline = FullRecomputeController(_closure_derive)
        for batch in batches:
            changes = {
                "inserts": {"Edge": batch["Edge+"]},
                "deletes": {"Edge": batch["Edge-"]},
            }
            runtime.transaction(**changes)
            baseline.apply_change(**changes)
            assert runtime.dump("Reach") == baseline.installed

    def test_duplicate_churn_converges_identically(self):
        """Deterministic regression: duplicate inserts, deletes of
        absent rows, and insert+delete of the same row in one batch are
        ignored identically by both implementations."""
        runtime = compile_program(_join_program(2, 2, 0, 1)).start()
        baseline = FullRecomputeController(_join_derive(0, 1))
        batches = [
            {"inserts": {"R": [(1, 2), (1, 2)], "S": [(9, 1)]},
             "deletes": {"R": [(7, 7)], "S": []}},
            {"inserts": {"R": [(3, 4)], "S": [(8, 3)]},
             "deletes": {"R": [(3, 4)], "S": []}},
            {"inserts": {"R": [], "S": []},
             "deletes": {"R": [(1, 2)], "S": [(9, 1)]}},
        ]
        for changes in batches:
            runtime.transaction(**changes)
            baseline.apply_change(**changes)
            got = {("J",) + row for row in runtime.dump("J")} | {
                ("OnlyR",) + row for row in runtime.dump("OnlyR")
            }
            assert got == baseline.installed

# ---------------------------------------------------------------------------
# Sharding oracle: ShardedRuntime(shards=n) vs the single-shard engine
# vs full recompute.
# ---------------------------------------------------------------------------

from repro.dlog.shard import ShardedRuntime  # noqa: E402

from tests.test_dlog_properties import LINEAR_PROG  # noqa: E402


def _delta_bytes(result):
    """Canonical serialization of a TxnResult's deltas — the comparison
    is byte-identical, not merely set-equal, so weight mistakes
    (double-emitted replicated rows, missed cross-shard rederivations)
    cannot hide behind set semantics."""
    return repr(
        sorted(
            (rel, sorted(delta.data.items()))
            for rel, delta in result.deltas.items()
        )
    )


def _batch_changes(batch):
    return {
        "inserts": {"R": batch["R+"], "S": batch["S+"]},
        "deletes": {"R": batch["R-"], "S": batch["S-"]},
    }


#: Batches over ``LINEAR_PROG``'s inputs ``A`` and ``B`` (both
#: ``(bigint, bigint)``): duplicate inserts and absent deletes included.
_ab_batches = st.lists(
    st.fixed_dictionaries(
        {
            f"{rel}{sign}": st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4
            )
            for rel in "AB"
            for sign in "+-"
        }
    ),
    min_size=1,
    max_size=5,
)


def _ab_changes(batch):
    return {
        "inserts": {"A": batch["A+"], "B": batch["B+"]},
        "deletes": {"A": batch["A-"], "B": batch["B-"]},
    }


class TestShardingOracle:
    """Shard count must be unobservable: for every generated program and
    transaction sequence, `ShardedRuntime(shards=n)` emits byte-identical
    output deltas to the single-shard engine and converges to the same
    fixpoint as the recompute-everything baseline."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=_join_scenarios(), shards=st.sampled_from([1, 2, 4]))
    def test_join_negation_deltas_byte_identical(self, scenario, shards):
        r_arity, s_arity, jr, js, batches = scenario
        program = compile_program(_join_program(r_arity, s_arity, jr, js))
        single = program.start()
        sharded = ShardedRuntime(program, shards=shards, workers="inline")
        baseline = FullRecomputeController(_join_derive(jr, js))
        try:
            assert _delta_bytes(single.initial_result) == _delta_bytes(
                sharded.initial_result
            )
            for batch in batches:
                changes = _batch_changes(batch)
                expect = single.transaction(**changes)
                got = sharded.transaction(**changes)
                baseline.apply_change(**changes)
                assert _delta_bytes(expect) == _delta_bytes(got)
                assert expect.warnings == got.warnings
                merged = {("J",) + row for row in sharded.dump("J")} | {
                    ("OnlyR",) + row for row in sharded.dump("OnlyR")
                }
                assert merged == baseline.installed
        finally:
            sharded.close()

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        batches=st.lists(
            st.fixed_dictionaries(
                {
                    "Edge+": st.lists(
                        st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        max_size=6,
                    ),
                    "Edge-": st.lists(
                        st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        max_size=6,
                    ),
                }
            ),
            min_size=1,
            max_size=5,
        ),
        shards=st.sampled_from([1, 2, 4]),
    )
    def test_recursive_closure_deltas_byte_identical(self, batches, shards):
        """Recursion degrades to broadcast (transitive closure is not
        key-closed) — the fallback must still be delta-exact, with the
        cross-shard reference counts collapsing the N replicas."""
        program = compile_program(REACH_PROGRAM)
        single = program.start()
        sharded = ShardedRuntime(program, shards=shards, workers="inline")
        baseline = FullRecomputeController(_closure_derive)
        try:
            for batch in batches:
                changes = {
                    "inserts": {"Edge": batch["Edge+"]},
                    "deletes": {"Edge": batch["Edge-"]},
                }
                expect = single.transaction(**changes)
                got = sharded.transaction(**changes)
                baseline.apply_change(**changes)
                assert _delta_bytes(expect) == _delta_bytes(got)
                assert sharded.dump("Reach") == baseline.installed
        finally:
            sharded.close()

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=_join_scenarios(), shards=st.sampled_from([2, 4]))
    def test_checkpoint_restore_mid_sequence(self, scenario, shards):
        """Checkpoint after the first half of the batches, restore into a
        fresh ShardedRuntime, and replay the rest: the restored facade
        must stay byte-identical to an uninterrupted single engine."""
        r_arity, s_arity, jr, js, batches = scenario
        program = compile_program(_join_program(r_arity, s_arity, jr, js))
        single = program.start()
        sharded = ShardedRuntime(program, shards=shards, workers="inline")
        cut = len(batches) // 2
        try:
            for batch in batches[:cut]:
                changes = _batch_changes(batch)
                single.transaction(**changes)
                sharded.transaction(**changes)
            snapshot = sharded.checkpoint()
        finally:
            sharded.close()
        resumed = ShardedRuntime(
            program, shards=shards, workers="inline", checkpoint=snapshot
        )
        try:
            assert resumed.restored
            for batch in batches[cut:]:
                changes = _batch_changes(batch)
                expect = single.transaction(**changes)
                got = resumed.transaction(**changes)
                assert _delta_bytes(expect) == _delta_bytes(got)
            for rel in ("R", "S", "J", "OnlyR"):
                assert resumed.dump(rel) == single.dump(rel)
        finally:
            resumed.close()

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batches=_ab_batches, shards=st.sampled_from([1, 2, 4]))
    def test_linear_stretches_deltas_byte_identical(self, batches, shards):
        """Every linear item kind in every stretch position
        (``LINEAR_PROG``): guards, assignments and FlatMaps running
        inside scans, joins, an antijoin and an aggregate."""
        program = compile_program(LINEAR_PROG)
        single = program.start()
        sharded = ShardedRuntime(program, shards=shards, workers="inline")
        try:
            assert _delta_bytes(single.initial_result) == _delta_bytes(
                sharded.initial_result
            )
            for batch in batches:
                changes = _ab_changes(batch)
                expect = single.transaction(**changes)
                got = sharded.transaction(**changes)
                assert _delta_bytes(expect) == _delta_bytes(got)
                assert expect.warnings == got.warnings
            for rel in program.output_relations:
                assert sharded.dump(rel) == single.dump(rel)
        finally:
            sharded.close()

    def test_process_workers_agree_with_inline(self):
        """One deterministic pass over the IPC path: process workers
        (the production configuration) against the single engine."""
        program = compile_program(_join_program(2, 2, 0, 1))
        single = program.start()
        sharded = program.start(shards=2, shard_workers="process")
        batches = [
            {"inserts": {"R": [(1, 2), (3, 2)], "S": [(2, 9)]},
             "deletes": {}},
            {"inserts": {"R": [(4, 5)], "S": [(5, 1)]},
             "deletes": {"S": [(2, 9)]}},
            {"inserts": {}, "deletes": {"R": [(1, 2)]}},
        ]
        try:
            for changes in batches:
                expect = single.transaction(**changes)
                got = sharded.transaction(**changes)
                assert _delta_bytes(expect) == _delta_bytes(got)
                assert expect.warnings == got.warnings
            for rel in ("R", "S", "J", "OnlyR"):
                assert sharded.dump(rel) == single.dump(rel)
        finally:
            sharded.close()

# ---------------------------------------------------------------------------
# Cold-vs-primed oracle: the from-empty shortcuts inside the operators
# must be unobservable.
# ---------------------------------------------------------------------------

AGG_PROGRAM = """
input relation Item(k: bigint, v: bigint)
output relation Sum(k: bigint, s: bigint)
Sum(k, s) :- Item(k, v), var s = Aggregate((k), sum(v)).
"""

#: Sentinel values lie outside every generator's domain (0..4, -5..5).
SENTINEL = 100


def _cold_and_primed(program, sentinels):
    """Two runtimes of one program: ``cold`` takes the scenario from
    empty state (operators may shortcut), ``primed`` first loads
    ``sentinels`` so every input set and stateful operator is non-empty
    and takes its general branch from then on."""
    cold, primed = program.start(), program.start()
    primed.transaction(inserts=sentinels)
    assert all(
        node.state_size() > 0
        for node in primed.graph.nodes
        if type(node).state_size is not Node.state_size
    )
    return cold, primed


def _without_sentinels(rows):
    return {row for row in rows if max(row) < SENTINEL}


def _join_sentinels(r_arity, s_arity):
    """R and S rows sharing join key 100 (a J row; both join and
    antijoin sides populated) plus an unmatched R row (an OnlyR row)."""
    return {
        "R": [(SENTINEL,) * r_arity, (SENTINEL + 1,) * r_arity],
        "S": [(SENTINEL,) * s_arity],
    }


class TestColdVsPrimedOracle:
    """Operators pick a from-empty shortcut from their own state (no
    support counts, empty arrangement, empty input set).  A runtime
    whose operators were all primed with disjoint sentinel records never
    takes one, so the two must emit byte-identical deltas and identical
    warnings on the cold transaction AND on every transaction after."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=_join_scenarios())
    def test_join_negation(self, scenario):
        r_arity, s_arity, jr, js, batches = scenario
        program = compile_program(_join_program(r_arity, s_arity, jr, js))
        cold, primed = _cold_and_primed(
            program, _join_sentinels(r_arity, s_arity)
        )
        for batch in batches:
            changes = _batch_changes(batch)
            got = cold.transaction(**changes)
            want = primed.transaction(**changes)
            assert _delta_bytes(got) == _delta_bytes(want)
            assert got.warnings == want.warnings
        for rel in ("R", "S", "J", "OnlyR"):
            assert cold.dump(rel) == _without_sentinels(primed.dump(rel))

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        batches=st.lists(
            st.fixed_dictionaries(
                {
                    "Edge+": st.lists(
                        st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        max_size=6,
                    ),
                    "Edge-": st.lists(
                        st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        max_size=6,
                    ),
                }
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_recursion_seam(self, batches):
        """Recursive SCCs have no shortcut themselves, but they consume
        the deltas of upstream operators that do — the seam must be
        exact.  The sentinel edge is its own graph component."""
        cold, primed = _cold_and_primed(
            compile_program(REACH_PROGRAM),
            {"Edge": [(SENTINEL, SENTINEL + 1)]},
        )
        for batch in batches:
            changes = {
                "inserts": {"Edge": batch["Edge+"]},
                "deletes": {"Edge": batch["Edge-"]},
            }
            got = cold.transaction(**changes)
            want = primed.transaction(**changes)
            assert _delta_bytes(got) == _delta_bytes(want)
        assert cold.dump("Reach") == _without_sentinels(primed.dump("Reach"))

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 3), st.integers(-5, 5)), max_size=12
        ),
        extra=st.lists(
            st.tuples(st.integers(0, 3), st.integers(-5, 5)), max_size=6
        ),
    )
    def test_aggregate(self, rows, extra):
        cold, primed = _cold_and_primed(
            compile_program(AGG_PROGRAM), {"Item": [(SENTINEL, 1)]}
        )
        for batch in (rows, extra):
            got = cold.transaction(inserts={"Item": batch})
            want = primed.transaction(inserts={"Item": batch})
            assert _delta_bytes(got) == _delta_bytes(want)
            assert got.warnings == want.warnings
        assert cold.dump("Sum") == _without_sentinels(primed.dump("Sum"))

    def test_duplicates_in_cold_batch_warn_identically(self):
        """A cold batch with internal duplicates must fall back to the
        per-row input path and report the same warnings."""
        cold, primed = _cold_and_primed(
            compile_program(_join_program(2, 2, 0, 1)), _join_sentinels(2, 2)
        )
        changes = {
            "inserts": {"R": [(1, 2), (3, 2), (1, 2)], "S": [(2, 9)]},
            "deletes": {"S": [(7, 7)]},
        }
        got = cold.transaction(**changes)
        want = primed.transaction(**changes)
        assert _delta_bytes(got) == _delta_bytes(want)
        assert got.warnings == want.warnings
        assert len(got.warnings) == 2
        for rel in ("R", "S", "J", "OnlyR"):
            assert cold.dump(rel) == _without_sentinels(primed.dump(rel))


# ---------------------------------------------------------------------------
# Delta-checkpoint oracle: full snapshot + journal segments -> restore
# -> transact must be byte-identical to an uninterrupted engine.
# ---------------------------------------------------------------------------

from repro.dlog.checkpoint import CheckpointStore, replay_segments  # noqa: E402


class TestDeltaCheckpointOracle:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scenario=_join_scenarios(),
        shards=st.sampled_from([1, 2, 4]),
        data=st.data(),
    )
    def test_chain_restore_mid_sequence(self, scenario, shards, data, tmp_path_factory):
        """Anchor a full snapshot mid-sequence, journal the following
        batches into one delta segment each, restore the chain into a
        fresh runtime (same shard count), and replay the tail: deltas
        stay byte-identical to an uninterrupted single-shard engine."""
        r_arity, s_arity, jr, js, batches = scenario
        _chain_restore(
            compile_program(_join_program(r_arity, s_arity, jr, js)),
            [_batch_changes(batch) for batch in batches],
            ("R", "S", "J", "OnlyR"),
            shards,
            data,
            str(tmp_path_factory.mktemp("chain")),
        )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        batches=_ab_batches,
        shards=st.sampled_from([1, 2, 4]),
        data=st.data(),
    )
    def test_linear_chain_restore_mid_sequence(
        self, batches, shards, data, tmp_path_factory
    ):
        """The same over ``LINEAR_PROG``: stateful nodes whose steps run
        guards, assignments and FlatMaps restore by graph index."""
        program = compile_program(LINEAR_PROG)
        _chain_restore(
            program,
            [_ab_changes(batch) for batch in batches],
            ["A", "B", *program.output_relations],
            shards,
            data,
            str(tmp_path_factory.mktemp("chain")),
        )


def _chain_restore(program, changes_list, relations, shards, data, directory):
    """Run ``changes_list`` through a reference engine and a journaling
    subject (anchor and cut drawn from ``data``), restore the subject's
    chain into a fresh runtime and replay the tail against the
    reference."""
    anchor = data.draw(st.integers(0, len(changes_list)), label="anchor")
    cut = data.draw(st.integers(anchor, len(changes_list)), label="cut")
    reference = program.start()
    subject = program.start(shards=shards, shard_workers="inline")
    store = CheckpointStore(directory, "engine.ckpt", program.program_hash)
    try:
        for changes in changes_list[:anchor]:
            reference.transaction(**changes)
            subject.transaction(**changes)
        subject.enable_journal()
        store.save_full(subject.checkpoint(), subject.txn_count)
        for changes in changes_list[anchor:cut]:
            reference.transaction(**changes)
            subject.transaction(**changes)
            store.save_delta(subject.drain_journal(), subject.txn_count)
        subject_txns = subject.txn_count
    finally:
        close = getattr(subject, "close", None)
        if close:
            close()

    full, segments = store.load_chain(lambda f: f["txn_count"])
    restored = program.start(
        checkpoint=full, shards=shards, shard_workers="inline"
    )
    try:
        assert restored.restored
        replay_segments(restored, segments, program.program_hash)
        # Runtime and ShardedRuntime count their initial static-load
        # transactions differently, so compare against the subject's
        # own counter at the cut point, not the reference's.
        assert restored.txn_count == subject_txns
        for changes in changes_list[cut:]:
            want = reference.transaction(**changes)
            got = restored.transaction(**changes)
            assert _delta_bytes(want) == _delta_bytes(got)
        for rel in relations:
            assert restored.dump(rel) == reference.dump(rel)
    finally:
        close = getattr(restored, "close", None)
        if close:
            close()
