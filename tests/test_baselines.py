"""Tests for the hand-written baselines — and cross-checks that they
agree with the declarative engine (the baselines must be *correct* for
the benchmark comparisons to mean anything)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.full_recompute import FullRecomputeController
from repro.baselines.imperative import ChangeEngine, ImperativeSnvs
from repro.baselines.lb_controller import HandWrittenLbController
from repro.baselines.reachability import (
    IncrementalReachability,
    NaiveReachability,
)
from repro.dlog import compile_program
from repro.workloads.loadbalancer import LB_DLOG_PROGRAM, LoadBalancerWorkload

LABEL_PROGRAM = """
input relation GivenLabel(n: bigint, label: string)
input relation Edge(a: bigint, b: bigint)
output relation Label(n: bigint, label: string)
Label(n, l) :- GivenLabel(n, l).
Label(b, l) :- Label(a, l), Edge(a, b).
"""


class TestReachabilityBaselines:
    def _check_agreement(self, script):
        naive = NaiveReachability()
        incremental = IncrementalReachability()
        engine = compile_program(LABEL_PROGRAM).start()
        edges, givens = set(), set()
        for op, payload in script:
            if op == "edge":
                a, b = payload
                if (a, b) in edges:
                    edges.discard((a, b))
                    naive.remove_edge(a, b)
                    incremental.remove_edge(a, b)
                    engine.transaction(deletes={"Edge": [(a, b)]})
                else:
                    edges.add((a, b))
                    naive.add_edge(a, b)
                    incremental.add_edge(a, b)
                    engine.transaction(inserts={"Edge": [(a, b)]})
            else:
                n, lab = payload
                if (n, lab) in givens:
                    givens.discard((n, lab))
                    naive.remove_given(n, lab)
                    incremental.remove_given(n, lab)
                    engine.transaction(deletes={"GivenLabel": [(n, lab)]})
                else:
                    givens.add((n, lab))
                    naive.add_given(n, lab)
                    incremental.add_given(n, lab)
                    engine.transaction(inserts={"GivenLabel": [(n, lab)]})
            assert incremental.labels == naive.labels
            assert engine.dump("Label") == naive.labels

    def test_basic_propagation(self):
        inc = IncrementalReachability()
        inc.add_given(1, "x")
        inc.add_edge(1, 2)
        inc.add_edge(2, 3)
        assert inc.labels == {(1, "x"), (2, "x"), (3, "x")}

    def test_cycle_deletion(self):
        inc = IncrementalReachability()
        inc.add_given(1, "x")
        inc.add_edge(1, 2)
        inc.add_edge(2, 3)
        inc.add_edge(3, 2)
        inc.remove_edge(1, 2)
        assert inc.labels == {(1, "x")}

    def test_alternative_path_survives(self):
        inc = IncrementalReachability()
        inc.add_given(1, "x")
        inc.add_edge(1, 2)
        inc.add_edge(1, 3)
        inc.add_edge(2, 3)
        inc.remove_edge(2, 3)
        assert (3, "x") in inc.labels

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("edge"),
                    st.tuples(st.integers(0, 5), st.integers(0, 5)),
                ),
                st.tuples(
                    st.just("given"),
                    st.tuples(st.integers(0, 5), st.sampled_from("ab")),
                ),
            ),
            max_size=15,
        )
    )
    def test_all_three_agree_on_random_scripts(self, script):
        self._check_agreement(script)

    def test_incremental_does_less_work_on_insert(self):
        rng = random.Random(3)
        edges = [(rng.randrange(200), rng.randrange(200)) for _ in range(400)]
        naive = NaiveReachability()
        incremental = IncrementalReachability()
        naive.add_given(0, "x")
        incremental.add_given(0, "x")
        for a, b in edges:
            naive.add_edge(a, b)
            incremental.add_edge(a, b)
        naive.work_counter = 0
        incremental.work_counter = 0
        naive.add_edge(198, 199)
        incremental.add_edge(198, 199)
        assert incremental.work_counter < naive.work_counter / 5


class TestChangeEngine:
    def test_handlers_fire_per_event(self):
        engine = ChangeEngine()
        engine.declare("T")
        events = []
        engine.on_change("T", lambda t, row, ins: events.append((row, ins)))
        engine.insert("T", (1,))
        engine.delete("T", (1,))
        assert events == [((1,), True), ((1,), False)]

    def test_duplicate_insert_ignored(self):
        engine = ChangeEngine()
        engine.declare("T")
        events = []
        engine.on_change("T", lambda t, row, ins: events.append(row))
        engine.insert("T", (1,))
        engine.insert("T", (1,))
        assert len(events) == 1


class TestImperativeSnvs:
    def _setup(self):
        snvs = ImperativeSnvs()
        snvs.engine.insert("Vlan", (10,))
        snvs.engine.insert("Port", (0, "access", 10, ()))
        snvs.engine.insert("Port", (1, "access", 10, ()))
        snvs.engine.insert("Port", (2, "trunk", 10, (10, 20)))
        return snvs

    def test_port_classification(self):
        snvs = self._setup()
        assert len(snvs.in_vlan) == 4  # 3 untagged + 1 trunk-tagged(10)
        assert len(snvs.out_tag) == 3

    def test_vlan_declared_later_cascades(self):
        snvs = self._setup()
        before = len(snvs.in_vlan)
        snvs.engine.insert("Vlan", (20,))
        assert len(snvs.in_vlan) == before + 1  # trunk vid 20 now valid
        assert snvs.mcast[20] == {2}

    def test_multicast_membership(self):
        snvs = self._setup()
        assert snvs.mcast[10] == {0, 1, 2}

    def test_port_removal(self):
        snvs = self._setup()
        snvs.engine.delete("Port", (1, "access", 10, ()))
        assert snvs.mcast[10] == {0, 2}
        assert all(e[0] != 1 for e in snvs.in_vlan)

    def test_mac_learning_and_move(self):
        snvs = self._setup()
        snvs.engine.insert("MacLearned", (10, 0xAA, 0))
        assert snvs.fwd[(10, 0xAA)] == 0
        snvs.engine.insert("MacLearned", (10, 0xAA, 1))  # station moves
        assert snvs.fwd[(10, 0xAA)] == 1
        snvs.engine.delete("MacLearned", (10, 0xAA, 1))
        assert snvs.fwd[(10, 0xAA)] == 0

    def test_agrees_with_declarative_on_multicast(self):
        """The imperative multicast membership must equal what the
        declarative snvs rules derive for the same configuration."""
        from repro.apps.snvs import SnvsNetwork

        with SnvsNetwork(n_ports=8) as net:
            snvs = ImperativeSnvs()
            for vid in (10, 20):
                net.add_vlan(vid)
                snvs.engine.insert("Vlan", (vid,))
            net.add_access_port(0, vlan=10)
            snvs.engine.insert("Port", (0, "access", 10, ()))
            net.add_trunk_port(1, native_vlan=10, trunks=[20])
            snvs.engine.insert("Port", (1, "trunk", 10, (20,)))
            declared = {
                g: set(ports) for g, ports in net.switch.multicast_groups.items()
            }
            assert declared == {g: set(p) for g, p in snvs.mcast.items()}


class TestLbBaseline:
    def test_cold_start_counts(self):
        workload = LoadBalancerWorkload(n_lbs=3, backends_per_lb=4, n_switches=2)
        controller = HandWrittenLbController()
        vips, attach = workload.cold_start_rows()
        added = controller.cold_start(vips, attach)
        assert added == workload.derived_entries == 3 * 4 * 2

    def test_delete_removes_only_that_lb(self):
        workload = LoadBalancerWorkload(n_lbs=3, backends_per_lb=4, n_switches=2)
        controller = HandWrittenLbController()
        controller.cold_start(*workload.cold_start_rows())
        controller.delete_lb(0)
        assert len(controller.entries) == 2 * 4 * 2

    def test_agrees_with_engine(self):
        workload = LoadBalancerWorkload(n_lbs=4, backends_per_lb=5, n_switches=3)
        controller = HandWrittenLbController()
        engine = compile_program(LB_DLOG_PROGRAM).start()
        vips, attach = workload.cold_start_rows()
        controller.cold_start(vips, attach)
        engine.transaction(inserts={"LbVip": vips, "LbSwitch": attach})
        assert engine.dump("NatEntry") == controller.entries
        for lb, vip_rows, attach_rows in workload.deletion_batches():
            controller.delete_lb(lb)
            engine.transaction(
                deletes={"LbVip": vip_rows, "LbSwitch": attach_rows}
            )
            assert engine.dump("NatEntry") == controller.entries


class TestFullRecompute:
    def test_diffs_against_installed(self):
        def derive(config):
            return {
                (a, c)
                for a, b1 in config.get("A", set())
                for b2, c in config.get("B", set())
                if b1 == b2
            }

        controller = FullRecomputeController(derive)
        added, removed = controller.apply_change(
            inserts={"A": [(1, 2)], "B": [(2, 3)]}
        )
        assert added == {(1, 3)} and not removed
        added, removed = controller.apply_change(deletes={"B": [(2, 3)]})
        assert removed == {(1, 3)} and not added
        assert controller.recompute_count == 2
