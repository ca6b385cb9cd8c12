"""Integration tests for the incremental Datalog engine."""

import pytest

from repro.dlog import compile_program
from repro.dlog.recursive import IndexStore
from repro.dlog.values import MapValue, StructValue
from repro.errors import StratificationError, TransactionError, TypeCheckError
from repro.workloads.topology import fat_tree


def rows(runtime, relation):
    return runtime.dump(relation)


class TestBasicRules:
    PROG = """
    input relation In(x: bigint)
    output relation Out(x: bigint)
    Out(x) :- In(x).
    """

    def test_copy_rule(self):
        rt = compile_program(self.PROG).start()
        result = rt.transaction(inserts={"In": [(1,), (2,)]})
        assert result.inserted("Out") == sorted([(1,), (2,)])
        assert rows(rt, "Out") == {(1,), (2,)}

    def test_delete_propagates(self):
        rt = compile_program(self.PROG).start()
        rt.transaction(inserts={"In": [(1,), (2,)]})
        result = rt.transaction(deletes={"In": [(1,)]})
        assert result.deleted("Out") == [(1,)]
        assert rows(rt, "Out") == {(2,)}

    def test_duplicate_insert_warns_and_ignores(self):
        rt = compile_program(self.PROG).start()
        rt.transaction(inserts={"In": [(1,)]})
        result = rt.transaction(inserts={"In": [(1,)]})
        assert result.warnings
        assert result.deltas == {}

    def test_delete_of_absent_row_warns(self):
        rt = compile_program(self.PROG).start()
        result = rt.transaction(deletes={"In": [(9,)]})
        assert result.warnings
        assert rows(rt, "Out") == set()

    def test_empty_transaction_is_noop(self):
        rt = compile_program(self.PROG).start()
        result = rt.transaction()
        assert result.deltas == {}

    def test_unknown_relation_rejected(self):
        rt = compile_program(self.PROG).start()
        with pytest.raises(TransactionError):
            rt.transaction(inserts={"Nope": [(1,)]})

    def test_write_to_derived_relation_rejected(self):
        rt = compile_program(self.PROG).start()
        with pytest.raises(TransactionError):
            rt.transaction(inserts={"Out": [(1,)]})

    def test_bad_row_type_rejected(self):
        rt = compile_program(self.PROG).start()
        with pytest.raises(TransactionError):
            rt.transaction(inserts={"In": [("nope",)]})

    def test_bad_arity_rejected(self):
        rt = compile_program(self.PROG).start()
        with pytest.raises(TransactionError):
            rt.transaction(inserts={"In": [(1, 2)]})


@pytest.mark.parametrize("shards", [1, 2])
class TestIllTypedRowLeavesNoTrace:
    """A transaction with an ill-typed row raises and applies nothing:
    not the rows before it, not the relations normalized before it.
    Otherwise a retry of the good rows is dropped as a duplicate insert
    (or an absent delete) and never reaches the dataflow."""

    PROG = """
    input relation Q(a: bigint)
    input relation R(a: bigint, b: bigint)
    output relation P(a: bigint)
    output relation S(a: bigint, b: bigint)
    P(a) :- Q(a).
    S(a, b) :- R(a, b).
    """

    def start(self, shards):
        program = compile_program(self.PROG)
        if shards == 1:
            return program.start()
        return program.start(shards=shards, shard_workers="inline")

    def test_a_failed_insert_leaves_no_row_behind(self, shards):
        rt = self.start(shards)
        try:
            rt.transaction(inserts={"R": [(1, 1)]})
            with pytest.raises(TransactionError, match="expects bigint"):
                rt.transaction(
                    inserts={"Q": [(7,)], "R": [(2, 2), (3, "x"), (4, 4)]}
                )
            result = rt.transaction(inserts={"Q": [(7,)], "R": [(2, 2)]})
            assert result.warnings == []
            assert result.inserted("P") == [(7,)]
            assert result.inserted("S") == [(2, 2)]
            assert sorted(rows(rt, "S")) == [(1, 1), (2, 2)]
        finally:
            rt.close()

    def test_a_failed_delete_leaves_every_row_in_place(self, shards):
        rt = self.start(shards)
        try:
            rt.transaction(inserts={"Q": [(7,)], "R": [(1, 1), (2, 2)]})
            with pytest.raises(TransactionError, match="expects bigint"):
                rt.transaction(deletes={"Q": [(7,)], "R": [(1, 1), (3, "x")]})
            with pytest.raises(TransactionError, match="expects bigint"):
                rt.transaction(
                    deletes={"R": [(2, 2)]}, inserts={"Q": [("y",)]}
                )
            result = rt.transaction(deletes={"Q": [(7,)], "R": [(1, 1), (2, 2)]})
            assert result.warnings == []
            assert result.deleted("P") == [(7,)]
            assert sorted(result.deleted("S")) == [(1, 1), (2, 2)]
            assert rows(rt, "S") == set()
        finally:
            rt.close()


class TestJoins:
    PROG = """
    input relation Person(name: string, city: string)
    input relation City(city: string, country: string)
    output relation Out(name: string, country: string)
    Out(n, c) :- Person(n, city), City(city, c).
    """

    def test_join(self):
        rt = compile_program(self.PROG).start()
        rt.transaction(inserts={"Person": [("ada", "london")]})
        result = rt.transaction(inserts={"City": [("london", "uk")]})
        assert result.inserted("Out") == [("ada", "uk")]

    def test_join_same_transaction(self):
        rt = compile_program(self.PROG).start()
        result = rt.transaction(
            inserts={
                "Person": [("ada", "london")],
                "City": [("london", "uk")],
            }
        )
        assert result.inserted("Out") == [("ada", "uk")]

    def test_join_delete_one_side(self):
        rt = compile_program(self.PROG).start()
        rt.transaction(
            inserts={
                "Person": [("ada", "london"), ("bob", "london")],
                "City": [("london", "uk")],
            }
        )
        result = rt.transaction(deletes={"City": [("london", "uk")]})
        assert set(result.deleted("Out")) == {("ada", "uk"), ("bob", "uk")}

    def test_multiway_join(self):
        prog = """
        input relation A(x: bigint, y: bigint)
        input relation B(y: bigint, z: bigint)
        input relation C(z: bigint, w: bigint)
        output relation Out(x: bigint, w: bigint)
        Out(x, w) :- A(x, y), B(y, z), C(z, w).
        """
        rt = compile_program(prog).start()
        result = rt.transaction(
            inserts={"A": [(1, 2)], "B": [(2, 3)], "C": [(3, 4)]}
        )
        assert result.inserted("Out") == [(1, 4)]

    def test_self_join(self):
        prog = """
        input relation E(a: bigint, b: bigint)
        output relation TwoHop(a: bigint, c: bigint)
        TwoHop(a, c) :- E(a, b), E(b, c).
        """
        rt = compile_program(prog).start()
        result = rt.transaction(inserts={"E": [(1, 2), (2, 3)]})
        assert set(result.inserted("TwoHop")) == {(1, 3)}

    def test_join_on_literal(self):
        prog = """
        input relation Port(id: bigint, mode: string)
        output relation AccessPort(id: bigint)
        AccessPort(p) :- Port(p, "access").
        """
        rt = compile_program(prog).start()
        result = rt.transaction(
            inserts={"Port": [(1, "access"), (2, "trunk")]}
        )
        assert result.inserted("AccessPort") == [(1,)]

    def test_duplicate_derivations_are_set_semantics(self):
        prog = """
        input relation A(x: bigint, tag: string)
        output relation Out(x: bigint)
        Out(x) :- A(x, _).
        """
        rt = compile_program(prog).start()
        rt.transaction(inserts={"A": [(1, "a"), (1, "b")]})
        result = rt.transaction(deletes={"A": [(1, "a")]})
        # Still supported by (1, "b"): no output change.
        assert result.deltas.get("Out") is None
        result = rt.transaction(deletes={"A": [(1, "b")]})
        assert result.deleted("Out") == [(1,)]


class TestNegation:
    PROG = """
    input relation All(x: bigint)
    input relation Blocked(x: bigint)
    output relation Allowed(x: bigint)
    Allowed(x) :- All(x), not Blocked(x).
    """

    def test_negation_passes_absent(self):
        rt = compile_program(self.PROG).start()
        result = rt.transaction(inserts={"All": [(1,)]})
        assert result.inserted("Allowed") == [(1,)]

    def test_negation_blocks_present(self):
        rt = compile_program(self.PROG).start()
        result = rt.transaction(
            inserts={"All": [(1,)], "Blocked": [(1,)]}
        )
        assert result.deltas.get("Allowed") is None

    def test_block_later_retracts(self):
        rt = compile_program(self.PROG).start()
        rt.transaction(inserts={"All": [(1,)]})
        result = rt.transaction(inserts={"Blocked": [(1,)]})
        assert result.deleted("Allowed") == [(1,)]

    def test_unblock_restores(self):
        rt = compile_program(self.PROG).start()
        rt.transaction(inserts={"All": [(1,)], "Blocked": [(1,)]})
        result = rt.transaction(deletes={"Blocked": [(1,)]})
        assert result.inserted("Allowed") == [(1,)]

    def test_negation_with_wildcard(self):
        prog = """
        input relation Host(h: bigint)
        input relation Assigned(h: bigint, vm: string)
        output relation FreeHost(h: bigint)
        FreeHost(h) :- Host(h), not Assigned(h, _).
        """
        rt = compile_program(prog).start()
        rt.transaction(
            inserts={"Host": [(1,), (2,)], "Assigned": [(1, "vm0")]}
        )
        assert rows(rt, "FreeHost") == {(2,)}


class TestExpressionsInRules:
    def test_guard_and_arithmetic(self):
        prog = """
        input relation N(x: bigint)
        output relation Big(x: bigint, double: bigint)
        Big(x, y) :- N(x), x > 10, var y = x * 2.
        """
        rt = compile_program(prog).start()
        result = rt.transaction(inserts={"N": [(5,), (20,)]})
        assert result.inserted("Big") == [(20, 40)]

    def test_function_call(self):
        prog = """
        function classify(x: bigint): string {
            if (x > 0) "pos" else "neg"
        }
        input relation N(x: bigint)
        output relation C(x: bigint, cls: string)
        C(x, classify(x)) :- N(x).
        """
        rt = compile_program(prog).start()
        result = rt.transaction(inserts={"N": [(3,), (-4,)]})
        assert set(result.inserted("C")) == {(3, "pos"), (-4, "neg")}

    def test_string_operations(self):
        prog = """
        input relation S(s: string)
        output relation U(s: string)
        U(to_uppercase(s)) :- S(s).
        """
        rt = compile_program(prog).start()
        result = rt.transaction(inserts={"S": [("abc",)]})
        assert result.inserted("U") == [("ABC",)]

    def test_flatmap_expands_vector(self):
        prog = """
        input relation Batch(id: bigint, items: Vec<string>)
        output relation Item(id: bigint, item: string)
        Item(id, item) :- Batch(id, v), var item = FlatMap(v).
        """
        rt = compile_program(prog).start()
        result = rt.transaction(inserts={"Batch": [(1, ("a", "b"))]})
        assert set(result.inserted("Item")) == {(1, "a"), (1, "b")}
        result = rt.transaction(deletes={"Batch": [(1, ("a", "b"))]})
        assert set(result.deleted("Item")) == {(1, "a"), (1, "b")}

    def test_bit_width_wrapping(self):
        prog = """
        input relation B(x: bit<8>)
        output relation W(x: bit<8>)
        W(y) :- B(x), var y = x + 200.
        """
        rt = compile_program(prog).start()
        result = rt.transaction(inserts={"B": [(100,)]})
        assert result.inserted("W") == [((100 + 200) % 256,)]

    def test_union_type_match(self):
        prog = """
        typedef mode_t = Access | Trunk{native: bit<12>}
        input relation Port(id: bigint, mode: mode_t)
        output relation Vlan(id: bigint, vlan: bit<12>)
        Vlan(p, v) :- Port(p, m),
            var v = match (m) { Access -> 1, Trunk{n} -> n }.
        """
        rt = compile_program(prog).start()
        result = rt.transaction(
            inserts={
                "Port": [
                    (1, StructValue("Access", ())),
                    (2, StructValue("Trunk", (42,))),
                ]
            }
        )
        assert set(result.inserted("Vlan")) == {(1, 1), (2, 42)}

    def test_constructor_pattern_in_body(self):
        prog = """
        typedef mode_t = Access | Trunk{native: bit<12>}
        input relation Port(id: bigint, mode: mode_t)
        output relation Native(id: bigint, vlan: bit<12>)
        Native(p, v) :- Port(p, Trunk{v}).
        """
        rt = compile_program(prog).start()
        result = rt.transaction(
            inserts={
                "Port": [
                    (1, StructValue("Access", ())),
                    (2, StructValue("Trunk", (7,))),
                ]
            }
        )
        assert result.inserted("Native") == [(2, 7)]


class TestAggregation:
    PROG = """
    input relation Port(id: bigint, switch: string)
    output relation PortCount(switch: string, n: bigint)
    PortCount(sw, n) :- Port(p, sw), var n = Aggregate((sw), count()).
    """

    def test_count(self):
        rt = compile_program(self.PROG).start()
        result = rt.transaction(
            inserts={"Port": [(1, "s1"), (2, "s1"), (3, "s2")]}
        )
        assert set(result.inserted("PortCount")) == {("s1", 2), ("s2", 1)}

    def test_count_updates_incrementally(self):
        rt = compile_program(self.PROG).start()
        rt.transaction(inserts={"Port": [(1, "s1"), (2, "s1")]})
        result = rt.transaction(inserts={"Port": [(3, "s1")]})
        assert result.deleted("PortCount") == [("s1", 2)]
        assert result.inserted("PortCount") == [("s1", 3)]

    def test_group_vanishes(self):
        rt = compile_program(self.PROG).start()
        rt.transaction(inserts={"Port": [(1, "s1")]})
        result = rt.transaction(deletes={"Port": [(1, "s1")]})
        assert result.deleted("PortCount") == [("s1", 1)]
        assert rows(rt, "PortCount") == set()

    def test_sum(self):
        prog = """
        input relation Load(server: string, mb: bigint)
        output relation Total(server: string, total: bigint)
        Total(s, t) :- Load(s, mb), var t = Aggregate((s), sum(mb)).
        """
        rt = compile_program(prog).start()
        result = rt.transaction(
            inserts={"Load": [("a", 10), ("a", 32), ("b", 5)]}
        )
        assert set(result.inserted("Total")) == {("a", 42), ("b", 5)}

    def test_group_to_vec(self):
        prog = """
        input relation Member(group: string, who: string)
        output relation Roster(group: string, members: Vec<string>)
        Roster(g, m) :- Member(g, w), var m = Aggregate((g), group_to_vec(w)).
        """
        rt = compile_program(prog).start()
        result = rt.transaction(
            inserts={"Member": [("g", "bob"), ("g", "ada")]}
        )
        assert result.inserted("Roster") == [("g", ("ada", "bob"))]


class TestRecursion:
    LABEL = """
    input relation GivenLabel(n: bigint, label: string)
    input relation Edge(a: bigint, b: bigint)
    output relation Label(n: bigint, label: string)
    Label(n, l) :- GivenLabel(n, l).
    Label(b, l) :- Label(a, l), Edge(a, b).
    """

    def test_paper_label_program(self):
        rt = compile_program(self.LABEL).start()
        result = rt.transaction(
            inserts={
                "GivenLabel": [(1, "x")],
                "Edge": [(1, 2), (2, 3)],
            }
        )
        assert set(result.inserted("Label")) == {(1, "x"), (2, "x"), (3, "x")}

    def test_incremental_edge_insert(self):
        rt = compile_program(self.LABEL).start()
        rt.transaction(
            inserts={"GivenLabel": [(1, "x")], "Edge": [(1, 2)]}
        )
        result = rt.transaction(inserts={"Edge": [(2, 3)]})
        assert result.inserted("Label") == [(3, "x")]

    def test_incremental_edge_delete(self):
        rt = compile_program(self.LABEL).start()
        rt.transaction(
            inserts={"GivenLabel": [(1, "x")], "Edge": [(1, 2), (2, 3)]}
        )
        result = rt.transaction(deletes={"Edge": [(1, 2)]})
        assert set(result.deleted("Label")) == {(2, "x"), (3, "x")}

    def test_delete_with_alternative_path_keeps_label(self):
        rt = compile_program(self.LABEL).start()
        rt.transaction(
            inserts={
                "GivenLabel": [(1, "x")],
                "Edge": [(1, 2), (2, 3), (1, 3)],
            }
        )
        result = rt.transaction(deletes={"Edge": [(2, 3)]})
        # Node 3 still reachable via the direct edge: no change.
        assert result.deltas.get("Label") is None

    def test_same_rank_path_survives_losing_lower_support(self):
        # Label(3) is first derived over 1 -> 3, so it ranks with
        # Label(2).  Once 1 -> 3 goes, its one remaining path runs
        # through that equal-ranked fact: the ranked check cannot see
        # it and the unrestricted check must.
        rt = compile_program(self.LABEL).start()
        rt.transaction(
            inserts={
                "GivenLabel": [(1, "x")],
                "Edge": [(1, 2), (1, 3), (2, 3)],
            }
        )
        result = rt.transaction(deletes={"Edge": [(1, 3)]})
        assert result.deltas.get("Label") is None
        assert rows(rt, "Label") == {(1, "x"), (2, "x"), (3, "x")}
        # The rederived fact ranks above its new support, so losing
        # that support deletes it.
        result = rt.transaction(deletes={"Edge": [(2, 3)]})
        assert result.deleted("Label") == [(3, "x")]

    def test_cycle_deletion(self):
        rt = compile_program(self.LABEL).start()
        rt.transaction(
            inserts={
                "GivenLabel": [(1, "x")],
                "Edge": [(1, 2), (2, 3), (3, 2)],
            }
        )
        # 2 and 3 support each other through the cycle; cutting the
        # entry edge must delete both (the classic DRed trap).
        result = rt.transaction(deletes={"Edge": [(1, 2)]})
        assert set(result.deleted("Label")) == {(2, "x"), (3, "x")}
        assert rows(rt, "Label") == {(1, "x")}

    def test_given_label_delete(self):
        rt = compile_program(self.LABEL).start()
        rt.transaction(
            inserts={"GivenLabel": [(1, "x")], "Edge": [(1, 2)]}
        )
        result = rt.transaction(deletes={"GivenLabel": [(1, "x")]})
        assert set(result.deleted("Label")) == {(1, "x"), (2, "x")}

    def test_two_labels_propagate_independently(self):
        rt = compile_program(self.LABEL).start()
        rt.transaction(
            inserts={
                "GivenLabel": [(1, "x"), (9, "y")],
                "Edge": [(1, 2), (9, 2)],
            }
        )
        assert rows(rt, "Label") == {
            (1, "x"),
            (2, "x"),
            (9, "y"),
            (2, "y"),
        }

    def test_recompute_mode_agrees(self):
        inc = compile_program(self.LABEL).start()
        full = compile_program(self.LABEL, recursive_mode="recompute").start()
        script = [
            ({"GivenLabel": [(1, "x")], "Edge": [(1, 2), (2, 3), (3, 1)]}, {}),
            ({}, {"Edge": [(2, 3)]}),
            ({"Edge": [(3, 4)]}, {}),
            ({}, {"GivenLabel": [(1, "x")]}),
        ]
        for inserts, deletes in script:
            inc.transaction(inserts=inserts, deletes=deletes)
            full.transaction(inserts=inserts, deletes=deletes)
            assert rows(inc, "Label") == rows(full, "Label")

    def test_mutual_recursion(self):
        prog = """
        input relation Base(x: bigint)
        input relation Step(x: bigint, y: bigint)
        output relation Even(x: bigint)
        output relation Odd(x: bigint)
        Even(x) :- Base(x).
        Odd(y) :- Even(x), Step(x, y).
        Even(y) :- Odd(x), Step(x, y).
        """
        rt = compile_program(prog).start()
        rt.transaction(
            inserts={"Base": [(0,)], "Step": [(0, 1), (1, 2), (2, 3)]}
        )
        assert rows(rt, "Even") == {(0,), (2,)}
        assert rows(rt, "Odd") == {(1,), (3,)}
        rt.transaction(deletes={"Step": [(1, 2)]})
        assert rows(rt, "Even") == {(0,)}
        assert rows(rt, "Odd") == {(1,)}

    def test_negation_of_lower_stratum_in_recursion(self):
        prog = """
        input relation Edge(a: bigint, b: bigint)
        input relation Down(a: bigint, b: bigint)
        output relation Reach(a: bigint, b: bigint)
        Reach(a, b) :- Edge(a, b), not Down(a, b).
        Reach(a, c) :- Reach(a, b), Edge(b, c), not Down(b, c).
        """
        rt = compile_program(prog).start()
        rt.transaction(inserts={"Edge": [(1, 2), (2, 3)]})
        assert rows(rt, "Reach") == {(1, 2), (2, 3), (1, 3)}
        result = rt.transaction(inserts={"Down": [(2, 3)]})
        assert set(result.deleted("Reach")) == {(2, 3), (1, 3)}
        result = rt.transaction(deletes={"Down": [(2, 3)]})
        assert set(result.inserted("Reach")) == {(2, 3), (1, 3)}

    @pytest.mark.parametrize("binding", ["var m = k", "var m = FlatMap([k])"])
    def test_bound_head_variable_is_checked_on_rederive(self, binding):
        # Rederiving R(3) pre-binds m = 3; binding m in the body must
        # compare against it, not overwrite it with E(1, 2)'s k = 2.
        prog = f"""
        input relation S(n: bigint)
        input relation E(a: bigint, b: bigint)
        output relation R(n: bigint)
        R(n) :- S(n).
        R(m) :- R(n), E(n, k), {binding}.
        """
        rt = compile_program(prog).start()
        rt.transaction(inserts={"S": [(1,)], "E": [(1, 2), (1, 3)]})
        result = rt.transaction(deletes={"E": [(1, 3)]})
        assert result.deleted("R") == [(3,)]
        assert rows(rt, "R") == {(1,), (2,)}

    def test_rule_reading_its_own_head_relation(self):
        # The new H(1, 1, 3) lands in the very H bucket the join is
        # scanning for B(1, 1).
        prog = """
        input relation A(x: bigint, y: bigint)
        input relation B(y: bigint, z: bigint)
        output relation H(x: bigint, z: bigint, n: bigint)
        H(x, y, 1) :- A(x, y).
        H(x, x, n + 2) :- H(x, y, n), n < 2, B(y, x).
        """
        rt = compile_program(prog).start()
        rt.transaction(inserts={"A": [(1, 1)]})
        result = rt.transaction(inserts={"B": [(1, 1)]})
        assert result.inserted("H") == [(1, 1, 3)]
        result = rt.transaction(deletes={"B": [(1, 1)]})
        assert result.deleted("H") == [(1, 1, 3)]

    HOPS = """
    input relation Link(id: bigint, src: bigint, dst: bigint)
    output relation Hop(src: bigint, dst: bigint, first: bigint, n: bigint)
    Hop(a, b, b, 1) :- Link(_, a, b).
    Hop(a, c, f, n + 1) :- Hop(a, b, f, n), n < 4, Link(_, b, c), a != c.
    """

    def test_link_flap_rederives_without_scanning(self, monkeypatch):
        """Work bound, not a timing: checking ``Hop`` rows (computed
        column ``n + 1``) probes indexes only — no unkeyed lookup scans
        a whole relation — and a link failure removes exactly the
        ``Hop`` rows it deletes, none that a check puts back."""
        links = [(i, a, b) for i, (a, b) in enumerate(fat_tree(4))]
        unkeyed = []
        removed = []
        probe = IndexStore.probe
        remove = IndexStore.remove

        def counting_probe(store, rel, positions):
            get = probe(store, rel, positions)
            if positions:
                return get

            def unkeyed_get(key, default):
                unkeyed.append(rel)
                return get(key, default)

            return unkeyed_get

        def counting_remove(store, rel, row):
            done = remove(store, rel, row)
            if done and rel == "Hop":
                removed.append(row)
            return done

        # Probes are resolved when the rules compile.
        monkeypatch.setattr(IndexStore, "probe", counting_probe)
        rt = compile_program(self.HOPS).start()
        rt.transaction(inserts={"Link": links})
        unkeyed.clear()
        monkeypatch.setattr(IndexStore, "remove", counting_remove)
        a, b = links[0][1:], links[1][1:]
        assert a == b[::-1]  # one physical link, both directions
        down = rt.transaction(deletes={"Link": links[:2]})
        assert len(removed) == len(down.deleted("Hop"))
        up = rt.transaction(inserts={"Link": links[:2]})
        assert unkeyed == []
        assert down.deleted("Hop") and up.inserted("Hop")
        full = compile_program(self.HOPS, recursive_mode="recompute").start()
        full.transaction(inserts={"Link": links})
        assert rows(rt, "Hop") == rows(full, "Hop")

    def test_unstratified_negation_rejected(self):
        prog = """
        input relation E(x: bigint)
        output relation A(x: bigint)
        output relation B(x: bigint)
        A(x) :- E(x), not B(x).
        B(x) :- E(x), A(x), not A(x).
        """
        with pytest.raises(StratificationError):
            compile_program(prog)

    def test_aggregate_through_recursion_rejected(self):
        prog = """
        input relation E(a: bigint, b: bigint)
        output relation R(a: bigint, n: bigint)
        R(a, n) :- E(a, b), R(b, m), var n = Aggregate((a), count()).
        """
        with pytest.raises(StratificationError):
            compile_program(prog)


class TestFacts:
    def test_fact_rule(self):
        prog = """
        output relation Config(key: string, value: bigint)
        Config("mtu", 1500).
        Config("ttl", 64).
        """
        rt = compile_program(prog).start()
        assert rows(rt, "Config") == {("mtu", 1500), ("ttl", 64)}
        assert set(rt.initial_result.inserted("Config")) == {
            ("mtu", 1500),
            ("ttl", 64),
        }

    def test_fact_feeding_rule(self):
        prog = """
        input relation In(x: bigint)
        relation Defaults(x: bigint)
        output relation Out(x: bigint)
        Defaults(99).
        Out(x) :- Defaults(x).
        Out(x) :- In(x).
        """
        rt = compile_program(prog).start()
        assert rows(rt, "Out") == {(99,)}
        rt.transaction(inserts={"In": [(1,)]})
        assert rows(rt, "Out") == {(99,), (1,)}


class TestBodyShape:
    PROG = """
    input relation A(x: bigint)
    input relation B(x: bigint)
    output relation R(x: bigint)
    R(x) :- {body}.
    """

    @pytest.mark.parametrize(
        "body",
        [
            "1 < 2, A(x)",
            "var x = 1, A(x)",
            "var x = FlatMap([1, 2]), A(x)",
            "not B(1), A(x)",
            "var n = Aggregate((), count()), A(x)",
        ],
    )
    def test_body_with_atoms_must_start_with_one(self, body):
        """A rule with relation atoms is planned from its first item, so
        a guard, assignment, FlatMap, negated atom or aggregate ahead of
        every atom is a planning error, not a crash."""
        program = compile_program(self.PROG.format(body=body))
        with pytest.raises(TypeCheckError, match="must start with a relation atom"):
            program.start()


class TestMultiRuleRelations:
    def test_union_of_rules(self):
        prog = """
        input relation A(x: bigint)
        input relation B(x: bigint)
        output relation U(x: bigint)
        U(x) :- A(x).
        U(x) :- B(x).
        """
        rt = compile_program(prog).start()
        rt.transaction(inserts={"A": [(1,)], "B": [(1,), (2,)]})
        assert rows(rt, "U") == {(1,), (2,)}
        # (1,) has two derivations; deleting one keeps it.
        result = rt.transaction(deletes={"A": [(1,)]})
        assert result.deltas.get("U") is None

    def test_internal_relation_chain(self):
        prog = """
        input relation In(x: bigint)
        relation Mid(x: bigint)
        output relation Out(x: bigint)
        Mid(x) :- In(x), x > 0.
        Out(x) :- Mid(x), x < 10.
        """
        rt = compile_program(prog).start()
        result = rt.transaction(inserts={"In": [(-5,), (5,), (50,)]})
        assert result.inserted("Out") == [(5,)]


class TestMapsInRelations:
    def test_map_valued_column(self):
        prog = """
        input relation Conf(name: string, opts: Map<string, string>)
        output relation HasColor(name: string, color: string)
        HasColor(n, c) :- Conf(n, opts), var o = map_get(opts, "color"),
            var c = unwrap_or(o, "none"), c != "none".
        """
        rt = compile_program(prog).start()
        result = rt.transaction(
            inserts={
                "Conf": [
                    ("a", MapValue([("color", "red")])),
                    ("b", MapValue([("size", "xl")])),
                ]
            }
        )
        assert result.inserted("HasColor") == [("a", "red")]


class TestProfileAndDump:
    def test_profile_counts_transactions(self):
        prog = "input relation In(x: bigint)\noutput relation Out(x: bigint)\nOut(x) :- In(x)."
        rt = compile_program(prog).start()
        rt.transaction(inserts={"In": [(1,)]})
        rt.transaction(inserts={"In": [(2,)]})
        profile = rt.profile()
        # start() runs the initial (fact) transaction as well.
        assert profile["transactions"] == 3
        assert profile["state_records"] > 0

    def test_dump_unknown_relation(self):
        prog = "input relation In(x: bigint)\noutput relation Out(x: bigint)\nOut(x) :- In(x)."
        rt = compile_program(prog).start()
        with pytest.raises(KeyError):
            rt.dump("Nope")
