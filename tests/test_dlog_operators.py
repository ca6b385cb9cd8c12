"""Unit and property tests for the incremental dataflow operators.

The key property throughout: feeding deltas one at a time produces the
same accumulated output as feeding their sum at once, and both equal
the non-incremental recomputation over the accumulated input.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dlog.dataflow.arrangement import Arrangement
from repro.dlog.dataflow.graph import Graph
from repro.dlog.dataflow.operators import (
    AggregateNode,
    AntiJoinNode,
    DistinctNode,
    JoinNode,
    ScanNode,
    SourceNode,
    emit,
)
from repro.dlog.dataflow.zset import ZSet
from repro.dlog.stdlib import AGGREGATES


def z(*pairs):
    out = ZSet()
    for record, weight in pairs:
        out.add(record, weight)
    return out


class TestLinearOperators:
    """A linear stretch is a step run once per record; a ScanNode runs
    one over a relation's delta, in any of the shapes a rule compiles
    to."""

    def test_map(self):
        node = ScanNode(lambda r, w, out: emit(r * 10, w, out))
        out = node.process([z((1, 1), (2, -2))])
        assert out == z((10, 1), (20, -2))

    def test_filter(self):
        def evens(r, w, out):
            if r % 2 == 0:
                emit(r, w, out)

        node = ScanNode(evens)
        out = node.process([z((1, 1), (2, 1), (4, -1))])
        assert out == z((2, 1), (4, -1))

    def test_flatmap(self):
        def expand(r, w, out):
            for elem in range(r):
                emit(elem, w, out)

        node = ScanNode(expand)
        out = node.process([z((2, 1), (3, -1))])
        assert out == z((0, 1), (1, 1), (0, -1), (1, -1), (2, -1))

    def test_union(self):
        """Producers feeding one port are summed by the graph (there is
        no union operator); the first producer's delta is not mutated."""
        graph = Graph()
        sources = [graph.add(SourceNode()) for _ in range(3)]
        sink = graph.add(ScanNode(emit))
        for source in sources:
            source.connect_to(sink, 0)
        first = z(("a", 1))
        outputs = graph.run(
            {id(sources[0]): first, id(sources[1]): z(("a", 1), ("b", -1))}
        )
        assert outputs[id(sink)] == z(("a", 2), ("b", -1))
        assert first == z(("a", 1))

    def test_map_merges_collisions(self):
        node = ScanNode(lambda r, w, out: emit(r % 2, w, out))
        out = node.process([z((1, 1), (3, 1), (5, -2))])
        assert out == z((1, 0)) == ZSet()


class TestDistinct:
    def test_first_insert_emits_plus_one(self):
        node = DistinctNode()
        assert node.process([z(("a", 3))]) == z(("a", 1))

    def test_duplicate_support_is_silent(self):
        node = DistinctNode()
        node.process([z(("a", 1))])
        assert node.process([z(("a", 1))]) == ZSet()

    def test_removal_of_last_support_emits_minus_one(self):
        node = DistinctNode()
        node.process([z(("a", 2))])
        assert node.process([z(("a", -1))]) == ZSet()
        assert node.process([z(("a", -1))]) == z(("a", -1))

    def test_multi_port_sums_before_distinct(self):
        node = DistinctNode(n_ports=2)
        out = node.process([z(("a", 1)), z(("a", -1))])
        assert out == ZSet()

    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), max_size=6),
            max_size=8,
        )
    )
    def test_incremental_equals_recompute(self, batches):
        node = DistinctNode()
        accumulated_in = ZSet()
        accumulated_out = ZSet()
        for batch in batches:
            delta = z(*batch)
            accumulated_in.merge(delta)
            accumulated_out.merge(node.process([delta]))
        assert accumulated_out == accumulated_in.positive_part()


def _join_reference(left, right):
    """Non-incremental reference join on first tuple element."""
    out = ZSet()
    for lrow, lw in left.items():
        for rrow, rw in right.items():
            if lrow[0] == rrow[0]:
                out.add((lrow, rrow), lw * rw)
    return out


small_zsets = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-2, 2)),
    max_size=6,
)


class TestJoin:
    def _node(self):
        return JoinNode(
            left_key=lambda row: row[0],
            right_key=lambda row: row[0],
            step=lambda a, b, w, out: emit((a, b), w, out),
        )

    def test_simple_join(self):
        node = self._node()
        out = node.process([z(((1, "l"), 1)), z(((1, "r"), 1))])
        assert out == z((((1, "l"), (1, "r")), 1))

    def test_no_match_no_output(self):
        node = self._node()
        out = node.process([z(((1, "l"), 1)), z(((2, "r"), 1))])
        assert out == ZSet()

    def test_late_arrival_joins_against_state(self):
        node = self._node()
        node.process([z(((1, "l"), 1)), None])
        out = node.process([None, z(((1, "r"), 1))])
        assert out == z((((1, "l"), (1, "r")), 1))

    def test_deletion_retracts_join_result(self):
        node = self._node()
        node.process([z(((1, "l"), 1)), z(((1, "r"), 1))])
        out = node.process([z(((1, "l"), -1)), None])
        assert out == z((((1, "l"), (1, "r")), -1))

    def test_merge_returning_none_drops_pair(self):
        """A pair whose step derives nothing (a failed residual match)
        leaves no trace in the output."""

        def pair(a, b, w, out):
            if b[1] != "skip":
                emit((a, b), w, out)

        node = JoinNode(
            left_key=lambda row: row[0], right_key=lambda row: row[0], step=pair
        )
        out = node.process([z(((1, "l"), 1)), z(((1, "skip"), 1), ((1, "ok"), 1))])
        assert out == z((((1, "l"), (1, "ok")), 1))

    @settings(max_examples=60)
    @given(st.lists(st.tuples(small_zsets, small_zsets), max_size=6))
    def test_incremental_equals_recompute(self, batches):
        node = self._node()
        left_acc, right_acc, out_acc = ZSet(), ZSet(), ZSet()
        for lbatch, rbatch in batches:
            dl, dr = z(*lbatch), z(*rbatch)
            left_acc.merge(dl)
            right_acc.merge(dr)
            out_acc.merge(node.process([dl, dr]))
        assert out_acc == _join_reference(left_acc, right_acc)


class TestAntiJoin:
    def _node(self):
        return AntiJoinNode(left_key=lambda row: row[0], step=emit)

    def test_passes_when_right_absent(self):
        node = self._node()
        assert node.process([z(((1, "a"), 1)), None]) == z(((1, "a"), 1))

    def test_blocked_when_right_present(self):
        node = self._node()
        assert node.process([z(((1, "a"), 1)), z((1, 1))]) == ZSet()

    def test_right_insert_retracts_existing_left(self):
        node = self._node()
        node.process([z(((1, "a"), 1)), None])
        out = node.process([None, z((1, 1))])
        assert out == z(((1, "a"), -1))

    def test_right_delete_releases_left(self):
        node = self._node()
        node.process([z(((1, "a"), 1)), z((1, 1))])
        out = node.process([None, z((1, -1))])
        assert out == z(((1, "a"), 1))

    def test_multiple_right_support(self):
        node = self._node()
        node.process([z(((1, "a"), 1)), z((1, 2))])
        assert node.process([None, z((1, -1))]) == ZSet()
        assert node.process([None, z((1, -1))]) == z(((1, "a"), 1))

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                small_zsets,
                st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), max_size=5),
            ),
            max_size=6,
        )
    )
    def test_incremental_equals_recompute(self, batches):
        node = self._node()
        left_acc, right_acc, out_acc = ZSet(), ZSet(), ZSet()
        for lbatch, rbatch in batches:
            dl, dr = z(*lbatch), z(*rbatch)
            left_acc.merge(dl)
            right_acc.merge(dr)
            out_acc.merge(node.process([dl, dr]))
        expected = ZSet()
        present = {k for k, w in right_acc.items() if w > 0}
        for record, weight in left_acc.items():
            if record[0] not in present:
                expected.add(record, weight)
        assert out_acc == expected


class TestAggregate:
    def _node(self, fold):
        # records are (key, value) pairs
        return AggregateNode(
            key_fn=lambda r: (r[0],),
            args_fn=lambda r: (r[1],),
            fold=fold,
            step=emit,
        )

    def test_count(self):
        node = self._node(lambda rows: len(rows))
        out = node.process([z((("k", 1), 1), (("k", 2), 1))])
        assert out == z((("k", 2), 1))

    def test_update_retracts_old_value(self):
        node = self._node(lambda rows: len(rows))
        node.process([z((("k", 1), 1))])
        out = node.process([z((("k", 2), 1))])
        assert out == z((("k", 1), -1), (("k", 2), 1))

    def test_group_disappears(self):
        node = self._node(lambda rows: len(rows))
        node.process([z((("k", 1), 1))])
        out = node.process([z((("k", 1), -1))])
        assert out == z((("k", 1), -1))

    def test_sum(self):
        node = self._node(lambda rows: sum(r[0] for r in rows))
        out = node.process([z((("k", 3), 1), (("k", 4), 2))])
        assert out == z((("k", 11), 1))

    def test_unaffected_groups_untouched(self):
        calls = []

        def fold(rows):
            calls.append(rows)
            return len(rows)

        node = self._node(fold)
        node.process([z((("a", 1), 1), (("b", 1), 1))])
        calls.clear()
        node.process([z((("a", 2), 1))])
        # Only group "a" re-aggregated, once, after the delta (its old
        # value is cached); group "b" is never folded again.
        assert calls == [[(1,), (2,)]]

    @settings(max_examples=60)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.tuples(st.integers(0, 2), st.integers(0, 3)),
                    st.integers(-1, 2),
                ),
                max_size=5,
            ),
            max_size=6,
        ).filter(
            # Keep accumulated multiplicities non-negative per record.
            lambda batches: all(
                sum(
                    w
                    for batch in batches[: i + 1]
                    for rec, w in batch
                    if rec == target
                )
                >= 0
                for i, _ in enumerate(batches)
                for target in {rec for batch in batches for rec, _ in batch}
            )
        )
    )
    def test_incremental_equals_recompute(self, batches):
        node = self._node(lambda rows: sum(r[0] for r in rows))
        acc_in, acc_out = ZSet(), ZSet()
        for batch in batches:
            delta = z(*batch)
            acc_in.merge(delta)
            acc_out.merge(node.process([delta]))
        expected = ZSet()
        groups = {}
        for (key, value), weight in acc_in.items():
            groups.setdefault(key, []).extend([value] * weight)
        for key, values in groups.items():
            if values:
                expected.add(((key,) + (sum(values),)), 1)
        assert acc_out == expected


_CACHED = ("min", "max", "count")


def _cached_node(name):
    """A real aggregate over ``(key, value, tag)`` records: ``tag`` lets
    two records share one argument, so a group's argument multiplicity
    grows both ways."""
    agg = AGGREGATES[name]
    return AggregateNode(
        lambda r: (r[0],),
        (lambda r: (r[1],)) if agg.nargs else (lambda r: ()),
        agg.fn,
        emit,
        select=agg.select,
    )


@st.composite
def _aggregate_batches(draw):
    """Batches of consistent deltas over ``(key, value, tag)`` records.

    Each batch is a few edits applied to a model bag: an insert (up to
    3 copies), a delete of some copies of a present record, a delete of
    every copy of a group's current min or max, or a delete of a whole
    group (which later inserts refill).  The batch is the bag's net
    change, so multiplicities never go negative."""
    bag: dict = {}
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        before = dict(bag)
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from(["insert", "delete", "extreme", "empty"]))
            if kind == "insert" or not bag:
                record = (
                    draw(st.integers(0, 2)),
                    draw(st.integers(0, 5)),
                    draw(st.integers(0, 1)),
                )
                bag[record] = bag.get(record, 0) + draw(st.integers(1, 3))
                continue
            key = draw(st.sampled_from(sorted({r[0] for r in bag})))
            group = [r for r in bag if r[0] == key]
            if kind == "delete":
                record = draw(st.sampled_from(sorted(group)))
                bag[record] -= draw(st.integers(1, bag[record]))
            else:
                if kind == "extreme":
                    pick = draw(st.sampled_from([min, max]))
                    value = pick(r[1] for r in group)
                    group = [r for r in group if r[1] == value]
                for record in group:
                    bag[record] = 0
            bag = {r: n for r, n in bag.items() if n}
        delta = ZSet()
        for record in set(before) | set(bag):
            delta.add(record, bag.get(record, 0) - before.get(record, 0))
        batches.append(delta)
    return batches


class TestAggregateCache:
    """A node keeps each group's value between deltas; after every
    batch, output and cache equal a from-scratch fold."""

    @settings(max_examples=150, deadline=None)
    @given(batches=_aggregate_batches())
    def test_cached_value_equals_fold(self, batches):
        nodes = {name: _cached_node(name) for name in _CACHED}
        outputs = {name: ZSet() for name in _CACHED}
        acc = ZSet()
        for delta in batches:
            acc.merge(delta)
            for name, node in nodes.items():
                outputs[name].merge(node.process([delta]))
                rows: dict = {}
                for (key, value, _), count in acc.items():
                    rows.setdefault((key,), []).extend([(value,)] * count)
                agg = AGGREGATES[name]
                want = {
                    key: agg.fn(group if agg.nargs else [()] * len(group))
                    for key, group in rows.items()
                }
                assert node.values == want
                assert outputs[name] == z(
                    *((key + (value,), 1) for key, value in want.items())
                )

    def test_extreme_last_copy_refolds_distinct_arguments(self):
        node = _cached_node("min")
        node.process([z((("k", 1, 0), 2), (("k", 1, 1), 1), (("k", 4, 0), 1))])
        # Two of three copies of the minimum leave: it stays.
        assert node.process([z((("k", 1, 0), -2))]) == ZSet()
        out = node.process([z((("k", 1, 1), -1), (("k", 3, 0), 1))])
        assert out == z((("k", 1), -1), (("k", 3), 1))
        assert node.values == {("k",): 3}

    @pytest.mark.parametrize("name", _CACHED)
    def test_negative_multiplicity_raises(self, name):
        node = _cached_node(name)
        node.process([z((("k", 1, 0), 1), (("k", 2, 0), 1))])
        with pytest.raises(ValueError, match="negative multiplicity"):
            node.process([z((("k", 1, 0), -3))])

    def test_restore_derives_values(self):
        source = _cached_node("max")
        source.process([z((("a", 1, 0), 1), (("a", 5, 0), 2), (("b", 2, 0), 1))])
        restored = _cached_node("max")
        groups = Arrangement()
        for key, group in source.groups.items():
            for args, count in group.items():
                groups.add(key, args, count)
        restored.restore(groups)
        assert restored.values == source.values == {("a",): 5, ("b",): 2}
        delta = z((("a", 5, 0), -2))
        assert restored.process([delta]) == source.process([delta])


# -- from-empty shortcuts are unobservable -----------------------------------

SENTINEL = 99  # a key outside the generated domain (0..3)

_keyed = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-2, 2)),
    max_size=6,
)
_keys = st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), max_size=4)

#: operator -> (factory, per-port delta strategies, sentinel primer deltas)
STATEFUL = {
    "distinct": (DistinctNode, [_keyed], [[((SENTINEL, 0), 1)]]),
    "join": (
        lambda: JoinNode(
            lambda l: l[0], lambda r: r[0], lambda l, r, w, out: emit((l, r), w, out)
        ),
        [_keyed, _keyed],
        [[((SENTINEL, 0), 1)], [((SENTINEL, 1), 1)]],
    ),
    "antijoin": (
        lambda: AntiJoinNode(lambda l: l[0], emit),
        [_keyed, _keys],
        [[((SENTINEL, 0), 1)], [(SENTINEL, 1)]],
    ),
    "aggregate": (
        lambda: AggregateNode(
            lambda r: (r[0],),
            lambda r: (r[1],),
            lambda rows: sum(a[0] for a in rows),
            emit,
        ),
        [_keyed],
        [[((SENTINEL, 0), 1)]],
    ),
}


def _mentions_sentinel(x):
    return x == SENTINEL or (
        isinstance(x, tuple) and any(_mentions_sentinel(e) for e in x)
    )


def _state(node):
    """The operator's state tables with sentinel entries dropped."""
    if isinstance(node, DistinctNode):
        tables = [node.counts.data]
    elif isinstance(node, JoinNode):
        tables = [node.left.data, node.right.data]
    elif isinstance(node, AntiJoinNode):
        tables = [node.left.data, node.right_counts]
    else:
        tables = [node.groups.data]
    return [
        {k: v for k, v in table.items() if not _mentions_sentinel(k)}
        for table in tables
    ]


def _outcome(node, deltas):
    try:
        return node.process(deltas)
    except ValueError as exc:  # aggregate: negative multiplicity
        return str(exc)


class TestFromEmptyShortcuts:
    """Stateful operators may shortcut when their own state is empty.
    A node primed with a record under a disjoint key never does, so for
    any delta sequence — negative weights included — both must emit the
    same outputs and end in the same state."""

    @pytest.mark.parametrize("kind", sorted(STATEFUL))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fresh_equals_primed(self, kind, data):
        factory, ports, primer = STATEFUL[kind]
        fresh, primed = factory(), factory()
        primed.process([z(*port) for port in primer])
        sentinel_size = primed.state_size()
        assert sentinel_size > 0
        for _ in range(data.draw(st.integers(1, 3))):
            batch = [z(*data.draw(port)) for port in ports]
            assert _outcome(fresh, batch) == _outcome(primed, batch)
            assert _state(fresh) == _state(primed)
            assert fresh.state_size() == primed.state_size() - sentinel_size
