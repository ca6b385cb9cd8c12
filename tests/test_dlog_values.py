"""Value interning invariants and dataflow-core fast paths.

The fast dataflow core leans on three micro-invariants that are easy to
break silently during refactors, so each gets a direct unit test here:

* :class:`StructValue`/:class:`MapValue` are hash-consed — equal values
  are the *same object* within a process, and pickling re-interns;
* :meth:`ZSet.merge` into an empty receiver copies wholesale (and stays
  semantically identical to the per-record path);
* :class:`Arrangement` maintains its running record counter so
  ``total_records`` is O(1) and always matches a full recount.
"""

import gc
import pickle

from repro.dlog.dataflow.arrangement import Arrangement
from repro.dlog.dataflow.zset import ZSet
from repro.dlog.values import NONE, MapValue, StructValue, some


class TestStructInterning:
    def test_equal_structs_are_identical(self):
        assert StructValue("Pair", (1, 2)) is StructValue("Pair", (1, 2))

    def test_distinct_structs_are_distinct(self):
        assert StructValue("Pair", (1, 2)) is not StructValue("Pair", (1, 3))
        assert StructValue("A", (1,)) is not StructValue("B", (1,))

    def test_nested_structs_intern(self):
        inner = StructValue("Inner", (7,))
        outer = StructValue("Outer", (inner, "x"))
        assert outer is StructValue("Outer", (StructValue("Inner", (7,)), "x"))

    def test_option_helpers_intern(self):
        assert some(5) is some(5)
        assert StructValue("None", ()) is NONE

    def test_pickle_round_trip_reinterns(self):
        value = StructValue("Pair", (1, some(2)))
        assert pickle.loads(pickle.dumps(value)) is value

    def test_identity_implies_and_is_implied_by_equality(self):
        a = StructValue("P", (1, "x"))
        b = StructValue("P", (1, "x"))
        assert a == b and a is b and hash(a) == hash(b)

    def test_weak_table_does_not_pin(self):
        marker = StructValue("Transient", (id(object()),))
        key = (marker.constructor, marker.fields)
        del marker
        gc.collect()
        from repro.dlog.values import _struct_intern

        assert _struct_intern.get(key) is None

    def test_immutability_guard(self):
        value = StructValue("P", (1,))
        try:
            value.fields = (2,)
        except AttributeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("StructValue must be immutable")


class TestMapInterning:
    def test_equal_maps_are_identical(self):
        assert MapValue([(1, "a"), (2, "b")]) is MapValue([(2, "b"), (1, "a")])

    def test_insert_remove_results_intern(self):
        base = MapValue([(1, "a")])
        grown = base.insert(2, "b")
        assert grown is MapValue([(1, "a"), (2, "b")])
        assert grown.remove(2) is base

    def test_pickle_round_trip_reinterns(self):
        value = MapValue([(1, some(1)), (2, NONE)])
        assert pickle.loads(pickle.dumps(value)) is value


class TestZSetMergeFastPath:
    def test_empty_receiver_copies_wholesale(self):
        source = ZSet({"a": 2, "b": -1})
        empty = ZSet()
        empty.merge(source)
        assert empty == source
        # The copy must be by-value: mutating the receiver afterwards
        # must not reach back into the source.
        empty.add("a", 1)
        assert source.weight("a") == 2

    def test_fast_path_matches_slow_path(self):
        source = ZSet({"a": 2, "b": -1, "c": 3})
        fast = ZSet()
        fast.merge(source)
        slow = ZSet()
        for record, weight in source.items():
            slow.add(record, weight)
        assert fast == slow

    def test_merge_cancellation_still_drops_zeros(self):
        left = ZSet({"a": 2})
        left.merge(ZSet({"a": -2, "b": 1}))
        assert "a" not in left and left.weight("b") == 1


class TestArrangementCounter:
    @staticmethod
    def _recount(arr):
        return sum(len(group) for _, group in arr.items())

    def test_counter_tracks_update(self):
        arr = Arrangement()
        arr.update(ZSet({(1, "x"): 1, (2, "y"): 1, (1, "z"): 1}), lambda r: r[0])
        assert arr.total_records() == self._recount(arr) == 3
        # Retract one record, cancel it exactly.
        arr.update(ZSet({(1, "x"): -1}), lambda r: r[0])
        assert arr.total_records() == self._recount(arr) == 2
        # Weight changes on a surviving record don't change the count.
        arr.update(ZSet({(2, "y"): 3}), lambda r: r[0])
        assert arr.total_records() == self._recount(arr) == 2
