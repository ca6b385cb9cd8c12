"""Property test: table lookup semantics vs. a brute-force oracle.

The indexed implementations (hash for exact, per-prefix-length dicts
for lpm, priority lists for ternary) must agree with the obvious
O(entries) reference on random tables and random probes — after
inserts, and after modifies, deletes and rolled-back batches, which
(as a table indexes them) put each entry they write or restore last in
insertion order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p4.p4info import ActionParam, MatchField, P4Info
from repro.p4.tables import FieldMatch, TableEntry, TableState

WIDTH = 8


def make_state(kinds):
    info = P4Info()
    info.add_action("act", [ActionParam("p", 16)])
    tinfo = info.add_table(
        "t",
        [MatchField(f"k{i}", WIDTH, kind) for i, kind in enumerate(kinds)],
        ["act"],
        None,
        4096,
    )
    return TableState(tinfo)


def oracle_lookup(entries, kinds, values):
    """Reference semantics straight from the P4 spec."""
    candidates = [
        e
        for e in entries
        if all(
            m.matches(v, WIDTH) for m, v in zip(e.matches, values)
        )
    ]
    if not candidates:
        return None
    if any(k == "ternary" for k in kinds):
        # Highest priority wins; ties by insertion order (list order).
        best = max(range(len(candidates)), key=lambda i: (candidates[i].priority, -i))
        return candidates[best]
    if "lpm" in kinds:
        pos = kinds.index("lpm")
        return max(candidates, key=lambda e: e.matches[pos].arg or 0)
    return candidates[0]


@st.composite
def table_scenario(draw):
    kinds = draw(
        st.sampled_from(
            [
                ("exact",),
                ("lpm",),
                ("exact", "lpm"),
                ("ternary",),
                ("exact", "ternary"),
                ("lpm", "ternary"),
            ]
        )
    )
    entries = []
    seen = set()
    for _ in range(draw(st.integers(0, 10))):
        matches = []
        for kind in kinds:
            value = draw(st.integers(0, (1 << WIDTH) - 1))
            if kind == "exact":
                matches.append(FieldMatch.exact(value))
            elif kind == "lpm":
                plen = draw(st.integers(0, WIDTH))
                value &= ~((1 << (WIDTH - plen)) - 1) & ((1 << WIDTH) - 1)
                matches.append(FieldMatch.lpm(value, plen))
            else:
                mask = draw(st.integers(0, (1 << WIDTH) - 1))
                matches.append(FieldMatch.ternary(value & mask, mask))
        priority = (
            draw(st.integers(1, 9)) if any(k == "ternary" for k in kinds) else 0
        )
        entry = TableEntry(matches, "act", [draw(st.integers(0, 99))], priority)
        if entry.match_key() in seen:
            continue
        seen.add(entry.match_key())
        entries.append(entry)
    probes = draw(
        st.lists(
            st.tuples(*[st.integers(0, (1 << WIDTH) - 1) for _ in kinds]),
            min_size=1,
            max_size=15,
        )
    )
    return kinds, entries, probes


_writes = st.tuples(
    st.sampled_from(["MODIFY", "DELETE"]),
    st.integers(0, 99),  # which entry, modulo the count
    st.integers(0, 99),  # a modify's new parameter
)
#: Writes that hold, and batches of writes rolled back after.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _writes),
        st.tuples(st.just("rollback"), st.lists(_writes, min_size=1, max_size=3)),
    ),
    max_size=8,
)


def _write(state, order, step):
    """One write of ``step`` to ``state`` and to the oracle's list of
    entries in insertion order; returns what undoes it."""
    kind, which, param = step
    current = order[which % len(order)]
    key = current.match_key()
    entry = TableEntry(current.matches, "act", [param], current.priority)
    old = state.write(kind, key, (entry.action, *entry.action_params))
    order.remove(current)
    if kind == "MODIFY":
        order.append(entry)
    return key, old


def _restore(state, order, key, old):
    """Undo one write, as a failed batch does: ``old`` back, last."""
    state.restore(key, old)
    order[:] = [e for e in order if e.match_key() != key]
    if old is not None:
        order.append(old)


class TestTableOracle:
    @settings(max_examples=120, deadline=None)
    @given(table_scenario())
    def test_lookup_matches_oracle(self, scenario):
        kinds, entries, probes = scenario
        state = make_state(kinds)
        for entry in entries:
            state.insert(entry)
        for probe in probes:
            expected = oracle_lookup(entries, kinds, list(probe))
            got_action, got_params, hit = state.lookup(list(probe))
            if expected is None:
                assert not hit
            else:
                assert hit
                # For ternary ties we only require a maximal-priority
                # candidate, since P4 leaves equal-priority order
                # target-defined; both implementations use insertion
                # order, so parameters must match the oracle exactly.
                assert got_params == expected.action_params

    @settings(max_examples=60, deadline=None)
    @given(table_scenario())
    def test_delete_restores_oracle_agreement(self, scenario):
        kinds, entries, probes = scenario
        if not entries:
            return
        state = make_state(kinds)
        for entry in entries:
            state.insert(entry)
        removed = entries[len(entries) // 2]
        state.delete(removed)
        remaining = [e for e in entries if e.match_key() != removed.match_key()]
        for probe in probes:
            expected = oracle_lookup(remaining, kinds, list(probe))
            _, got_params, hit = state.lookup(list(probe))
            if expected is None:
                assert not hit
            else:
                assert hit
                assert got_params == expected.action_params

    @settings(max_examples=80, deadline=None)
    @given(table_scenario(), _steps)
    def test_modify_and_rollback_keep_oracle_agreement(self, scenario, steps):
        kinds, entries, probes = scenario
        state = make_state(kinds)
        for entry in entries:
            state.insert(entry)
        order = list(entries)
        for step, arg in steps:
            if not order:
                break
            if step == "write":
                _write(state, order, arg)
                continue
            undo = [_write(state, order, write) for write in arg if order]
            for key, old in reversed(undo):
                _restore(state, order, key, old)
        assert len(state) == len(order)
        for probe in probes:
            expected = oracle_lookup(order, kinds, list(probe))
            _, got_params, hit = state.lookup(list(probe))
            if expected is None:
                assert not hit
            else:
                assert hit
                assert got_params == expected.action_params


def test_deleting_a_ternary_entry_reads_no_other_entry(monkeypatch):
    """A delete finds its entry in the priority list by bisection: of a
    2,000-entry ternary table, it takes no other entry's match key."""
    state = make_state(("ternary",))
    entries = [
        TableEntry([FieldMatch.ternary(i & 0xFF, 0xFF)], "act", [i], i + 1)
        for i in range(2000)
    ]
    for entry in entries:
        state.insert(entry)
    keyed = []
    real = TableEntry.match_key

    def match_key(entry):
        keyed.append(entry)
        return real(entry)

    monkeypatch.setattr(TableEntry, "match_key", match_key)
    removed = entries[1746]  # the best match of 1746 & 0xFF
    state.delete(removed)
    assert [e for e in keyed if e is not removed] == []
    assert len(state) == 1999
    assert state.lookup([1746 & 0xFF]) == ("act", (1746 - 256,), True)
