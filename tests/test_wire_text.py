"""Updates go to the wire as text.

Each P4 table's generated converter (``TableBinding.wire``) writes an
update's JSON text itself, from a ``%``-format made for each of the
table's (kind, action) pairs, and ``_encode_batch`` joins those texts
into the request.  These properties hold it to the path that shares
none of that code: ``binding.entry_for(row)`` → a
:class:`~repro.p4runtime.api.TableWrite` → its ``to_wire()`` dict →
``json.dumps``.  Tables are drawn over every match kind, with and
without a priority column, with actions of 0 to 3 parameters; values
over the whole range a row can hold (0 to 2**128, negatives, ``bool``)
and, for the error cases, values a row must not hold.

* **requests** — the ``apply_batch`` params of rows equal, byte for
  byte, those of the dicts, and a list mixing rows and table writes
  encodes the same;
* **rows** — every row, well-typed or not, gives the reference text or
  raises what the reference raises, with the same message.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codegen import generate_declarations
from repro.dlog.values import StructValue
from repro.errors import TypeCheckError
from repro.mgmt.jsonrpc import dumps
from repro.p4.p4info import ActionParam, MatchField, P4Info
from repro.p4runtime import aio_client
from repro.p4runtime.api import RowWrite, TableWrite, WriteList

KINDS = ("INSERT", "MODIFY", "DELETE")

_values = st.one_of(
    st.integers(0, 2**128), st.integers(-(2**128), -1), st.booleans()
)


@st.composite
def bindings(draw):
    """The binding of one table of 1 to 3 key columns (any match
    kinds) and 1 to 3 actions of 0 to 3 parameters each."""
    match_kinds = draw(
        st.lists(
            st.sampled_from(["exact", "lpm", "ternary"]),
            min_size=1, max_size=3,
        )
    )
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    p4info = P4Info()
    actions = []
    for i, arity in enumerate(arities):
        params = [ActionParam(f"p{j}", 32) for j in range(arity)]
        actions.append(p4info.add_action(f"act_{i}", params).name)
    fields = [
        MatchField(f"m.k{i}", 32, kind) for i, kind in enumerate(match_kinds)
    ]
    p4info.add_table("tbl", fields, actions, None, 64)
    _, generated = generate_declarations(None, p4info)
    (binding,) = generated.table_relations.values()
    return binding


@st.composite
def rows(draw, binding):
    """A well-typed output row of ``binding``'s relation."""
    keys = tuple(
        draw(_values)
        if field.match_kind == "exact"
        else (draw(_values), draw(_values))
        for _, field in binding.key_columns
    )
    constructor, (_, arity) = draw(
        st.sampled_from(sorted(binding.actions_by_constructor.items()))
    )
    params = tuple(draw(_values) for _ in range(arity))
    priority = (draw(_values),) if binding.has_priority else ()
    return keys + (StructValue(constructor, params),) + priority


#: What a column must not hold, or may hold only where the type checks
#: do not look (inside a pair, in a parameter, as the priority).
#: Hashable, so it can be an action parameter too.
_strays = st.one_of(
    st.sampled_from(["1", 1.5, None, (1, 2, 3), ("a", 2), 7]),
    st.tuples(_values, _values),
    st.builds(
        StructValue,
        st.sampled_from(["NoSuchAction", "TblActionAct0"]),
        st.lists(_values, max_size=4).map(tuple),
    ),
)


@st.composite
def loose_rows(draw, binding):
    """A well-typed row with one or two of its columns, or of its
    action's parameters, replaced by a stray value."""
    row = list(draw(rows(binding)))
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(row)))
        if at == len(row):  # a parameter of the action
            action = row[len(binding.key_columns)]
            if not isinstance(action, StructValue) or not action.fields:
                continue
            fields = list(action.fields)
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_strays)
            row[len(binding.key_columns)] = StructValue(
                action.constructor, tuple(fields)
            )
        else:
            row[at] = draw(st.one_of(_strays, st.just([1, 2])))
    return tuple(row)


def reference_write(binding, kind, row) -> TableWrite:
    return TableWrite(kind, binding.info.name, binding.entry_for(row))


def reference_params(updates, mcast, update_ids, fence, seq) -> bytes:
    """The ``apply_batch`` params as one ``dumps`` of the dict envelope."""
    envelope = {
        "updates": [u.to_wire() for u in updates],
        "mcast": [
            [group, list(ports) if ports is not None else None]
            for group, ports in sorted((mcast or {}).items())
        ],
        "update_ids": list(update_ids or ()),
    }
    if fence is not None:
        envelope["fence"] = fence
    if seq is not None:
        envelope["seq"] = list(seq)
    return dumps([envelope])


_envelopes = st.tuples(
    st.one_of(
        st.none(),
        st.dictionaries(
            st.integers(0, 64),
            st.one_of(st.none(), st.lists(st.integers(0, 255), max_size=3)),
            max_size=2,
        ),
    ),
    st.lists(st.text(max_size=6), max_size=3),
    st.one_of(st.none(), st.integers(0, 2**31)),
    st.one_of(st.none(), st.tuples(st.integers(0, 99), st.integers(0, 99))),
)


# ---------------------------------------------------------------------------
# Requests.
# ---------------------------------------------------------------------------


@settings(max_examples=200)
@given(data=st.data(), envelope=_envelopes)
def test_rows_encode_to_the_bytes_of_the_dict_envelope(data, envelope):
    binding = data.draw(bindings())
    batch = data.draw(
        st.lists(st.tuples(st.sampled_from(KINDS), rows(binding)), max_size=6)
    )
    writes = WriteList(RowWrite(kind, binding, row) for kind, row in batch)
    reference = [reference_write(binding, kind, row) for kind, row in batch]
    expected = reference_params(reference, *envelope)
    assert aio_client._encode_batch(writes, *envelope) == expected
    assert aio_client._encode_batch(reference, *envelope) == expected
    assert [w.to_wire() for w in writes] == [r.to_wire() for r in reference]


@settings(max_examples=100)
@given(data=st.data(), envelope=_envelopes)
def test_a_list_mixing_rows_and_table_writes_encodes_the_same(data, envelope):
    binding = data.draw(bindings())
    batch = data.draw(
        st.lists(
            st.tuples(st.sampled_from(KINDS), rows(binding), st.booleans()),
            max_size=6,
        )
    )
    mixed = WriteList(
        reference_write(binding, kind, row)
        if as_table_write
        else RowWrite(kind, binding, row)
        for kind, row, as_table_write in batch
    )
    reference = [reference_write(binding, kind, row) for kind, row, _ in batch]
    assert aio_client._encode_batch(mixed, *envelope) == reference_params(
        reference, *envelope
    )
    # The blocking ``write`` sends the same array of updates.
    assert aio_client._updates_json(mixed) == dumps(
        [r.to_wire() for r in reference]
    )


# ---------------------------------------------------------------------------
# Rows.
# ---------------------------------------------------------------------------


def reference_outcome(binding, kind, row):
    """The update text the entry path gives for ``row``, or the type
    and message of what it raises (a ``TypeCheckError`` from the type
    checks, a ``TypeError`` from ``dumps`` for a value JSON has no
    form for)."""
    try:
        return dumps(reference_write(binding, kind, row).to_wire()).decode()
    except (TypeCheckError, TypeError) as exc:
        return (type(exc), str(exc))


def wire_outcome(binding, kind, row):
    try:
        return binding.wire(kind, row)
    except (TypeCheckError, TypeError) as exc:
        return (type(exc), str(exc))


@settings(max_examples=300)
@given(data=st.data(), kind=st.sampled_from(KINDS))
def test_every_row_gives_the_reference_text_or_its_error(data, kind):
    binding = data.draw(bindings())
    row = data.draw(st.one_of(rows(binding), loose_rows(binding)))
    assert wire_outcome(binding, kind, row) == reference_outcome(
        binding, kind, row
    )


def _acl_binding():
    """One fixed table: an exact, an lpm and a ternary column (so a
    priority), and actions of 0 and 2 parameters."""
    p4info = P4Info()
    p4info.add_action("drop", [])
    p4info.add_action("set", [ActionParam("a", 32), ActionParam("b", 32)])
    p4info.add_table(
        "acl",
        [
            MatchField("m.x", 16, "exact"),
            MatchField("m.y", 32, "lpm"),
            MatchField("m.z", 32, "ternary"),
        ],
        ["drop", "set"],
        None,
        64,
    )
    _, generated = generate_declarations(None, p4info)
    return generated.table_relations["Acl"]


def test_a_row_converts_without_json_dumps(monkeypatch):
    """The formats are made with the binding, and neither path of the
    converter calls ``json.dumps``: an encode's one ``dumps`` is the
    envelope's."""
    binding = _acl_binding()
    calls = []
    real = json.dumps

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    set_ab = StructValue("AclActionSet", (5, 6))
    for row in (
        (1, (10, 8), (3, 255), set_ab, 7),  # every value an int
        (True, (10, 8), (3, 255), set_ab, 7),  # a bool: field by field
    ):
        for kind in KINDS:
            binding.wire(kind, row)
    assert calls == []
    assert binding.wire("INSERT", (1, (10, 8), (3, 255), set_ab, 7)) == (
        '{"type":"INSERT","table":"acl","match":[{"exact":1},'
        '{"lpm":[10,8]},{"ternary":[3,255]}],'
        '"action":{"name":"set","params":[5,6]},"priority":7}'
    )


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


def run_outcome(binding, kind, rows):
    try:
        return binding.wire_run(kind, rows)
    except (TypeCheckError, TypeError) as exc:
        return (type(exc), str(exc))


def joined_outcome(binding, kind, rows):
    """The reference texts of ``rows`` joined, or the error of the first
    row the entry path refuses."""
    texts = []
    for row in rows:
        outcome = reference_outcome(binding, kind, row)
        if isinstance(outcome, tuple):
            return outcome
        texts.append(outcome)
    return ",".join(texts)


@settings(max_examples=300)
@given(data=st.data(), kind=st.sampled_from(KINDS))
def test_a_run_gives_the_joined_row_texts_or_the_first_rows_error(data, kind):
    """``wire_run`` over rows of any match kinds and priorities, with
    ``bool`` and out-of-range values, strings, unknown constructors and
    wrong arities mixed in: the entry path's texts joined, or the error
    it raises for the first row it refuses."""
    binding = data.draw(bindings())
    rows_ = data.draw(
        st.lists(st.one_of(rows(binding), loose_rows(binding)), max_size=6)
    )
    assert run_outcome(binding, kind, rows_) == joined_outcome(
        binding, kind, rows_
    )


@settings(max_examples=100)
@given(data=st.data(), envelope=_envelopes)
def test_a_list_of_runs_encodes_to_the_bytes_of_its_row_writes(data, envelope):
    """A device batch's list holds runs of rows; encoded, it is byte for
    byte what the same writes as one ``RowWrite`` each encode to, and
    reading its items gives those writes."""
    binding = data.draw(bindings())
    runs = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(KINDS),
                st.lists(rows(binding), min_size=1, max_size=4),
            ),
            max_size=4,
        )
    )
    writes = WriteList.of_runs(
        [(kind, binding, list(batch)) for kind, batch in runs]
    )
    flat = [(kind, row) for kind, batch in runs for row in batch]
    reference = WriteList(RowWrite(kind, binding, row) for kind, row in flat)
    assert len(writes) == len(flat)
    assert bool(writes) == bool(flat)
    assert aio_client._encode_batch(writes, *envelope) == (
        aio_client._encode_batch(reference, *envelope)
    )
    assert [(w.kind, w.row) for w in writes] == flat
    assert [(w.kind, w.row) for w in reversed(writes)] == flat[::-1]
    if flat:
        assert (writes[-1].kind, writes[-1].row) == flat[-1]


def test_every_read_of_a_runs_list_sees_row_writes():
    """A list of runs stores rows in its slots; comparing, ``in``,
    ``index``, ``count``, ``copy``, ``+`` and ``repr`` all see its
    ``RowWrite`` items, never a raw row."""
    binding = _acl_binding()
    good = (1, (10, 8), (3, 255), StructValue("AclActionSet", (5, 6)), 7)
    other = (2, (10, 8), (3, 255), StructValue("AclActionDrop", ()), 7)

    def fresh():
        return WriteList.of_runs(
            [("DELETE", binding, [good]), ("INSERT", binding, [other])]
        )

    assert fresh() != [good, other]
    assert good not in fresh()
    assert fresh().count(good) == 0
    assert repr(fresh()).startswith("[RowWrite(DELETE acl ")
    for items in (fresh().copy(), fresh() + [], fresh() * 1):
        assert [(w.kind, w.row) for w in items] == [
            ("DELETE", good), ("INSERT", other)
        ]
    writes = fresh()
    first = list.__getitem__(writes, 0)
    assert first is good  # still the raw row in its slot
    assert writes == [writes[0], writes[1]]
    assert writes.index(writes[1]) == 1
    assert writes[0] in writes and writes[0].row is good


def test_a_run_refuses_each_row_wire_refuses():
    """Rows whose values are all ints but whose action is unknown, of
    the wrong arity or no constructor at all, and a ``str`` or ``bool``
    value: a run of a good row and the bad one gives ``wire``'s text
    or raises ``wire``'s error."""
    binding = _acl_binding()
    good = (1, (10, 8), (3, 255), StructValue("AclActionSet", (5, 6)), 7)
    for bad in (
        (1, (10, 8), (3, 255), StructValue("AclActionSet", (5,)), 7),
        (1, (10, 8), (3, 255), StructValue("AclActionSet", (5, 6, 7)), 7),
        (1, (10, 8), (3, 255), StructValue("AclActionDrop", (5,)), 7),
        (1, (10, 8), (3, 255), StructValue("NoSuchAction", ()), 7),
        (1, (10, 8), (3, 255), 4, 7),
        ("1", (10, 8), (3, 255), StructValue("AclActionDrop", ()), 7),
        (True, (10, 8), (3, 255), StructValue("AclActionDrop", ()), 7),
        (1, 10, (3, 255), StructValue("AclActionDrop", ()), 7),
    ):
        for kind in KINDS:
            outcome = run_outcome(binding, kind, [good, bad])
            assert outcome == joined_outcome(binding, kind, [good, bad])
            if bad[0] is not True:
                assert isinstance(outcome, tuple), bad  # refused
