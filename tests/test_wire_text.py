"""Updates go to the wire as text, and to in-process tables decoded.

Each P4 table's generated converter (``TableBinding.wire_run``) writes
an update's JSON text itself, from a ``%``-format made for each of the
table's (kind, action) pairs, and ``_encode_batch`` joins those texts
into the request.  These properties hold it to the path that shares
none of that code: the row's decoded form
(``binding.decoded_run(kind, rows)``, what an in-process device
applies) → :func:`~repro.p4runtime.api.encode_update`'s dict →
``json.dumps``.  And they hold the decoded form to the text: it is what
:func:`~repro.p4runtime.api.decode_update` reads back from it.  Tables
are drawn over every match kind, with and without a priority column,
with actions of 0 to 3 parameters; values over the whole range a row
can hold (0 to 2**128, negatives, ``bool``) and, for the error cases,
values a row must not hold.

* **requests** — the ``apply_batch`` params of rows equal, byte for
  byte, those of the dicts, and a batch mixing runs of rows and of
  decoded pairs encodes the same;
* **rows** — every row, well-typed or not, gives the reference text or
  raises what the reference raises, with the same message, and every
  run decodes to its text decoded or raises the text's error;
* **deletes** — a DELETE is its match key and priority: its text has
  no ``action`` and decodes to ``("NoAction",)``, and its action
  column is not read, so an ill-typed action there raises nothing
  while an ill-typed key value still raises, alike on both paths;
* **one form** — an exact field is its bare value in ``match`` and
  ``priority`` is sent exactly when the table has a ternary field or
  the priority is nonzero, whichever encoder wrote the update (a
  table's formats, ``encode_update``, a ``read_table`` answer); a run
  is type-checked once, and one mixing ``int`` and other values gives
  the texts its rows give one by one; ``decode_update`` refuses the
  tagged ``{"exact": v}``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codegen import generate_declarations
from repro.dlog.values import StructValue
from repro.errors import RuntimeApiError, TypeCheckError
from repro.p4.simulator import Simulator
from repro.mgmt.jsonrpc import dumps
from repro.p4.p4info import ActionParam, MatchField, P4Info
from repro.p4runtime import aio_client
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.api import (
    PairCodec,
    WriteBatch,
    decode_update,
    encode_update,
)
from repro.p4runtime.server import P4RuntimeServer
from tests.test_farm_device import PIPELINE

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


def decoded(binding, kind, row) -> tuple:
    """``row``'s ``(kind, table, key, value)``."""
    (update,) = binding.decoded_run(kind, [row])
    return update


def reference_update(binding, kind, row) -> dict:
    """``row``'s update dict, built from its decoded form."""
    return encode_update(*decoded(binding, kind, row))


def reference_params(updates, mcast, update_ids, fence, seq) -> bytes:
    """The ``apply_batch`` params as one ``dumps`` of the dict envelope
    around the update dicts ``updates``."""
    envelope = {
        "updates": list(updates),
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
    writes = WriteBatch([(kind, binding, [row]) for kind, row in batch])
    reference = [reference_update(binding, kind, row) for kind, row in batch]
    expected = reference_params(reference, *envelope)
    assert aio_client._encode_batch(writes, *envelope) == expected
    assert [w.to_wire() for w in writes] == reference


@settings(max_examples=100)
@given(data=st.data(), envelope=_envelopes)
def test_a_list_mixing_rows_and_table_writes_encodes_the_same(data, envelope):
    """A batch whose runs are rows under their binding or, as a
    read-diff's repairs are, decoded ``(key, value)`` pairs under a
    :class:`PairCodec`."""
    binding = data.draw(bindings())
    batch = data.draw(
        st.lists(
            st.tuples(st.sampled_from(KINDS), rows(binding), st.booleans()),
            max_size=6,
        )
    )
    codec = PairCodec(binding.info.name)
    mixed = WriteBatch([
        (kind, codec, [decoded(binding, kind, row)[2:]])
        if as_pair
        else (kind, binding, [row])
        for kind, row, as_pair in batch
    ])
    reference = [reference_update(binding, kind, row) for kind, row, _ in batch]
    assert aio_client._encode_batch(mixed, *envelope) == reference_params(
        reference, *envelope
    )
    # The blocking ``write`` sends the same array of updates.
    assert aio_client._updates_json(mixed) == dumps(reference)


# ---------------------------------------------------------------------------
# Rows.
# ---------------------------------------------------------------------------


def reference_outcome(binding, kind, row):
    """The update text the decoded path gives for ``row``, or the type
    and message of what it raises (a ``TypeCheckError`` from the type
    checks, a ``TypeError`` for a value JSON has no form for)."""
    try:
        return dumps(reference_update(binding, kind, row)).decode()
    except (TypeCheckError, TypeError) as exc:
        return (type(exc), str(exc))


def wire_outcome(binding, kind, row):
    try:
        return binding.wire_run(kind, [row])
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
            binding.wire_run(kind, [row])
    assert calls == []
    assert binding.wire_run("INSERT", [(1, (10, 8), (3, 255), set_ab, 7)]) == (
        '{"type":"INSERT","table":"acl","match":[1,'
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


def decoded_run_outcome(binding, kind, rows):
    try:
        return list(binding.decoded_run(kind, rows))
    except (TypeCheckError, TypeError) as exc:
        return (type(exc), str(exc))


def wire_decoded_outcome(binding, kind, rows):
    """``wire_run``'s text of ``rows`` read back by ``decode_update``,
    or what ``wire_run`` raises."""
    text = run_outcome(binding, kind, rows)
    if isinstance(text, tuple):
        return text
    return [decode_update(u) for u in json.loads("[%s]" % text)]


def joined_outcome(binding, kind, rows):
    """The reference texts of ``rows`` joined, or the error of the first
    row the decoded path refuses."""
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
    wrong arities mixed in: the decoded path's texts joined, or the
    error it raises for the first row it refuses.  And ``decoded_run``
    of the rows is their text decoded, or raises the text's error."""
    binding = data.draw(bindings())
    rows_ = data.draw(
        st.lists(st.one_of(rows(binding), loose_rows(binding)), max_size=6)
    )
    assert run_outcome(binding, kind, rows_) == joined_outcome(
        binding, kind, rows_
    )
    assert decoded_run_outcome(binding, kind, rows_) == wire_decoded_outcome(
        binding, kind, rows_
    )


@settings(max_examples=100)
@given(data=st.data(), envelope=_envelopes)
def test_a_list_of_runs_encodes_to_the_bytes_of_its_row_writes(data, envelope):
    """A device batch holds runs of rows; encoded, it is byte for byte
    the dict envelope of the rows' decoded forms, and iterating it
    gives those updates."""
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
    writes = WriteBatch([(kind, binding, list(batch)) for kind, batch in runs])
    flat = [(kind, row) for kind, batch in runs for row in batch]
    reference = [reference_update(binding, kind, row) for kind, row in flat]
    assert len(writes) == len(flat)
    assert bool(writes) == bool(flat)
    assert aio_client._encode_batch(writes, *envelope) == (
        reference_params(reference, *envelope)
    )
    assert [w.to_wire() for w in writes] == reference
    assert list(writes.decoded()) == [
        decoded(binding, kind, row) for kind, row in flat
    ]


def test_a_run_refuses_each_row_wire_refuses():
    """Rows whose values are all ints but whose action is unknown, of
    the wrong arity or no constructor at all, and a ``str`` or ``bool``
    value: a run of a good row and the bad one gives the rows' own
    texts joined, or raises the bad row's error, encoded or decoded.
    A DELETE reads no action, so only its ill-typed keys are refused."""
    binding = _acl_binding()
    good = (1, (10, 8), (3, 255), StructValue("AclActionSet", (5, 6)), 7)
    bad_actions = [
        (1, (10, 8), (3, 255), StructValue("AclActionSet", (5,)), 7),
        (1, (10, 8), (3, 255), StructValue("AclActionSet", (5, 6, 7)), 7),
        (1, (10, 8), (3, 255), StructValue("AclActionDrop", (5,)), 7),
        (1, (10, 8), (3, 255), StructValue("NoSuchAction", ()), 7),
        (1, (10, 8), (3, 255), 4, 7),
    ]
    bad_keys = [
        ("1", (10, 8), (3, 255), StructValue("AclActionDrop", ()), 7),
        (1, 10, (3, 255), StructValue("AclActionDrop", ()), 7),
    ]
    a_bool = (True, (10, 8), (3, 255), StructValue("AclActionDrop", ()), 7)
    for bad in bad_actions + bad_keys + [a_bool]:
        for kind in KINDS:
            outcome = run_outcome(binding, kind, [good, bad])
            assert outcome == joined_outcome(binding, kind, [good, bad])
            assert decoded_run_outcome(
                binding, kind, [good, bad]
            ) == wire_decoded_outcome(binding, kind, [good, bad])
            refused = any(bad is b for b in bad_keys) or (
                kind != "DELETE" and any(bad is b for b in bad_actions)
            )
            assert isinstance(outcome, tuple) == refused, (kind, bad)
    # A DELETE's text is the good row's whatever its action column holds.
    for bad in bad_actions:
        assert binding.wire_run("DELETE", [bad]) == binding.wire_run(
            "DELETE", [good]
        )


@settings(max_examples=200)
@given(data=st.data())
def test_a_delete_is_its_match_key(data):
    """For every match kind, priority and action arity, the reference
    path gives a DELETE with no ``action``, ``wire_run`` gives its
    text, and both decode it to ``("NoAction",)``; a row with any other
    action column, well-typed or not, gives the same text and the same
    decoded update."""
    binding = data.draw(bindings())
    row = data.draw(rows(binding))
    reference = reference_update(binding, "DELETE", row)
    assert list(reference) == ["type", "table", "match"] + (
        ["priority"] if binding.has_priority else []
    )
    text = binding.wire_run("DELETE", [row])
    assert text == dumps(reference).decode()
    n_keys = len(binding.key_columns)
    other = row[:n_keys] + (data.draw(_strays),) + row[n_keys + 1:]
    assert binding.wire_run("DELETE", [other]) == text
    update = decode_update(json.loads(text))
    assert update[3] == ("NoAction",)
    assert decoded(binding, "DELETE", other) == update
    assert decoded(binding, "DELETE", row) == update
    # A read-diff's DELETE pair encodes and decodes the same way.
    pair = update[2], (data.draw(st.sampled_from(["act_0", "x"])), 1)
    codec = PairCodec(binding.info.name)
    assert codec.wire_run("DELETE", [pair]) == text
    assert codec.decoded_run("DELETE", [pair]) == [update]


# ---------------------------------------------------------------------------
# One form.
# ---------------------------------------------------------------------------


def _has_ternary(binding) -> bool:
    return any(f.match_kind == "ternary" for _, f in binding.key_columns)


def _int_rows(binding):
    """Well-typed rows whose every value is exactly ``int``."""
    ints = st.integers(0, 2**64)
    keys = st.tuples(*(
        ints if field.match_kind == "exact" else st.tuples(ints, ints)
        for _, field in binding.key_columns
    ))
    actions = st.sampled_from(
        sorted(binding.actions_by_constructor.items())
    ).flatmap(
        lambda item: st.lists(
            ints, min_size=item[1][1], max_size=item[1][1]
        ).map(lambda params: StructValue(item[0], tuple(params)))
    )
    priority = st.tuples(ints) if binding.has_priority else st.just(())
    return st.builds(
        lambda k, a, p: k + (a,) + p, keys, actions, priority
    )


@settings(max_examples=200)
@given(data=st.data(), kind=st.sampled_from(KINDS))
def test_a_run_is_the_one_form_of_its_decoded_updates(data, kind):
    """Over every mix of match kinds, with and without a priority
    column, every kind and action arity: a run's text is byte for byte
    ``dumps`` of ``encode_update`` of each decoded update, it reads
    back as what ``decoded_run`` yields, no field is tagged exact, and
    ``priority`` is there exactly when the table has a ternary field."""
    binding = data.draw(bindings())
    rows_ = data.draw(st.lists(rows(binding), max_size=6))
    updates = list(binding.decoded_run(kind, rows_))
    text = binding.wire_run(kind, rows_)
    assert text == ",".join(dumps(encode_update(*u)).decode() for u in updates)
    wired = json.loads("[%s]" % text)
    assert [decode_update(u) for u in wired] == updates
    for update, (_, _, key, _) in zip(wired, updates):
        assert ("priority" in update) == _has_ternary(binding)
        exact = [v for m, v in zip(key[1::3], key[2::3]) if m == "exact"]
        assert [m for m in update["match"] if type(m) is not dict] == exact
        assert all("exact" not in m for m in update["match"] if type(m) is dict)


@settings(max_examples=200)
@given(data=st.data(), kind=st.sampled_from(KINDS))
def test_priority_is_sent_for_a_ternary_field_or_a_nonzero_priority(
    data, kind
):
    """A read-diff's pairs carry any priority: ``encode_update`` (and so
    a :class:`PairCodec` run) sends it when it is nonzero or the key has
    a ternary field, and a missing one decodes as 0."""
    binding = data.draw(bindings())
    _, table, key, value = decoded(binding, kind, data.draw(rows(binding)))
    priority = data.draw(st.sampled_from([0, 0, 1, 7, -3]))
    key = (priority,) + key[1:]
    update = encode_update(kind, table, key, value)
    assert ("priority" in update) == (_has_ternary(binding) or priority != 0)
    text = PairCodec(table).wire_run(kind, [(key, value)])
    assert text == dumps(update).decode()
    assert decode_update(json.loads(text))[2] == key


@settings(max_examples=200)
@given(data=st.data(), kind=st.sampled_from(KINDS))
def test_a_run_mixing_int_and_other_rows_gives_its_rows_texts(data, kind):
    """The run's one type check refuses a run holding a ``bool`` (or a
    value out of any row's check): such a run is encoded row by row,
    and its text is still each row's own text, joined."""
    binding = data.draw(bindings())
    rows_ = data.draw(
        st.lists(st.one_of(_int_rows(binding), rows(binding)), max_size=6)
    )
    assert binding.wire_run(kind, rows_) == ",".join(
        binding.wire_run(kind, [row]) for row in rows_
    )


def test_a_run_with_one_bool_row_is_encoded_row_by_row():
    binding = _acl_binding()
    set_ab = StructValue("AclActionSet", (5, 6))
    ints = (1, (10, 8), (3, 255), set_ab, 7)
    a_bool = (True, (10, 8), (3, 255), set_ab, 0)
    for kind in KINDS:
        text = binding.wire_run(kind, [ints, a_bool, ints])
        one, other = binding.wire_run(kind, [ints]), binding.wire_run(
            kind, [a_bool]
        )
        assert text == ",".join([one, other, one])
        assert other.startswith(
            '{"type":"%s","table":"acl","match":[true,' % kind
        )
        assert other.endswith('"priority":0}')


@pytest.mark.parametrize(
    "match", [[{"exact": 5}], [3, {"exact": 5}], [{"exact": [5]}]]
)
def test_a_tagged_exact_field_is_a_bad_match_field(match):
    update = {
        "type": "INSERT", "table": "t", "match": match,
        "action": {"name": "a", "params": []},
    }
    with pytest.raises(RuntimeApiError) as refused:
        decode_update(update)
    assert "bad match field" in str(refused.value)
    assert repr(match[-1]) in str(refused.value)


def test_read_table_answers_in_the_one_form():
    """A ``read_table`` through a :class:`P4RuntimeServer` and the aio
    client: the server answers each entry in the one form, and the
    client reads back the ``(key, value)`` pairs the device holds."""
    sim = Simulator(PIPELINE, n_ports=8)
    entries = {
        "exact_t": [((0, "exact", 1, None), ("forward", 2))],
        "lpm_t": [((0, "exact", 3, None, "lpm", 0xF0, 4), ("drop",))],
        "acl_t": [
            ((2, "ternary", 0x10, 0xF0), ("forward", 5)),
            ((1, "ternary", 0x01, 0x0F), ("drop",)),
        ],
    }
    codec_runs = [
        ("INSERT", PairCodec(table), pairs) for table, pairs in entries.items()
    ]
    with P4RuntimeServer(sim) as server:
        with AioP4RuntimeClient(*server.address) as client:
            assert client.write(WriteBatch(codec_runs)) == 4
            for table, pairs in entries.items():
                assert sorted(client.read_table(table)) == sorted(pairs)
            answer = client.call("read_table", ["acl_t"])["entries"]
            answer += client.call("read_table", ["lpm_t"])["entries"]
    assert sorted(map(json.dumps, answer)) == sorted(map(json.dumps, [
        {"type": "INSERT", "table": "acl_t",
         "match": [{"ternary": [16, 240]}],
         "action": {"name": "forward", "params": [5]}, "priority": 2},
        {"type": "INSERT", "table": "acl_t",
         "match": [{"ternary": [1, 15]}],
         "action": {"name": "drop", "params": []}, "priority": 1},
        {"type": "INSERT", "table": "lpm_t", "match": [3, {"lpm": [240, 4]}],
         "action": {"name": "drop", "params": []}},
    ]))
