"""The management database's equality index against a table scan.

A ``where`` of one ``[column, "==", value]`` clause reads the index on
(table, column) instead of scanning the table.  It must select exactly
the rows the scan would, in the same order — the order decides the
order of a transaction's changes, and so of every monitor update — and
see this transaction's own staged rows: inserts, updates that move a
row into or out of the value, deletes.  A transaction that fails must
leave the index as it was, and a database restored from its journal
must not read an index built before the rows were written.
"""

import itertools
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransactionError
from repro.mgmt import persist
from repro.mgmt.database import Database, _Staged
from repro.mgmt.monitor import MonitorSpec
from repro.mgmt.schema import simple_schema

SCHEMA = {
    "T": {
        "k": "integer",
        "name": "string",
        "flag": "boolean",
        "ref": "?uuid",
        "tags": "*integer",
        "ids": "map<string,string>",
    },
}


def scan(staged, table, column, value):
    """What a scan selects: ``(uuid, row)`` in ``items`` order."""
    return [
        (uuid, row)
        for uuid, row in staged.items(table)
        if (uuid if column == "_uuid" else row[column]) == value
    ]


@pytest.fixture
def checked_find(monkeypatch):
    """Every index lookup is checked against a scan of the same view;
    returns the columns looked up, in order."""
    real_find = _Staged.find
    lookups = []

    def find(self, table, column, value):
        found = real_find(self, table, column, value)
        if found is not None:
            assert list(found.items()) == scan(self, table, column, value)
            lookups.append(column)
        return found

    monkeypatch.setattr(_Staged, "find", find)
    return lookups


def new_db():
    counter = itertools.count()
    return Database(
        simple_schema("idx", SCHEMA),
        uuid_factory=lambda: f"u{next(counter):04d}",
    )


def test_a_where_equality_reads_the_index_and_sees_staged_rows(checked_find):
    db = new_db()
    db.transact([
        {"op": "insert", "table": "T", "row": {"k": k % 3, "name": "a"}}
        for k in range(9)
    ])
    results = db.transact([
        # u0001 moves from k=1 to k=0 and u0000 leaves it ...
        {"op": "update", "table": "T", "where": [["_uuid", "==", "u0001"]],
         "row": {"k": 0}},
        {"op": "update", "table": "T", "where": [["_uuid", "==", "u0000"]],
         "row": {"k": 2}},
        {"op": "insert", "table": "T", "row": {"k": 0, "name": "b"}},
        # ... so k == 0 is u0001, u0003, u0006 in table order, then the
        # row this transaction inserted.
        {"op": "select", "table": "T", "where": [["k", "==", 0]],
         "columns": ["_uuid"]},
        {"op": "delete", "table": "T", "where": [["k", "==", 0]]},
    ])
    assert [row["_uuid"] for row in results[3]["rows"]] == [
        "u0001", "u0003", "u0006", "u0009",
    ]
    assert results[4] == {"count": 4}
    assert sorted(db._tables["T"]) == [
        "u0000", "u0002", "u0004", "u0005", "u0007", "u0008",
    ]
    assert checked_find == ["k", "k"]
    # Committed: the index moved u0000 to k=2 and dropped the deleted.
    index = db._index("T", "k")
    assert list(index.buckets) == [1, 2]
    assert sorted(index.buckets[2]) == ["u0000", "u0002", "u0005", "u0008"]


def test_a_failed_transaction_leaves_the_index_alone(checked_find):
    db = new_db()
    db.transact([{"op": "insert", "table": "T", "row": {"k": 1}}])
    db.transact([{"op": "select", "table": "T", "where": [["k", "==", 1]]}])
    before = {k: dict(b) for k, b in db._index("T", "k").buckets.items()}
    with pytest.raises(TransactionError):
        db.transact([
            {"op": "update", "table": "T", "where": [["k", "==", 1]],
             "row": {"k": 5}},
            {"op": "insert", "table": "T", "row": {"k": 5}},
            {"op": "abort"},
        ])
    assert db._index("T", "k").buckets == before


def test_map_columns_and_other_clauses_still_scan(checked_find):
    db = new_db()
    db.transact([
        {"op": "insert", "table": "T", "row": {"k": 1, "ids": {"a": "b"}}},
    ])
    for where, n in (
        ([["ids", "==", {"a": "b"}]], 1),
        ([["ids", "==", 1]], 0),  # a map column has no index
        ([["k", "!=", 2]], 1),
        ([["k", "==", 1], ["name", "==", ""]], 1),
        ([["_uuid", "==", "u0000"]], 1),
        ([["k", "==", 1.0]], 1),
    ):
        (result,) = db.transact(
            [{"op": "select", "table": "T", "where": where}]
        )
        assert len(result["rows"]) == n, where
    assert checked_find == []
    assert "ids" not in db._indexes.get("T", {})


def test_a_restored_database_builds_its_index_from_the_restored_rows(
    tmp_path, checked_find,
):
    db = new_db()
    writer = persist.Persister(db, str(tmp_path))
    db.transact([{"op": "insert", "table": "T", "row": {"k": 1}}])
    db.transact([{"op": "select", "table": "T", "where": [["k", "==", 1]]}])
    writer.close()
    restored = persist.restore(str(tmp_path), db.schema)
    assert restored._indexes == {}
    (result,) = restored.transact(
        [{"op": "delete", "table": "T", "where": [["k", "==", 1]]}]
    )
    assert result == {"count": 1}


# -- generated op sequences -------------------------------------------------

_VALUES = {
    "k": st.integers(0, 3) | st.booleans(),
    "name": st.sampled_from(["a", "b"]),
    "flag": st.booleans(),
    "tags": st.integers(0, 2),
}
_COLUMNS = sorted(_VALUES) + ["ref"]


@st.composite
def _where(draw, names):
    column = draw(st.sampled_from(_COLUMNS))
    if column == "ref":
        choices = [st.sampled_from([f"u{n:04d}" for n in range(6)])]
        if names:
            choices.append(
                st.sampled_from(names).map(lambda n: ["named-uuid", n])
            )
        value = draw(st.one_of(choices))
    else:
        value = draw(_VALUES[column])
    where = [[column, "==", value]]
    if draw(st.integers(0, 5)) == 0:
        where.append(["flag", "==", draw(st.booleans())])  # scanned
    return where


@st.composite
def _transaction(draw):
    ops, names = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(
            ["insert", "insert", "update", "delete", "mutate", "select"]
        ))
        if kind == "insert":
            row = {
                "k": draw(st.integers(0, 3)),
                "name": draw(_VALUES["name"]),
                "flag": draw(st.booleans()),
            }
            if names and draw(st.booleans()):
                row["ref"] = ["named-uuid", draw(st.sampled_from(names))]
            name = f"n{len(names)}"
            names.append(name)
            ops.append({"op": "insert", "table": "T", "row": row,
                        "uuid-name": name})
            continue
        op = {"op": kind, "table": "T", "where": draw(_where(names))}
        if kind == "update":
            column = draw(st.sampled_from(["k", "name", "flag"]))
            op["row"] = {column: draw(_VALUES[column].filter(
                lambda v: column != "k" or type(v) is int
            ))}
        elif kind == "mutate":
            op["mutations"] = [["k", "+=", 1]]
        ops.append(op)
    if draw(st.integers(0, 4)) == 0:
        ops.append({"op": "abort"})
    return ops


def _run(db, ops, seen):
    """The transaction's results (or error) and the monitor updates it
    sent, in order."""
    del seen[:]
    try:
        result = db.transact(ops)
    except TransactionError as exc:
        result = ("error", str(exc))
    return result, list(seen)


def _watch(db):
    seen = []
    db.add_monitor(
        MonitorSpec({"T": None}),
        lambda updates: seen.append([
            (uuid, update.old, update.new)
            for _, rows in updates for uuid, update in rows.items()
        ]),
    )
    return seen


@settings(max_examples=120, deadline=None)
@given(
    txns=st.lists(_transaction(), min_size=1, max_size=10),
    restore_at=st.integers(0, 12),
)
def test_the_index_selects_what_a_scan_selects(txns, restore_at):
    """The indexed database and a scan-only one (``find`` answers
    ``None``) give the same results and the same monitor updates, in
    the same order, over any op sequence — aborts, named-uuid refs,
    rows inserted and changed by the same transaction, updates that
    move a row between values, and a restore from the journal part-way.
    Each index lookup is also checked against a scan of its own view."""
    real_find = _Staged.find

    def checked(self, table, column, value):
        found = real_find(self, table, column, value)
        if found is not None:
            assert list(found.items()) == scan(self, table, column, value)
        return found

    indexed, reference = new_db(), new_db()
    seen, seen_ref = _watch(indexed), _watch(reference)
    with tempfile.TemporaryDirectory() as directory:
        writer = persist.Persister(indexed, directory)
        try:
            for n, ops in enumerate(txns):
                if n == restore_at:
                    writer.close()
                    factory = indexed._uuid_factory
                    indexed = persist.restore(directory, indexed.schema)
                    indexed._uuid_factory = factory
                    seen = _watch(indexed)
                    writer = persist.Persister(indexed, directory)
                _Staged.find = checked
                try:
                    got = _run(indexed, ops, seen)
                finally:
                    _Staged.find = real_find
                _Staged.find = lambda self, table, column, value: None
                try:
                    want = _run(reference, ops, seen_ref)
                finally:
                    _Staged.find = real_find
                assert got == want
                assert list(indexed._tables["T"].items()) == list(
                    reference._tables["T"].items()
                )
        finally:
            writer.close()
