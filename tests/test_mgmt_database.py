"""Unit tests for the management-plane database (schema, transactions,
monitors)."""

import threading

import pytest

from repro.errors import SchemaError, TransactionError
from repro.mgmt.database import Database
from repro.mgmt.monitor import MonitorSpec, replay
from repro.mgmt.schema import (
    ColumnSchema,
    ColumnType,
    DatabaseSchema,
    TableSchema,
    simple_schema,
)


def make_db():
    schema = DatabaseSchema(
        "net",
        [
            TableSchema(
                "Port",
                [
                    ColumnSchema("name", ColumnType("string")),
                    ColumnSchema("vlan", ColumnType("integer")),
                    ColumnSchema("up", ColumnType("boolean")),
                    ColumnSchema(
                        "trunks", ColumnType("integer", min=0, max="unlimited")
                    ),
                    ColumnSchema(
                        "external_ids",
                        ColumnType("string", "string", min=0, max="unlimited"),
                    ),
                ],
                indexes=[("name",)],
            ),
            TableSchema(
                "Switch",
                [
                    ColumnSchema("name", ColumnType("string")),
                    ColumnSchema(
                        "mgmt_ip", ColumnType("string", min=0, max=1)
                    ),
                ],
            ),
        ],
    )
    return Database(schema)


class TestSchema:
    def test_json_round_trip(self):
        db = make_db()
        data = db.schema.to_json()
        back = DatabaseSchema.from_json(data)
        assert back.to_json() == data

    def test_bad_atomic_type(self):
        with pytest.raises(SchemaError):
            ColumnType("blob")

    def test_map_requires_max_gt_one(self):
        with pytest.raises(SchemaError):
            ColumnType("string", "string", max=1)

    def test_underscore_column_rejected(self):
        with pytest.raises(SchemaError):
            ColumnSchema("_uuid", ColumnType("string"))

    def test_simple_schema_builder(self):
        schema = simple_schema(
            "db", {"T": {"a": "string", "b": "?integer", "c": "*string"}}
        )
        t = schema.table("T")
        assert t.column("a").type.is_scalar
        assert t.column("b").type.is_optional
        assert t.column("c").type.is_set

    def test_index_unknown_column(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "T",
                [ColumnSchema("a", ColumnType("string"))],
                indexes=[("nope",)],
            )


class TestInsertSelect:
    def test_insert_returns_uuid(self):
        db = make_db()
        (result,) = db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "p1", "vlan": 10}}]
        )
        assert "uuid" in result
        row = db.get_row("Port", result["uuid"])
        assert row["name"] == "p1"
        assert row["vlan"] == 10

    def test_defaults_filled(self):
        db = make_db()
        (result,) = db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "p1"}}]
        )
        row = db.get_row("Port", result["uuid"])
        assert row["vlan"] == 0
        assert row["up"] is False
        assert row["trunks"] == frozenset()
        assert row["external_ids"] == {}

    def test_select_with_where(self):
        db = make_db()
        db.transact(
            [
                {"op": "insert", "table": "Port", "row": {"name": "p1", "vlan": 1}},
                {"op": "insert", "table": "Port", "row": {"name": "p2", "vlan": 2}},
            ]
        )
        (result,) = db.transact(
            [{"op": "select", "table": "Port", "where": [["vlan", ">", 1]]}]
        )
        assert [r["name"] for r in result["rows"]] == ["p2"]

    def test_select_columns_projection(self):
        db = make_db()
        db.transact([{"op": "insert", "table": "Port", "row": {"name": "p1"}}])
        (result,) = db.transact(
            [{"op": "select", "table": "Port", "columns": ["name"]}]
        )
        assert result["rows"] == [{"name": "p1"}]

    def test_insert_bad_column(self):
        db = make_db()
        with pytest.raises(TransactionError):
            db.transact(
                [{"op": "insert", "table": "Port", "row": {"nope": 1}}]
            )

    def test_insert_bad_type(self):
        db = make_db()
        with pytest.raises(TransactionError):
            db.transact(
                [{"op": "insert", "table": "Port", "row": {"vlan": "ten"}}]
            )

    def test_unknown_table(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.transact([{"op": "insert", "table": "Nope", "row": {}}])

    def test_named_uuid_reference(self):
        db = make_db()
        results = db.transact(
            [
                {
                    "op": "insert",
                    "table": "Switch",
                    "row": {"name": "s1"},
                    "uuid-name": "sw",
                },
                {
                    "op": "insert",
                    "table": "Port",
                    "row": {
                        "name": "p1",
                        "external_ids": {"switch": ["named-uuid", "sw"]},
                    },
                },
            ]
        )
        port = db.get_row("Port", results[1]["uuid"])
        assert port["external_ids"]["switch"] == results[0]["uuid"]


class TestUpdateMutateDelete:
    def _insert(self, db, name, vlan=0):
        (r,) = db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": name, "vlan": vlan}}]
        )
        return r["uuid"]

    def test_update(self):
        db = make_db()
        uuid = self._insert(db, "p1", 1)
        (result,) = db.transact(
            [
                {
                    "op": "update",
                    "table": "Port",
                    "where": [["_uuid", "==", uuid]],
                    "row": {"vlan": 42},
                }
            ]
        )
        assert result["count"] == 1
        assert db.get_row("Port", uuid)["vlan"] == 42

    def test_mutate_numeric(self):
        db = make_db()
        uuid = self._insert(db, "p1", 10)
        db.transact(
            [
                {
                    "op": "mutate",
                    "table": "Port",
                    "where": [["_uuid", "==", uuid]],
                    "mutations": [["vlan", "+=", 5]],
                }
            ]
        )
        assert db.get_row("Port", uuid)["vlan"] == 15

    def test_mutate_set_insert_delete(self):
        db = make_db()
        uuid = self._insert(db, "p1")
        db.transact(
            [
                {
                    "op": "mutate",
                    "table": "Port",
                    "where": [],
                    "mutations": [["trunks", "insert", [1, 2, 3]]],
                }
            ]
        )
        assert db.get_row("Port", uuid)["trunks"] == frozenset({1, 2, 3})
        db.transact(
            [
                {
                    "op": "mutate",
                    "table": "Port",
                    "where": [],
                    "mutations": [["trunks", "delete", 2]],
                }
            ]
        )
        assert db.get_row("Port", uuid)["trunks"] == frozenset({1, 3})

    def test_mutate_map(self):
        db = make_db()
        uuid = self._insert(db, "p1")
        db.transact(
            [
                {
                    "op": "mutate",
                    "table": "Port",
                    "where": [],
                    "mutations": [["external_ids", "insert", {"k": "v"}]],
                }
            ]
        )
        assert db.get_row("Port", uuid)["external_ids"] == {"k": "v"}

    def test_delete(self):
        db = make_db()
        uuid = self._insert(db, "p1")
        (result,) = db.transact(
            [{"op": "delete", "table": "Port", "where": [["_uuid", "==", uuid]]}]
        )
        assert result["count"] == 1
        assert db.get_row("Port", uuid) is None

    def test_where_includes_on_set(self):
        db = make_db()
        self._insert(db, "p1")
        db.transact(
            [
                {
                    "op": "mutate",
                    "table": "Port",
                    "where": [],
                    "mutations": [["trunks", "insert", [7]]],
                }
            ]
        )
        (result,) = db.transact(
            [
                {
                    "op": "select",
                    "table": "Port",
                    "where": [["trunks", "includes", 7]],
                }
            ]
        )
        assert len(result["rows"]) == 1


class TestAtomicity:
    def test_failed_op_rolls_back_everything(self):
        db = make_db()
        with pytest.raises(TransactionError):
            db.transact(
                [
                    {"op": "insert", "table": "Port", "row": {"name": "p1"}},
                    {"op": "insert", "table": "Port", "row": {"bad": 1}},
                ]
            )
        assert db.count("Port") == 0

    def test_abort_rolls_back(self):
        db = make_db()
        with pytest.raises(TransactionError):
            db.transact(
                [
                    {"op": "insert", "table": "Port", "row": {"name": "p1"}},
                    {"op": "abort"},
                ]
            )
        assert db.count("Port") == 0

    def test_unique_index_enforced(self):
        db = make_db()
        db.transact([{"op": "insert", "table": "Port", "row": {"name": "p1"}}])
        with pytest.raises(TransactionError, match="index"):
            db.transact(
                [{"op": "insert", "table": "Port", "row": {"name": "p1"}}]
            )
        assert db.count("Port") == 1

    def test_unique_index_within_transaction(self):
        db = make_db()
        with pytest.raises(TransactionError, match="index"):
            db.transact(
                [
                    {"op": "insert", "table": "Port", "row": {"name": "x"}},
                    {"op": "insert", "table": "Port", "row": {"name": "x"}},
                ]
            )

    def test_wait_satisfied(self):
        db = make_db()
        db.transact([{"op": "insert", "table": "Port", "row": {"name": "p1"}}])
        db.transact(
            [
                {
                    "op": "wait",
                    "table": "Port",
                    "where": [],
                    "until": "==",
                    "rows": [{"name": "p1"}],
                },
                {"op": "insert", "table": "Port", "row": {"name": "p2"}},
            ]
        )
        assert db.count("Port") == 2

    def test_wait_unsatisfied_aborts(self):
        db = make_db()
        with pytest.raises(TransactionError, match="wait"):
            db.transact(
                [
                    {
                        "op": "wait",
                        "table": "Port",
                        "where": [],
                        "until": "==",
                        "rows": [{"name": "ghost"}],
                    },
                    {"op": "insert", "table": "Port", "row": {"name": "p2"}},
                ]
            )
        assert db.count("Port") == 0

    def test_ops_in_txn_see_staged_state(self):
        db = make_db()
        results = db.transact(
            [
                {"op": "insert", "table": "Port", "row": {"name": "p1"}},
                {"op": "select", "table": "Port", "where": []},
            ]
        )
        assert len(results[1]["rows"]) == 1

    def test_ops_see_the_overlay_in_table_order(self):
        """Rows updated and deleted earlier in the transaction, and rows
        it inserted, as every where-taking op sees them."""
        db = make_db()
        for name, vlan in (("a", 1), ("b", 2), ("c", 3)):
            db.transact([{"op": "insert", "table": "Port",
                          "row": {"name": name, "vlan": vlan}}])
        everything = {"op": "select", "table": "Port", "where": [],
                      "columns": ["name", "vlan"]}
        results = db.transact([
            {"op": "update", "table": "Port", "where": [["name", "==", "b"]],
             "row": {"vlan": 20}},
            {"op": "delete", "table": "Port", "where": [["name", "==", "a"]]},
            {"op": "insert", "table": "Port", "row": {"name": "d", "vlan": 4}},
            {"op": "update", "table": "Port", "where": [["vlan", ">=", 4]],
             "row": {"up": True}},
            {"op": "wait", "table": "Port", "where": [["up", "==", True]],
             "columns": ["name"], "until": "==",
             "rows": [{"name": "b"}, {"name": "d"}]},
            {"op": "delete", "table": "Port", "where": [["name", "==", "c"]]},
            everything,
        ])
        assert [r["count"] for r in results[:2]] == [1, 1]
        assert results[3]["count"] == 2  # b (20) and d (4), not c (3)
        assert results[5]["count"] == 1
        assert sorted(
            (r["name"], r["vlan"]) for r in results[-1]["rows"]
        ) == [("b", 20), ("d", 4)]
        assert sorted(
            (row["name"], row["vlan"], row["up"]) for row in db.rows("Port")
        ) == [("b", 20, True), ("d", 4, True)]

    @pytest.mark.parametrize(
        "where",
        [
            "vlan == 1",
            [["vlan", "=="]],
            [[["vlan"], "==", 1]],
            [["nope", "==", 1]],
            [["vlan", "~=", 1]],
            [["vlan", ["=="], 1]],
        ],
        ids=["text", "arity", "column", "no-column", "no-func",
             "function"],
    )
    @pytest.mark.parametrize("op", ["select", "update", "delete", "wait"])
    def test_bad_where_fails_on_empty_table(self, op, where):
        db = make_db()
        operation = {"op": op, "table": "Port", "where": where}
        if op == "update":
            operation["row"] = {"vlan": 2}
        if op == "wait":
            operation.update(until="==", rows=[])
        with pytest.raises(TransactionError):
            db.transact([operation])


class TestMonitors:
    def test_initial_snapshot(self):
        db = make_db()
        db.transact([{"op": "insert", "table": "Port", "row": {"name": "p1"}}])
        received = []
        _, initial = db.add_monitor(
            MonitorSpec.all_tables(db.schema), received.append
        )
        assert len(initial.table("Port")) == 1
        update = next(iter(initial.table("Port").values()))
        assert update.kind == "insert"
        assert update.new["name"] == "p1"

    def test_insert_notification(self):
        db = make_db()
        received = []
        db.add_monitor(MonitorSpec.all_tables(db.schema), received.append)
        db.transact([{"op": "insert", "table": "Port", "row": {"name": "p1"}}])
        assert len(received) == 1
        (update,) = received[0].table("Port").values()
        assert update.kind == "insert"

    def test_modify_notification_has_old_changed_columns(self):
        db = make_db()
        (r,) = db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "p1", "vlan": 1}}]
        )
        received = []
        db.add_monitor(MonitorSpec.all_tables(db.schema), received.append)
        db.transact(
            [
                {
                    "op": "update",
                    "table": "Port",
                    "where": [["_uuid", "==", r["uuid"]]],
                    "row": {"vlan": 2},
                }
            ]
        )
        (update,) = received[0].table("Port").values()
        assert update.kind == "modify"
        assert update.old == {"vlan": 1}
        assert update.new["vlan"] == 2
        assert update.new["name"] == "p1"

    def test_no_notification_for_noop_update(self):
        db = make_db()
        (r,) = db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "p1", "vlan": 1}}]
        )
        received = []
        db.add_monitor(MonitorSpec.all_tables(db.schema), received.append)
        db.transact(
            [
                {
                    "op": "update",
                    "table": "Port",
                    "where": [["_uuid", "==", r["uuid"]]],
                    "row": {"vlan": 1},
                }
            ]
        )
        assert received == []

    def test_column_filtered_monitor(self):
        db = make_db()
        (r,) = db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "p1", "vlan": 1}}]
        )
        received = []
        db.add_monitor(MonitorSpec({"Port": ["name"]}), received.append)
        # vlan change is invisible to this monitor.
        db.transact(
            [
                {
                    "op": "update",
                    "table": "Port",
                    "where": [["_uuid", "==", r["uuid"]]],
                    "row": {"vlan": 5},
                }
            ]
        )
        assert received == []

    def test_removed_monitor_not_notified(self):
        db = make_db()
        received = []
        monitor, _ = db.add_monitor(
            MonitorSpec.all_tables(db.schema), received.append
        )
        db.remove_monitor(monitor)
        db.transact([{"op": "insert", "table": "Port", "row": {"name": "p"}}])
        assert received == []

    def test_a_monitor_added_between_commit_and_notify_misses_that_commit(self):
        """A monitor registered while a commit is between releasing the
        database lock and notifying has the commit's row in its snapshot,
        so its stream must not carry the row again: streamed updates
        always post-date the snapshot."""
        db = make_db()
        inner_notify = db._notify
        paused, resume = threading.Event(), threading.Event()

        def notify_after_a_pause(*args):
            paused.set()
            assert resume.wait(5.0)
            inner_notify(*args)

        db._notify = notify_after_a_pause
        committer = threading.Thread(
            target=db.transact,
            args=([{"op": "insert", "table": "Port", "row": {"name": "a"}}],),
        )
        committer.start()
        try:
            assert paused.wait(5.0), "the commit never reached its notify"
            received = []
            _, initial = db.add_monitor(
                MonitorSpec.all_tables(db.schema), received.append
            )
        finally:
            resume.set()
            committer.join(5.0)
        assert not committer.is_alive()
        assert [u.new["name"] for u in initial.table("Port").values()] == ["a"]
        assert received == []
        state = replay(initial, received)
        assert [row["name"] for row in state["Port"].values()] == ["a"]

    def test_replay_reconstructs_database(self):
        db = make_db()
        received = []
        _, initial = db.add_monitor(
            MonitorSpec.all_tables(db.schema), received.append
        )
        db.transact([{"op": "insert", "table": "Port", "row": {"name": "a"}}])
        (r2,) = db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "b"}}]
        )
        db.transact(
            [
                {
                    "op": "update",
                    "table": "Port",
                    "where": [["name", "==", "a"]],
                    "row": {"vlan": 9},
                }
            ]
        )
        db.transact(
            [{"op": "delete", "table": "Port", "where": [["name", "==", "b"]]}]
        )
        state = replay(initial, received)
        expected = {
            uuid: row.values for uuid, row in
            ((r.uuid, r) for r in db.rows("Port"))
        }
        assert {u: dict(v) for u, v in state.get("Port", {}).items()} == {
            u: dict(v) for u, v in expected.items()
        }
