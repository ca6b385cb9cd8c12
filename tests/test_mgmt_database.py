"""Unit tests for the management-plane database (schema, transactions,
monitors)."""

import threading
import uuid

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


def make_db(uuid_factory=None):
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
    return Database(schema, uuid_factory)


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
        """A monitor added from another thread while a commit is being
        delivered waits until the delivery is done.  Its snapshot then
        has the commit's row, so its stream must not carry the row
        again: streamed updates always post-date the snapshot."""
        db = make_db()
        paused, resume = threading.Event(), threading.Event()

        def pause(updates):
            paused.set()
            assert resume.wait(5.0)

        db.add_monitor(MonitorSpec.all_tables(db.schema), pause)
        committer = threading.Thread(
            target=db.transact,
            args=([{"op": "insert", "table": "Port", "row": {"name": "a"}}],),
        )
        received, added = [], []
        adder = threading.Thread(target=lambda: added.append(db.add_monitor(
            MonitorSpec.all_tables(db.schema), received.append
        )))
        committer.start()
        try:
            assert paused.wait(5.0), "the commit never reached its delivery"
            adder.start()
            adder.join(0.2)
            assert adder.is_alive() and added == [], (
                "add_monitor returned while a delivery was paused"
            )
        finally:
            resume.set()
            committer.join(5.0)
            adder.join(5.0)
        assert not committer.is_alive() and not adder.is_alive()
        ((_, initial),) = added
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


def _port_names(batches):
    """Each batch's Port changes as ``(kind, name)`` pairs."""
    return [
        [
            (u.kind, (u.new or u.old)["name"])
            for u in batch.table("Port").values()
        ]
        for batch in batches
    ]


class TestDeliveryOrder:
    """Every monitor gets every commit, in commit order, whichever
    thread commits and whatever a callback does."""

    def test_a_transacting_callback_and_a_second_committer_both_finish(self):
        """A callback that transacts while another thread commits: the
        other thread waits for the delivery instead of taking the
        database halfway, so neither thread waits for the other."""
        second_committing = threading.Event()
        second = threading.Thread(
            daemon=True,
            target=lambda: db.transact(
                [{"op": "insert", "table": "Switch", "row": {"name": "s2"}}]
            ),
        )

        def uuids():
            if threading.current_thread() is second:
                second_committing.set()
            return uuid.uuid4().hex

        db = make_db(uuids)

        def on_port(updates):
            if _port_names([updates]) != [[("insert", "a")]]:
                return
            second.start()
            # Only a database that lets a commit in during a delivery
            # lets the second thread reach its first insert here.
            second_committing.wait(0.5)
            db.transact(
                [{"op": "insert", "table": "Switch", "row": {"name": "s1"}}]
            )

        db.add_monitor(MonitorSpec({"Port": None}), on_port)
        first = threading.Thread(
            daemon=True,
            target=lambda: db.transact(
                [{"op": "insert", "table": "Port", "row": {"name": "a"}}]
            ),
        )
        first.start()
        first.join(5.0)
        second.join(5.0)
        assert not first.is_alive() and not second.is_alive(), "deadlock"
        assert sorted(r["name"] for r in db.rows("Switch")) == ["s1", "s2"]

    def test_a_commit_made_in_a_callback_reaches_every_monitor_after_the_outer(
        self,
    ):
        db = make_db()
        first, second = [], []

        def commit_inner(updates):
            first.append(updates)
            if _port_names([updates]) == [[("insert", "outer")]]:
                db.transact([
                    {"op": "insert", "table": "Port", "row": {"name": "inner"}}
                ])

        db.add_monitor(MonitorSpec.all_tables(db.schema), commit_inner)
        db.add_monitor(MonitorSpec.all_tables(db.schema), second.append)
        db.transact([{"op": "insert", "table": "Port", "row": {"name": "outer"}}])
        for batches in (first, second):
            assert _port_names(batches) == [
                [("insert", "outer")], [("insert", "inner")]
            ]

    def test_a_janitor_monitor_leaves_every_replay_equal_to_the_database(self):
        """A monitor that deletes every row it sees inserted: a later
        monitor gets the insert before the janitor's delete, so its
        replay ends as empty as the database."""
        db = make_db()

        def janitor(updates):
            for uuid_, update in updates.table("Port").items():
                if update.kind == "insert":
                    db.transact([{
                        "op": "delete", "table": "Port",
                        "where": [["_uuid", "==", uuid_]],
                    }])

        db.add_monitor(MonitorSpec({"Port": None}), janitor)
        received = []
        _, initial = db.add_monitor(
            MonitorSpec({"Port": None}), received.append
        )
        db.transact([{"op": "insert", "table": "Port", "row": {"name": "a"}}])
        assert db.count("Port") == 0
        assert _port_names(received) == [[("insert", "a")], [("delete", "a")]]
        assert replay(initial, received).get("Port", {}) == {}

    def test_a_raising_callback_does_not_starve_the_monitors_after_it(self):
        """A first monitor that raises (say, a journal write that fails)
        leaves the commit applied and delivered to every other monitor;
        ``transact`` then raises the error."""
        db = make_db()

        def failing_journal(updates):
            raise OSError("disk full")

        db.add_monitor(MonitorSpec.all_tables(db.schema), failing_journal)
        received = []
        db.add_monitor(MonitorSpec.all_tables(db.schema), received.append)
        with pytest.raises(OSError, match="disk full"):
            db.transact([{"op": "insert", "table": "Port", "row": {"name": "a"}}])
        assert [r["name"] for r in db.rows("Port")] == ["a"]
        assert _port_names(received) == [[("insert", "a")]]
        with pytest.raises(OSError, match="disk full"):
            db.transact([{"op": "insert", "table": "Port", "row": {"name": "b"}}])
        assert _port_names(received) == [[("insert", "a")], [("insert", "b")]]
