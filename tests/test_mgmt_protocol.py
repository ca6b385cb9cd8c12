"""Tests for the management wire protocol: framing, server/client,
monitors over TCP, and persistence."""

import socket
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError, TransactionError
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.mgmt.jsonrpc import (
    classify,
    decode_frames,
    encode_frame,
    recv_message,
)
from repro.mgmt.persist import Persister, restore
from repro.mgmt.schema import simple_schema
from repro.mgmt.server import ManagementServer


def make_db():
    return Database(
        simple_schema(
            "net",
            {
                "Port": {"name": "string", "vlan": "integer"},
                "Switch": {"name": "string"},
            },
        )
    )


class TestFraming:
    def test_round_trip_single(self):
        msg = {"method": "echo", "params": [1, "x"], "id": 7}
        messages, rest = decode_frames(encode_frame(msg))
        assert messages == [msg]
        assert rest == b""

    def test_round_trip_multiple_frames(self):
        buf = encode_frame({"id": 1}) + encode_frame({"id": 2})
        messages, rest = decode_frames(buf)
        assert [m["id"] for m in messages] == [1, 2]
        assert rest == b""

    def test_partial_frame_is_remainder(self):
        frame = encode_frame({"id": 1})
        messages, rest = decode_frames(frame[:-3])
        assert messages == []
        assert rest == frame[:-3]
        messages, rest = decode_frames(rest + frame[-3:])
        assert messages == [{"id": 1}]

    def test_oversized_frame_rejected(self):
        import struct

        bad = struct.pack(">I", 1 << 31) + b"x"
        with pytest.raises(ProtocolError):
            decode_frames(bad)

    def test_bad_json_rejected(self):
        import struct

        payload = b"not json"
        with pytest.raises(ProtocolError):
            decode_frames(struct.pack(">I", len(payload)) + payload)

    @given(st.lists(st.integers(0, 100), max_size=10), st.integers(1, 50))
    def test_arbitrary_chunking(self, ids, chunk_size):
        stream = b"".join(encode_frame({"id": i}) for i in ids)
        got = []
        buffer = b""
        for start in range(0, len(stream), chunk_size):
            buffer += stream[start : start + chunk_size]
            messages, buffer = decode_frames(buffer)
            got.extend(m["id"] for m in messages)
        assert got == ids

    @pytest.mark.parametrize("sent", [0, 2, 4 + 3])
    def test_blocking_read_tells_eof_from_a_peer_dying_mid_frame(self, sent):
        """Only a close on a frame boundary is an orderly EOF; one
        inside the header or the payload is a protocol error."""
        frame = encode_frame({"id": 1})
        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.sendall(frame[:sent])
            theirs.close()
            if sent == 0:
                assert recv_message(ours) is None
            else:
                with pytest.raises(ProtocolError, match="mid-frame"):
                    recv_message(ours)

    def test_classify(self):
        assert classify({"method": "m", "params": [], "id": 1}) == "request"
        assert classify({"method": "m", "params": [], "id": None}) == "notification"
        assert classify({"result": 1, "error": None, "id": 1}) == "response"
        with pytest.raises(ProtocolError):
            classify({"nonsense": True})


@pytest.fixture()
def server():
    db = make_db()
    srv = ManagementServer(db).start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    host, port = server.address
    c = ManagementClient(host, port)
    yield c
    c.close()


class TestClientServer:
    def test_echo(self, client):
        assert client.echo([1, "two"]) == [1, "two"]

    def test_get_schema(self, client):
        schema = client.get_schema()
        # Every database carries the reserved _Lease table (leader
        # election, repro.mgmt.lease) alongside the user's tables.
        assert set(schema.tables) == {"Port", "Switch", "_Lease"}

    def test_transact_insert_and_select(self, client):
        results = client.transact(
            [
                {"op": "insert", "table": "Port", "row": {"name": "p1", "vlan": 3}},
                {"op": "select", "table": "Port", "where": []},
            ]
        )
        assert "uuid" in results[0]
        assert results[1]["rows"][0]["name"] == "p1"

    def test_transact_error_propagates(self, client):
        with pytest.raises(TransactionError):
            client.transact([{"op": "insert", "table": "Nope", "row": {}}])

    def test_monitor_initial_and_updates(self, server, client):
        client.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "p0", "vlan": 0}}]
        )
        received = []
        event = threading.Event()

        def on_update(updates):
            received.append(updates)
            event.set()

        _, initial = client.monitor({"Port": None}, on_update)
        assert len(initial.table("Port")) == 1

        # A write through a *different* path (direct db) must reach us.
        server.db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "p1", "vlan": 5}}]
        )
        assert event.wait(5.0), "no update notification received"
        (update,) = received[0].table("Port").values()
        assert update.kind == "insert"
        assert update.new["name"] == "p1"

    def test_monitor_cancel_stops_updates(self, server, client):
        received = []
        monitor_id, _ = client.monitor({"Port": None}, received.append)
        client.monitor_cancel(monitor_id)
        server.db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "px", "vlan": 0}}]
        )
        client.echo(["sync"])  # round-trip to drain any in-flight updates
        assert received == []

    def test_two_clients_independent(self, server):
        host, port = server.address
        with ManagementClient(host, port) as c1, ManagementClient(host, port) as c2:
            got1, got2 = [], []
            e1, e2 = threading.Event(), threading.Event()
            c1.monitor({"Port": None}, lambda u: (got1.append(u), e1.set()))
            c2.monitor({"Switch": None}, lambda u: (got2.append(u), e2.set()))
            c1.transact(
                [{"op": "insert", "table": "Port", "row": {"name": "p", "vlan": 1}}]
            )
            assert e1.wait(5.0)
            assert not e2.wait(0.2)

    def test_concurrent_transactions(self, server):
        host, port = server.address

        def worker(n):
            with ManagementClient(host, port) as c:
                for i in range(10):
                    c.transact(
                        [
                            {
                                "op": "insert",
                                "table": "Port",
                                "row": {"name": f"w{n}-{i}", "vlan": i},
                            }
                        ]
                    )

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert server.db.count("Port") == 40


class TestPersistence:
    def test_snapshot_restore(self, tmp_path):
        db = make_db()
        persister = Persister(db, str(tmp_path))
        db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "p1", "vlan": 7}}]
        )
        persister.snapshot()
        persister.close()

        db2 = restore(str(tmp_path))
        rows = db2.rows("Port")
        assert len(rows) == 1
        assert rows[0]["name"] == "p1"
        assert rows[0]["vlan"] == 7

    def test_journal_replay_without_snapshot(self, tmp_path):
        db = make_db()
        persister = Persister(db, str(tmp_path))
        db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "a", "vlan": 1}}]
        )
        (r,) = db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "b", "vlan": 2}}]
        )
        db.transact(
            [{"op": "delete", "table": "Port", "where": [["name", "==", "a"]]}]
        )
        persister.close()

        db2 = restore(str(tmp_path), schema=db.schema)
        rows = db2.rows("Port")
        assert len(rows) == 1
        assert rows[0].uuid == r["uuid"]

    def test_journal_after_snapshot(self, tmp_path):
        db = make_db()
        persister = Persister(db, str(tmp_path))
        db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "a", "vlan": 1}}]
        )
        persister.compact()
        db.transact(
            [
                {
                    "op": "update",
                    "table": "Port",
                    "where": [["name", "==", "a"]],
                    "row": {"vlan": 42},
                }
            ]
        )
        persister.close()

        db2 = restore(str(tmp_path))
        assert db2.rows("Port")[0]["vlan"] == 42

    def test_restore_empty_dir_with_schema(self, tmp_path):
        db = restore(str(tmp_path), schema=make_db().schema)
        assert db.count("Port") == 0

    def test_restore_empty_dir_without_schema_fails(self, tmp_path):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            restore(str(tmp_path))
