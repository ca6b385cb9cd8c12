"""Tests for the management wire protocol: framing, server/client,
monitors over TCP, and persistence."""

import json
import socket
import struct
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError, TransactionError
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.mgmt.jsonrpc import (
    classify,
    decode_frames,
    dumps,
    dumps_text,
    encode_frame,
    frame_request,
    make_error,
    make_notification,
    make_request,
    make_response,
)
from repro.mgmt.monitor import MonitorSpec, replay
from repro.mgmt.persist import Persister, restore
from repro.mgmt.schema import simple_schema
from repro.mgmt.server import ManagementServer
from repro.net.server import RpcServer


def wait_for(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def port_names(updates):
    return [u.new["name"] for u in updates.table("Port").values()]


def insert_port_op(name):
    return {"op": "insert", "table": "Port", "row": {"name": name, "vlan": 0}}


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

    @pytest.mark.parametrize(
        "payload, decoded",
        [
            (b' {"id": 1}\n', {"id": 1}),  # whitespace around the value
            (b'{"id": 1} {"id": 2}', ProtocolError),  # two values
            (b'{"id": 1', ProtocolError),  # truncated
            (b"", ProtocolError),
            (b'"tab\there"', ProtocolError),  # a raw control character
        ],
    )
    def test_frames_decode_exactly_as_json_loads(self, payload, decoded):
        """Frames other than compact ``dumps`` output: accepted or
        rejected exactly as ``json.loads`` would."""
        import struct

        frame = struct.pack(">I", len(payload)) + payload
        if decoded is ProtocolError:
            with pytest.raises(ProtocolError, match="bad JSON frame"):
                decode_frames(frame)
        else:
            assert decode_frames(frame) == ([decoded], b"")

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

    def test_a_frame_in_64k_chunks_is_decoded_once(self, monkeypatch):
        """A 1.2 MB frame read in 64 KiB chunks accumulates in place and
        is scanned once, when its last byte arrives: the same message
        as decoding the whole frame, and the frame behind it intact."""
        from repro.mgmt import jsonrpc

        message = make_request(
            "apply_batch",
            [{"table": "t", "key": [n, n * 7], "action": "a" * 20}
             for n in range(20_000)],
            3,
        )
        stream = encode_frame(message) + encode_frame({"id": 4})
        assert len(stream) > 1_200_000
        scans = []
        real_scan = jsonrpc._scan_once

        def counting_scan(text, index):
            scans.append(len(text))
            return real_scan(text, index)

        monkeypatch.setattr(jsonrpc, "_scan_once", counting_scan)
        reader = jsonrpc.FrameReader()
        chunk = 64 * 1024
        got = [reader.feed(stream[i : i + chunk])
               for i in range(0, len(stream), chunk)]
        assert all(messages == [] for messages in got[:-1])
        assert got[-1] == [message, {"id": 4}]
        assert len(scans) == 2 and reader.partial == b""
        monkeypatch.setattr(jsonrpc, "_scan_once", real_scan)
        assert decode_frames(stream) == ([message, {"id": 4}], b"")

    @pytest.mark.parametrize("cut", [1, 3, 4, 5])
    def test_split_bad_frames_fail_as_whole_ones_do(self, cut):
        """A bad length or bad JSON raises the same error whether the
        frame arrives whole or in two reads."""
        from repro.mgmt.jsonrpc import FrameReader

        for frame, match in (
            (struct.pack(">I", 1 << 31) + b"xyzw", "exceeds maximum"),
            (struct.pack(">I", 8) + b"not json", "bad JSON frame"),
        ):
            with pytest.raises(ProtocolError, match=match):
                decode_frames(frame)
            reader = FrameReader()
            with pytest.raises(ProtocolError, match=match):
                reader.feed(frame[:cut])
                reader.feed(frame[cut:])

    def test_classify(self):
        assert classify({"method": "m", "params": [], "id": 1}) == "request"
        assert classify({"method": "m", "params": [], "id": None}) == "notification"
        assert classify({"result": 1, "error": None, "id": 1}) == "response"
        with pytest.raises(ProtocolError):
            classify({"nonsense": True})


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=24,
)

#: What goes over the wire, one of each kind the stack sends: an
#: ``apply_batch`` request, its answer, a rejection, a monitor update
#: and a digest notification, a transact and its answer.
STACK_MESSAGES = [
    make_request("apply_batch", [{
        "updates": [{"type": "INSERT", "table": "patch",
                     "match": [1, {"lpm": [10, 8]}, {"ternary": [3, 255]}],
                     "action": {"name": "forward", "params": [5]},
                     "priority": 7}],
        "mcast": [[1, [2, 3]], [4, None]],
        "update_ids": ["ep-1a2b3c4d-00000001"],
        "fence": 3,
        "seq": [17, 19],
    }], 41),
    make_response({"applied": 1}, 41),
    make_error({"error": "update 0: duplicate entry in patch"}, 42),
    make_notification("update", ["monitor-1", {"Port": {
        "0b5e1c1e-8a3f-4c6e-9d55-2f1f4b7e9a10": {
            "new": {"name": "port\u00e9 \"1\"", "port_num": 2,
                    "tag": None, "trunks": ["set", [1, 2]], "up": True},
            "old": None,
        }}}]),
    make_notification("digest", ["learn", [170, 3], "u-12"]),
    make_request("transact", ["net", {"op": "update", "table": "Port",
                                      "where": [["name", "==", "p0"]],
                                      "row": {"tag": 10}}], 7),
    make_response([{"count": 1}, {"uuid": ["uuid", "0b5e"]}], 7),
    {"result": None, "error": None, "id": 8},
]


class TestEncoding:
    """``dumps`` builds no ``JSONEncoder`` per call (``json.dumps`` with
    a ``separators`` argument does) and writes the same bytes."""

    @pytest.mark.parametrize("message", STACK_MESSAGES)
    def test_the_stack_s_messages_encode_as_json_dumps_does(self, message):
        expected = json.dumps(message, separators=(",", ":")).encode("utf-8")
        assert dumps(message) == expected
        assert dumps_text(message) == expected.decode("ascii")
        assert encode_frame(message) == (
            struct.pack(">I", len(expected)) + expected
        )
        assert decode_frames(encode_frame(message)) == ([message], b"")

    @given(_JSON)
    def test_any_json_value_encodes_as_json_dumps_does(self, value):
        expected = json.dumps(value, separators=(",", ":")).encode("utf-8")
        assert dumps(value) == expected

    def test_no_encoder_is_built_per_call(self, monkeypatch):
        built = []
        real_init = json.JSONEncoder.__init__

        def init(self, *args, **kwargs):
            built.append(kwargs)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(json.JSONEncoder, "__init__", init)
        for message in STACK_MESSAGES:
            dumps(message)
            encode_frame(message)
            frame_request("echo", dumps(message), 1)
        assert built == []

    def test_an_unencodable_value_raises_as_json_dumps_does(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps({"x": object()})


@pytest.mark.parametrize(
    "message",
    [
        {"method": "echo", "params": [1], "id": 3},
        {"method": "update", "params": [], "id": None},
        {"method": "update", "params": []},
        {"result": 1, "error": None, "id": 3},
        {"id": None},
        {"nonsense": True},
        [1, 2],
        "text",
    ],
)
def test_a_server_dispatches_a_frame_as_classify_reads_it(message):
    """``RpcServer.serve`` classifies inline (once per frame): it answers
    exactly the requests and closes on exactly the junk ``classify``
    rejects."""
    handled, closed, replies = [], [], []

    class Server(RpcServer):
        def handle(self, conn, method, params):
            handled.append(method)
            return "ok"

        def reply(self, conn, message):
            replies.append(message)

    conn = SimpleNamespace(close=lambda: closed.append(True))
    Server().serve(conn, message)
    try:
        kind = classify(message)
    except ProtocolError:
        kind = "junk"
    assert bool(handled) == (kind == "request")
    assert bool(closed) == (kind == "junk")
    if handled:
        assert replies == [make_response("ok", 3)]


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


    def test_updates_sent_on_and_off_the_loop_arrive_in_commit_order(
        self, server, client
    ):
        """A commit over the wire notifies from the server's loop, one
        on another thread (``db.transact`` in process) from there: the
        monitor stream is the database's commit order all the same."""
        committed = []
        server.db.add_monitor(
            MonitorSpec({"Port": None}),
            lambda updates: committed.extend(port_names(updates)),
        )
        seen = []
        client.monitor({"Port": None}, lambda u: seen.extend(port_names(u)))
        host, port = server.address

        def remote():
            with ManagementClient(host, port) as other:
                for i in range(30):
                    other.transact([insert_port_op(f"remote-{i}")])

        def local(n):
            for i in range(30):
                server.db.transact([insert_port_op(f"local-{n}-{i}")])

        writers = [threading.Thread(target=remote)] + [
            threading.Thread(target=local, args=(n,)) for n in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(30.0)
                assert not writer.is_alive()
        finally:
            sys.setswitchinterval(interval)
        wait_for(lambda: len(seen) == 90, what="all 90 updates")
        assert seen == committed

    def test_a_commit_racing_a_monitor_registration_is_streamed_once(
        self, server, client
    ):
        """A commit on another thread just after the server registered a
        monitor, before it answered, is in the stream: the answer goes
        out first, and the update carries the id the client has read."""
        db = server.db
        register = db.add_monitor
        racers = []

        def add_monitor(spec, callback):
            registered = register(spec, callback)
            racer = threading.Thread(
                target=db.transact, args=([insert_port_op("racer")],)
            )
            racer.start()
            # Bounded: with the fix, the racer's commit waits for the
            # answer, which waits for this wrapper to return.
            racer.join(0.5)
            racers.append(racer)
            return registered

        db.add_monitor = add_monitor
        seen = []
        _, initial = client.monitor(
            {"Port": None}, lambda u: seen.extend(port_names(u))
        )
        (racer,) = racers
        racer.join(10.0)
        assert not racer.is_alive()
        db.transact([insert_port_op("after")])
        wait_for(lambda: "after" in seen, what="the later update")
        assert sorted(port_names(initial) + seen) == ["after", "racer"]

    def test_server_threads_do_not_grow_with_clients(self, server):
        """One loop serves every peer: 32 connected clients cost the
        server no more threads than one."""
        host, port = server.address
        echo = encode_frame(make_request("echo", ["hi"], 1))

        def connect(n):
            socks = [socket.create_connection((host, port)) for _ in range(n)]
            for sock in socks:
                sock.sendall(echo)
            for sock in socks:
                sock.settimeout(5.0)
                assert sock.recv(4096)  # answered: the peer is being served
            return socks

        socks = connect(1)
        try:
            one = threading.active_count()
            socks += connect(31)
            wait_for(lambda: len(server.connections()) == 32, what="accepts")
            assert threading.active_count() <= one
        finally:
            for sock in socks:
                sock.close()

    @pytest.mark.parametrize("sent", [0, 2, 4 + 3])
    def test_peer_dying_mid_frame_is_dropped_unexecuted(
        self, server, client, sent
    ):
        """Only a whole frame is a request: a peer that closes inside
        the header or the payload leaves nothing executed, is dropped
        from the server's connections, and other clients carry on."""
        assert client.echo(["before"]) == ["before"]
        frame = encode_frame(
            make_request("transact", [insert_port_op("torn")], 1)
        )
        peer = socket.create_connection(server.address)
        with peer:
            wait_for(lambda: len(server.connections()) == 2, what="accept")
            peer.sendall(frame[:sent])
        wait_for(lambda: len(server.connections()) == 1, what="the drop")
        assert server.db.count("Port") == 0
        assert client.echo(["after"]) == ["after"]


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


def rich_db():
    return Database(
        simple_schema(
            "net",
            {
                "Port": {
                    "name": "string",
                    "vlan": "integer",
                    "trunks": "*integer",
                    "opts": "map<string,string>",
                    "peer": "?string",
                },
                "Switch": {"name": "string"},
            },
        )
    )


#: Inserts, a multi-table commit, a modify and a delete.
STREAM_TXNS = [
    [{"op": "insert", "table": "Port",
      "row": {"name": "p1", "vlan": 1, "trunks": [3, 4], "opts": {"a": "b"}}}],
    [insert_port_op("p2"),
     {"op": "insert", "table": "Switch", "row": {"name": "s1"}}],
    [{"op": "update", "table": "Port", "where": [["name", "==", "p1"]],
      "row": {"vlan": 7, "peer": "p2", "opts": {}}}],
    [{"op": "delete", "table": "Port", "where": [["name", "==", "p2"]]}],
]


def read_messages(sock, count):
    messages, buf = [], b""
    sock.settimeout(5.0)
    while len(messages) < count:
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection"
        decoded, buf = decode_frames(buf + chunk)
        messages += decoded
    return messages


class TestJournalIsTheMonitorStream:
    def test_a_journal_line_is_the_update_params_the_server_pushed(
        self, tmp_path
    ):
        db = rich_db()
        persister = Persister(db, str(tmp_path))
        db.transact(STREAM_TXNS[0])
        with ManagementServer(db) as server:
            with socket.create_connection(server.address) as sock:
                spec = {table: None for table in db.schema.tables}
                sock.sendall(encode_frame(make_request("monitor", [spec], 1)))
                (answer,) = read_messages(sock, 1)
                assert answer["id"] == 1
                for ops in STREAM_TXNS[1:]:
                    db.transact(ops)
                pushed = read_messages(sock, len(STREAM_TXNS) - 1)
        persister.close()
        journal = (tmp_path / "journal.ndjson").read_text().splitlines()
        assert [m["method"] for m in pushed] == ["update"] * 3
        assert journal[1:] == [
            json.dumps(m["params"][1], separators=(",", ":")) for m in pushed
        ]

    def test_restore_folds_the_journal_as_replay_folds_a_stream(
        self, tmp_path
    ):
        db = rich_db()
        persister = Persister(db, str(tmp_path))
        db.transact(STREAM_TXNS[0])
        received = []
        with ManagementServer(db) as server:
            with ManagementClient(*server.address) as client:
                spec = {table: None for table in db.schema.tables}
                _, initial = client.monitor(spec, received.append)
                db.transact(STREAM_TXNS[1])
                persister.compact()  # the rest restore from the journal
                for ops in STREAM_TXNS[2:]:
                    db.transact(ops)
                wait_for(lambda: len(received) == 3, what="the stream")
        persister.close()
        streamed = replay(initial, received)
        restored = restore(str(tmp_path))
        assert {
            table: {row.uuid: row.values for row in restored.rows(table)}
            for table in streamed
        } == streamed
        assert restored.count("Port") == 1 and restored.count("Switch") == 1
