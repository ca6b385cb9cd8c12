"""Tests for the fault-tolerant transport layer (``repro.net``), driven
through the management client: retry policies, the reconnecting
connection, fail-fast semantics, thread and socket hygiene, and the
fault-injecting proxy."""

import os
import socket
import sys
import threading
import time

import pytest

from repro import obs
from repro.errors import ConnectionLostError, ProtocolError, ReproError
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.mgmt.jsonrpc import (
    decode_frames,
    encode_frame,
    make_notification,
    make_request,
)
from repro.mgmt.schema import simple_schema
from repro.mgmt.server import ManagementServer
from repro.net import BROKEN, CONNECTED, RETRYING, FaultInjector, RetryPolicy
from repro.net.aio import AioConnection
from repro.net.reactor import Reactor

FAST = RetryPolicy(
    connect_timeout=2.0,
    call_timeout=2.0,
    max_reconnect_attempts=60,
    base_delay=0.01,
    max_delay=0.05,
)


def make_db():
    return Database(
        simple_schema("net", {"Port": {"name": "string", "vlan": "integer"}})
    )


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_for(predicate, timeout=10.0, what="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def insert_port(db, name):
    db.transact(
        [{"op": "insert", "table": "Port", "row": {"name": name, "vlan": 1}}]
    )


def port_names(updates):
    return [u.new["name"] for u in updates.table("Port").values()]


class TestRetryPolicy:
    def test_delay_count_is_bounded(self):
        policy = RetryPolicy(max_reconnect_attempts=5, jitter=0.0)
        assert len(list(policy.delays())) == 5

    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            base_delay=0.1,
            multiplier=2.0,
            max_delay=0.5,
            jitter=0.0,
            max_reconnect_attempts=6,
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(
            base_delay=1.0,
            multiplier=1.0,
            max_delay=1.0,
            jitter=0.25,
            max_reconnect_attempts=200,
        )
        for delay in policy.delays():
            assert 0.75 <= delay <= 1.25

    def test_unbounded_policy_keeps_yielding(self):
        policy = RetryPolicy(max_reconnect_attempts=None, jitter=0.0)
        delays = policy.delays()
        for _ in range(1000):
            next(delays)


class TestFailFast:
    def test_call_after_close_raises_immediately(self):
        db = make_db()
        with ManagementServer(db) as srv:
            client = ManagementClient(*srv.address, policy=FAST)
            client.close()
            started = time.time()
            with pytest.raises(ProtocolError):
                client.echo(["x"])
            assert time.time() - started < 1.0

    def test_close_is_idempotent(self):
        db = make_db()
        with ManagementServer(db) as srv:
            client = ManagementClient(*srv.address, policy=FAST)
            client.close()
            client.close()  # must not raise

    def test_close_fails_pending_calls(self):
        db = make_db()
        port = free_port()
        with ManagementServer(db, port=port) as srv:
            injector = FaultInjector(*srv.address, port=free_port()).start()
            client = ManagementClient(*injector.address, policy=FAST)
            injector.set_blackhole(True)  # requests vanish silently
            errors = []

            def blocked_call():
                try:
                    client.echo(["never answered"])
                except ProtocolError as exc:
                    errors.append(exc)

            t = threading.Thread(target=blocked_call)
            t.start()
            time.sleep(0.1)  # let the call register as pending
            client.close()
            t.join(timeout=2.0)
            assert not t.is_alive()
            assert len(errors) == 1
            injector.stop()

    def test_broken_after_retries_exhausted_fails_fast(self):
        db = make_db()
        with ManagementServer(db) as srv:
            injector = FaultInjector(*srv.address, port=free_port()).start()
            policy = RetryPolicy(
                connect_timeout=0.5,
                call_timeout=2.0,
                max_reconnect_attempts=2,
                base_delay=0.01,
                max_delay=0.02,
            )
            client = ManagementClient(*injector.address, policy=policy)
            assert client.echo(["up"]) == ["up"]
            injector.stop()  # connection dies AND reconnects are refused
            wait_for(
                lambda: client.conn.state == BROKEN,
                what="connection to break",
            )
            started = time.time()
            with pytest.raises(ConnectionLostError):
                client.echo(["x"])
            assert time.time() - started < 1.0
            health = client.health()
            assert health["state"] == BROKEN
            assert health["retry_count"] >= 2
            assert health["last_error"]
            client.close()

    def test_connect_timeout_is_configurable(self):
        db = make_db()
        with ManagementServer(db) as srv:
            client = ManagementClient(*srv.address, connect_timeout=1.5)
            assert client.conn.policy.connect_timeout == 1.5
            client.close()


class TestReconnect:
    @pytest.mark.slow
    def test_client_survives_server_restart(self):
        db = make_db()
        port = free_port()
        srv = ManagementServer(db, port=port).start()
        client = ManagementClient("127.0.0.1", port, policy=FAST)
        assert client.echo([1]) == [1]
        srv.stop()
        srv = ManagementServer(db, port=port).start()
        wait_for(
            lambda: client.conn.state == CONNECTED
            and client.conn.reconnects >= 1,
            what="reconnect",
        )
        assert client.echo([2]) == [2]
        transitions = client.health()["transitions"]
        assert transitions[:1] == [CONNECTED]
        assert RETRYING in transitions
        assert transitions[-1] == CONNECTED
        client.close()
        srv.stop()

    @pytest.mark.slow
    def test_close_while_a_redial_is_in_flight_leaves_no_open_socket(self):
        """A listener whose accept queue is full drops further SYNs, so
        the client's redial stays half-open for as long as the test
        likes; ``close()`` must close that socket too, and the loop's
        own descriptors with it."""
        fds = open_fds()
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        client = ManagementClient(*listener.getsockname(), policy=FAST)
        fillers = []
        try:
            assert client.conn.wait_connected(5.0)
            session, _ = listener.accept()
            for _ in range(4):
                filler = socket.socket()
                filler.setblocking(False)
                filler.connect_ex(listener.getsockname())
                fillers.append(filler)
            time.sleep(0.1)  # the fillers' handshakes own the queue now
            session.close()  # peer gone: the client starts redialling
            wait_for(
                lambda: client.conn.connect_attempts >= 2, what="redial"
            )
            if client.conn.state == CONNECTED:
                pytest.skip("this kernel accepts past a full accept queue")
            assert client.conn.state == RETRYING
        finally:
            client.close()
            for sock in fillers + [listener]:
                sock.close()
        assert client.conn.reconnects == 0
        assert open_fds() == fds, "a socket outlived close()"

    @pytest.mark.slow
    def test_monitors_cleared_and_hook_fires_on_reconnect(self):
        db = make_db()
        port = free_port()
        srv = ManagementServer(db, port=port).start()
        client = ManagementClient("127.0.0.1", port, policy=FAST)
        client.monitor({"Port": None}, lambda u: None)
        assert client._monitor_callbacks
        hook_fired = threading.Event()
        client.on_reconnect(hook_fired.set)
        srv.stop()
        srv = ManagementServer(db, port=port).start()
        assert hook_fired.wait(10.0), "reconnect hook never ran"
        assert not client._monitor_callbacks
        client.close()
        srv.stop()

    @pytest.mark.slow
    def test_heartbeat_detects_blackhole(self):
        db = make_db()
        with ManagementServer(db) as srv:
            injector = FaultInjector(*srv.address, port=free_port()).start()
            policy = RetryPolicy(
                connect_timeout=1.0,
                call_timeout=0.3,
                max_reconnect_attempts=100,
                base_delay=0.01,
                max_delay=0.05,
                heartbeat_interval=0.05,
            )
            client = ManagementClient(*injector.address, policy=policy)
            assert client.echo(["pre"]) == ["pre"]
            injector.set_blackhole(True)
            # No transport error is ever raised by a blackhole — only
            # the heartbeat can notice the peer has gone silent.
            wait_for(
                lambda: RETRYING in client.conn.transitions,
                what="heartbeat to flag the dead connection",
            )
            injector.set_blackhole(False)
            wait_for(
                lambda: client.conn.state == CONNECTED
                and client.conn.reconnects >= 1,
                what="reconnect after blackhole lifted",
            )
            assert client.echo(["post"]) == ["post"]
            client.close()
            injector.stop()


class _EagerServer(ManagementServer):
    """Commits two rows on another thread between registering a monitor
    and answering the ``monitor`` request.  The server holds commits
    until its answer is out, so the writer's join is bounded."""

    def handle(self, conn, method, params):
        result = super().handle(conn, method, params)
        if method == "monitor":
            writer = threading.Thread(
                target=lambda: [insert_port(self.db, f"early-{i}") for i in (1, 2)]
            )
            writer.start()
            writer.join(0.2)
            self.writers.append(writer)
        return result


class _DyingServer(ManagementServer):
    """On ``echo ["die"]``, commits two rows and closes the connection:
    their updates and the end of the stream leave in one burst."""

    def handle(self, conn, method, params):
        if method == "echo" and params == ["die"]:
            insert_port(self.db, "a")
            insert_port(self.db, "b")
            conn.close()
        return super().handle(conn, method, params)


class TestClientOnItsLoop:
    def test_one_thread_while_open_none_after_close(self):
        db = make_db()
        with ManagementServer(db) as srv:
            before = set(threading.enumerate())

            def added():
                return list(set(threading.enumerate()) - before)

            client = ManagementClient(*srv.address, policy=FAST)
            seen = []
            client.monitor({"Port": None}, seen.append)
            insert_port(db, "a")
            assert client.echo([1]) == [1]
            wait_for(lambda: seen, what="the update")
            assert [t.name for t in added()] == ["mgmt-client-reactor"]
            client.close()
            wait_for(lambda: not added(), timeout=1.0, what="threads to end")

    def test_notifications_run_on_the_loop_in_wire_order(self):
        """Each notification runs on the loop thread that read it, in
        wire order; one whose callback raises is counted, and the frame
        decoded behind it from the same read is still delivered."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        reactor = Reactor("t-inline")
        seen = []

        def on_notification(message):
            (n,) = message["params"]
            seen.append((n, reactor.in_loop()))
            if n == 1:
                raise RuntimeError("handler bug")

        conn = AioConnection(
            *listener.getsockname(),
            reactor,
            policy=FAST,
            on_notification=on_notification,
        )
        reads = []
        recv = reactor.recv

        def counting_recv(sock):
            data = recv(sock)
            if data:
                reads.append(data)
            return data

        reactor.recv = counting_recv
        peer = None
        try:
            assert conn.wait_connected(5.0)
            peer, _ = listener.accept()
            frames = b"".join(
                encode_frame(make_notification("n", [n])) for n in (1, 2, 3)
            )
            # Sent from the loop itself: all three frames are in the
            # socket before its next read.
            reactor.submit(peer.sendall, frames)
            wait_for(lambda: len(seen) == 3, what="every notification")
            assert seen == [(1, True), (2, True), (3, True)]
            assert reads == [frames]
            assert "handler bug" in str(reactor.last_callback_error)
        finally:
            conn.close()
            reactor.stop()
            for sock in (peer, listener):
                if sock is not None:
                    sock.close()

    @pytest.mark.serial
    def test_blocking_call_from_a_monitor_callback_raises(self):
        """A monitor callback runs on the client's loop, the thread that
        would read the reply: a blocking call from it raises at once,
        is counted like any callback error, and the next update still
        arrives."""
        db = make_db()
        obs.reset()
        obs.enable()
        try:
            with ManagementServer(db) as srv:
                client = ManagementClient(*srv.address, policy=FAST)
                seen = []

                def callback(updates):
                    seen.extend(port_names(updates))
                    if seen == ["a"]:
                        client.echo(["nested"])

                client.monitor({"Port": None}, callback)
                insert_port(db, "a")
                insert_port(db, "b")
                wait_for(lambda: seen == ["a", "b"], what="both updates")
                errors = obs.REGISTRY.counter(
                    "reactor_callback_errors_total", reactor="mgmt-client"
                )
                assert errors.value == 1
                error = client.conn.reactor.last_callback_error
                assert isinstance(error, ReproError)
                assert "reactor loop thread" in str(error)
                assert client.echo(["after"]) == ["after"]
                client.close()
        finally:
            obs.disable()
            obs.reset()

    def test_commits_racing_the_monitor_reply_follow_it(self):
        """Commits made between the server registering a monitor and
        answering it reach the callback, in commit order, after the
        snapshot they post-date: the answer precedes them on the wire."""
        db = make_db()
        insert_port(db, "snapshot")
        with _EagerServer(db) as srv:
            srv.writers = []
            client = ManagementClient(*srv.address, policy=FAST)
            seen = []
            _, initial = client.monitor(
                {"Port": None}, lambda updates: seen.extend(port_names(updates))
            )
            assert port_names(initial) == ["snapshot"]
            (writer,) = srv.writers
            writer.join(10.0)
            insert_port(db, "late")
            wait_for(lambda: len(seen) == 3, what="the live stream")
            assert seen == ["early-1", "early-2", "late"]
            client.close()

    @pytest.mark.serial
    def test_raising_monitor_callback_is_counted_and_the_next_runs(self):
        db = make_db()
        obs.reset()
        obs.enable()
        try:
            with ManagementServer(db) as srv:
                client = ManagementClient(*srv.address, policy=FAST)
                seen = []

                def callback(updates):
                    seen.extend(port_names(updates))
                    if seen == ["bad"]:
                        raise RuntimeError("handler bug")

                client.monitor({"Port": None}, callback)
                insert_port(db, "bad")
                insert_port(db, "good")
                wait_for(lambda: seen == ["bad", "good"], what="both updates")
                errors = obs.REGISTRY.counter(
                    "reactor_callback_errors_total", reactor="mgmt-client"
                )
                assert errors.value == 1
                assert "handler bug" in str(
                    client.conn.reactor.last_callback_error
                )
                client.close()
        finally:
            obs.disable()
            obs.reset()

    def test_reconnect_hook_waits_for_the_dead_sessions_updates(self):
        """Updates the lost session sent before it died go to the
        callbacks they were addressed to *before* the hook that
        re-subscribes starts: a restarted server may hand out the same
        monitor id again, and a stale update must never be taken for
        one of the new subscription's."""
        db = make_db()
        with _DyingServer(db) as srv:
            client = ManagementClient(*srv.address, policy=FAST)
            order = []
            client.monitor({"Port": None}, lambda u: order.extend(port_names(u)))
            client.on_reconnect(lambda: order.append("hook"))
            try:
                # Two updates, then the end of the stream, in one burst.
                client.conn.call_async("echo", ["die"], lambda _r, _e: None)
                wait_for(lambda: "hook" in order, what="the reconnect hook")
                assert order == ["a", "b", "hook"]
            finally:
                client.close()


def _stack(frame):
    while frame is not None:
        yield frame
        frame = frame.f_back


class TestFaultInjector:
    def test_transparent_proxying(self):
        db = make_db()
        with ManagementServer(db) as srv:
            injector = FaultInjector(*srv.address, port=free_port()).start()
            client = ManagementClient(*injector.address, policy=FAST)
            assert client.echo(["through proxy"]) == ["through proxy"]
            assert injector.connections_accepted == 1
            assert injector.bytes_up > 0 and injector.bytes_down > 0
            client.close()
            injector.stop()

    def test_proxied_connections_cost_no_threads(self):
        """Both sockets of every pipe are callbacks on the injector's
        loop: 8 proxied connections add no thread to its reactor's."""
        db = make_db()
        with ManagementServer(db) as srv:
            before = set(threading.enumerate())
            injector = FaultInjector(*srv.address).start()
            socks = []
            try:
                started = set(threading.enumerate()) - before
                assert {t.name for t in started} == {
                    f"{injector.reactor.name}-reactor"
                }
                echo = encode_frame(make_request("echo", ["via"], 1))
                for _ in range(8):
                    sock = socket.create_connection(injector.address)
                    sock.settimeout(5.0)
                    socks.append(sock)
                    sock.sendall(echo)
                for sock in socks:
                    messages, _ = decode_frames(sock.recv(4096))
                    assert messages[0]["result"] == ["via"]
                assert len(injector.connections()) == 8
                assert set(threading.enumerate()) - before == started
            finally:
                for sock in socks:
                    sock.close()
                injector.stop()

    def test_latency_fault_delays_calls(self):
        db = make_db()
        with ManagementServer(db) as srv:
            injector = FaultInjector(*srv.address, port=free_port()).start()
            client = ManagementClient(*injector.address, policy=FAST)
            client.echo(["warm"])
            injector.set_latency(0.15)
            started = time.time()
            client.echo(["slow"])
            assert time.time() - started >= 0.15
            injector.set_latency(0.0)
            client.close()
            injector.stop()

    @pytest.mark.slow
    def test_sever_drops_connection_and_client_recovers(self):
        db = make_db()
        with ManagementServer(db) as srv:
            injector = FaultInjector(*srv.address, port=free_port()).start()
            client = ManagementClient(*injector.address, policy=FAST)
            client.echo(["pre"])
            assert injector.sever() == 1
            wait_for(
                lambda: client.conn.state == CONNECTED
                and client.conn.reconnects >= 1,
                what="reconnect through injector",
            )
            assert client.echo(["post"]) == ["post"]
            client.close()
            injector.stop()

    @pytest.mark.slow
    def test_stalled_peer_is_bounded_by_the_call_deadline(self):
        """A peer that accepts the connection but stops *reading* lets
        TCP flow control fill the socket buffers; a blocking ``sendall``
        would freeze its caller there, out of reach of any timeout.
        Sends never block here, so the call's own deadline unblocks the
        caller, no thread sits in a send, and the connection carries on
        once the peer reads again."""
        db = make_db()
        with ManagementServer(db) as srv:
            injector = FaultInjector(*srv.address, port=free_port()).start()
            policy = RetryPolicy(
                connect_timeout=2.0,
                call_timeout=1.0,
                max_reconnect_attempts=60,
                base_delay=0.01,
                max_delay=0.05,
            )
            client = ManagementClient(*injector.address, policy=policy)
            assert client.echo(["warm"]) == ["warm"]
            injector.set_stall(True)
            # Big enough to overrun the kernel socket buffers on
            # loopback, so the send genuinely hits flow control.
            payload = "x" * (32 * 1024 * 1024)
            started = time.time()
            with pytest.raises(ProtocolError, match="timeout"):
                client.call("echo", [payload])
            assert time.time() - started < 5.0  # the deadline, not a wedge
            assert client.conn.send_buffer_bytes > 0  # it really stalled
            in_send = [
                frame.f_code.co_name
                for top in sys._current_frames().values()
                for frame in _stack(top)
                if frame.f_code.co_filename.endswith("net/aio.py")
                and frame.f_code.co_name in ("send", "flush")
            ]
            assert not in_send
            injector.set_stall(False)

            def answered():
                try:
                    return client.echo(["post"]) == ["post"]
                except ProtocolError:
                    return False  # still behind the 32 MiB and its echo

            wait_for(answered, timeout=30.0, what="a call after the stall")
            client.close()
            injector.stop()

    @pytest.mark.slow
    def test_garbled_length_prefix_triggers_reconnect(self):
        db = make_db()
        with ManagementServer(db) as srv:
            injector = FaultInjector(*srv.address, port=free_port()).start()
            client = ManagementClient(*injector.address, policy=FAST)
            client.echo(["pre"])
            injector.garble_next("down")
            # The garbled response is lost; the retryable echo re-sends
            # on the fresh connection after the framing error.
            assert client.echo(["garbled"]) == ["garbled"]
            wait_for(
                lambda: client.conn.reconnects >= 1,
                what="reconnect after framing error",
            )
            assert "frame" in (client.conn.last_error or "") or client.conn.reconnects >= 1
            client.close()
            injector.stop()

    @pytest.mark.slow
    def test_close_mid_message_triggers_reconnect(self):
        db = make_db()
        with ManagementServer(db) as srv:
            injector = FaultInjector(*srv.address, port=free_port()).start()
            injector.close_after(20)  # cut inside the first request frame
            client = ManagementClient(*injector.address, policy=FAST)
            wait_for(injector.connections, what="the doomed pipe")
            injector.close_after(10**9)  # reconnected pipes live on
            assert client.echo(["recovered"]) == ["recovered"]
            assert client.conn.reconnects >= 1
            client.close()
            injector.stop()


class TestTornJournal:
    def test_restore_recovers_complete_records_from_torn_journal(self, tmp_path):
        import os

        from repro.mgmt.persist import Persister, restore

        db = make_db()
        persister = Persister(db, str(tmp_path))
        db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "a", "vlan": 1}}]
        )
        db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "b", "vlan": 2}}]
        )
        persister.close()

        # Simulate a crash mid-append: a torn, non-JSON final line.
        journal = os.path.join(str(tmp_path), "journal.ndjson")
        with open(journal, "a", encoding="utf-8") as f:
            f.write('{"Port": {"u3": {"new": {"name": "c", "vl')

        db2 = restore(str(tmp_path), schema=db.schema)
        names = sorted(row["name"] for row in db2.rows("Port"))
        assert names == ["a", "b"]

    def test_restore_ignores_truncation_after_snapshot(self, tmp_path):
        import os

        from repro.mgmt.persist import Persister, restore

        db = make_db()
        persister = Persister(db, str(tmp_path))
        db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "a", "vlan": 1}}]
        )
        persister.compact()
        db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "b", "vlan": 2}}]
        )
        persister.close()
        journal = os.path.join(str(tmp_path), "journal.ndjson")
        with open(journal, "a", encoding="utf-8") as f:
            f.write("{torn")

        db2 = restore(str(tmp_path))
        names = sorted(row["name"] for row in db2.rows("Port"))
        assert names == ["a", "b"]

    def test_restart_after_torn_tail_preserves_new_commits(self, tmp_path):
        """Regression: a Persister attaching to a journal with a torn
        final line must repair (truncate) it before appending.  Without
        the repair, records written after the torn line are silently
        dropped by restore, which stops replaying at the first
        undecodable line — post-restart commits would be lost."""
        import os

        from repro.mgmt.persist import Persister, restore

        db = make_db()
        persister = Persister(db, str(tmp_path))
        db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "a", "vlan": 1}}]
        )
        persister.close()
        journal = os.path.join(str(tmp_path), "journal.ndjson")
        with open(journal, "a", encoding="utf-8") as f:
            f.write('{"Port": {"u9": {"new": {"name": "x", "vl')  # crash

        # Restart: recover what the journal holds, attach, commit more.
        db2 = restore(str(tmp_path), schema=db.schema)
        persister2 = Persister(db2, str(tmp_path))
        assert persister2.repaired_bytes > 0
        db2.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "b", "vlan": 2}}]
        )
        persister2.close()

        db3 = restore(str(tmp_path), schema=db.schema)
        names = sorted(row["name"] for row in db3.rows("Port"))
        assert names == ["a", "b"]

    def test_repair_is_noop_on_clean_journal(self, tmp_path):
        from repro.mgmt.persist import Persister, restore

        db = make_db()
        persister = Persister(db, str(tmp_path))
        db.transact(
            [{"op": "insert", "table": "Port", "row": {"name": "a", "vlan": 1}}]
        )
        persister.close()

        persister2 = Persister(db, str(tmp_path))
        assert persister2.repaired_bytes == 0
        persister2.close()
        db2 = restore(str(tmp_path), schema=db.schema)
        assert [row["name"] for row in db2.rows("Port")] == ["a"]

    def test_repair_tolerates_blank_lines_and_missing_journal(self, tmp_path):
        import os

        from repro.mgmt.persist import _repair_journal

        missing = os.path.join(str(tmp_path), "journal.ndjson")
        assert _repair_journal(missing) == 0

        with open(missing, "w", encoding="utf-8") as f:
            f.write('{"Port": {}}\n\n{"Port": {}}\n{"torn')
        dropped = _repair_journal(missing)
        assert dropped == len('{"torn')
        with open(missing, encoding="utf-8") as f:
            assert f.read() == '{"Port": {}}\n\n{"Port": {}}\n'
