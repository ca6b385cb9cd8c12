"""The event-loop apply plane: reactor, aio transport, fan-out channels.

Covers the multiplexed stage-3 plane:

* :class:`~repro.net.aio.Reactor` — cross-thread ``submit``,
  ``call_later`` timers, callback-error survival;
* :class:`~repro.net.aio.AioConnection` — blocking and async calls,
  per-call deadlines, reconnect after a server restart, fail-fast once
  broken, write-buffer watermarks (and the no-wedge guarantee: parked
  drain callbacks fire when the transport dies);
* :class:`~repro.core.fanout.DeviceChannel` — per-device FIFO with at
  most one operation in flight, error deferral, idempotent completion;
* the controller on the plane — reactor selection, fan-out metrics,
  resync barrier/supersede semantics;
* **golden reference**: the same churn the deleted thread-per-device
  plane was recorded on (``fixtures/fanout_golden.json``) must produce
  identical per-device write order (uncoalesced) and identical final
  tables, including the quarantine and resync/supersede paths;
* :class:`~repro.p4runtime.farm.DeviceFarm` +
  :class:`~repro.p4runtime.aio_client.AioP4RuntimeClient` — device
  routing, receiver-side FIFO verification via batch ``seq`` ranges,
  and non-blocking slow-device ack delays.
"""

import gc
import json
import os
import socket
import threading
import time
import warnings

import pytest

from repro.core.controller import NerpaController
from repro.core.fanout import AWAITING_ACK, IDLE, FanoutPlane
from repro.core.pipeline import nerpa_build
from repro.errors import ConnectionLostError, ProtocolError, ReproError
from repro.mgmt.database import Database
from repro.mgmt.schema import simple_schema
from repro.net import BROKEN, CONNECTED, RETRYING, FaultInjector, RetryPolicy
from repro.net.aio import AioConnection, Reactor
from repro.net.reactor import default_reactor
from repro.p4.tables import FieldMatch, TableEntry
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.api import DeviceService, TableWrite
from repro.p4runtime.farm import DeviceFarm, FarmDevice
from repro.p4runtime.server import P4RuntimeServer
from tests.doubles import uncoalesce

FAST = RetryPolicy(
    connect_timeout=2.0,
    call_timeout=5.0,
    max_reconnect_attempts=100,
    base_delay=0.01,
    max_delay=0.1,
)

SCHEMA = simple_schema(
    "net", {"PortCfg": {"port": "integer", "out_port": "integer"}}
)

P4 = """
header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
struct headers_t { eth_t eth; }
struct meta_t { bit<1> pad; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
         inout standard_metadata_t std) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control Ing(inout headers_t hdr, inout meta_t m,
            inout standard_metadata_t std) {
    action forward(bit<16> port) { std.egress_spec = port; }
    action drop() { mark_to_drop(); }
    table patch {
        key = { std.ingress_port : exact; }
        actions = { forward; drop; }
        default_action = drop();
    }
    apply { patch.apply(); }
}
"""

RULES = "Patch(p as bit<16>, PatchActionForward{o as bit<16>}) :- PortCfg(_, p, o)."


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_for(predicate, timeout=10.0, what="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {what}")


def entry(port, out_port):
    return TableEntry([FieldMatch.exact(port)], "forward", [out_port])


def add_port(db, port, out_port):
    db.transact(
        [
            {
                "op": "insert",
                "table": "PortCfg",
                "row": {"port": port, "out_port": out_port},
            }
        ]
    )


def set_out_port(db, port, out_port):
    db.transact(
        [
            {
                "op": "update",
                "table": "PortCfg",
                "where": [["port", "==", port]],
                "row": {"out_port": out_port},
            }
        ]
    )


def del_port(db, port):
    db.transact(
        [
            {
                "op": "delete",
                "table": "PortCfg",
                "where": [["port", "==", port]],
            }
        ]
    )


def table_state(sim) -> str:
    """Canonical dump of a simulator's ``patch`` table."""
    service = DeviceService(sim)
    entries = []
    for e in service.read_table("patch"):
        entries.append(
            {
                "matches": [list(m.key()) for m in e.matches],
                "action": e.action,
                "params": list(e.action_params),
                "priority": e.priority,
            }
        )
    entries.sort(key=lambda e: json.dumps(e, sort_keys=True, default=str))
    return json.dumps(entries, sort_keys=True, default=str)


class _SilentPeer:
    """Accepts TCP connections and never replies (nor sends).

    The pathological-but-real peer the aio transport must survive:
    per-call deadlines, heartbeat detection, and write-buffer
    watermarks are all exercised against it.
    """

    def __init__(self):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(64)
        self.address = self.listener.getsockname()[:2]
        self.conns = []
        self.alive = True
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        while self.alive:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            self.conns.append(sock)

    def stop(self):
        self.alive = False
        try:
            self.listener.close()
        except OSError:
            pass
        for sock in self.conns:
            try:
                sock.close()
            except OSError:
                pass


class _CountingReactor(Reactor):
    """A reactor that counts the loop bookkeeping it is asked for."""

    def __init__(self, name):
        super().__init__(name)
        self.submits = 0
        self.call_laters = 0

    def submit(self, fn, *args):
        self.submits += 1
        return super().submit(fn, *args)

    def call_later(self, delay, fn):
        self.call_laters += 1
        return super().call_later(delay, fn)


# ---------------------------------------------------------------------------
# Reactor.
# ---------------------------------------------------------------------------


class TestReactor:
    def test_submit_runs_on_loop_thread(self):
        reactor = Reactor("t-submit").start()
        try:
            box = {}
            done = threading.Event()

            def probe():
                box["in_loop"] = reactor.in_loop()
                done.set()

            assert reactor.submit(probe)
            assert done.wait(5.0)
            assert box["in_loop"] is True
            assert not reactor.in_loop()  # the test thread is not the loop
        finally:
            reactor.stop()

    def test_call_later_fires_and_cancel_prevents(self):
        reactor = Reactor("t-timer").start()
        try:
            fired = threading.Event()
            never = threading.Event()
            started = time.monotonic()
            reactor.call_later(0.05, fired.set)
            doomed = reactor.call_later(0.05, never.set)
            doomed.cancel()
            assert fired.wait(5.0)
            assert time.monotonic() - started >= 0.04
            time.sleep(0.1)
            assert not never.is_set()
        finally:
            reactor.stop()

    def test_cancelled_timers_do_not_pile_up(self):
        """Per-call deadlines are cancelled long before they are due.
        Behind any live timer that is due sooner (here: ``guard``) they
        are never at the head of the heap, and must be dropped anyway."""
        reactor = Reactor("t-timer-heap").start()
        try:
            fired = []
            done = threading.Event()
            guard = reactor.call_later(10.0, lambda: fired.append("guard"))
            for i in range(5):
                reactor.call_later(0.1 + 0.01 * i, lambda i=i: fired.append(i))
            for _ in range(10_000):
                reactor.call_later(30.0, lambda: None).cancel()
            reactor.call_later(0.2, done.set)
            assert done.wait(5.0)
            assert fired == [0, 1, 2, 3, 4]
            # Every call_later woke the loop, which compacts as it goes.
            wait_for(
                lambda: len(reactor._timers) < 300, timeout=3.0, what="heap compacted"
            )
            assert not guard.cancelled
        finally:
            reactor.stop()

    def test_submit_after_stop_returns_false(self):
        reactor = Reactor("t-stopped").start()
        reactor.stop()
        assert reactor.submit(lambda: None) is False
        timer = reactor.call_later(0.0, lambda: None)
        assert timer.cancelled

    def test_submit_merging_folds_into_the_newest_waiting_call(self):
        """An item merges into the call waiting last, if that call is the
        same ``fn`` and its item absorbs it; any other submit between
        them is a barrier, and an item refused stays a call of its own."""

        class Bag:
            def __init__(self, *xs):
                self.xs = list(xs)

            def coalesce(self, other):
                if "solo" in other.xs or "solo" in self.xs:
                    return None
                self.xs += other.xs
                return self

        reactor = Reactor("t-merging").start()
        try:
            gate, done = threading.Event(), threading.Event()
            ran = []
            reactor.submit(gate.wait, 10.0)
            for x in ("a", "b"):
                assert reactor.submit_merging(ran.append, Bag(x))
            reactor.submit(ran.append, "barrier")
            for x in ("c", "solo", "d", "e"):
                assert reactor.submit_merging(ran.append, Bag(x))
            reactor.submit(done.set)
            gate.set()
            assert done.wait(5.0)
            assert [getattr(r, "xs", r) for r in ran] == [
                ["a", "b"], "barrier", ["c"], ["solo"], ["d", "e"]
            ]
        finally:
            reactor.stop()
        assert reactor.submit_merging(ran.append, Bag("late")) is False

    def test_callback_error_does_not_kill_loop(self):
        reactor = Reactor("t-survive").start()
        try:
            boom = RuntimeError("injected callback failure")

            def bad():
                raise boom

            reactor.submit(bad)
            survived = threading.Event()
            reactor.submit(survived.set)
            assert survived.wait(5.0)
            assert reactor.last_callback_error is boom
        finally:
            reactor.stop()


    def test_no_submit_is_lost_and_wakes_are_shared(self):
        """4 producers x 10k cross-thread submits: every one runs, and
        they share wake bytes (one per loop turn, not one each)."""
        reactor = Reactor("t-wakes").start()
        wakes = []
        real_wakeup = reactor._wakeup
        reactor._wakeup = lambda: (wakes.append(1), real_wakeup())
        ran = []  # appended on the loop thread only
        try:
            def produce(k):
                for i in range(10_000):
                    assert reactor.submit(ran.append, (k, i))

            producers = [
                threading.Thread(target=produce, args=(k,)) for k in range(4)
            ]
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(30.0)
                assert not thread.is_alive()
            wait_for(lambda: len(ran) == 40_000, what="all submits to run")
            for k in range(4):  # per-producer FIFO, nothing twice
                assert [i for j, i in ran if j == k] == list(range(10_000))
            assert 1 <= len(wakes) < 40_000
            # The loop went back to sleep with the flag clear: one more
            # submit from outside still wakes it.
            time.sleep(0.05)
            late = threading.Event()
            assert reactor.submit(late.set) and late.wait(5.0)
        finally:
            reactor.stop()

    def test_work_scheduled_from_the_loop_costs_no_wake_and_runs(self):
        reactor = Reactor("t-inloop-sched").start()
        wakes = []
        real_wakeup = reactor._wakeup
        reactor._wakeup = lambda: (
            wakes.append(threading.current_thread().name), real_wakeup()
        )
        try:
            chained, fired = threading.Event(), threading.Event()
            box = {}

            def on_loop():
                box["scheduled"] = time.monotonic()
                reactor.submit(chained.set)
                reactor.call_later(
                    0.05,
                    lambda: (box.setdefault("fired", time.monotonic()),
                             fired.set()),
                )

            reactor.submit(on_loop)
            assert chained.wait(5.0) and fired.wait(5.0)
            assert 0.045 <= box["fired"] - box["scheduled"] < 1.0
            assert "t-inloop-sched-reactor" not in wakes
        finally:
            reactor.stop()

    def test_stop_runs_queued_closes(self):
        """``close()`` then ``reactor.stop()``: the queued teardown
        still runs — every peer sees EOF and no socket is left for the
        garbage collector to warn about."""
        peer = _SilentPeer()
        reactor = Reactor("t-stop-drain").start()
        conns = [
            AioConnection("127.0.0.1", peer.address[1], reactor, policy=FAST)
            for _ in range(8)
        ]
        try:
            assert all(conn.wait_connected(5.0) for conn in conns)
            wait_for(lambda: len(peer.conns) == 8, what="accepts")
            # Hold the loop so the closes are still queued at stop().
            held = threading.Event()
            reactor.submit(lambda: (held.set(), time.sleep(0.2)))
            assert held.wait(5.0)
            for conn in conns:
                conn.close()
            reactor.stop()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                del conns[:], conn
                gc.collect()
            assert not [w for w in caught if w.category is ResourceWarning]
            for sock in peer.conns:
                sock.settimeout(5.0)
                assert sock.recv(1) == b""
        finally:
            reactor.stop()
            peer.stop()


# ---------------------------------------------------------------------------
# AioConnection.
# ---------------------------------------------------------------------------


def sim_and_server(port=0):
    project = nerpa_build(SCHEMA, RULES, P4)
    sim = project.new_simulator(n_ports=16)
    server = P4RuntimeServer(sim, port=port).start()
    return sim, server, server.address[1]


class TestAioConnection:
    def test_blocking_call_round_trip(self):
        reactor = Reactor("t-call").start()
        sim, server, port = sim_and_server()
        conn = AioConnection("127.0.0.1", port, reactor, policy=FAST)
        try:
            assert conn.wait_connected(5.0)
            assert conn.call("echo", ["hello"], retryable=True) == ["hello"]
            health = conn.health()
            assert health["state"] == CONNECTED
            assert health["send_buffer_bytes"] == 0
        finally:
            conn.close()
            server.stop()
            reactor.stop()

    def test_call_async_resolves_on_loop_thread(self):
        reactor = Reactor("t-async").start()
        sim, server, port = sim_and_server()
        conn = AioConnection("127.0.0.1", port, reactor, policy=FAST)
        try:
            assert conn.wait_connected(5.0)
            box = {}
            done = threading.Event()

            def cb(result, error):
                box["result"] = result
                box["error"] = error
                box["in_loop"] = reactor.in_loop()
                done.set()

            conn.call_async("echo", [1, 2], cb)
            assert done.wait(5.0)
            assert box["error"] is None
            assert box["result"] == [1, 2]
            assert box["in_loop"] is True
        finally:
            conn.close()
            server.stop()
            reactor.stop()

    def test_blocking_call_from_loop_thread_raises(self):
        """A blocking method from a reactor callback used to wedge the
        loop (it waits for a response only the loop can read); now the
        caller gets an error and the loop keeps serving."""
        reactor = Reactor("t-inloop").start()
        sim, server, port = sim_and_server()
        client = AioP4RuntimeClient("127.0.0.1", port, reactor, policy=FAST)
        try:
            assert client.echo(["up"]) == ["up"]
            raised = []
            done = threading.Event()

            def cb(result, error):
                try:
                    client.read_table("patch")
                except ReproError as exc:
                    raised.append(exc)
                done.set()

            client.conn.call_async("echo", [1], cb)
            assert done.wait(5.0)
            assert "loop thread" in str(raised[0])
            served = threading.Event()
            assert reactor.submit(served.set) and served.wait(5.0)
        finally:
            client.close()
            server.stop()
            reactor.stop()

    def test_per_call_deadline_fires_without_breaking_connection(self):
        peer = _SilentPeer()
        reactor = Reactor("t-deadline").start()
        conn = AioConnection(
            "127.0.0.1", peer.address[1], reactor, policy=FAST
        )
        try:
            assert conn.wait_connected(5.0)
            with pytest.raises(ProtocolError, match="timeout"):
                conn.call("echo", ["never answered"], timeout=0.2)
            # A per-call deadline is the caller's problem, not a
            # transport fault: the connection stays usable.
            assert conn.state == CONNECTED
        finally:
            conn.close()
            reactor.stop()
            peer.stop()

    def test_a_short_deadline_behind_a_long_one_fires_on_time(self):
        """The connection's one timer is armed for the pending 30 s
        call; a 0.2 s call issued behind it must re-arm it earlier."""
        peer = _SilentPeer()
        reactor = Reactor("t-rearm").start()
        conn = AioConnection(
            "127.0.0.1", peer.address[1], reactor, policy=FAST
        )
        try:
            assert conn.wait_connected(5.0)
            outcomes = {}
            short_failed = threading.Event()

            def record(name, event=None):
                def callback(result, error):
                    outcomes[name] = (error, time.monotonic())
                    if event is not None:
                        event.set()

                return callback

            conn.call_async("echo", ["long"], record("long"), timeout=30.0)
            started = time.monotonic()
            conn.call_async(
                "echo", ["short"], record("short", short_failed), timeout=0.2
            )
            assert short_failed.wait(5.0)
            error, failed_at = outcomes["short"]
            assert isinstance(error, ProtocolError)
            assert "timeout waiting for echo response" in str(error)
            assert 0.18 <= failed_at - started < 1.0
            assert "long" not in outcomes  # still pending, still armed
            assert conn.state == CONNECTED
        finally:
            conn.close()
            reactor.stop()
            peer.stop()

    def test_answered_calls_share_one_deadline_timer(self):
        """A call answered before its deadline costs no timer work: a
        thousand of them on one connection arm at most one timer."""
        reactor = _CountingReactor("t-one-timer").start()
        sim, server, port = sim_and_server()
        conn = AioConnection("127.0.0.1", port, reactor, policy=FAST)
        try:
            assert conn.wait_connected(5.0)
            answered = []
            done = threading.Event()

            def collect(result, error):
                answered.append(error)
                if len(answered) == 1000:
                    done.set()

            def burst():
                reactor.call_laters = 0
                for i in range(1000):
                    conn.call_async("echo", [i], collect, timeout=5.0)

            reactor.submit(burst)
            assert done.wait(10.0)
            assert answered == [None] * 1000
            assert reactor.call_laters <= 1
        finally:
            conn.close()
            server.stop()
            reactor.stop()

    def test_call_fails_fast_while_reconnecting(self):
        reactor = Reactor("t-fastfail").start()
        port = free_port()  # nothing listening
        conn = AioConnection(
            "127.0.0.1",
            port,
            reactor,
            policy=RetryPolicy(
                connect_timeout=0.5,
                call_timeout=1.0,
                max_reconnect_attempts=2,
                base_delay=0.01,
                max_delay=0.02,
            ),
        )
        try:
            wait_for(
                lambda: conn.state == BROKEN, what="retries to exhaust"
            )
            started = time.monotonic()
            with pytest.raises(ConnectionLostError):
                conn.call("echo", ["no peer"])
            assert time.monotonic() - started < 0.5  # no timeout burned
            assert conn.retry_count >= 1
        finally:
            conn.close()
            reactor.stop()

    @pytest.mark.slow
    def test_reconnects_after_server_restart(self):
        reactor = Reactor("t-reconnect").start()
        port = free_port()
        sim, server, _ = sim_and_server(port=port)
        conn = AioConnection("127.0.0.1", port, reactor, policy=FAST)
        hook_ran = threading.Event()
        conn.on_reconnect(hook_ran.set)
        try:
            assert conn.wait_connected(5.0)
            server.stop()
            wait_for(
                lambda: conn.state == RETRYING, what="loss detection"
            )
            server = P4RuntimeServer(sim, port=port).start()
            wait_for(
                lambda: conn.state == CONNECTED and conn.reconnects >= 1,
                what="reconnect",
            )
            assert hook_ran.wait(5.0)
            assert conn.call("echo", ["back"], retryable=True) == ["back"]
            assert RETRYING in conn.transitions
        finally:
            conn.close()
            server.stop()
            reactor.stop()

    @pytest.mark.slow
    def test_heartbeat_detects_unresponsive_peer(self):
        peer = _SilentPeer()
        reactor = Reactor("t-hb").start()
        conn = AioConnection(
            "127.0.0.1",
            peer.address[1],
            reactor,
            policy=RetryPolicy(
                connect_timeout=1.0,
                call_timeout=5.0,
                heartbeat_interval=0.1,
                max_reconnect_attempts=100,
                base_delay=0.01,
                max_delay=0.05,
            ),
        )
        try:
            assert conn.wait_connected(5.0)
            # The peer accepts but never answers the heartbeat echo —
            # only the probe can notice; no caller is blocked.
            wait_for(
                lambda: conn.retry_count >= 1,
                what="heartbeat to detect the dead peer",
            )
            assert RETRYING in conn.transitions
        finally:
            conn.close()
            reactor.stop()
            peer.stop()

    def test_watermark_blocks_writable_and_teardown_fires_drain(self):
        peer = _SilentPeer()
        reactor = Reactor("t-watermark").start()
        conn = AioConnection(
            "127.0.0.1",
            peer.address[1],
            reactor,
            policy=FAST,
            high_watermark=1024,
            low_watermark=256,
        )
        try:
            assert conn.wait_connected(5.0)
            failures = []
            acked = threading.Event()

            def cb(result, error):
                failures.append(error)
                acked.set()

            # Far more than the kernel will buffer for a peer that
            # never reads: the outbound buffer must cross the high
            # watermark and stay there.
            conn.call_async("echo", ["x" * (4 * 1024 * 1024)], cb)
            wait_for(lambda: not conn.writable, what="watermark")
            assert conn.send_buffer_bytes > 1024

            drained = threading.Event()
            conn.on_drain(drained.set)
            time.sleep(0.05)
            assert not drained.is_set()  # genuinely parked

            # The no-wedge guarantee: tearing down the transport fires
            # parked drain callbacks (buffer is gone), so flow-blocked
            # producers fail fast instead of hanging forever.
            conn.close()
            assert drained.wait(5.0)
            assert acked.wait(5.0)
            assert isinstance(failures[0], ConnectionLostError)
        finally:
            conn.close()
            reactor.stop()
            peer.stop()

    def test_a_raising_drain_callback_does_not_strand_the_others(self):
        peer = _SilentPeer()
        reactor = Reactor("t-drain-raise").start()
        conn = AioConnection(
            "127.0.0.1", peer.address[1], reactor, policy=FAST,
            high_watermark=1024, low_watermark=256,
        )
        try:
            assert conn.wait_connected(5.0)
            conn.call_async("echo", ["x" * (4 * 1024 * 1024)], lambda r, e: None)
            wait_for(lambda: not conn.writable, what="watermark")
            boom = RuntimeError("one producer's bug")
            after = threading.Event()

            def raising():
                raise boom

            conn.on_drain(raising)
            conn.on_drain(after.set)
            time.sleep(0.05)
            assert not after.is_set()  # both parked

            conn.close()  # teardown releases the parked callbacks
            assert after.wait(5.0)
            wait_for(lambda: reactor.last_callback_error is boom,
                     what="the error reported to the loop")
        finally:
            conn.close()
            reactor.stop()
            peer.stop()


    def test_short_write_keeps_frames_whole_and_in_order(self):
        """A frame the kernel takes only part of: the remainder is
        buffered, a later frame queues behind it, the watermarks and
        ``on_drain`` work as before, and the peer decodes all three
        requests intact, in the order they were issued."""
        reactor = Reactor("t-short").start()
        sim, server, port = sim_and_server()
        conn = AioConnection(
            "127.0.0.1", port, reactor, policy=FAST,
            high_watermark=64 * 1024, low_watermark=16 * 1024,
        )
        try:
            assert conn.wait_connected(5.0)
            big = "x" * (2 * 1024 * 1024)
            results, box = [], {}
            drained, done = threading.Event(), threading.Event()

            def collect(result, error):
                assert error is None
                results.append(result)
                if len(results) == 3:
                    done.set()

            def on_loop():
                conn._sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                conn.call_async("echo", ["ahead"], collect)
                box["idle"] = conn.send_buffer_bytes
                conn.call_async("echo", [big], collect)
                box["backlog"] = conn.send_buffer_bytes
                box["writable"] = conn.writable
                conn.call_async("echo", ["behind"], collect)
                box["grew"] = conn.send_buffer_bytes - box["backlog"]
                conn.on_drain(lambda: (
                    box.setdefault("at_drain", conn.send_buffer_bytes),
                    drained.set(),
                ))

            reactor.submit(on_loop)
            assert done.wait(10.0)
            assert results == [["ahead"], [big], ["behind"]]
            assert box["idle"] == 0  # a small frame never touches the buffer
            assert 0 < box["backlog"] < len(big) + 64  # part went straight out
            assert box["writable"] is False
            assert box["grew"] > 0  # queued behind the remainder, not sent
            assert drained.wait(5.0)
            assert box["at_drain"] <= 16 * 1024
            wait_for(lambda: conn.send_buffer_bytes == 0, what="drain")
            assert conn.writable
            assert conn.call("echo", ["after"], retryable=True) == ["after"]
        finally:
            conn.close()
            server.stop()
            reactor.stop()

    @pytest.mark.slow
    def test_transport_error_mid_remainder_fails_the_call_and_reconnects(self):
        """The connection dies while part of a frame is still buffered:
        the call fails (never half-sent on the next connection), the
        parked producer is released, and the reconnect starts clean."""
        reactor = Reactor("t-midframe").start()
        sim, server, port = sim_and_server()
        proxy = FaultInjector("127.0.0.1", port).start()
        conn = AioConnection(
            "127.0.0.1", proxy.address[1], reactor, policy=FAST,
            high_watermark=64 * 1024, low_watermark=16 * 1024,
        )
        try:
            assert conn.wait_connected(5.0)
            assert conn.call("echo", ["up"], retryable=True) == ["up"]
            proxy.set_stall(True)  # the peer stops reading
            outcome, released = [], threading.Event()
            failed = threading.Event()

            def cb(result, error):
                outcome.append(error)
                failed.set()

            conn.call_async("echo", ["x" * (16 * 1024 * 1024)], cb)
            def stuck():
                before = conn.send_buffer_bytes
                time.sleep(0.05)
                return 64 * 1024 < before == conn.send_buffer_bytes

            wait_for(stuck, what="a remainder nobody reads")
            conn.on_drain(released.set)
            time.sleep(0.05)
            assert not conn.writable and not released.is_set()

            proxy.sever()
            proxy.set_stall(False)
            assert failed.wait(5.0) and released.wait(5.0)
            assert isinstance(outcome[0], ConnectionLostError)
            wait_for(
                lambda: conn.state == CONNECTED and conn.reconnects >= 1,
                what="reconnect",
            )
            assert conn.send_buffer_bytes == 0 and conn.writable
            # Nothing of the dead frame leaked onto the new connection:
            # the server decodes the next request.
            assert conn.call("echo", ["clean"], retryable=True) == ["clean"]
        finally:
            conn.close()
            proxy.stop()
            server.stop()
            reactor.stop()


# ---------------------------------------------------------------------------
# DeviceChannel.
# ---------------------------------------------------------------------------


class _Op:
    """Distinct (non-mergeable) queue item."""

    def __init__(self, n):
        self.n = n


def put_on_loop(reactor, queue, items) -> None:
    """Put ``items`` from one callback on the channel's loop — where the
    controller's every put happens — and wait until the queue's
    ``on_idle`` says all of them are done."""
    idle = threading.Event()

    def put_all():
        queue.on_idle = idle.set
        for item in items:
            queue.put(item)

    reactor.submit(put_all)
    assert idle.wait(10.0), "the channel never went idle"


class TestDeviceChannel:
    """Runners complete from loop timers, as a device's ack would."""

    @pytest.fixture
    def reactor(self):
        reactor = Reactor("t-channel").start()
        yield reactor
        reactor.stop()

    def test_fifo_with_at_most_one_in_flight(self, reactor):
        plane = FanoutPlane(reactor)
        order = []
        concurrent = []
        active = [0]

        def runner(channel, item, done):
            active[0] += 1
            concurrent.append(active[0])

            def ack():
                order.append(item.n)
                active[0] -= 1
                done(None)

            reactor.call_later(0.002, ack)

        channel = plane.channel(None, runner, name="dev")
        put_on_loop(reactor, channel.queue, [_Op(n) for n in range(20)])
        assert order == list(range(20))
        assert max(concurrent) == 1  # FIFO's mechanism, verified
        assert plane.inflight == 0
        wait_for(lambda: channel.state == IDLE, what="idle state")

    def test_runner_error_deferred_and_channel_continues(self, reactor):
        errors = []
        plane = FanoutPlane(reactor, on_error=errors.append)
        seen = []

        def runner(channel, item, done):
            if item.n == 0:
                raise RuntimeError("injected runner failure")
            seen.append(item.n)
            reactor.call_later(0.001, done)

        channel = plane.channel(None, runner, name="dev")
        put_on_loop(reactor, channel.queue, [_Op(0), _Op(1)])
        assert seen == [1]
        assert len(errors) == 1
        assert "injected" in str(errors[0])

    def test_completion_is_idempotent(self, reactor):
        plane = FanoutPlane(reactor)
        runs = []

        def runner(channel, item, done):
            runs.append(item.n)

            def ack():
                done(None)
                done(RuntimeError("second call must be ignored"))

            reactor.call_later(0.001, ack)

        channel = plane.channel(None, runner, name="dev")
        put_on_loop(reactor, channel.queue, [_Op(0), _Op(1)])
        assert runs == [0, 1]
        assert plane.inflight == 0
        assert channel.queue.unfinished == 0

    def test_a_remote_ack_finishes_its_batch_in_the_same_loop_turn(self):
        """Put on the loop, sent by the runner, acked by a farm device:
        the channel is idle again before the ack's callback returns, and
        nothing along the way was submitted or timed."""
        reactor = _CountingReactor("t-ack-turn").start()
        farm = DeviceFarm(1).start()
        client = AioP4RuntimeClient(
            *farm.address, reactor, policy=FAST, device_hint=0
        )
        try:
            assert client.conn.wait_connected(5.0)
            plane = FanoutPlane(reactor)
            box = {}
            finished = threading.Event()

            def runner(channel, item, done):
                def on_ack(applied, error):
                    box["ack_turn"] = reactor.loops
                    done(error)
                    box["idle_at_return"] = (
                        channel.state == IDLE and channel.queue.unfinished == 0
                    )
                    box["counts"] = (reactor.submits, reactor.call_laters)
                    finished.set()

                client.apply_batch_async(
                    [TableWrite.insert("patch", entry(item.n, 5))],
                    update_ids=["epoch-1"],
                    callback=on_ack,
                )

            channel = plane.channel(None, runner, name="dev")

            def put_on_loop():
                reactor.submits = reactor.call_laters = 0
                box["put_turn"] = reactor.loops
                channel.queue.put(_Op(1))

            reactor.submit(put_on_loop)
            assert finished.wait(5.0)
            assert box["ack_turn"] > box["put_turn"]  # a real round trip
            assert box["idle_at_return"] is True
            assert box["counts"] == (0, 0)
            assert farm.devices[0].updates_applied == 1
        finally:
            client.close()
            farm.stop()
            reactor.stop()

    def test_a_long_run_of_inline_completions_does_not_recurse(self, reactor):
        plane = FanoutPlane(reactor)
        order = []

        def runner(channel, item, done):
            order.append(item.n)
            done(None)

        channel = plane.channel(None, runner, name="dev")
        reactor.submit(
            lambda: [channel.queue.put(_Op(n)) for n in range(5000)]
        )
        wait_for(lambda: channel.queue.unfinished == 0 and len(order) == 5000,
                 what="5,000 items to drain")
        assert order == list(range(5000))
        assert reactor.last_callback_error is None
        wait_for(lambda: channel.state == IDLE, what="idle state")

    def test_a_dead_connection_charges_the_breaker_per_batch(self, monkeypatch):
        """One batch awaiting its ack and three queued behind it when
        the device's connection dies: the in-flight one fails inside
        the teardown, each queued one fails fast on the dead connection
        — one breaker strike apiece until it trips, skipped after — and
        the channel ends idle."""
        queued = 3
        uncoalesce(monkeypatch)
        project, db, _ = build()
        farm = DeviceFarm(1).start()
        reactor = Reactor("t-dead-conn").start()
        client = AioP4RuntimeClient(
            *farm.address, reactor, policy=FAST, device_hint=0
        )
        controller = NerpaController(
            project, db, [client], breaker_threshold=3
        ).start()
        try:
            controller.drain()
            channel, device = controller.channels[0], controller.devices[0]
            issued = device.writes_issued
            farm.set_ack_delay(0, 4.0)
            for port in range(queued + 1):
                add_port(db, port, port + 1)
            wait_for(
                lambda: channel.state == AWAITING_ACK
                and len(channel.queue) == queued,
                what="one batch in flight and the rest queued",
            )
            farm.stop()
            wait_for(lambda: channel.queue.unfinished == 0,
                     what="every batch to resolve")
            assert (
                device.consecutive_failures,
                device.syncs_missed,
                device.quarantined,
            ) == (3, queued + 1, True)
            assert device.writes_issued == issued  # nothing was acked
            wait_for(lambda: channel.state == IDLE, what="idle state")
            assert controller.metrics()["pipeline"]["fanout"]["inflight"] == 0
        finally:
            controller.stop()
            client.close()
            reactor.stop()


# ---------------------------------------------------------------------------
# The controller on the aio plane.
# ---------------------------------------------------------------------------


def build():
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=16)
    return project, db, switch


class TestControllerAioPlane:
    @pytest.mark.parametrize("plane", ["fibers", "threads"])
    def test_unknown_plane_rejected(self, plane):
        project, db, switch = build()
        with pytest.raises(ReproError, match="unknown apply plane"):
            NerpaController(project, db, [switch], apply_plane=plane)

    def test_reactor_comes_from_the_clients_and_mismatch_is_rejected(self):
        project, db, switch = build()
        ours, theirs = Reactor("t-ours").start(), Reactor("t-theirs").start()
        # Never started, so no peer is needed: construction decides.
        client = AioP4RuntimeClient("127.0.0.1", free_port(), ours, policy=FAST)
        try:
            with pytest.raises(ReproError, match="share one reactor"):
                NerpaController(project, db, [client], reactor=theirs)
            controller = NerpaController(project, db, [client])
            assert controller.reactor is ours
            controller.runtime.close()
        finally:
            client.close()
            ours.stop()
            theirs.stop()

    def test_reactorless_clients_share_the_default_reactor(self):
        sim, server, port = sim_and_server()
        clients = [
            AioP4RuntimeClient("127.0.0.1", port, policy=FAST)
            for _ in range(50)
        ]
        try:
            assert all(c.echo(["hi"]) == ["hi"] for c in clients)
            assert {c.reactor for c in clients} == {default_reactor()}
            # Client-side threads: the one loop — not 50 of them.
            names = [t.name for t in threading.enumerate()]
            assert sum(n.startswith("default-") for n in names) == 1, names
        finally:
            for client in clients:
                client.close()
            server.stop()

    def test_aio_plane_metrics_and_quiescence(self):
        project, db, switch = build()
        controller = NerpaController(project, db, [switch]).start()
        try:
            for port in range(4):
                add_port(db, port, port + 1)
            controller.drain()
            assert len(switch.table("patch")) == 4
            fanout = controller.metrics()["pipeline"]["fanout"]
            assert fanout["inflight"] == 0
            assert fanout["channel_states"] == {IDLE: 1}
        finally:
            controller.stop()

    def test_resync_supersedes_queued_batches_on_aio_plane(self):
        project, db, _ = build()
        farm = DeviceFarm(1).start()
        reactor = Reactor("t-resync").start()
        client = AioP4RuntimeClient(
            *farm.address, reactor, policy=FAST, device_hint=0
        )
        controller = NerpaController(project, db, [client]).start()
        try:
            controller.drain()
            farm.set_ack_delay(0, 0.15)
            # Burst behind the slow device, then resync: the full sync
            # is a barrier task superseding the queued batches.
            for port in range(6):
                add_port(db, port, port + 1)
            controller.resync_device(0)
            controller.drain()
            assert len(farm.devices[0].tables["patch"]) == 6
            assert controller.device_resyncs >= 1
        finally:
            controller.stop()
            client.close()
            farm.stop()
            reactor.stop()


# ---------------------------------------------------------------------------
# Differential: the plane vs the recorded thread-per-device reference.
# ---------------------------------------------------------------------------

with open(
    os.path.join(os.path.dirname(__file__), "fixtures", "fanout_golden.json")
) as _golden_file:
    GOLDEN = json.load(_golden_file)


class _RecordingService(DeviceService):
    """Device that records the order writes arrive in."""

    def __init__(self, sim):
        super().__init__(sim)
        self.log = []

    def apply_batch(self, updates, mcast=None, fence=None):
        self.log.append(
            [(u.kind, tuple(u.entry.action_params)) for u in updates]
        )
        return super().apply_batch(updates, mcast, fence)


class _FlakyService(DeviceService):
    """Raises transport errors until told to heal."""

    def __init__(self, sim):
        super().__init__(sim)
        self.failing = True
        self.failures = 0

    def apply_batch(self, updates, mcast=None, fence=None):
        if self.failing:
            self.failures += 1
            raise OSError("injected device transport failure")
        return super().apply_batch(updates, mcast, fence)


def churn(db):
    for port in range(8):
        add_port(db, port, port + 1)
    for port in range(0, 8, 2):
        set_out_port(db, port, port + 10)
    del_port(db, 3)
    del_port(db, 5)
    set_out_port(db, 1, 42)


class TestDifferentialPlanes:
    def test_same_write_order_and_final_tables(self, monkeypatch):
        """With coalescing off every engine transaction is its own wire
        write, so the plane must agree with the reference *batch for
        batch* — not just on the final tables."""
        uncoalesce(monkeypatch)
        project = nerpa_build(SCHEMA, RULES, P4)
        db = Database(project.schema)
        sims = [project.new_simulator(n_ports=16) for _ in range(2)]
        services = [_RecordingService(sim) for sim in sims]
        controller = NerpaController(project, db, services).start()
        try:
            churn(db)
            controller.drain()
        finally:
            controller.stop()
        golden = GOLDEN["uncoalesced"]
        # Through JSON, as the reference was: tuples become lists.
        logs = json.loads(json.dumps([svc.log for svc in services]))
        assert logs == golden["logs"]
        assert [table_state(sim) for sim in sims] == golden["tables"]
        # And the order is non-trivial: writes actually happened.
        assert sum(len(log) for log in logs) > 0

    @pytest.mark.slow
    def test_quarantine_and_recovery_match_the_reference(self, monkeypatch):
        uncoalesce(monkeypatch)
        project = nerpa_build(SCHEMA, RULES, P4)
        db = Database(project.schema)
        healthy_sim = project.new_simulator(n_ports=16)
        flaky_sim = project.new_simulator(n_ports=16)
        flaky = _FlakyService(flaky_sim)
        controller = NerpaController(
            project,
            db,
            [healthy_sim, flaky],
            breaker_threshold=2,
        ).start()
        try:
            flaky_dev = controller.devices[1]
            for n in range(1, 7):
                add_port(db, n, n + 1)
                # Pace the churn so each failed batch is its own
                # breaker strike, as in the reference run.
                wait_for(
                    lambda n=n: flaky_dev.quarantined
                    or flaky_dev.consecutive_failures >= min(n, 2)
                    or flaky_dev.syncs_missed >= n,
                    what="write attempt to resolve",
                )
            controller.drain()
            quarantined_during = flaky_dev.quarantined
            missed = flaky_dev.syncs_missed
            # Heal the device, then recover it through the resync
            # (barrier + supersede) path.
            flaky.failing = False
            controller.resync_device(1)
            controller.drain()
            outcome = {
                "quarantined_during": quarantined_during,
                "missed_some": missed > 0,
                "recovered": not flaky_dev.quarantined,
                "healthy_table": table_state(healthy_sim),
                "flaky_table": table_state(flaky_sim),
            }
        finally:
            controller.stop()
        assert outcome == GOLDEN["quarantine"]
        assert outcome["quarantined_during"] and outcome["recovered"]
        # After recovery both devices converged to the same state.
        assert outcome["flaky_table"] == outcome["healthy_table"]


# ---------------------------------------------------------------------------
# DeviceFarm + AioP4RuntimeClient.
# ---------------------------------------------------------------------------


class TestDeviceFarm:
    def test_entries_differing_only_in_priority_are_two_entries(self):
        """Like P4Runtime, the farm keys an entry by its match fields
        and its priority; a priority-0 key is the match fields alone."""
        device = FarmDevice(0)

        def write(kind, priority):
            acl = TableEntry([FieldMatch.ternary(5, 0xFF)], "drop", [], priority)
            return TableWrite(kind, "acl", acl).to_wire()

        device.apply_updates([write("INSERT", 10), write("INSERT", 20)])
        device.apply_updates([write("DELETE", 10)])
        (left,) = device.tables["acl"].values()
        assert left["priority"] == 20
        device.apply_updates([write("INSERT", 0)])
        match = json.dumps(write("INSERT", 0)["match"], sort_keys=True)
        assert device.tables["acl"][match]["priority"] == 0

    def test_bind_routes_calls_to_the_hinted_device(self):
        reactor = Reactor("t-farm").start()
        farm = DeviceFarm(3).start()
        try:
            host, port = farm.address
            client = AioP4RuntimeClient(
                host, port, reactor, policy=FAST, device_hint=2
            )
            assert client.conn.wait_connected(5.0)
            applied = client.apply_batch(
                [TableWrite.insert("patch", entry(1, 5))],
                update_ids=["epoch-1"],
            )
            assert applied == 1
            assert farm.devices[2].updates_applied == 1
            assert farm.devices[0].updates_applied == 0
            assert farm.devices[2].epoch == "epoch-1"
            assert client.get_config_epoch() == "epoch-1"
            entries = client.read_table("patch")
            assert len(entries) == 1
            assert list(entries[0].entry.action_params) == [5]
            client.set_multicast_group(7, [1, 2])
            assert farm.devices[2].mcast[7] == [1, 2]
            client.delete_multicast_group(7)
            assert 7 not in farm.devices[2].mcast
            client.close()
        finally:
            farm.stop()
            reactor.stop()

    def test_seq_ranges_verify_fifo_at_the_receiver(self):
        reactor = Reactor("t-seq").start()
        farm = DeviceFarm(1).start()
        try:
            host, port = farm.address
            client = AioP4RuntimeClient(
                host, port, reactor, policy=FAST, device_hint=0
            )
            assert client.conn.wait_connected(5.0)

            def send_seq(seq):
                done = threading.Event()
                client.apply_batch_async(
                    [], callback=lambda *_: done.set(), seq=seq
                )
                assert done.wait(5.0)

            send_seq((1, 3))
            send_seq((4, 4))
            assert farm.total_fifo_violations() == 0
            send_seq((7, 9))  # supersede skipped 5-6: legal
            assert farm.total_fifo_violations() == 0
            send_seq((9, 10))  # rewinds into an acked range: violation
            assert farm.total_fifo_violations() == 1
            assert farm.devices[0].last_seq == 10
            client.close()
        finally:
            farm.stop()
            reactor.stop()

    def test_slow_device_ack_delay_does_not_block_the_farm(self):
        reactor = Reactor("t-slowfarm").start()
        farm = DeviceFarm(2).start()
        farm.set_ack_delay(0, 0.4)
        try:
            host, port = farm.address
            slow = AioP4RuntimeClient(
                host, port, reactor, policy=FAST, device_hint=0
            )
            fast = AioP4RuntimeClient(
                host, port, reactor, policy=FAST, device_hint=1
            )
            assert slow.conn.wait_connected(5.0)
            assert fast.conn.wait_connected(5.0)
            slow_done = threading.Event()
            started = time.monotonic()
            slow.apply_batch_async(
                [TableWrite.insert("patch", entry(1, 5))],
                callback=lambda *_: slow_done.set(),
            )
            # A call to the healthy device completes while the slow
            # device's ack is still parked on a farm timer.
            fast.apply_batch([TableWrite.insert("patch", entry(1, 6))])
            fast_elapsed = time.monotonic() - started
            assert fast_elapsed < 0.3
            assert slow_done.wait(5.0)
            assert time.monotonic() - started >= 0.35
            assert farm.devices[0].updates_applied == 1
            slow.close()
            fast.close()
        finally:
            farm.stop()
            reactor.stop()


class TestControllerAgainstFarm:
    """The real thing end to end: a controller whose stage 3 drives
    reactor-backed clients against a reactor-backed fleet."""

    @pytest.mark.slow
    def test_churn_converges_with_fifo_verified_at_the_devices(self):
        n_devices = 8
        project = nerpa_build(SCHEMA, RULES, P4)
        db = Database(project.schema)
        reactor = Reactor("t-ctrl-farm").start()
        farm = DeviceFarm(n_devices).start()
        host, port = farm.address
        clients = [
            AioP4RuntimeClient(
                host, port, reactor, policy=FAST, device_hint=i
            )
            for i in range(n_devices)
        ]
        controller = NerpaController(
            project, db, clients, reactor=reactor
        ).start()
        try:
            churn(db)
            controller.drain()
            states = {
                json.dumps(d.table_snapshot(), sort_keys=True)
                for d in farm.devices
            }
            assert len(states) == 1  # every device saw the same world
            assert farm.devices[0].tables["patch"]  # and it is non-empty
            assert farm.total_fifo_violations() == 0
            assert farm.total_batches() >= n_devices
            fanout = controller.metrics()["pipeline"]["fanout"]
            assert fanout["inflight"] == 0
            assert set(fanout["send_buffer_bytes"]) == {
                f"device-{i}" for i in range(n_devices)
            }
        finally:
            controller.stop()
            for client in clients:
                client.close()
            farm.stop()
            reactor.stop()
