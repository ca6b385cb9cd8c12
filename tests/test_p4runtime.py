"""Tests for the P4Runtime-style API, in-process and over TCP."""

import threading
import time

import pytest

from repro.errors import RuntimeApiError
from repro.net import FAST_TEST_POLICY
from repro.p4.headers import ethernet, mac_to_int
from repro.p4.ir import compile_p4
from repro.p4.simulator import Simulator
from repro.p4.tables import FieldMatch, TableEntry
from repro.p4runtime import AioP4RuntimeClient
from repro.p4runtime.api import DeviceService, TableWrite, WriteError
from repro.p4runtime.server import P4RuntimeServer

from tests.test_p4_program import SWITCH_P4


@pytest.fixture()
def sim():
    s = Simulator(compile_p4(SWITCH_P4), n_ports=8)
    s.set_multicast_group(1, list(range(8)))
    return s


@pytest.fixture()
def service(sim):
    return DeviceService(sim)


def vlan_write(port, vid=10, kind="INSERT"):
    return TableWrite(
        kind, "in_vlan", TableEntry([FieldMatch.exact(port)], "set_vlan", [vid])
    )


class TestDeviceService:
    def test_write_insert(self, service, sim):
        assert service.write([vlan_write(1)]) == 1
        assert len(sim.table("in_vlan")) == 1

    def test_write_batch_atomic_rollback(self, service, sim):
        service.write([vlan_write(1)])
        with pytest.raises(WriteError) as excinfo:
            service.write(
                [
                    vlan_write(2),
                    vlan_write(1),  # duplicate -> fails
                ]
            )
        assert excinfo.value.index == 1
        # First update rolled back: only the original entry remains.
        assert len(sim.table("in_vlan")) == 1

    def test_modify(self, service, sim):
        service.write([vlan_write(1, vid=10)])
        service.write([vlan_write(1, vid=20, kind="MODIFY")])
        assert sim.table("in_vlan").lookup([1])[1] == (20,)

    def test_delete(self, service, sim):
        service.write([vlan_write(1)])
        service.write([vlan_write(1, kind="DELETE")])
        assert len(sim.table("in_vlan")) == 0

    def test_modify_rollback_restores_old(self, service, sim):
        service.write([vlan_write(1, vid=10)])
        with pytest.raises(WriteError):
            service.write(
                [
                    vlan_write(1, vid=30, kind="MODIFY"),
                    vlan_write(9999, kind="DELETE"),  # fails
                ]
            )
        assert sim.table("in_vlan").lookup([1])[1] == (10,)

    def test_write_unknown_table(self, service):
        bad = TableWrite(
            "INSERT", "nonesuch", TableEntry([FieldMatch.exact(1)], "x", [])
        )
        with pytest.raises(WriteError):
            service.write([bad])

    def test_wire_round_trip(self):
        write = TableWrite(
            "INSERT",
            "t",
            TableEntry(
                [
                    FieldMatch.exact(5),
                    FieldMatch.lpm(10, 8),
                    FieldMatch.ternary(3, 255),
                ],
                "act",
                [1, 2],
                priority=7,
            ),
        )
        back = TableWrite.from_wire(write.to_wire())
        assert back.to_wire() == write.to_wire()

    def test_bad_wire_rejected(self):
        with pytest.raises(RuntimeApiError):
            TableWrite.from_wire({"type": "INSERT"})

    def test_p4info_exposed(self, service):
        info = service.p4info()
        assert {t["name"] for t in info["tables"]} == {
            "in_vlan",
            "learned",
            "fwd",
        }


@pytest.fixture()
def rt_server(sim):
    server = P4RuntimeServer(sim).start()
    yield server
    server.stop()


@pytest.fixture()
def rt_client(rt_server):
    host, port = rt_server.address
    with AioP4RuntimeClient(host, port) as client:
        yield client


class TestRemote:
    def test_get_p4info(self, rt_client):
        info = rt_client.get_p4info()
        assert {t["name"] for t in info["tables"]} == {
            "in_vlan",
            "learned",
            "fwd",
        }

    def test_write_and_read(self, rt_client):
        rt_client.write([vlan_write(3, vid=77)])
        entries = rt_client.read_table("in_vlan")
        assert len(entries) == 1
        assert entries[0][1][1:] == (77,)

    def test_write_error_propagates(self, rt_client):
        rt_client.write([vlan_write(3)])
        with pytest.raises(RuntimeApiError):
            rt_client.write([vlan_write(3)])

    def test_inject_and_outputs(self, rt_client):
        for port in range(8):
            rt_client.write([vlan_write(port)])
        outputs = rt_client.inject(
            1, ethernet("aa:00:00:00:00:02", "aa:00:00:00:00:01")
        )
        assert sorted(p for p, _ in outputs) == [0, 2, 3, 4, 5, 6, 7]

    def test_digest_subscription(self, rt_client):
        received = []
        event = threading.Event()

        def on_digest(name, values):
            received.append((name, values))
            event.set()

        rt_client.subscribe_digests(on_digest)
        rt_client.write([vlan_write(1)])
        rt_client.inject(1, ethernet("aa:00:00:00:00:02", "aa:00:00:00:00:01"))
        assert event.wait(5.0), "digest never arrived"
        name, values = received[0]
        assert name == "mac_learn_t"
        assert values[0] == mac_to_int("aa:00:00:00:00:01")
        assert values[1] == 1

    def test_digests_of_in_process_injects_arrive_in_order(
        self, rt_client, sim
    ):
        """Packets injected on another thread notify subscribers through
        the server's loop, in the order the simulator emitted them."""
        received = []
        rt_client.subscribe_digests(
            lambda name, values: received.append(values[0])
        )
        rt_client.write([vlan_write(1)])
        sources = [f"aa:00:00:00:01:{i:02x}" for i in range(40)]
        injector = threading.Thread(
            target=lambda: [
                sim.inject(1, ethernet("aa:00:00:00:00:02", src))
                for src in sources
            ]
        )
        injector.start()
        injector.join()
        deadline = time.monotonic() + 5.0
        while len(received) < len(sources) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert received == [mac_to_int(src) for src in sources]

    def test_stop_unhooks_the_server_from_the_simulator(self, sim):
        def on_digest(digest):
            pass

        def on_packet_in(port, data):
            pass

        sim.digest_callback = on_digest
        sim.packet_in_callback = on_packet_in
        for _ in range(2):  # a restart must not stack a dead server
            P4RuntimeServer(sim).start().stop()
        assert sim.digest_callback is on_digest
        assert sim.packet_in_callback is on_packet_in

    def test_multicast_group_config(self, rt_client, sim):
        rt_client.set_multicast_group(2, [1, 2, 3])
        assert sim.multicast_groups[2] == [1, 2, 3]
        rt_client.delete_multicast_group(2)
        assert 2 not in sim.multicast_groups

    def test_default_action_config(self, rt_client, sim):
        rt_client.set_default_action("fwd", "flood", [])
        assert sim.table("fwd").default_action == "flood"


class TestPacketIO:
    """Remote packet-in/out: the CPU punt path over the wire."""

    PUNT_P4 = """
    header eth_t { bit<48> dst; bit<48> src; bit<16> ethertype; }
    struct headers_t { eth_t eth; }
    struct meta_t { bit<1> x; }
    parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
             inout standard_metadata_t std) {
        state start { pkt.extract(hdr.eth); transition accept; }
    }
    control Ing(inout headers_t hdr, inout meta_t m,
                inout standard_metadata_t std) {
        action forward(bit<16> port) { std.egress_spec = port; }
        table fwd {
            key = { std.ingress_port : exact; }
            actions = { forward; NoAction; }
            default_action = forward(510);
        }
        apply { fwd.apply(); }
    }
    """

    def test_remote_packet_in_and_out(self):
        sim = Simulator(compile_p4(self.PUNT_P4), n_ports=8, cpu_port=510)
        with P4RuntimeServer(sim) as server:
            with AioP4RuntimeClient(*server.address) as client:
                received = []
                event = threading.Event()
                client.subscribe_packet_ins(
                    lambda port, data: (received.append((port, data)),
                                        event.set())
                )
                frame = ethernet("02:00:00:00:00:01", "02:00:00:00:00:02")
                # No entry for port 1: default punts to the CPU port.
                outputs = client.inject(1, frame)
                assert outputs == []
                assert event.wait(5.0), "packet-in never arrived"
                assert received[0] == (1, frame)

                # packet_out with a concrete route: egresses normally.
                client.write(
                    [
                        TableWrite(
                            "INSERT",
                            "fwd",
                            TableEntry([FieldMatch.exact(2)], "forward", [3]),
                        )
                    ]
                )
                outputs = client.packet_out(2, frame)
                assert [p for p, _ in outputs] == [3]

    @pytest.mark.parametrize("kind", ["digest", "packet_in"])
    def test_subscription_survives_server_restart(self, kind, sim):
        """Session state on the server: re-issued on every reconnect."""
        if kind == "packet_in":
            sim = Simulator(compile_p4(self.PUNT_P4), n_ports=8, cpu_port=510)
        server = P4RuntimeServer(sim).start()
        port = server.address[1]
        event = threading.Event()
        with AioP4RuntimeClient("127.0.0.1", port, policy=FAST_TEST_POLICY) as c:
            getattr(c, f"subscribe_{kind}s")(lambda *args: event.set())
            server.stop()
            server = P4RuntimeServer(sim, port=port).start()
            try:
                deadline = time.monotonic() + 5.0
                while c.conn.reconnects < 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
                if kind == "digest":
                    c.write([vlan_write(1)])
                # Learns a MAC (digest) / hits the punting default.
                c.inject(1, ethernet("aa:00:00:00:00:02", "aa:00:00:00:00:01"))
                assert event.wait(5.0), f"{kind} subscription not re-issued"
            finally:
                server.stop()
