"""End-to-end fault injection: the controller survives plane restarts.

The robustness acceptance story for the fault-tolerance layer:

* a management-server restart mid-churn → the controller reconnects,
  re-subscribes its monitor, and reconciles the fresh snapshot against
  the engine's input relations;
* a P4Runtime-server restart mid-churn → the device is quarantined by
  the circuit breaker while down, then fully resynchronized from the
  engine's output relations on reconnect;
* a quarantined device never blocks syncs to healthy devices;
* ``NerpaController.health()`` reports the per-peer transition history
  (connected → retrying → quarantined → recovered).

Every faulty run is differentially compared against an uninterrupted
clean run driven by the same churn stream (the comparison style of
``tests/test_differential.py``): final device table state must be
byte-identical.
"""

import json
import socket
import threading
import time

import pytest

from repro.core.controller import NerpaController
from repro.core.pipeline import nerpa_build
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.mgmt.schema import simple_schema
from repro.mgmt.server import ManagementServer
from repro.net import RetryPolicy
from repro.p4runtime.api import DeviceService
from repro.p4runtime import AioP4RuntimeClient
from repro.p4runtime.server import P4RuntimeServer
from repro.workloads.churn import robotron_churn

FAST = RetryPolicy(
    connect_timeout=2.0,
    call_timeout=2.0,
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

N_PORTS = 8
N_VLANS = 50
N_EVENTS = 60
CHURN_SEED = 42


def build_project():
    return nerpa_build(SCHEMA, RULES, P4)


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_for(predicate, timeout=15.0, what="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def churn_events():
    return list(
        robotron_churn(N_PORTS, N_VLANS, N_EVENTS, seed=CHURN_SEED)
    )


def seed_model(transact) -> None:
    for port in range(N_PORTS):
        transact(
            [
                {
                    "op": "insert",
                    "table": "PortCfg",
                    "row": {"port": port, "out_port": 1},
                }
            ]
        )


def apply_event(transact, event) -> None:
    """Translate one churn event into a management transaction."""
    if event.kind == "add_port":
        transact(
            [
                {
                    "op": "insert",
                    "table": "PortCfg",
                    "row": {"port": event.port, "out_port": event.vlan},
                }
            ]
        )
    elif event.kind == "del_port":
        transact(
            [
                {
                    "op": "delete",
                    "table": "PortCfg",
                    "where": [["port", "==", event.port]],
                }
            ]
        )
    else:  # retag_port / move_port: attribute update
        transact(
            [
                {
                    "op": "update",
                    "table": "PortCfg",
                    "where": [["port", "==", event.port]],
                    "row": {"out_port": event.vlan},
                }
            ]
        )


def table_state(sim) -> str:
    """Canonical wire dump of a simulator's table entries (the
    byte-identical comparison used across runs)."""
    service = DeviceService(sim)
    entries = []
    for key, value in service.read_table("patch"):
        entries.append(
            {
                "matches": [list(key[i:i + 3]) for i in range(1, len(key), 3)],
                "action": value[0],
                "params": list(value[1:]),
                "priority": key[0],
            }
        )
    entries.sort(key=lambda e: json.dumps(e, sort_keys=True, default=str))
    return json.dumps(entries, sort_keys=True, default=str)


def clean_run():
    """Uninterrupted reference run over the same churn stream."""
    project = build_project()
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=64)
    controller = NerpaController(project, db, [switch]).start()
    seed_model(db.transact)
    for event in churn_events():
        apply_event(db.transact, event)
    controller.stop()
    return table_state(switch)


@pytest.mark.slow
class TestManagementPlaneRestart:
    # The reconnect used to drop the dead socket unclosed (and could
    # leak the fresh one when close() raced the dial).
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_controller_reconciles_after_mgmt_restart_mid_churn(self):
        project = build_project()
        db = Database(project.schema)
        port = free_port()
        server = ManagementServer(db, port=port).start()
        switch = project.new_simulator(n_ports=64)
        client = ManagementClient("127.0.0.1", port, policy=FAST)
        controller = NerpaController(project, client, [switch]).start()
        try:
            seed_model(db.transact)
            events = churn_events()
            half = len(events) // 2
            for event in events[:half]:
                apply_event(db.transact, event)

            # Kill the management server mid-churn.  The database (its
            # durable state) survives; the controller's channel does not.
            server.stop()
            # Churn continues against the database while the controller
            # is deaf — these changes MUST be recovered via reconcile.
            for event in events[half : half + 10]:
                apply_event(db.transact, event)

            server = ManagementServer(db, port=port).start()
            wait_for(
                lambda: controller.mgmt_reconciles >= 1,
                what="management-plane reconcile",
            )
            # Remaining churn flows through the re-subscribed monitor.
            for event in events[half + 10 :]:
                apply_event(db.transact, event)
            expected = clean_run()
            # A count-based wait would race updates that change row
            # content without changing row count.
            wait_for(
                lambda: table_state(switch) == expected,
                what="device to converge after restart",
            )

            health = controller.health()
            assert health["mgmt"]["state"] == "connected"
            assert health["mgmt"]["reconnects"] >= 1
            transitions = health["mgmt"]["transitions"]
            assert "retrying" in transitions
            assert transitions[-1] == "connected"
        finally:
            controller.stop()
            client.close()
            server.stop()


@pytest.mark.slow
class TestDevicePlaneRestart:
    def test_device_full_sync_after_p4runtime_restart_mid_churn(self):
        project = build_project()
        db = Database(project.schema)
        sim = project.new_simulator(n_ports=64)
        port = free_port()
        server = P4RuntimeServer(sim, port=port).start()
        device = AioP4RuntimeClient("127.0.0.1", port, policy=FAST)
        controller = NerpaController(
            project, db, [device], breaker_threshold=2
        )
        controller.start()
        try:
            seed_model(db.transact)
            events = churn_events()
            half = len(events) // 2
            for event in events[:half]:
                apply_event(db.transact, event)

            server.stop()
            # Churn continues; writes to the dead device fail, trip the
            # breaker, and are skipped — ingest never stalls.  Pace the
            # events so each becomes its own failed round trip (a burst
            # would coalesce into one batch = one breaker strike).
            device_state = controller.devices[0]
            for n, event in enumerate(events[half : half + 10], start=1):
                apply_event(db.transact, event)
                wait_for(
                    lambda: device_state.quarantined
                    or device_state.syncs_missed >= n,
                    what="write attempt to resolve",
                )
            assert device_state.quarantined

            server = P4RuntimeServer(sim, port=port).start()
            wait_for(
                lambda: controller.device_resyncs >= 1
                and not controller.devices[0].quarantined,
                what="device resync after restart",
            )
            for event in events[half + 10 :]:
                apply_event(db.transact, event)
            expected = clean_run()
            wait_for(
                lambda: table_state(sim) == expected,
                what="device to converge after resync",
            )

            health = controller.health()
            dev = health["devices"][0]
            assert dev["quarantined"] is False
            assert dev["resyncs"] >= 1
            assert dev["syncs_missed"] >= 1
        finally:
            controller.stop()
            device.close()
            server.stop()

    def test_resync_of_a_disconnected_device_fails_fast(self):
        """A resync's calls fail at once against a device that is not
        connected: the attempt is charged to the breaker instead of
        waiting out a call timeout, and the reconnect hook's own resync
        does the repair."""
        project = build_project()
        db = Database(project.schema)
        sim = project.new_simulator(n_ports=64)
        port = free_port()
        server = P4RuntimeServer(sim, port=port).start()
        device = AioP4RuntimeClient("127.0.0.1", port, policy=FAST)
        controller = NerpaController(project, db, [device]).start()
        try:
            seed_model(db.transact)
            controller.drain()
            server.stop()
            wait_for(
                lambda: "retrying"
                in controller.health()["devices"][0]["transitions"],
                what="transport noticing the drop",
            )
            started = time.monotonic()
            controller.resync_device(0)
            assert time.monotonic() - started < FAST.call_timeout
            assert controller.devices[0].consecutive_failures == 1
            assert controller.device_resyncs == 0

            server = P4RuntimeServer(sim, port=port).start()
            wait_for(
                lambda: controller.device_resyncs == 1,
                what="the reconnect hook's resync",
            )
            assert controller.devices[0].consecutive_failures == 0
            assert len(sim.table("patch")) == N_PORTS
        finally:
            controller.stop()
            device.close()
            server.stop()

    def test_a_device_first_reachable_after_start_converges(self):
        """A device whose server comes up seconds after ``start()`` is
        waited for (up to its call timeout), not failed fast: its first
        connection is not a reconnect, so no hook would repair a start
        sync that had failed."""
        project = build_project()
        db = Database(project.schema)
        seed_model(db.transact)
        sim = project.new_simulator(n_ports=64)
        port = free_port()
        patient = RetryPolicy(
            connect_timeout=2.0,
            call_timeout=15.0,
            max_reconnect_attempts=1000,
            base_delay=0.01,
            max_delay=0.1,
        )
        device = AioP4RuntimeClient("127.0.0.1", port, policy=patient)
        servers = []
        late = threading.Timer(
            3.0, lambda: servers.append(P4RuntimeServer(sim, port=port).start())
        )
        late.start()
        try:
            controller = NerpaController(project, db, [device]).start()
            try:
                assert len(sim.table("patch")) == N_PORTS
                assert controller.devices[0].consecutive_failures == 0
                db.transact(
                    [
                        {
                            "op": "insert",
                            "table": "PortCfg",
                            "row": {"port": N_PORTS, "out_port": 1},
                        }
                    ]
                )
                wait_for(
                    lambda: len(sim.table("patch")) == N_PORTS + 1,
                    what="a later change to reach the device",
                )
            finally:
                controller.stop()
        finally:
            late.join()
            device.close()
            for server in servers:
                server.stop()

    def test_health_reports_full_transition_sequence(self):
        """connected → retrying → quarantined → (connected) → recovered."""
        project = build_project()
        db = Database(project.schema)
        sim = project.new_simulator(n_ports=64)
        port = free_port()
        server = P4RuntimeServer(sim, port=port).start()
        device = AioP4RuntimeClient("127.0.0.1", port, policy=FAST)
        controller = NerpaController(
            project, db, [device], breaker_threshold=1
        )
        controller.start()
        try:
            seed_model(db.transact)
            # Nothing in flight when the server goes, and the transport
            # has noticed before the next sync is issued: a call pending
            # at the drop is failed (→ quarantined at threshold 1)
            # *before* the transport notes "retrying".
            controller.drain()
            server.stop()
            wait_for(
                lambda: "retrying"
                in controller.health()["devices"][0]["transitions"],
                what="transport noticing the drop",
            )
            # One failed sync is enough at threshold 1.
            apply_event(
                db.transact,
                next(iter(robotron_churn(N_PORTS, N_VLANS, 1, seed=7))),
            )
            wait_for(
                lambda: controller.devices[0].quarantined,
                what="quarantine at threshold 1",
            )
            server = P4RuntimeServer(sim, port=port).start()
            wait_for(
                lambda: not controller.devices[0].quarantined,
                what="recovery",
            )
            transitions = controller.health()["devices"][0]["transitions"]
            # The required lifecycle appears in order.
            indices = [
                transitions.index("connected"),
                transitions.index("retrying"),
                transitions.index("quarantined"),
                len(transitions) - 1 - transitions[::-1].index("recovered"),
            ]
            assert indices == sorted(indices)
            assert "recovered" in transitions
        finally:
            controller.stop()
            device.close()
            server.stop()


@pytest.mark.slow
class TestQuarantineIsolation:
    def test_quarantined_device_does_not_block_healthy_devices(self):
        project = build_project()
        db = Database(project.schema)
        healthy_sim = project.new_simulator(n_ports=64)
        flaky_sim = project.new_simulator(n_ports=64)
        port = free_port()
        server = P4RuntimeServer(flaky_sim, port=port).start()
        flaky = AioP4RuntimeClient("127.0.0.1", port, policy=FAST)
        controller = NerpaController(
            project, db, [healthy_sim, flaky], breaker_threshold=1
        )
        controller.start()
        try:
            seed_model(db.transact)
            controller.drain()
            assert len(healthy_sim.table("patch")) == N_PORTS
            assert len(flaky_sim.table("patch")) == N_PORTS

            server.stop()
            events = churn_events()
            started = time.time()
            for event in events[:10]:
                apply_event(db.transact, event)
            # Ingest never blocks on the dead device — the transact
            # loop returns promptly while the flaky device's own writer
            # burns its call timeout in isolation.
            assert time.time() - started < 10 * FAST.call_timeout
            wait_for(
                lambda: controller.devices[1].quarantined,
                what="flaky device quarantine",
            )
            assert not controller.devices[0].quarantined
            wait_for(
                lambda: len(healthy_sim.table("patch"))
                == db.count("PortCfg"),
                what="healthy device to stay in lockstep",
            )

            server = P4RuntimeServer(flaky_sim, port=port).start()
            wait_for(
                lambda: not controller.devices[1].quarantined,
                what="flaky device recovery",
            )
            wait_for(
                lambda: table_state(flaky_sim) == table_state(healthy_sim),
                what="flaky device to catch up",
            )
        finally:
            controller.stop()
            flaky.close()
            server.stop()
