"""R1 — recovery: reconnect-to-converged latency after a plane restart.

Measures the fault-tolerance layer's end-to-end recovery time — from
the instant a stopped server comes back to the instant the controller
has reconnected, reconciled, and driven the device byte-identical to an
uninterrupted run:

* management plane: restart → monitor re-subscribed → snapshot diffed
  against the engine's input relations → device converged;
* device plane: restart → quarantined device resynchronized from the
  engine's output relations → device converged.
"""

import json
import socket
import time

from benchmarks.conftest import emit, report
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

N_ROWS = 100

FAST = RetryPolicy(
    connect_timeout=2.0,
    call_timeout=2.0,
    max_reconnect_attempts=200,
    base_delay=0.01,
    max_delay=0.05,
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


def table_state(sim) -> str:
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


def seed(transact, n=N_ROWS) -> None:
    for port in range(n):
        transact(
            [
                {
                    "op": "insert",
                    "table": "PortCfg",
                    "row": {"port": port, "out_port": port + 1},
                }
            ]
        )


def wait_until(predicate, timeout=30.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.002)
    raise AssertionError("recovery did not converge in time")


def reference_state():
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    sim = project.new_simulator(n_ports=256)
    controller = NerpaController(project, db, [sim]).start()
    seed(db.transact)
    controller.stop()
    return table_state(sim)


def measure_mgmt_recovery(expected: str) -> float:
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    port = free_port()
    server = ManagementServer(db, port=port).start()
    switch = project.new_simulator(n_ports=256)
    client = ManagementClient("127.0.0.1", port, policy=FAST)
    controller = NerpaController(project, client, [switch]).start()
    try:
        seed(db.transact, N_ROWS // 2)
        server.stop()
        # The controller is deaf while the rest of the model changes.
        seed_rest = range(N_ROWS // 2, N_ROWS)
        for p in seed_rest:
            db.transact(
                [
                    {
                        "op": "insert",
                        "table": "PortCfg",
                        "row": {"port": p, "out_port": p + 1},
                    }
                ]
            )
        started = time.time()
        server = ManagementServer(db, port=port).start()
        wait_until(lambda: table_state(switch) == expected)
        return time.time() - started
    finally:
        controller.stop()
        client.close()
        server.stop()


def measure_device_recovery(expected: str) -> float:
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    sim = project.new_simulator(n_ports=256)
    port = free_port()
    server = P4RuntimeServer(sim, port=port).start()
    device = AioP4RuntimeClient("127.0.0.1", port, policy=FAST)
    controller = NerpaController(project, db, [device], breaker_threshold=1)
    controller.start()
    try:
        seed(db.transact, N_ROWS // 2)
        server.stop()
        # Changes while down trip the breaker; all must be resynced.
        for p in range(N_ROWS // 2, N_ROWS):
            db.transact(
                [
                    {
                        "op": "insert",
                        "table": "PortCfg",
                        "row": {"port": p, "out_port": p + 1},
                    }
                ]
            )
        wait_until(lambda: controller.devices[0].quarantined)
        started = time.time()
        server = P4RuntimeServer(sim, port=port).start()
        wait_until(lambda: table_state(sim) == expected)
        return time.time() - started
    finally:
        controller.stop()
        device.close()
        server.stop()


def test_r1_recovery_latency(benchmark):
    expected = reference_state()
    mgmt_latency = benchmark.pedantic(
        measure_mgmt_recovery, args=(expected,), rounds=1, iterations=1
    )
    device_latency = measure_device_recovery(expected)

    report(
        f"R1: restart-to-converged latency ({N_ROWS} rows)",
        [
            ("mgmt restart (re-subscribe + reconcile)",
             f"{mgmt_latency * 1e3:.1f} ms"),
            ("device restart (quarantine + full resync)",
             f"{device_latency * 1e3:.1f} ms"),
        ],
        ["fault", "recovery latency"],
    )

    emit(
        "r1", "mgmt_recovery_latency", "seconds",
        round(mgmt_latency, 4), threshold=10.0,
    )
    emit(
        "r1", "device_recovery_latency", "seconds",
        round(device_latency, 4), threshold=10.0,
    )
    # Recovery is dominated by the backoff delay (tens of ms under the
    # bench policy), not by the reconcile itself.
    assert mgmt_latency < 10.0
    assert device_latency < 10.0
