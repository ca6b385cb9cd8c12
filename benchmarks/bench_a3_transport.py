"""A3 — ablation: in-process vs TCP transports on the E1 path.

The stack runs with either in-process plane connections (database and
device in the controller's process — a Nerpa "local control plane") or
over the framed TCP protocols.  This measures what the wire costs on
the port-add sync path.
"""

import time

from benchmarks.conftest import emit, report
from repro.apps.snvs import SnvsNetwork, build_snvs
from repro.core.controller import NerpaController
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.mgmt.server import ManagementServer
from repro.p4runtime import AioP4RuntimeClient
from repro.p4runtime.server import P4RuntimeServer

N_PORTS = 200


def run_in_process():
    with SnvsNetwork(n_ports=1024) as net:
        net.add_vlan(1)
        for port in range(N_PORTS):
            net.add_access_port(port, vlan=1)
        latencies = net.controller.sync_latencies[-N_PORTS:]
    return sum(latencies) / len(latencies)


def run_over_tcp():
    project = build_snvs()
    db = Database(project.schema)
    sim = project.new_simulator(n_ports=1024)
    with ManagementServer(db) as mgmt_srv, P4RuntimeServer(sim) as dev_srv:
        mgmt_client = ManagementClient(*mgmt_srv.address)
        dev_client = AioP4RuntimeClient(*dev_srv.address)
        controller = NerpaController(project, mgmt_client, [dev_client]).start()
        try:
            mgmt_client.transact(
                [
                    {"op": "insert", "table": "Vlan",
                     "row": {"vid": 1, "description": ""}},
                    {"op": "insert", "table": "SwitchConfig",
                     "row": {"name": "s", "learning_enabled": True}},
                ]
            )
            for port in range(N_PORTS):
                mgmt_client.transact(
                    [
                        {
                            "op": "insert",
                            "table": "Port",
                            "row": {
                                "name": f"p{port}",
                                "port_num": port,
                                "vlan_mode": "access",
                                "tag": 1,
                            },
                        }
                    ]
                )
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if len(sim.table("in_vlan")) == N_PORTS:
                    break
                time.sleep(0.005)
            assert len(sim.table("in_vlan")) == N_PORTS
            controller.drain()
            latencies = controller.sync_latencies[-N_PORTS:]
            return sum(latencies) / len(latencies)
        finally:
            controller.stop()
            mgmt_client.close()
            dev_client.close()


def test_a3_transport_overhead(benchmark):
    local = benchmark.pedantic(run_in_process, rounds=1, iterations=1)
    remote = run_over_tcp()

    report(
        f"A3: mean sync latency over {N_PORTS} port adds",
        [
            ("in-process", f"{local * 1e3:.3f} ms"),
            ("TCP (both planes)", f"{remote * 1e3:.3f} ms"),
            ("wire overhead", f"{remote / local:.1f}x"),
        ],
        ["transport", "latency"],
    )

    # The wire costs something but stays the same order of magnitude as
    # the paper's 13-18 ms end-to-end numbers; and in-process is faster.
    emit(
        "a3", "tcp_sync_latency", "mean_seconds",
        round(remote, 6), threshold=0.05,
    )
    assert remote > local
    assert remote < 0.05  # well under the paper's measured absolute latency
