"""P1 — pipeline: slow-device isolation and write batching.

Drives multi-device churn through the staged pipeline with one
high-latency device and measures the two properties the pipeline
exists for:

* **isolation** — a slow device backs up only its own writer queue, so
  the healthy devices' end-to-end sync latency stays within 2x of an
  all-healthy run;
* **batching** — with queue-tail coalescing on, a backlog behind the
  slow device collapses into a handful of batched wire writes, so
  churn throughput is a multiple of the unbatched (one write per
  engine transaction) baseline.

The slow device is a remote one — a :class:`DeviceFarm` device whose
acks are deferred — because that is the path a real slow device takes:
the controller's loop sends and moves on.  (An in-process device that
slept would stall that loop: in-process services run on it.)
"""

import time

from benchmarks.conftest import emit, report
from repro.core.controller import NerpaController
from repro.core.pipeline import nerpa_build
from repro.mgmt.database import Database
from repro.mgmt.schema import simple_schema
from repro.net.reactor import Reactor
from repro.obs import Histogram
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.farm import DeviceFarm
from repro.workloads.churn import robotron_churn
from tests.doubles import uncoalesce

N_PORTS = 8
N_VLANS = 50
N_EVENTS = 60
CHURN_SEED = 42
SLOW_DELAY = 0.05  # the slow device's per-round-trip latency

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


def churn(transact) -> None:
    for event in robotron_churn(N_PORTS, N_VLANS, N_EVENTS, seed=CHURN_SEED):
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
        else:
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


def run_churn(slow: bool):
    """One churn run; returns (healthy mean latency, elapsed, metrics)."""
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    devices = [project.new_simulator(n_ports=64) for _ in range(3)]
    closers = []
    if slow:
        farm = DeviceFarm(1).start()
        farm.set_ack_delay(0, SLOW_DELAY)
        reactor = Reactor("bench-p1").start()
        devices[2] = AioP4RuntimeClient(*farm.address, reactor, device_hint=0)
        closers = [devices[2].close, farm.stop, reactor.stop]
    controller = NerpaController(project, db, devices)
    controller.start()
    try:
        started = time.perf_counter()
        churn(db.transact)
        controller.drain()
        elapsed = time.perf_counter() - started
    finally:
        controller.stop()
        for close in closers:
            close()
    healthy = Histogram()
    for dev in controller.devices[:2]:
        healthy.merge(dev.latencies)
    return (
        healthy.total / healthy.count,
        elapsed,
        controller.metrics()["pipeline"],
    )


def test_p1_pipeline_isolation_and_batching(benchmark, monkeypatch):
    clean_latency, _, _ = benchmark.pedantic(
        lambda: run_churn(slow=False), rounds=1, iterations=1
    )
    faulty_latency, batched_elapsed, batched = run_churn(slow=True)
    uncoalesce(monkeypatch)  # the one-write-per-transaction baseline
    _, unbatched_elapsed, unbatched = run_churn(slow=True)

    batched_tput = N_EVENTS / batched_elapsed
    unbatched_tput = N_EVENTS / unbatched_elapsed
    slow_name = "device-2"

    report(
        f"P1: {N_EVENTS}-event churn over 3 devices, one with "
        f"{SLOW_DELAY * 1e3:.0f} ms write latency",
        [
            ("healthy-device latency (all healthy)",
             f"{clean_latency * 1e3:.3f} ms"),
            ("healthy-device latency (one slow)",
             f"{faulty_latency * 1e3:.3f} ms"),
            ("slow-device round trips (batched)",
             batched["device_writes_issued"][slow_name]),
            ("slow-device round trips (unbatched)",
             unbatched["device_writes_issued"][slow_name]),
            ("churn throughput (batched)", f"{batched_tput:.0f} ev/s"),
            ("churn throughput (unbatched)", f"{unbatched_tput:.0f} ev/s"),
        ],
        ["measure", "value"],
    )

    # Isolation: the slow device backs up only its own queue.  Healthy
    # latency stays within 2x of the all-healthy run (the floor guards
    # against sub-millisecond scheduler noise; contamination by the
    # slow device would show up as whole 50 ms round trips).
    assert faulty_latency <= max(2 * clean_latency, SLOW_DELAY / 2)

    # Batching: coalescing collapses the backlog behind the slow device
    # into far fewer round trips and a multiple of the throughput.
    emit(
        "p1", "batched_vs_unbatched_throughput", "ratio_x",
        round(batched_tput / unbatched_tput, 2), threshold=2.0,
    )
    assert batched["device_writes_issued"][slow_name] < N_EVENTS / 2
    assert batched_tput > 2 * unbatched_tput
