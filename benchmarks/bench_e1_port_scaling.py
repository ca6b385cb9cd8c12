"""E1 — the paper's §4.3 scalability evaluation.

"We added 2,000 ports to the system.  We then measured the time between
(1) the OVSDB client reading a new port from OVSDB and (2) the data
plane entry being added to the P4 table.  The first time difference
noted was 0.013 seconds, and the last was 0.018 seconds."

Shape to reproduce: per-port sync latency stays ~flat as the system
grows (the paper's first/last ratio is 1.38x).  Absolute numbers differ
(their stack is Rust + OVSDB + BMv2; ours is pure Python), but the
*flatness* is the incrementality claim.
"""

from benchmarks.conftest import emit, report
from repro.analysis.stats import mean, percentile
from repro.apps.snvs import SnvsNetwork
from repro.workloads.ports import port_add_stream

N_PORTS = 2000
N_VLANS = 8


def run_port_scaling():
    net = SnvsNetwork(n_ports=4096)
    for vlan in range(1, N_VLANS + 1):
        net.add_vlan(vlan)
    for port, vlan in port_add_stream(N_PORTS, n_vlans=N_VLANS):
        net.add_access_port(port, vlan=vlan)
    return net


def test_e1_port_scaling(benchmark):
    net = benchmark.pedantic(run_port_scaling, rounds=1, iterations=1)
    net.close()

    # The last N_PORTS syncs are the port adds (earlier ones are the
    # learning-config and VLAN setup transactions).
    latencies = net.controller.sync_latencies[-N_PORTS:]
    assert len(latencies) == N_PORTS
    first, last = latencies[0], latencies[-1]
    window = max(1, N_PORTS // 20)
    head = mean(latencies[:window])
    tail = mean(latencies[-window:])

    report(
        "E1: OVSDB-read -> P4-entry latency over 2,000 port adds",
        [
            ("first port", f"{first * 1e3:.3f} ms", "paper: 13 ms"),
            ("last port", f"{last * 1e3:.3f} ms", "paper: 18 ms"),
            (f"mean first {window}", f"{head * 1e3:.3f} ms", ""),
            (f"mean last {window}", f"{tail * 1e3:.3f} ms", ""),
            ("p99", f"{percentile(latencies, 99) * 1e3:.3f} ms", ""),
            ("tail/head ratio", f"{tail / head:.2f}x", "paper: 1.38x"),
        ],
        ["metric", "measured", "reference"],
    )

    assert len(net.switch.table("in_vlan")) == N_PORTS
    emit(
        "e1", "tail_head_latency_ratio", "ratio_x",
        round(tail / head, 2), threshold=5.0,
    )
    emit(
        "e1", "sync_latency_p99", "seconds",
        round(percentile(latencies, 99), 6),
    )
    # Incrementality: windowed latency growth stays small even after
    # 2,000 ports (allow generous slack for interpreter noise).
    assert tail / head < 5.0


def test_e1_entries_written_scale_with_ports(benchmark):
    def run():
        with SnvsNetwork(n_ports=512) as net:
            net.add_vlan(1)
            baseline = net.controller.entries_written
            for port in range(100):
                net.add_access_port(port, vlan=1)
            return net.controller.entries_written - baseline

    written = benchmark.pedantic(run, rounds=1, iterations=1)
    # Each port: 1 in_vlan + 1 out_tag entry (multicast is separate
    # config); exactly linear — no rewrite amplification.
    print(f"\nentries written for 100 ports: {written} (expect 200)")
    assert written == 200
