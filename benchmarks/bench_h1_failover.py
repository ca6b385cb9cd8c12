"""H1 — leader failover: kill-to-converged vs a cold controller restart.

The HA claim: with a warm standby tailing the leader's checkpoint chain
(`repro.core.ha`), losing the leader costs roughly one lease TTL plus
an epoch check per device — NOT a full controller cold start (compile
the program, recompute the fixpoint from the management snapshot,
read-diff every device from scratch).  Failover latency is bounded by
the lease TTL and *independent of state size*; cold restart grows with
the derived state.

Workload: an LB-style join (VIPs x switches = 100k derived NAT
entries) — the cold-start worst case from C1/E3, which is exactly what
a replacement controller would have to recompute.  After the initial
full checkpoint, ~1% of the VIPs churn and the leader cuts a delta
checkpoint — the steady state the background checkpoint timer
(``checkpoint_interval_s``) maintains; the bench forces the cut so the
kill lands deterministically.  The standby replays the churn from the
chain, so at takeover the device's config epoch proves its tables
already match and the resync is skipped (``warm_skips``).

Measured:

* failover — wall clock from ``kill()`` (crash: the lease is NOT
  released) to the standby being leader with the device converged,
  TTL wait included;
* cold restart — a brand-new controller replacing the dead leader with
  no checkpoint and no warm engine, reconciling against the same
  devices.

Gates: failover >= 5x faster than the cold restart, and failover
within its own bound, TTL + poll interval + a fixed 0.15 s promotion
budget, whatever the state size.  The leader must still hold its lease
when it is killed: a lease lost before then fails the run with that
message.

Reported, no bar: the longest loop stall during the leader's first
full ``save_checkpoint()`` — the largest gap between two runs of a
probe callback submitted to the leader's reactor every 1 ms.  A save is
one loop callback (snapshot, pickle, write, fsync), so this is what a
100k-entry full save costs every other callback on that loop.  Also the
leader's worst renew lateness before the kill: how late its lease tick
ran against its due time.  Both replicas here share one loop (the
process default), so the standby's checkpoint polls count too.  And
the cyclic collector's passes during the seed transaction and during
the cold restart: their total time, count and the longest one (any
thread's, through ``gc.callbacks``).
"""

import gc
import os
import threading
import time

from benchmarks.conftest import emit, report
from repro.core.controller import NerpaController
from repro.core.ha import HAController
from repro.core.pipeline import nerpa_build
from repro.mgmt.database import Database
from repro.mgmt.schema import simple_schema
from repro.p4runtime.api import DeviceService

N_VIPS = 1000
N_SWITCHES = 100  # derived entries = N_VIPS * N_SWITCHES = 100000
CHURNED_VIPS = max(1, N_VIPS // 100)  # ~1% churn after the full checkpoint

TTL = 0.3
POLL_INTERVAL = TTL / 6.0
SPEEDUP_GATE = 5.0
#: What a promotion may take on top of the lease wait: an epoch check
#: per device, not a reload of the derived state.
PROMOTION_BUDGET = 0.15
FAILOVER_BOUND = TTL + POLL_INTERVAL + PROMOTION_BUDGET

SCHEMA = simple_schema(
    "lb",
    {
        "Vip": {"vip": "integer", "backend": "integer"},
        "Sw": {"sw": "integer"},
    },
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
    table nat {
        key = { hdr.eth.dst : exact; std.ingress_port : exact; }
        actions = { forward; drop; }
        default_action = drop();
        size = 262144;
    }
    apply { nat.apply(); }
}
"""

RULES = (
    "Nat(v as bit<48>, s as bit<16>, NatActionForward{b as bit<16>})"
    " :- Vip(_, v, b), Sw(_, s)."
)


def seed(db) -> None:
    db.transact(
        [
            {"op": "insert", "table": "Sw", "row": {"sw": s}}
            for s in range(N_SWITCHES)
        ]
    )
    db.transact(
        [
            {
                "op": "insert",
                "table": "Vip",
                "row": {"vip": vip, "backend": vip % 97},
            }
            for vip in range(N_VIPS)
        ]
    )


def churn(db) -> None:
    """Re-point ~1% of the VIPs (each touches N_SWITCHES entries)."""
    for vip in range(CHURNED_VIPS):
        db.transact(
            [
                {
                    "op": "update",
                    "table": "Vip",
                    "where": [["vip", "==", vip]],
                    "row": {"backend": 1000 + vip},
                }
            ]
        )


def table_state(sim) -> tuple:
    return tuple(
        sorted(
            (key, value[0], value[1:])
            for key, value in DeviceService(sim).read_table("nat")
        )
    )


def wait_until(predicate, timeout=60.0, what="condition") -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.002)
    raise AssertionError(f"failover bench timed out waiting for {what}")


def _replica(project, db, sim, state_dir, owner):
    return HAController(
        project,
        db,
        [sim],
        state_dir,
        lease_name="h1-leader",
        owner=owner,
        ttl=TTL,
        renew_interval=TTL / 3.0,
        poll_interval=POLL_INTERVAL,
    )


def longest_loop_stall(reactor, fn) -> float:
    """Run ``fn()`` while a probe submits a callback to ``reactor``
    every 1 ms; returns the longest gap, in seconds, between two probe
    callbacks the loop ran."""
    ran, done = [time.perf_counter()], threading.Event()

    def probe() -> None:
        while not done.is_set():
            reactor.submit(lambda: ran.append(time.perf_counter()))
            time.sleep(0.001)

    prober = threading.Thread(target=probe, daemon=True)
    prober.start()
    try:
        fn()
    finally:
        done.set()
        prober.join()
    ran.append(time.perf_counter())
    return max(later - earlier for earlier, later in zip(ran, ran[1:]))


class CollectorPasses:
    """The cyclic collector's passes while in the ``with`` block: how
    many, their total seconds and the longest one."""

    def __init__(self):
        self.count = 0
        self.seconds = 0.0
        self.longest = 0.0
        self._started = 0.0

    def _on_pass(self, phase, _info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        took = time.perf_counter() - self._started
        self.count += 1
        self.seconds += took
        self.longest = max(self.longest, took)

    def __enter__(self) -> "CollectorPasses":
        gc.callbacks.append(self._on_pass)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_pass)

    def row(self, what: str) -> tuple:
        return (
            f"collector during {what}",
            f"{self.seconds * 1e3:.1f} ms in {self.count} passes, "
            f"longest {self.longest * 1e3:.1f} ms",
            "reported",
        )

    def emit(self, name: str) -> None:
        emit(
            "h1", name, "seconds", round(self.seconds, 4),
            passes=self.count, longest_pass_seconds=round(self.longest, 4),
        )


def _segments_on_disk(state_dir: str) -> int:
    return sum(
        1 for name in os.listdir(state_dir) if ".delta-" in name
    )


def test_h1_failover_vs_cold_restart(benchmark, tmp_path):
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    sim = project.new_simulator(n_ports=64)
    state_dir = str(tmp_path / "state")

    # The leader builds up the full derived state and checkpoints it.
    a = _replica(project, db, sim, state_dir, "a")
    a.start()
    wait_until(lambda: a.is_leader, what="initial leader election")
    with CollectorPasses() as seed_passes:
        seed(db)
        a.controller.drain()
    assert len(sim.table("nat")) == N_VIPS * N_SWITCHES
    save_stall = longest_loop_stall(
        a.controller.reactor, a.controller.save_checkpoint
    )

    # The warm standby tails the chain until it has absorbed it.
    b = _replica(project, db, sim, state_dir, "b")
    b.start()
    wait_until(
        lambda: (b.metrics().get("follower") or {}).get("ready", False),
        what="standby to absorb the checkpoint",
    )

    # ~1% churn, then a delta checkpoint carrying it — the steady state
    # the background timer maintains (forced here so the kill lands at
    # a deterministic point).  The standby replays the churn from the
    # chain before the kill.
    churn(db)
    a.controller.drain()
    a.controller.save_checkpoint(mode="delta")
    want_segments = _segments_on_disk(state_dir)
    wait_until(
        lambda: (b.metrics().get("follower") or {}).get(
            "segments_replayed", 0
        )
        >= want_segments,
        what="standby to replay the churn delta",
    )
    expected = table_state(sim)
    renew_lateness = a.renew_lateness_max
    if a.lost_leaderships or not a.is_leader:
        raise AssertionError(
            f"the leader lost its lease before the kill "
            f"({a.lost_leaderships} loss(es), worst renew lateness "
            f"{renew_lateness * 1e3:.0f} ms against a {TTL * 1e3:.0f} ms TTL)"
        )

    def run_failover() -> float:
        started = time.perf_counter()
        a.kill()  # crash: no lease release, standby waits out the TTL
        wait_until(lambda: b.is_leader, what="standby promotion")
        b.controller.drain()
        return time.perf_counter() - started

    failover_seconds = benchmark.pedantic(
        run_failover, rounds=1, iterations=1
    )
    assert table_state(sim) == expected
    assert b.epoch == 2
    # The device's config epoch proved its tables current: the takeover
    # skipped the O(state) read-diff — that is what makes failover
    # latency independent of state size.
    assert b.controller.warm_skips == 1
    b.stop()

    # Cold baseline: a fresh replacement controller with no checkpoint
    # and no warm engine — compile, recompute, reconcile the device.
    with CollectorPasses() as cold_passes:
        cold_started = time.perf_counter()
        cold_project = nerpa_build(SCHEMA, RULES, P4)
        cold = NerpaController(cold_project, db, [sim]).start()
        cold.drain()
        cold_seconds = time.perf_counter() - cold_started
    assert table_state(sim) == expected
    cold.stop()

    speedup = cold_seconds / max(failover_seconds, 1e-9)
    report(
        f"H1: leader failover at ~1% churn ({N_VIPS * N_SWITCHES} "
        f"derived entries, TTL {TTL * 1e3:.0f} ms)",
        [
            ("kill -> converged (warm standby)",
             f"{failover_seconds * 1e3:.1f} ms", ""),
            ("cold controller restart",
             f"{cold_seconds * 1e3:.1f} ms", ""),
            ("speedup", f"{speedup:.1f}x",
             f"gate: >= {SPEEDUP_GATE:.0f}x"),
            ("failover bound", f"{failover_seconds * 1e3:.1f} ms",
             f"gate: <= {FAILOVER_BOUND * 1e3:.0f} ms"),
            ("worst leader renew lateness",
             f"{renew_lateness * 1e3:.1f} ms", "reported"),
            ("longest loop stall, full save",
             f"{save_stall * 1e3:.1f} ms", "reported"),
            seed_passes.row("the seed transaction"),
            cold_passes.row("the cold restart"),
        ],
        ["metric", "measured", "reference"],
    )
    emit(
        "h1", "failover_vs_cold_restart", "speedup_x",
        round(speedup, 2), threshold=SPEEDUP_GATE,
    )
    emit(
        "h1", "kill_to_converged", "seconds",
        round(failover_seconds, 4), threshold=round(FAILOVER_BOUND, 3),
        ttl_seconds=TTL, churned_vips=CHURNED_VIPS,
    )
    emit("h1", "cold_restart", "seconds", round(cold_seconds, 4))
    emit("h1", "full_save_loop_stall", "seconds", round(save_stall, 4))
    emit("h1", "leader_renew_lateness_max", "seconds", round(renew_lateness, 4))
    seed_passes.emit("seed_collector")
    cold_passes.emit("cold_restart_collector")
    assert speedup >= SPEEDUP_GATE
    assert failover_seconds <= FAILOVER_BOUND
