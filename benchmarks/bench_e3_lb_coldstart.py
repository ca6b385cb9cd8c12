"""E3 — the load-balancer worst case (§2.2).

"On this benchmark, a DDlog controller took 2x the CPU time and 5x the
RAM as the C implementation."  The workload cold-starts with large load
balancers and then deletes each one — incrementality buys nothing
(every change is new work) while the automatic engine still pays for
its general-purpose indexing.

Shape to reproduce: the automatically incremental engine costs *more*
CPU than the hand-written controller here (gate: >= 1.5x), the honest
negative result the paper reports about its own approach.  The RAM
ratio is reported, not gated: the paper's 5x is a cost, and a check
that fails when the engine gets leaner is not a regression gate.
"""

import time
import tracemalloc

from benchmarks.conftest import emit, emit_hot_operators, report
from repro.baselines.lb_controller import HandWrittenLbController
from repro.dlog import compile_program
from repro.workloads.loadbalancer import LB_DLOG_PROGRAM, LoadBalancerWorkload

WORKLOAD = dict(n_lbs=20, backends_per_lb=50, n_switches=8)


def run_engine(measure_memory: bool = False):
    workload = LoadBalancerWorkload(**WORKLOAD)
    if measure_memory:
        tracemalloc.start()
    runtime = compile_program(LB_DLOG_PROGRAM).start()
    vips, attach = workload.cold_start_rows()
    started = time.process_time()
    runtime.transaction(inserts={"LbVip": vips, "LbSwitch": attach})
    for lb, vip_rows, attach_rows in workload.deletion_batches():
        runtime.transaction(
            deletes={"LbVip": vip_rows, "LbSwitch": attach_rows}
        )
    cpu = time.process_time() - started
    peak = 0
    if measure_memory:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return cpu, peak, runtime


def run_hand_written(measure_memory: bool = False):
    workload = LoadBalancerWorkload(**WORKLOAD)
    if measure_memory:
        tracemalloc.start()
    controller = HandWrittenLbController()
    vips, attach = workload.cold_start_rows()
    started = time.process_time()
    controller.cold_start(vips, attach)
    for lb, _, _ in workload.deletion_batches():
        controller.delete_lb(lb)
    cpu = time.process_time() - started
    peak = 0
    if measure_memory:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return cpu, peak, controller


def test_e3_lb_cold_start_worst_case(benchmark):
    engine_cpu, _, runtime = benchmark.pedantic(
        run_engine, rounds=1, iterations=1
    )
    hand_cpu, _, controller = run_hand_written()

    # Memory measured in separate passes so tracemalloc overhead does
    # not pollute the CPU numbers.
    _, engine_mem, _ = run_engine(measure_memory=True)
    _, hand_mem, _ = run_hand_written(measure_memory=True)

    cpu_ratio = engine_cpu / max(hand_cpu, 1e-9)
    mem_ratio = engine_mem / max(hand_mem, 1)

    workload = LoadBalancerWorkload(**WORKLOAD)
    report(
        f"E3: LB cold-start + per-LB delete "
        f"({workload.derived_entries} derived entries)",
        [
            ("engine CPU", f"{engine_cpu * 1e3:.1f} ms", ""),
            ("hand-written CPU", f"{hand_cpu * 1e3:.1f} ms", ""),
            ("CPU ratio", f"{cpu_ratio:.1f}x", "paper: 2x"),
            ("engine peak RAM", f"{engine_mem / 1e6:.2f} MB", ""),
            ("hand-written peak RAM", f"{hand_mem / 1e6:.2f} MB", ""),
            ("RAM ratio", f"{mem_ratio:.1f}x", "paper: 5x (reported)"),
        ],
        ["metric", "measured", "reference"],
    )

    # Final states agree (both empty after all deletions).
    assert runtime.dump("NatEntry") == set() == controller.entries
    emit(
        "e3", "cpu_ratio_vs_handwritten", "ratio_x",
        round(cpu_ratio, 2), threshold=1.5,
    )
    # A reproduction figure with no threshold: the engine's memory
    # cost is reported beside the paper's 5x, never asserted.
    emit(
        "e3", "mem_ratio_vs_handwritten", "ratio_x", round(mem_ratio, 2),
    )
    # The paper's direction: the automatic engine pays on this shape.
    assert cpu_ratio >= 1.5


def _engine_cold_transaction():
    """One cold transaction (compile and start excluded): the batch
    that derives every NAT entry from empty engine state."""
    vips, attach = LoadBalancerWorkload(**WORKLOAD).cold_start_rows()
    runtime = compile_program(LB_DLOG_PROGRAM).start()
    started = time.perf_counter()
    runtime.transaction(inserts={"LbVip": vips, "LbSwitch": attach})
    return time.perf_counter() - started, runtime.dump("NatEntry")


def _hand_written_cold_start():
    vips, attach = LoadBalancerWorkload(**WORKLOAD).cold_start_rows()
    controller = HandWrittenLbController()
    started = time.perf_counter()
    controller.cold_start(vips, attach)
    return time.perf_counter() - started, controller.entries


def test_e3_cold_transaction_vs_handwritten(benchmark):
    """The cold transaction runs through the same operator bodies as
    every other one; it must stay within 6x of the hand-written
    controller's cold start on the same rows (measured in-run and
    interleaved, so neither the box nor a drift in its speed decides
    the gate)."""

    def measure():
        rounds = [
            (_engine_cold_transaction()[0], _hand_written_cold_start()[0])
            for _ in range(7)
        ]
        return min(e for e, _ in rounds), min(h for _, h in rounds)

    engine_seconds, hand_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    _, derived = _engine_cold_transaction()
    assert derived == _hand_written_cold_start()[1]

    ratio = engine_seconds / max(hand_seconds, 1e-9)
    report(
        f"E3: cold transaction vs hand-written ({len(derived)} derived entries)",
        [
            ("engine cold transaction", f"{engine_seconds * 1e3:.1f} ms", ""),
            ("hand-written cold start", f"{hand_seconds * 1e3:.1f} ms", ""),
            ("ratio", f"{ratio:.1f}x", "gate: <= 6x"),
        ],
        ["metric", "measured", "reference"],
    )
    emit(
        "e3", "cold_txn_vs_handwritten", "ratio_x", round(ratio, 2),
        threshold=6.0,
        engine_ms=round(engine_seconds * 1e3, 2),
        hand_ms=round(hand_seconds * 1e3, 2),
    )
    assert ratio <= 6.0


def test_e3_hot_operators(benchmark):
    """Name where the engine's time goes on this workload (cold start
    plus per-LB deletes), for the next engine change to start from."""
    hot = benchmark.pedantic(
        emit_hot_operators, args=("e3", lambda: run_engine()[2]), rounds=1, iterations=1
    )
    assert hot and hot[0]["seconds"] > 0
