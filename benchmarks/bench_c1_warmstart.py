"""C1 — warm restart from a checkpoint vs cold recompute.

A controller restart used to mean recomputing the whole dataflow from
the management snapshot and full-syncing every device.  With
checkpointing, restart cost is O(serialized state): unpickle the input
Z-sets, arrangements, and support counts, and skip the derivation
entirely.

Workload: E3's load-balancer shape (20 lbs x 50 backends x 8 switches
= 8000 derived NAT entries) — the cold start this paper calls out as
the engine's worst case, which is exactly where a restart hurts most.

Cold = compile + derive the 8000 entries from the input rows.
Warm = compile + load the checkpoint file + restore.  The warm path
includes the full disk round trip (save is reported separately); the
acceptance bar is warm >= 5x faster than cold.

Each side is timed in a fresh child process — the restart C1 models —
so neither reads the interpreter state left by whatever ran before it
(in one process the ratio depended on which benches ran first).  The
sides alternate for ``PAIRS`` pairs and the gate compares the medians.
``python -m benchmarks.bench_c1_warmstart cold|warm PATH`` is one such
child: it prints its side's seconds (``warm`` reads the checkpoint at
``PATH``).
"""

import os
import statistics
import subprocess
import sys
import time

import repro
from benchmarks.conftest import emit, report
from repro.dlog import compile_program
from repro.dlog.checkpoint import (
    CheckpointStore,
    load_checkpoint,
    replay_segments,
    save_checkpoint,
)
from repro.workloads.loadbalancer import LB_DLOG_PROGRAM, LoadBalancerWorkload

WORKLOAD = dict(n_lbs=20, backends_per_lb=50, n_switches=8)
PAIRS = 5
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cold_start():
    workload = LoadBalancerWorkload(**WORKLOAD)
    vips, attach = workload.cold_start_rows()
    started = time.perf_counter()
    runtime = compile_program(LB_DLOG_PROGRAM).start()
    runtime.transaction(inserts={"LbVip": vips, "LbSwitch": attach})
    return time.perf_counter() - started, runtime


def warm_start(path):
    started = time.perf_counter()
    data = load_checkpoint(path)
    runtime = compile_program(LB_DLOG_PROGRAM).start(checkpoint=data)
    elapsed = time.perf_counter() - started
    assert runtime.restored
    return elapsed, runtime


def timed_in_child(side: str, path: str) -> float:
    """Seconds one side takes in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [_ROOT, src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.bench_c1_warmstart", side, path],
        cwd=_ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return float(done.stdout.split()[-1])


def alternating_pairs(path: str):
    """``PAIRS`` (cold, warm) child timings, alternating which runs
    first."""
    pairs = []
    for i in range(PAIRS):
        order = ("cold", "warm") if i % 2 == 0 else ("warm", "cold")
        timed = {side: timed_in_child(side, path) for side in order}
        pairs.append((timed["cold"], timed["warm"]))
    return pairs


def test_c1_warm_restart_vs_cold(benchmark, tmp_path):
    _, runtime = cold_start()
    entries = len(runtime.dump("NatEntry"))
    assert entries == LoadBalancerWorkload(**WORKLOAD).derived_entries

    path = str(tmp_path / "engine.ckpt")
    save_started = time.perf_counter()
    size = save_checkpoint(path, runtime.checkpoint())
    save_seconds = time.perf_counter() - save_started

    pairs = benchmark.pedantic(
        alternating_pairs, args=(path,), rounds=1, iterations=1
    )
    cold_seconds = statistics.median(cold for cold, _ in pairs)
    warm_seconds = statistics.median(warm for _, warm in pairs)
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    _, restored = warm_start(path)

    report(
        f"C1: warm restart vs cold start ({entries} derived entries)",
        [
            ("cold start", f"{cold_seconds * 1e3:.1f} ms", "median"),
            ("checkpoint save", f"{save_seconds * 1e3:.1f} ms", ""),
            ("checkpoint size", f"{size / 1e6:.2f} MB", ""),
            ("warm restart", f"{warm_seconds * 1e3:.1f} ms", "median"),
            ("speedup", f"{speedup:.1f}x", "target: >= 5x"),
            ("pairs (cold/warm ms)", " ".join(
                f"{c * 1e3:.0f}/{w * 1e3:.0f}" for c, w in pairs
            ), "child processes"),
        ],
        ["metric", "measured", "reference"],
    )

    # The restored runtime is the same dataflow, not a lookalike: same
    # derived state, and still incremental afterwards.
    assert restored.dump("NatEntry") == runtime.dump("NatEntry")
    lb0 = LoadBalancerWorkload(**WORKLOAD).lbs[0]
    restored.transaction(deletes={"LbVip": [(0, lb0[0], lb0[1][0])]})
    assert len(restored.dump("NatEntry")) == entries - WORKLOAD["n_switches"]

    emit(
        "c1", "warm_restart_vs_cold", "speedup_x",
        round(speedup, 2), threshold=5.0,
        pairs=[[round(c, 4), round(w, 4)] for c, w in pairs],
    )
    assert speedup >= 5.0


def test_c1_delta_checkpoint_cost_tracks_churn(benchmark, tmp_path):
    """Steady-state persistence: at ~1% churn per save interval, a
    delta segment must be >= 5x cheaper (bytes written) than a full
    snapshot — and the restored chain must equal the live runtime."""
    workload = LoadBalancerWorkload(**WORKLOAD)
    vips, attach = workload.cold_start_rows()
    program = compile_program(LB_DLOG_PROGRAM)
    runtime = program.start()
    runtime.transaction(inserts={"LbVip": vips, "LbSwitch": attach})

    store = CheckpointStore(
        str(tmp_path), "engine.ckpt", program.program_hash
    )
    runtime.enable_journal()
    full_started = time.perf_counter()
    full_bytes = store.save_full(runtime.checkpoint(), runtime.txn_count)
    full_seconds = time.perf_counter() - full_started

    # ~1% of the input rows churn between saves: delete + re-insert.
    churn = vips[: max(1, len(vips) // 100)]
    runtime.transaction(deletes={"LbVip": churn})
    runtime.transaction(inserts={"LbVip": churn})

    def save_delta():
        return store.save_delta(
            runtime.drain_journal(), runtime.txn_count
        )

    delta_started = time.perf_counter()
    delta_bytes = benchmark.pedantic(save_delta, rounds=1, iterations=1)
    delta_seconds = time.perf_counter() - delta_started
    ratio = full_bytes / max(delta_bytes, 1)

    # The chain round-trips: full + segment restores the live state.
    full, segments = store.load_chain(lambda f: f["txn_count"])
    restored = program.start(checkpoint=full)
    assert restored.restored
    replay_segments(restored, segments, program.program_hash)
    assert restored.dump("NatEntry") == runtime.dump("NatEntry")
    assert restored.txn_count == runtime.txn_count

    report(
        f"C1: delta checkpoint at ~1% churn ({len(churn)} of "
        f"{len(vips)} input rows)",
        [
            ("full snapshot", f"{full_bytes / 1e6:.2f} MB", ""),
            ("full save time", f"{full_seconds * 1e3:.1f} ms", ""),
            ("delta segment", f"{delta_bytes / 1e3:.1f} KB", ""),
            ("delta save time", f"{delta_seconds * 1e3:.1f} ms", ""),
            ("bytes ratio", f"{ratio:.1f}x", "gate: >= 5x"),
        ],
        ["metric", "measured", "reference"],
    )
    emit(
        "c1", "delta_vs_full_checkpoint_bytes", "ratio_x",
        round(ratio, 2), threshold=5.0,
    )
    assert ratio >= 5.0


if __name__ == "__main__":
    side, checkpoint_path = sys.argv[1:3]
    seconds, _ = cold_start() if side == "cold" else warm_start(checkpoint_path)
    print(seconds)
