"""Smoke tests for the end-to-end benchmark (run by path; not tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from benchmarks.e2e import compare, run, tracing, workloads
from benchmarks.e2e.stack import ProbeDevice, Stack
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.farm import FarmDevice

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

# SHA-256 of each workload's seed-0 op stream at the BENCHMARK.json run
# length.  A change here changes the load: re-measure the baseline.
SEED0_STREAMS = {
    "churn_fleet":
        "6d1fb6a4e7ca3363165259d0243f0d0ce4b36ee0df7866249a73074b59eb8454",
    "churn_waves":
        "4f9483d159bea65bd630673355bc7f99b1c598584217de44a0a5cb4a0f27b9e6",
    "lb_replace":
        "10fcbd83537cd22437255aa3f27d0b7f32edc2e31ed5f51174bf6be33102608f",
    "reroute":
        "99aa282e85b484a47e37e4e050c50178a9fcbf27b40e75dca87e87e5dd9e36b3",
}


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_seed_is_the_only_randomness():
    for name in workloads.NAMES:
        seconds = SPEC["run_seconds"]
        first = workloads.build(name, 0, seconds).stream_digest()
        assert first == SEED0_STREAMS[name], name
        assert first == workloads.build(name, 0, seconds).stream_digest()
        assert first != workloads.build(name, 1, seconds).stream_digest()


def test_quick_run_emits_exactly_the_declared_names(tmp_path):
    out = tmp_path / "quick.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--quick", "--seconds", "1", "--repeat", "1", "--out", str(out)],
        check=True, timeout=120,
    )
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, workload in result["workloads"].items():
        assert workload["failed"] == 0, name
        for kind, spec in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            declared = {metric: m["unit"] for metric, m in spec.items()}
            emitted = {
                metric: entry["unit"]
                for metric, entry in workload[kind].items()
            }
            assert emitted == declared, (name, kind)


def test_untraced_stack_is_stock_and_teardown_is_clean():
    workload = workloads.build("churn_fleet", 0, 1, quick=True)
    threads = set(threading.enumerate())
    fds = _open_fds()
    apply_updates = FarmDevice.apply_updates

    # A traced stack first: whatever it installed must be gone after.
    traced = Stack(workload, tracer=tracing.Tracer())
    assert type(traced.db) is not Database
    traced.close()

    stack = Stack(workload)
    try:
        assert type(stack.db) is Database
        assert type(stack.controller_client) is ManagementClient
        assert type(stack.operator) is ManagementClient
        assert all(
            type(c) is AioP4RuntimeClient for c in stack.device_clients
        )
        assert not isinstance(stack.controller.runtime, tracing.TracedRuntime)
        # The measurement endpoint is a subclass, never a patch.
        assert all(type(d) is ProbeDevice for d in stack.farm.devices)
        assert FarmDevice.apply_updates is apply_updates
        phase = run.measure(stack)
        assert phase["failed"] == 0
        run.verify(stack)
    finally:
        stack.close()

    assert set(threading.enumerate()) == threads
    assert _open_fds() == fds
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass  # no child processes, as required
    else:
        raise AssertionError("the stack left a child process behind")


def test_unreachable_device_fails_commits_instead_of_hanging():
    workload = workloads.build("churn_fleet", 0, 1, quick=True)
    stack = Stack(workload)
    try:
        stack.device_clients[0].close()
        phase = run.measure(stack, deadline_s=0.5)
    finally:
        stack.close()
    assert phase["failed"] > 0
    assert phase["attempted"] < len(workload.commits)  # run abandoned


def _result_set(p50s, failed=0, seed=0):
    end_to_end = {
        name: {"value": 1.0, "values": [1.0] * len(p50s)}
        for name in run.END_TO_END
    }
    end_to_end["commit_to_apply_p50_ms"] = {
        "value": run.median(p50s), "values": p50s,
    }
    end_to_end["failed_commit_ratio"] = {"value": failed / 1000, "values": []}
    return {
        "seed": seed, "seconds": 15.0, "quick": False,
        "workloads": {"w": {"stream_digest": "d", "end_to_end": end_to_end}},
    }


def _verdicts(a, b):
    return {row[1]: row[-1] for row in compare.compare(a, b)}


def test_compare_verdicts():
    steady = [10.0, 10.1, 10.2, 10.1, 10.0]
    base = _result_set(steady)
    assert set(_verdicts(base, base).values()) == {"ok"}
    slower = _verdicts(base, _result_set([v * 1.2 for v in steady]))
    assert slower["commit_to_apply_p50_ms"] == "regressed"
    # One failed commit in a thousand is a regression, whatever the times.
    failing = _verdicts(base, _result_set(steady, failed=1))
    assert failing["failed_commit_ratio"] == "regressed"
    assert failing["commit_to_apply_p50_ms"] == "ok"
    # A spread wider than the bound, or too few repeats to know it.
    noisy = _verdicts(base, _result_set([8.0, 10.0, 12.0, 10.0, 9.0]))
    assert noisy["commit_to_apply_p50_ms"] == "unresolved"
    assert _verdicts(base, _result_set(steady[:3]))[
        "commit_to_apply_p50_ms"] == "unresolved"
    # Different loads are not compared at all.
    assert compare.same_load(base, _result_set(steady, seed=1))
    assert not compare.same_load(base, base)
