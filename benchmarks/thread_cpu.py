"""Where a commit's CPU goes, thread by thread, on one e2e workload.

    PYTHONPATH=src python3 -m benchmarks.thread_cpu [--workload lb_replace]
        [--seed 0] [--seconds 15] [--quick] [--json out.json]

Builds the e2e benchmark's stack for one workload and seed
(``benchmarks/e2e``: management server, controller, farm devices, all
in one process pinned to one CPU, as ``run.py`` runs it), runs its
measured phase (``run.measure``), and prints each thread's user and
system CPU per commit at reference speed (``calibrate.py``'s speed
factor), read from ``/proc/self/task/<tid>/stat`` before and after the
phase.  Threads are named by what they serve, not by their thread
names (the two management clients' loops are both
``mgmt-client-reactor``):

* ``farm`` — the simulated devices' loop: reading and decoding the
  batches, applying them, answering;
* ``controller loop`` — the controller's reactor: ingest, engine,
  fan-out encode and send;
* ``mgmt server`` — the management server's loop: transactions and
  monitor updates;
* ``mgmt client (controller)`` / ``mgmt client (operator)`` — the
  controller's and the operator's management-client loops;
* ``operator`` — the main thread, which sends each commit and waits
  for it; the calibration kernel it runs between waves is taken out.

Where ``/proc`` is absent it says so and exits 0.  A measurement, not
a gate: nothing is asserted.
"""

import argparse
import json
import os
import sys
import threading

from benchmarks.e2e import calibrate, run, workloads
from benchmarks.e2e.stack import Stack
from benchmarks.e2e.stats import median

TASKS = "/proc/self/task"
#: The threads named in the module docstring, in the order printed.
ROLES = (
    "farm",
    "controller loop",
    "mgmt server",
    "mgmt client (controller)",
    "mgmt client (operator)",
    "operator",
)


def thread_cpu_s():
    """``{native thread id: (user s, system s)}`` of this process's
    threads."""
    tick = os.sysconf("SC_CLK_TCK")
    times = {}
    for tid in os.listdir(TASKS):
        try:
            with open(f"{TASKS}/{tid}/stat") as stat:
                # Fields after the parenthesised name: state is the
                # first, utime and stime the 12th and 13th.
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # the thread ended meanwhile
            continue
        times[int(tid)] = (int(fields[11]) / tick, int(fields[12]) / tick)
    return times


def roles(stack):
    """``{native thread id: role}`` of the threads named in the module
    docstring."""
    native = {t.ident: t.native_id for t in threading.enumerate()}
    loops = (
        stack.farm.reactor,
        stack.reactor,
        stack.server.reactor,
        stack.controller_client.conn.reactor,
        stack.operator.conn.reactor,
    )
    named = {native[loop.ident]: role for role, loop in zip(ROLES, loops)}
    named[threading.main_thread().native_id] = ROLES[-1]
    return named


class _KernelCpu:
    """``calibrate.kernel`` counting the thread CPU it takes, so the
    operator's figure leaves the calibration out."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.cpu_s = 0.0

    def __call__(self):
        cpu, wall = self.kernel()
        self.cpu_s += cpu
        return cpu, wall


def measure(workload):
    """Per-thread ``(role, user ms, system ms)`` per commit at reference
    speed, and the phase's figures."""
    stack = Stack(workload)
    kernel = calibrate.kernel = _KernelCpu(calibrate.kernel)
    try:
        named = roles(stack)
        before = thread_cpu_s()
        phase = run.measure(stack)
        after = thread_cpu_s()
    finally:
        calibrate.kernel = kernel.kernel
        stack.close()
    scale = 1e3 / phase["attempted"] / phase["speed_factor"]
    rows = []
    for tid, (user, system) in sorted(after.items()):
        user0, system0 = before.get(tid, (0.0, 0.0))
        user, system = user - user0, system - system0
        role = named.get(tid)
        if role == ROLES[-1]:
            # The kernel is pure interpreter work: user time.
            user -= kernel.cpu_s
        elif role is None:
            if user + system == 0:
                continue
            role = f"other ({tid})"
        rows.append((role, max(0.0, user) * scale, system * scale))
    rows.sort(key=lambda r: ROLES.index(r[0]) if r[0] in ROLES else len(ROLES))
    return rows, phase


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="lb_replace",
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(run.SPEC["run_seconds"]))
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes (numbers are not comparable)")
    parser.add_argument("--json", help="also write the figures here")
    args = parser.parse_args(argv)
    if not os.path.isdir(TASKS):
        print(f"# {TASKS} is absent: no per-thread CPU on this system")
        return 0
    run._pin_to_one_cpu()
    workload = workloads.build(
        args.workload, args.seed, args.seconds, quick=args.quick
    )
    rows, phase = measure(workload)
    p50 = median(phase["latencies_ms"])
    print(f"# {workload.name} seed={args.seed}: {phase['attempted']} commits, "
          f"p50 {p50:.3f} ms; CPU per commit at reference speed "
          f"(box {phase['speed_factor']:.3f}x slower)")
    print(f"{'thread':28s} {'user ms':>9s} {'sys ms':>9s} {'total ms':>9s}")
    for role, user, system in rows:
        print(f"{role:28s} {user:9.3f} {system:9.3f} {user + system:9.3f}")
    total = sum(user + system for _, user, system in rows)
    print(f"{'all threads':28s} {'':9s} {'':9s} {total:9.3f}")
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "quick": args.quick,
        "commits": phase["attempted"],
        "failed": phase["failed"],
        "commit_to_apply_p50_ms": p50,
        "speed_factor": phase["speed_factor"],
        "cpu_ms_per_commit": {
            role: {"user": user, "sys": system} for role, user, system in rows
        },
    }
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump(result, out, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
