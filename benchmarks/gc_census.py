"""Who owns the heap a full collection walks, on an ``lb_replace`` stack.

    PYTHONPATH=src python3 -m benchmarks.gc_census [--seed 0] [--commits 60]

Builds the e2e benchmark's ``lb_replace`` stack (``benchmarks/e2e``:
management server, controller, two farm devices, all in one process)
and, after its cold-start commit:

1. counts the GC-tracked objects by owner — the interned dlog values,
   the engine runtime, the farm devices' ``tables``, the management
   ``Database``, the controller with its clients, the servers — plus
   what was tracked before the stack was built (import-time objects)
   and the rest.  Each object counts once, for the first owner (in that
   order) that reaches it;
2. times a full ``gc.collect()``, then the same after ``gc.freeze()``;
3. runs the workload's commits after the freeze and reports, every few
   commits, how many tracked objects the collector walks again (those
   outside the frozen set) and how long a full collection takes.

A measurement, not a gate: nothing is asserted.
"""

import argparse
import gc
import sys
import time
import types

from benchmarks.e2e import workloads
from benchmarks.e2e.stack import Stack
from repro.dlog import values

#: Never walked into: shared by the whole process, owned by no one.
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.CodeType,
           types.FrameType, types.BuiltinFunctionType)


def reach(roots, claimed, stop):
    """GC-tracked objects reachable from ``roots`` and not yet
    ``claimed``; claims them.  Functions are counted but not walked
    (their globals are the process's); ``stop`` ids are never entered."""
    found = 0
    stack = [r for r in roots if id(r) not in claimed]
    while stack:
        obj = stack.pop()
        if id(obj) in claimed or id(obj) in stop:
            continue
        claimed.add(id(obj))
        if not gc.is_tracked(obj):
            continue
        found += 1
        if isinstance(obj, _OPAQUE):
            continue
        stack.extend(
            ref for ref in gc.get_referents(obj) if id(ref) not in claimed
        )
    return found


def census(stack, baseline):
    """``(owner, tracked objects)`` rows; ``baseline`` is the tracked
    count before the stack was built (modules, classes, functions)."""
    gc.collect()
    everything = gc.get_objects()
    stop = {id(m.__dict__) for m in list(sys.modules.values())
            if m is not None}
    stop.add(id(everything))
    claimed = set()
    interned = list(values._struct_intern.values()) + list(
        values._map_intern.values()
    )
    owners = [
        ("interned dlog values", interned),
        ("engine runtime", [stack.controller.runtime]),
        ("FarmDevice.tables", [d.tables for d in stack.farm.devices]),
        ("mgmt Database", [stack.db]),
        ("controller + its clients", [
            stack.controller, stack.controller_client, stack.device_clients,
        ]),
        ("servers (mgmt, farm)", [stack.server, stack.farm]),
    ]
    rows = [(name, reach(roots, claimed, stop)) for name, roots in owners]
    rows.append(("import-time baseline", baseline))
    rows.append(("rest of the process", len(everything) - baseline - sum(
        n for _, n in rows[:-1])))
    del interned, everything
    return rows


def full_collection_ms(repeat=3):
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        gc.collect()
        times.append((time.perf_counter() - started) * 1e3)
    return min(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--commits", type=int, default=60)
    args = parser.parse_args(argv)
    workload = workloads.build("lb_replace", args.seed, workloads.RUN_SECONDS)
    gc.collect()
    baseline = len(gc.get_objects())
    stack = Stack(workload)
    try:
        rows = census(stack, baseline)
        total = sum(n for _, n in rows)
        print(f"# GC-tracked objects after set-up: {total}")
        for name, n in rows:
            print(f"  {name:24s} {n:9d}  {100 * n / total:5.1f} %")
        print(f"# full collection: {full_collection_ms():.1f} ms")
        gc.freeze()
        print(f"# after gc.freeze() ({gc.get_freeze_count()} frozen): "
              f"{full_collection_ms():.1f} ms")
        print("# commits after the freeze -> objects walked, full collection")
        for n, ops in enumerate(workload.commits[: args.commits], 1):
            seq, _, _ = stack.commit(ops)
            if not stack.convergence.wait(seq, 30.0):
                raise RuntimeError(f"commit {seq} did not converge")
            if n % 10 == 0 or n in (1, 5):
                gc.collect()
                walked = len(gc.get_objects())
                print(f"  {n:4d}  {walked:9d}  {full_collection_ms():6.1f} ms"
                      f"  (still frozen: {gc.get_freeze_count()})")
    finally:
        gc.unfreeze()
        stack.close()


if __name__ == "__main__":
    main()
