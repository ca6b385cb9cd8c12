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

With ``--promotions`` it measures what the collector promotes instead.
It runs the workload's commits (no freeze), and at the start of every
generation-1 collection it takes the objects resident in generation 1 —
those a gen-1 pass promotes to generation 2 if they survive — and
attributes them to an owner: the farm devices' ``tables``, the engine
(runtime and interned values), the fan-out (channel queues, device
batches and their write lists, the device clients holding in-flight
batches), management (``Database``, server, the controller's client),
or the rest (other objects, and garbage the pass frees).  It reports
those per commit, with the collections per commit of each generation,
and writes them as JSON to ``--json``:

    PYTHONPATH=src python3 -m benchmarks.gc_census --promotions \
        --commits 60 --json gc_census.json

A measurement, not a gate: nothing is asserted.
"""

import argparse
import gc
import json
import os
import sys
import time
import types

from benchmarks.e2e import workloads
from benchmarks.e2e.stack import Stack
from repro.core.pipeline.changeset import DeviceBatch
from repro.dlog import values
from repro.p4runtime.api import RowWrite, WriteList

#: Never walked into: shared by the whole process, owned by no one.
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.CodeType,
           types.FrameType, types.BuiltinFunctionType)


def reach(roots, claimed, stop, within=None):
    """GC-tracked objects reachable from ``roots`` and not yet
    ``claimed`` (only those whose id is in ``within``, when given);
    claims them.  Functions are counted but not walked (their globals
    are the process's); ``stop`` ids are never entered."""
    found = 0
    stack = [r for r in roots if id(r) not in claimed]
    while stack:
        obj = stack.pop()
        if id(obj) in claimed or id(obj) in stop:
            continue
        claimed.add(id(obj))
        if not gc.is_tracked(obj):
            continue
        if within is None or id(obj) in within:
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
    interned = _interned()
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


def _interned():
    return [ref() for ref in list(values._struct_intern.values())] + [
        ref() for ref in list(values._map_intern.values())
    ]


#: The owners of promoted objects, in claiming order.
OWNERS = ("farm tables", "engine", "fan-out", "mgmt", "rest")
_FANOUT_TYPES = (DeviceBatch, WriteList, RowWrite)


def promotion_owners(stack, young):
    """``(owner, roots)`` for :func:`promotions`; ``young`` supplies
    the fan-out's batches, lists and writes that no queue holds any
    more (in flight, or waiting for an ack)."""
    controller = stack.controller
    return [
        ("farm tables", [d.tables for d in stack.farm.devices]),
        ("engine", [controller.runtime] + _interned()),
        ("fan-out", [channel.queue for channel in controller.channels]
         + [o for o in young if isinstance(o, _FANOUT_TYPES)]
         + [stack.device_clients]),
        ("mgmt", [stack.db, stack.server, stack.controller_client]),
    ]


def promotions(stack, commits):
    """Per commit: generation-1 residents at each gen-1 collection by
    owner, and collections per generation."""
    stop = {id(m.__dict__) for m in list(sys.modules.values())
            if m is not None}
    resident = dict.fromkeys(OWNERS, 0)
    collections = [0, 0, 0]

    def on_collection(phase, info):
        if phase != "start":
            return
        generation = info["generation"]
        collections[generation] += 1
        if generation != 1:
            return
        young = gc.get_objects(generation=1)
        within = {id(o) for o in young}
        claimed = {id(young), id(within)}
        counted = 0
        for name, roots in promotion_owners(stack, young):
            n = reach(roots, claimed, stop | claimed, within)
            resident[name] += n
            counted += n
        resident["rest"] += len(within) - counted

    gc.collect()
    gc.callbacks.append(on_collection)
    try:
        for ops in commits:
            seq, _, _ = stack.commit(ops)
            if not stack.convergence.wait(seq, 30.0):
                raise RuntimeError(f"commit {seq} did not converge")
    finally:
        gc.callbacks.remove(on_collection)
    n = len(commits)
    return {
        "commits": n,
        "gen1_residents_per_commit": {
            name: round(count / n, 1) for name, count in resident.items()
        },
        "collections_per_commit": {
            f"gen{g}": round(count / n, 3) for g, count in enumerate(collections)
        },
    }


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
    parser.add_argument("--promotions", action="store_true",
                        help="report who owns what gen-1 collections promote")
    parser.add_argument("--json", help="--promotions: also write it here")
    args = parser.parse_args(argv)
    workload = workloads.build("lb_replace", args.seed, workloads.RUN_SECONDS)
    gc.collect()
    baseline = len(gc.get_objects())
    stack = Stack(workload)
    if args.promotions:
        try:
            result = promotions(stack, workload.commits[: args.commits])
        finally:
            stack.close()
        result = {"workload": "lb_replace", "seed": args.seed, **result}
        print(json.dumps(result, indent=2))
        if args.json:
            os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
            with open(args.json, "w", encoding="utf-8") as out:
                json.dump(result, out, indent=2)
        return
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
