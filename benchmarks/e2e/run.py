"""Commit -> device-apply benchmark over the full TCP stack.

    python3 benchmarks/e2e/run.py --workload churn_fleet --seed 0 \\
        --seconds 15 --trace 0        # end-to-end metrics (untraced)
    python3 benchmarks/e2e/run.py --workload churn_fleet --seed 0 \\
        --seconds 15 --trace 1        # per-layer metrics (traced)
    python3 benchmarks/e2e/run.py --workload all --seed 0
        # every workload, untraced then traced, one combined JSON

All traffic crosses loopback TCP inside one process; see README.md for
the load model and the metric glossary.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a failed correctness gate exits non-zero without it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import calibrate, tracing, workloads  # noqa: E402
from benchmarks.e2e.stack import Stack  # noqa: E402
from benchmarks.e2e.stats import median, percentile  # noqa: E402
from repro.core.typebridge import ovsdb_value_to_dlog  # noqa: E402
from repro.errors import ReproError  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((_ROOT / "BENCHMARK.json").read_text())
#: The seventh end-to-end metric.  It is 0 on every healthy run, and
#: BENCHMARK.json takes only metrics that are never 0 (there a bound is
#: a share of the parent's value), so the driver reads it from the
#: result line's ``failed`` / ``attempted``.  Here it is printed with
#: the others, written to the result set, and compared absolutely by
#: compare.py: any increase is a regression.
FAILED_RATIO = {"name": "failed_commit_ratio", "unit": "ratio",
                "better": "lower", "bound": 0.0}
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"] + [FAILED_RATIO]}
#: compare.py's bounds: by how much the median of one result set may be
#: worse than that of another set *of the same seed* (repeats of one
#: seed spread by 2-7 % here).  BENCHMARK.json's bounds are wider
#: because its driver judges runs of ten different seeds, which spread
#: by 2-12 %, refuses a benchmark whose spread exceeds its bound and
#: asks for a spread under a third of it.
SAME_SEED_BOUND = {
    "setup_s": 0.15,
    "commit_to_apply_p50_ms": 0.10,
    "commit_to_apply_p90_ms": 0.15,
    "commits_per_s": 0.10,
    "cpu_ms_per_commit": 0.10,
    "peak_rss_mb": 0.10,
    "failed_commit_ratio": 0.0,
}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: A commit whose marker is not on every device this long after t0 has
#: failed (and counts as this slow in every latency figure).
DEADLINE_S = 10.0
WARMUP_SHARE = 0.05
SLICES = workloads.SLICES
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 9


class GateFailure(Exception):
    """The correctness gate did not hold; no metrics may be written."""


def _cpu_s():
    return sum(os.times()[:4])  # user + sys, self + children


def _peak_rss_mb():
    """This process's resident-set high-water mark.  ``ru_maxrss`` is
    the portable source, but on Linux it starts at the *parent's* peak
    (it survives fork and exec), so prefer VmHWM, which does not."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the measured phase --------------------------------------------------------


def measure(stack, n_commits=None, tracer=None, deadline_s=DEADLINE_S):
    """Drive the closed loop: one operator, next wave only after the
    previous one is on every device.  Commit *i* (1-based) carries
    marker seq *i*; the first 5 % are warm-up.  After each wave the
    operator takes one sample of the calibration kernel (calibrate.py)."""
    workload = stack.workload
    commits = workload.commits[:n_commits]
    wave = workload.wave
    n = len(commits)
    warm = -(-int(n * WARMUP_SHARE) // wave) * wave
    edges = {
        warm + round(k * (n - warm) / SLICES / wave) * wave
        for k in range(SLICES + 1)
    }
    convergence = stack.convergence
    latency = {}  # seq -> (commit_to_apply seconds, index of its kernel)
    kernels = []  # kernel CPU seconds, one per wave
    idle_wall = idle_cpu = 0.0  # spent in the kernel, not in the stack
    marks = []  # (commits sent, stack wall s, stack CPU s, kernels run)
    failed = 0
    attempted = 0

    def mark():
        marks.append((attempted, time.perf_counter() - idle_wall,
                      _cpu_s() - idle_cpu, len(kernels)))

    wall_start = None
    for i in range(0, n, wave):
        if i in edges:
            mark()
            if wall_start is None:
                wall_start = time.perf_counter()
        sent = []
        for ops in commits[i:i + wave]:
            attempted += 1
            try:
                seq, t0, replied = stack.commit(ops)
            except ReproError as exc:
                print(f"commit {attempted} failed: {exc}", file=sys.stderr)
                failed += 1
                latency[stack.seq - 1] = (deadline_s, None)
                continue
            sent.append((seq, t0))
            if tracer is not None:
                tracer.record("rtt", t0, replied, None, seq)
        if not sent:
            continue
        on_time = convergence.wait(sent[-1][0], deadline_s)
        for seq, t0 in sent:
            done = convergence.converged_at.get(seq)
            if done is None:
                failed += 1
                latency[seq] = (deadline_s, None)
            else:
                latency[seq] = (done - t0, len(kernels))
        kernel_cpu, kernel_wall = calibrate.kernel()
        kernels.append(kernel_cpu)
        idle_wall += kernel_wall
        idle_cpu += kernel_cpu
        if not on_time:
            print(
                f"commit {sent[-1][0]} missed its {deadline_s} s deadline; "
                "abandoning the run",
                file=sys.stderr,
            )
            break
    mark()
    factors = calibrate.rolling_factors(kernels)
    measured = [latency[q] for q in sorted(latency) if q > warm]
    return {
        "attempted": attempted,
        "failed": failed,
        # A failed commit counts as the deadline, whatever the box did.
        "latencies_ms": [
            s * 1e3 / (1.0 if k is None else factors[k]) for s, k in measured
        ],
        "raw_latencies_ms": [s * 1e3 for s, _ in measured],
        # (commits, wall s, CPU s, speed factor) per slice
        "slices": [
            (b[0] - a[0], b[1] - a[1], b[2] - a[2],
             calibrate.speed_factor(kernels[a[3]:b[3]]))
            for a, b in zip(marks, marks[1:])
            if b[0] > a[0]
        ],
        "speed_factor": calibrate.speed_factor(kernels[marks[0][3]:]),
        "first_seq": warm + 1,
        "last_seq": stack.seq - 1,
        "wall_start": wall_start,
        "wall_end": time.perf_counter(),
        "stack_wall_s": marks[-1][1] - marks[0][1],
    }


# -- the correctness gate ------------------------------------------------------


def verify(stack):
    """After quiescence: every device holds the same tables, their entry
    counts equal a from-scratch evaluation of the final management
    snapshot, and no device saw a batch out of order.  Returns the
    SHA-256 of device 0's tables."""
    stack.controller.drain(timeout=60.0)
    snapshots = [
        json.dumps(device.table_snapshot(), sort_keys=True)
        for device in stack.farm.devices
    ]
    if len(set(snapshots)) != 1:
        raise GateFailure("device tables differ across the fleet")
    if stack.farm.total_fifo_violations():
        raise GateFailure("a device received batches out of order")

    project = stack.project
    rows = {}
    for table, relation in project.bindings.relation_for_ovsdb.items():
        columns = project.schema.table(table).columns.values()
        rows[relation] = [
            (row.uuid,) + tuple(
                ovsdb_value_to_dlog(column.type, row[column.name])
                for column in columns
            )
            for row in stack.db.rows(table)
        ]
    oracle = project.program.start()
    oracle.transaction(inserts=rows)
    device = stack.farm.devices[0].table_snapshot()
    for relation, binding in project.bindings.table_relations.items():
        expected = len(oracle.dump(relation))
        found = len(device.get(binding.info.name, {}))
        if expected != found:
            raise GateFailure(
                f"table {binding.info.name}: {found} entries on the device, "
                f"{expected} from a from-scratch evaluation"
            )
    oracle.close()
    return hashlib.sha256(snapshots[0].encode()).hexdigest()


# -- one run -------------------------------------------------------------------


def _timed_setup(workload):
    """A started stack and its set-up time at reference speed."""
    samples = calibrate.sample(10)
    stack = Stack(workload)
    samples += calibrate.sample(10)
    return stack, stack.setup_s / calibrate.speed_factor(samples)


def run_untraced(workload):
    stack, setup = _timed_setup(workload)
    setups = [setup]
    try:
        phase = measure(stack)
        # Read before the gate's from-scratch evaluation and the repeat
        # set-ups, so that neither is in peak_rss_mb.
        peak_rss_mb = _peak_rss_mb()
        digest = verify(stack)
    finally:
        stack.close()
    for _ in range(SETUP_REPEATS - 1):
        stack, setup = _timed_setup(workload)
        stack.close()
        setups.append(setup)
    latencies = phase["latencies_ms"]
    values = {
        "setup_s": median(setups),
        "commit_to_apply_p50_ms": median(latencies),
        "commit_to_apply_p90_ms": percentile(latencies, 90),
        "commits_per_s": median(
            [count / wall * speed for count, wall, _, speed in phase["slices"]]
        ),
        "cpu_ms_per_commit": median(
            [cpu * 1e3 / count / speed
             for count, _, cpu, speed in phase["slices"]]
        ),
        "peak_rss_mb": peak_rss_mb,
        "failed_commit_ratio": phase["failed"] / phase["attempted"],
    }
    info = {
        "samples": len(latencies),
        "samples_beyond_p90": len(latencies) // 10,
        "commit_to_apply_p99_ms": percentile(latencies, 99),
        "raw_commit_to_apply_p50_ms": median(phase["raw_latencies_ms"]),
        "speed_factor": phase["speed_factor"],
        "setups_s": setups,
    }
    return values, phase, digest, info


def _untraced_reference_p50(args):
    """``commit_to_apply_p50_ms`` of a quarter-length untraced run of
    the same seed, in a process of its own.

    The first stack a process builds pays glibc's mmap/munmap churn on
    the transports' 256 KiB receive buffers (``churn_fleet`` p50 13 ms,
    against 10 ms for any later stack in the same process), so a
    reference measured before or after the traced stack in *this*
    process would not be comparable with it."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds / 4), "--trace", "0",
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    if done.returncode:
        raise GateFailure(f"untraced reference run failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return result, result["metrics"]["commit_to_apply_p50_ms"]["value"]


def run_traced(workload, args):
    # The traced stack is the first this process builds, as the measured
    # stack of an untraced run is.  No end-to-end metric is ever taken
    # from it.
    tracer = tracing.Tracer()
    stack = Stack(workload, tracer=tracer)
    try:
        tracer.start_probe(stack.reactor)
        phase = measure(stack, tracer=tracer)
        tracer.stop_probe()
        digest = verify(stack)
        devices = stack.farm.devices
        counters = {
            "dlog.state_size": stack.controller.runtime.state_size(),
            "device.updates_applied": sum(d.updates_applied for d in devices),
            "device.batches_applied": sum(d.batches_applied for d in devices),
            "device.fifo_violations": stack.farm.total_fifo_violations(),
        }
    finally:
        tracer.stop_probe()
        stack.close()
    reference, untraced_p50 = _untraced_reference_p50(args)
    metrics, budget = tracing.analyse(
        tracer.spans, phase, workload.n_devices
    )
    metrics["dlog.start_s"] = tracer.start_s
    # Spans are as measured; bring every time to reference speed with
    # the traced phase's one factor (shares and counts are unaffected).
    speed = phase["speed_factor"]
    for name in metrics:
        if PER_LAYER[name]["unit"] in ("s", "ms", "us"):
            metrics[name] /= speed
    budget = [(name, value / speed) for name, value in budget]
    metrics.update(counters)
    traced_p50 = median(phase["latencies_ms"])
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
    metrics["trace.unattributed_share"] = (
        abs(traced_p50 - sum(value for _, value in budget)) / traced_p50
    )
    phase["attempted"] += reference["attempted"]
    phase["failed"] += reference["failed"]
    info = {
        "budget_ms": budget,
        "traced_p50_ms": traced_p50,
        "untraced_reference_p50_ms": untraced_p50,
        "speed_factor": speed,
        "spans": tracer.spans,
    }
    return metrics, phase, digest, info


def _pin_to_one_cpu():
    """One CPU for the whole process.

    In a deployment the management server, the controller and the
    devices are separate processes on separate hosts.  Here they share
    one interpreter, and left on two cores the controller's reactor and
    the farm's loop hand the GIL across cores ~500 times per commit:
    `churn_fleet` then takes 25-36 ms (p50) instead of 11-13 ms, moving
    with the kernel scheduler's placement (ten seeds spread by 14-21 %).
    That convoy belongs to the simulation, not to the stack, so a run
    pins itself; on one CPU a commit costs the sum of its CPU work."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args):
    _pin_to_one_cpu()
    workload = workloads.build(
        args.workload, args.seed, args.seconds, quick=args.quick
    )
    traced = bool(args.trace)
    spec = PER_LAYER if traced else END_TO_END
    before = set(threading.enumerate())
    try:
        values, phase, digest, info = (
            run_traced(workload, args) if traced else run_untraced(workload)
        )
    except GateFailure as exc:
        print(f"CORRECTNESS GATE FAILED: {exc}", file=sys.stderr)
        return 2
    leaked = [t.name for t in set(threading.enumerate()) - before]
    if leaked:
        print(f"threads still alive after teardown: {leaked}",
              file=sys.stderr)
        return 2
    if set(values) != set(spec):
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: "
            f"{sorted(set(values) ^ set(spec))}"
        )

    print(
        f"# {workload.name} seed={args.seed} "
        f"{'traced' if traced else 'untraced'}: "
        f"{len(workload.commits)} commits x {workload.n_devices} devices, "
        "closed loop, 1 operator, loopback TCP, single process on one CPU"
    )
    print(f"# why: {workloads.WHY[workload.name]}")
    print(
        f"# times are at reference speed; this run's box was "
        f"{info['speed_factor']:.3f}x slower (calibrate.py)"
    )
    metrics = {}
    for name in spec:
        unit = spec[name]["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:36s} {values[name]:14.4f} {unit}")
    if traced:
        p50 = info["traced_p50_ms"]
        print(f"# latency budget of the median commit ({p50:.3f} ms traced)")
        for name, value in info["budget_ms"]:
            print(f"#   {name:26s} {value:10.3f} ms {100 * value / p50:6.1f} %")
    else:
        print(
            f"# {info['samples']} samples, {info['samples_beyond_p90']} "
            f"beyond p90; p99 {info['commit_to_apply_p99_ms']:.3f} ms, "
            f"p50 as measured {info['raw_commit_to_apply_p50_ms']:.3f} ms "
            "(information only)"
        )
    print(f"# commits failed/attempted {phase['failed']}/{phase['attempted']}")
    print(f"# device-0 tables sha256 {digest}")
    result = {
        "correct": True,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": metrics,
    }
    if args.out:
        detail = dict(
            result,
            seconds=args.seconds,
            quick=args.quick,
            workload=workload.name,
            seed=args.seed,
            trace=int(traced),
            digest=digest,
            stream_digest=workload.stream_digest(),
            **info,
        )
        Path(args.out).write_text(json.dumps(detail))
    # The driver's result line carries the metrics BENCHMARK.json
    # declares; failed_commit_ratio goes as failed / attempted.
    metrics.pop(FAILED_RATIO["name"], None)
    print(json.dumps(result))
    return 0


# -- every workload, both ways -------------------------------------------------


def _stamp():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_all(args):
    """Each run is its own process (``peak_rss_mb`` is a process
    high-water mark), untraced ``--repeat`` times, then traced once."""
    out = Path(args.out or HERE / "out" / f"seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    scratch = out.with_suffix(".run.json")
    combined = {
        "stamp": _stamp(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {},
    }
    for name in workloads.NAMES:
        runs = {0: [], 1: []}
        for trace in [0] * args.repeat + [1]:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(scratch),
            ] + (["--quick"] if args.quick else [])
            code = subprocess.run(command, timeout=900).returncode
            if code:
                print(f"{name} --trace {trace} exited {code}",
                      file=sys.stderr)
                return code
            run = json.loads(scratch.read_text())
            scratch.unlink()
            run.pop("spans", None)  # the combined file keeps no spans
            runs[trace].append(run)
        traced = runs[1][0]
        if {run["digest"] for run in runs[0]} != {traced["digest"]}:
            print(f"{name}: untraced and traced runs left different "
                  "device tables", file=sys.stderr)
            return 2
        end_to_end = {}
        for metric, spec in END_TO_END.items():
            values = [run["metrics"][metric]["value"] for run in runs[0]]
            end_to_end[metric] = {
                "value": median(values), "unit": spec["unit"],
                "values": values,
            }
        attempted = sum(run["attempted"] for run in runs[0])
        failed = sum(run["failed"] for run in runs[0])
        # Over all repeats, not their median: one failed commit shows.
        end_to_end[FAILED_RATIO["name"]]["value"] = failed / attempted
        combined["workloads"][name] = {
            "why": workloads.WHY[name],
            "attempted": attempted,
            "failed": failed,
            "samples": runs[0][0]["samples"],
            "digest": traced["digest"],
            "stream_digest": traced["stream_digest"],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "budget_ms": traced["budget_ms"],
        }
    out.write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {out}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="length of the measured phase; sizes the "
                             "commit count, which is what is held fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes (numbers are not comparable)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="untraced runs per workload with --workload all "
                             "(compare.py needs >= 4 to judge a metric)")
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
