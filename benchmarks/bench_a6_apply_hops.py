"""A6 — the apply plane's loop bookkeeping per device batch.

A 64-device :class:`~repro.p4runtime.farm.DeviceFarm` fleet runs
through a :class:`~repro.core.controller.NerpaController` for 300
one-row commits, each fanned out to every device and drained before the
next (closed loop, in-process ``Database``), the whole process pinned
to one CPU (as the e2e benchmark and A7 pin themselves: on two CPUs
the loop's CPU time also holds its GIL hand-offs with the farm's
thread, which read 74–87 µs per batch where one CPU reads 41–51 µs on
the same tree).  The controller's reactor is a subclass that counts
``submit`` and ``call_later``.  Per device batch the bench reports:

* ``submit``\\ s, ``call_later``\\ s and loop turns on the controller's
  reactor;
* Python-level calls on the controller's loop (``sys.setprofile``
  ``"call"`` events, as A4 and A5 count theirs), over a separate pass
  of ``COUNTED`` commits so the profiler does not weigh on the CPU
  figure;
* the controller loop's CPU µs (``time.thread_time`` read on the loop:
  engine transaction, fan-out, encode, ``send``, ack read).

A batch should cost one ``send`` and one ack read and no loop
bookkeeping beyond them: no wake hop onto the loop (the engine
transaction that fans a commit out runs there already), no completion
hop after the ack, and no per-call deadline timer (a connection arms
one, at its earliest pending deadline).  Nor should it pay for
per-batch Python beyond that: no closure or helper object per batch, no
scan over the fleet's queues when one of them goes idle.  The counts
are deterministic, so they are the gates: ``call_later`` per batch
≤ 0.01, ``submit`` per batch ≤ 0.05 and Python-level calls per batch
≤ 35 (184 when each batch built its completion closures and every idle
queue rescanned all 65 queues for a parked ``drain()``).  What remains
of the submits is three per commit (3/64 per batch): the commit's hop
from the committing thread onto the loop, the engine's wake, and the
bench's ``drain()``, itself one loop callback.  The CPU figure is
reported, not gated.

The bench also reads, from the test thread after a drain, the bytes a
device's latency telemetry holds (``sys.getsizeof`` over what its
``latencies`` and ``io_latencies`` reach) at commit 150 and at commit
300, and gates that they did not grow: a device's series are
fixed-bucket histograms (they grew by 9.4 KB per device over those 150
commits when they kept every sample, up to a 9,216-sample window).
"""

import gc
import os
import sys
import threading
import time
from contextlib import contextmanager

from benchmarks.conftest import emit, report
from repro.core import NerpaController, nerpa_build
from repro.mgmt.database import Database
from repro.mgmt.schema import simple_schema
from repro.net import RetryPolicy
from repro.net.reactor import Reactor
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.farm import DeviceFarm

N_DEVICES = 64
COMMITS = 300
#: Commits of the profiled pass that counts Python-level calls.
COUNTED = 50
CALL_LATER_GATE = 0.01
SUBMIT_GATE = 0.05
CALLS_GATE = 35

SCHEMA = simple_schema(
    "net", {"PortCfg": {"port": "integer", "out_port": "integer"}}
)
RULES = (
    "Patch(p as bit<16>, PatchActionForward{o as bit<16>}) :- "
    "PortCfg(_, p, o)."
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
POLICY = RetryPolicy(
    connect_timeout=5.0,
    call_timeout=30.0,
    max_reconnect_attempts=100,
    base_delay=0.01,
    max_delay=0.1,
)


def telemetry_bytes(controller):
    """Mean bytes per device held by its latency series:
    ``sys.getsizeof`` over every object they reach (types aside)."""
    seen, total = set(), 0
    stack = [s for d in controller.devices for s in (d.latencies, d.io_latencies)]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total / len(controller.devices)


class CountingReactor(Reactor):
    """Counts the bookkeeping the loop is asked for, from any thread."""

    def __init__(self, name):
        super().__init__(name)
        self.submits = 0
        self.call_laters = 0

    def submit(self, fn, *args):
        self.submits += 1
        return super().submit(fn, *args)

    def call_later(self, delay, fn):
        self.call_laters += 1
        return super().call_later(delay, fn)


@contextmanager
def one_cpu():
    """Pin the process to one CPU for the run, then restore the mask."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def loop_snapshot(reactor):
    """The counters and the loop thread's CPU clock, read on the loop.
    Each snapshot's own submit is in both readings, so differences
    between two snapshots are exact."""
    box, ready = [], threading.Event()

    def read():
        box.append((reactor.submits, reactor.call_laters, reactor.loops,
                    time.thread_time()))
        ready.set()

    reactor.submit(read)
    assert ready.wait(10.0)
    return box[0]


def on_loop(reactor, fn):
    """Run ``fn()`` as a callback on the loop and wait for it."""
    ran = threading.Event()
    reactor.submit(lambda: (fn(), ran.set()))
    assert ran.wait(10.0)


def run_fleet(n_devices=N_DEVICES, commits=COMMITS, counted=COUNTED):
    """Per-batch counts and loop CPU over ``commits`` one-row commits,
    then Python-level calls per batch over ``counted`` more."""
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    farm = DeviceFarm(n_devices, n_reactors=1).start()
    reactor = CountingReactor("a6").start()
    clients = [
        AioP4RuntimeClient(
            *farm.address, reactor, policy=POLICY, device_hint=i
        )
        for i in range(n_devices)
    ]
    controller = None
    try:
        controller = NerpaController(project, db, clients).start()
        db.transact([
            {"op": "insert", "table": "PortCfg",
             "row": {"port": port, "out_port": 1}}
            for port in range(8)
        ])
        controller.drain()

        def commit(n):
            db.transact([{
                "op": "update", "table": "PortCfg",
                "where": [["port", "==", n % 8]],
                "row": {"out_port": 2 + n},
            }])
            controller.drain()

        before = loop_snapshot(reactor)
        for n in range(commits):
            commit(n)
            if n + 1 == commits // 2:
                telemetry_half = telemetry_bytes(controller)
        after = loop_snapshot(reactor)
        telemetry_full = telemetry_bytes(controller)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        on_loop(reactor, lambda: sys.setprofile(count))
        try:
            for n in range(commits, commits + counted):
                commit(n)
        finally:
            on_loop(reactor, lambda: sys.setprofile(None))
        batches = sum(d.batches_applied for d in farm.devices)
        tables = {str(d.table_snapshot()) for d in farm.devices}
    finally:
        if controller is not None:
            controller.stop()
        for client in clients:
            client.close()
        farm.stop()
        reactor.stop()
    measured = commits * n_devices
    assert len(tables) == 1, "devices disagree"
    assert batches >= measured + counted * n_devices, (
        "a commit did not reach every device"
    )
    submits, call_laters, loops, cpu = (
        a - b for a, b in zip(after, before)
    )
    return {
        "batches": measured,
        "submit_per_batch": submits / measured,
        "call_later_per_batch": call_laters / measured,
        "loop_turns_per_batch": loops / measured,
        "loop_cpu_us_per_batch": cpu / measured * 1e6,
        "calls_per_batch": calls / (counted * n_devices),
        "telemetry_bytes_half": telemetry_half,
        "telemetry_bytes_full": telemetry_full,
    }


def test_a6_apply_hops(benchmark):
    with one_cpu():
        result = benchmark.pedantic(run_fleet, rounds=1, iterations=1)
    report(
        f"A6: apply-plane bookkeeping per device batch, {N_DEVICES} farm "
        f"devices x {COMMITS} one-row commits",
        [
            ("submit / batch", f"{result['submit_per_batch']:.4f}",
             f"gate: <= {SUBMIT_GATE}"),
            ("call_later / batch", f"{result['call_later_per_batch']:.4f}",
             f"gate: <= {CALL_LATER_GATE}"),
            ("loop turns / batch", f"{result['loop_turns_per_batch']:.4f}",
             ""),
            ("Python calls / batch", f"{result['calls_per_batch']:.1f}",
             f"gate: <= {CALLS_GATE}"),
            ("loop CPU / batch", f"{result['loop_cpu_us_per_batch']:.1f} us",
             "reported"),
            (f"telemetry bytes / device, commit {COMMITS // 2}",
             f"{result['telemetry_bytes_half']:.0f}", ""),
            (f"telemetry bytes / device, commit {COMMITS}",
             f"{result['telemetry_bytes_full']:.0f}",
             f"gate: <= commit {COMMITS // 2}'s"),
        ],
        ["metric", "measured", "reference"],
    )
    emit("a6", "submit_per_batch", "count",
         round(result["submit_per_batch"], 4), threshold=SUBMIT_GATE)
    emit("a6", "call_later_per_batch", "count",
         round(result["call_later_per_batch"], 4),
         threshold=CALL_LATER_GATE)
    emit("a6", "loop_turns_per_batch", "count",
         round(result["loop_turns_per_batch"], 4))
    emit("a6", "calls_per_batch", "count",
         round(result["calls_per_batch"], 2), threshold=CALLS_GATE)
    emit("a6", "loop_cpu_us_per_batch", "us",
         round(result["loop_cpu_us_per_batch"], 2),
         devices=N_DEVICES, commits=COMMITS)
    emit("a6", "telemetry_bytes_per_device", "bytes",
         round(result["telemetry_bytes_full"]),
         at_half=round(result["telemetry_bytes_half"]),
         threshold=round(result["telemetry_bytes_half"]))
    assert result["call_later_per_batch"] <= CALL_LATER_GATE
    assert result["submit_per_batch"] <= SUBMIT_GATE
    assert result["calls_per_batch"] <= CALLS_GATE
    assert result["telemetry_bytes_full"] <= result["telemetry_bytes_half"]
