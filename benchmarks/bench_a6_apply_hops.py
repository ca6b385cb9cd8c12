"""A6 — the apply plane's loop bookkeeping per device batch.

A 64-device :class:`~repro.p4runtime.farm.DeviceFarm` fleet runs
through a :class:`~repro.core.controller.NerpaController` for 300
one-row commits, each fanned out to every device and drained before the
next (closed loop, in-process ``Database``).  The controller's reactor
is a subclass that counts ``submit`` and ``call_later``.  Per device
batch the bench reports:

* ``submit``\\ s, ``call_later``\\ s and loop turns on the controller's
  reactor;
* the controller loop's CPU µs (``time.thread_time`` read on the loop:
  engine transaction, fan-out, encode, ``send``, ack read).

A batch should cost one ``send`` and one ack read and no loop
bookkeeping beyond them: no wake hop onto the loop (the engine
transaction that fans a commit out runs there already), no completion
hop after the ack, and no per-call deadline timer (a connection arms
one, at its earliest pending deadline).  The counts are deterministic,
so they are the gates: ``call_later`` per batch ≤ 0.01 and ``submit``
per batch ≤ 0.05.  What remains is three submits per commit (3/64 per
batch): the commit's hop from the committing thread onto the loop, the
engine's wake, and the bench's ``drain()``, itself one loop callback.
The CPU figure is reported, not gated.
"""

import threading
import time

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
CALL_LATER_GATE = 0.01
SUBMIT_GATE = 0.05

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


def run_fleet(n_devices=N_DEVICES, commits=COMMITS):
    """Per-batch counts and loop CPU over ``commits`` one-row commits."""
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
        before = loop_snapshot(reactor)
        for n in range(commits):
            db.transact([{
                "op": "update", "table": "PortCfg",
                "where": [["port", "==", n % 8]],
                "row": {"out_port": 2 + n},
            }])
            controller.drain()
        after = loop_snapshot(reactor)
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
    assert batches >= measured, "a commit did not reach every device"
    submits, call_laters, loops, cpu = (
        a - b for a, b in zip(after, before)
    )
    return {
        "batches": measured,
        "submit_per_batch": submits / measured,
        "call_later_per_batch": call_laters / measured,
        "loop_turns_per_batch": loops / measured,
        "loop_cpu_us_per_batch": cpu / measured * 1e6,
    }


def test_a6_apply_hops(benchmark):
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
            ("loop CPU / batch", f"{result['loop_cpu_us_per_batch']:.1f} us",
             "reported"),
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
    emit("a6", "loop_cpu_us_per_batch", "us",
         round(result["loop_cpu_us_per_batch"], 2),
         devices=N_DEVICES, commits=COMMITS)
    assert result["call_later_per_batch"] <= CALL_LATER_GATE
    assert result["submit_per_batch"] <= SUBMIT_GATE
