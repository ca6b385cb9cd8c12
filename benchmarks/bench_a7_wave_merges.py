"""A7 — what a wave of commits costs a fleet that falls behind together.

A 64-device :class:`~repro.p4runtime.farm.DeviceFarm` fleet runs
through a :class:`~repro.core.controller.NerpaController` with an
in-process ``Database``, the whole process pinned to one CPU (as the
e2e benchmark pins itself).  The operator sends waves of 16 one-row
commits back to back, each its own engine transaction, and drains after
each wave: the shape of the e2e ``churn_waves`` workload.  Every device
acks 0.25 s after it applied a batch, so the whole fleet is awaiting the
wave's first ack while the other 15 commits fan out: every queue holds
the same shared batch, and each commit merges into it.

Per commit the bench reports:

* private copies (``DeviceBatch._private_copy``) — one per distinct
  shared queue tail a fan-out merges into, not one per device behind;
* JSON encodes of an ``apply_batch`` request (``aio_client.dumps``) —
  one per distinct batch state sent, whatever the number of devices
  that send it;
* device batches (the farm's ``batches_applied``), reported only.

The counts repeat exactly while a wave goes out within the ack delay,
so they are the gates: copies ≤ 1.0 and encodes ≤ 0.5 per commit.  A fleet that shares its merges copies once
per commit after the wave's second (14/16) and encodes twice per wave
(2/16).  When each device behind copied and encoded on its own, the
same waves cost 4.0 copies and 4.06 encodes per commit (64 per wave).
"""

from contextlib import contextmanager

from benchmarks.bench_a6_apply_hops import P4, POLICY, RULES, SCHEMA, one_cpu
from benchmarks.conftest import emit, report
from repro.core import NerpaController, nerpa_build
from repro.core.pipeline.changeset import DeviceBatch
from repro.mgmt.database import Database
from repro.net.reactor import Reactor
from repro.p4runtime import aio_client
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.farm import DeviceFarm

N_DEVICES = 64
WAVE = 16
WAVES = 12
PORTS = 8
#: Every device acks this long after it applied a batch: several times
#: what the controller takes to send a wave, even on a slow box, so the
#: whole fleet is awaiting the wave's first ack while the other 15
#: commits fan out.
ACK_DELAY_S = 0.25
COPIES_GATE = 1.0
ENCODES_GATE = 0.5


@contextmanager
def counting():
    """Count private copies and request encodes while the block runs."""
    counts = {"copies": 0, "encodes": 0}
    real_copy, real_dumps = DeviceBatch._private_copy, aio_client.dumps

    def private_copy(batch):
        counts["copies"] += 1
        return real_copy(batch)

    def dumps(value):
        counts["encodes"] += 1
        return real_dumps(value)

    DeviceBatch._private_copy = private_copy
    aio_client.dumps = dumps
    try:
        yield counts
    finally:
        DeviceBatch._private_copy = real_copy
        aio_client.dumps = real_dumps


def run_fleet(n_devices=N_DEVICES, wave=WAVE, waves=WAVES):
    """Per-commit copies, encodes and device batches over ``waves``
    waves of ``wave`` one-row commits."""
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    farm = DeviceFarm(n_devices, n_reactors=1).start()
    reactor = Reactor("a7").start()
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
            for port in range(PORTS)
        ])
        controller.drain()
        for i in range(n_devices):
            farm.set_ack_delay(i, ACK_DELAY_S)
        before = farm.total_batches()
        with counting() as counts:
            for n in range(wave * waves):
                db.transact([{
                    "op": "update", "table": "PortCfg",
                    "where": [["port", "==", n % PORTS]],
                    "row": {"out_port": 2 + n},
                }])
                # One engine transaction per commit, as a remote
                # operator's round trip gives it: an engine task queued
                # behind the commit runs once it is evaluated.  The
                # devices' acks are not waited for until the wave is sent.
                controller._submit_engine(lambda: None)
                if n % wave == wave - 1:
                    controller.drain()
        batches = farm.total_batches() - before
        tables = {str(d.table_snapshot()) for d in farm.devices}
        violations = farm.total_fifo_violations()
    finally:
        if controller is not None:
            controller.stop()
        for client in clients:
            client.close()
        farm.stop()
        reactor.stop()
    assert len(tables) == 1, "devices disagree"
    assert violations == 0
    commits = wave * waves
    return {
        "commits": commits,
        "copies_per_commit": counts["copies"] / commits,
        "encodes_per_commit": counts["encodes"] / commits,
        "batches_per_commit": batches / commits,
    }


def test_a7_wave_merges(benchmark):
    with one_cpu():
        result = benchmark.pedantic(run_fleet, rounds=1, iterations=1)
    report(
        f"A7: a fleet behind together, {N_DEVICES} farm devices x "
        f"{WAVES} waves of {WAVE} one-row commits",
        [
            ("private copies / commit", f"{result['copies_per_commit']:.3f}",
             f"gate: <= {COPIES_GATE}"),
            ("JSON encodes / commit", f"{result['encodes_per_commit']:.3f}",
             f"gate: <= {ENCODES_GATE}"),
            ("device batches / commit",
             f"{result['batches_per_commit']:.2f}", "reported"),
        ],
        ["metric", "measured", "reference"],
    )
    emit("a7", "copies_per_commit", "count",
         round(result["copies_per_commit"], 4), threshold=COPIES_GATE)
    emit("a7", "encodes_per_commit", "count",
         round(result["encodes_per_commit"], 4), threshold=ENCODES_GATE)
    emit("a7", "batches_per_commit", "count",
         round(result["batches_per_commit"], 4),
         devices=N_DEVICES, wave=WAVE, waves=WAVES)
    assert result["copies_per_commit"] <= COPIES_GATE
    assert result["encodes_per_commit"] <= ENCODES_GATE
