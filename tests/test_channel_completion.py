"""A device channel finishes every item exactly once, whatever ends it.

The channel holds its item in flight and is the ack's callback
(:class:`~repro.core.fanout.DeviceChannel`), so nothing per batch
remembers which completion belongs to which item.  These tests drive
real connections through the ways a batch can end — an ack, a deadline
expiry, a transport teardown, the reconnect behind it and a breaker
trip — on seeded schedules, and count: every item a channel popped is
finished once, nothing is left in flight, the devices saw their
batches in order (``fifo_violations == 0``) and converge.

They also hold the drain settle to its cost: the reads a parked
``drain()`` makes per device batch do not grow with the fleet.
"""

import random
import sys
import threading
import time

import pytest

from repro.core.controller import NerpaController
from repro.core.fanout import DeviceChannel
from repro.core.pipeline import nerpa_build
from repro.core.pipeline.queues import CoalescingQueue
from repro.mgmt.database import Database
from repro.net import FaultInjector, RetryPolicy
from repro.net.reactor import Reactor
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.farm import DeviceFarm
from tests.test_fanout import P4, RULES, SCHEMA, add_port, set_out_port, wait_for

N_DEVICES = 3
#: Shorter than the slow device's ack delay: its batches expire.
CALL_TIMEOUT = 0.25
POLICY = RetryPolicy(
    connect_timeout=2.0,
    call_timeout=CALL_TIMEOUT,
    max_reconnect_attempts=1000,
    base_delay=0.01,
    max_delay=0.05,
)


def count_completions(monkeypatch):
    """Per channel: items popped, and items finished."""
    popped, finished = {}, {}
    real_finish = DeviceChannel._finish

    def finish(self, exc):
        finished[self.queue.name] = finished.get(self.queue.name, 0) + 1
        real_finish(self, exc)

    def watch(channel):
        queue = channel.queue
        real_pop = queue.pop_nowait

        def pop_nowait():
            item = real_pop()
            if item is not None:
                popped[queue.name] = popped.get(queue.name, 0) + 1
            return item

        queue.pop_nowait = pop_nowait

    monkeypatch.setattr(DeviceChannel, "_finish", finish)
    return popped, finished, watch


def tables(farm):
    return [
        {name: sorted(entries) for name, entries in d.table_snapshot().items()}
        for d in farm.devices
    ]


@pytest.mark.parametrize("seed", [1, 2])
def test_every_item_finishes_once_across_acks_expiries_teardowns_and_trips(
    monkeypatch, seed
):
    rng = random.Random(seed)
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    farm = DeviceFarm(N_DEVICES).start()
    proxies = [FaultInjector(*farm.address).start() for _ in range(N_DEVICES)]
    reactor = Reactor(f"t-once-{seed}").start()
    clients = [
        AioP4RuntimeClient(
            *proxy.address, reactor, policy=POLICY, device_hint=i
        )
        for i, proxy in enumerate(proxies)
    ]
    popped, finished, watch = count_completions(monkeypatch)
    controller = NerpaController(
        project, db, clients, breaker_threshold=2
    ).start()
    try:
        # Counted from here: start() has drained, nothing is in flight.
        for channel in controller.channels:
            watch(channel)
        started = dict(finished)
        ports = list(range(6))
        for port in ports:
            add_port(db, port, 100 + port)
        controller.drain()
        # Each round ends one device's batches one way: acked, expired
        # (two in a row, which trips the breaker) or torn down with the
        # connection, which then reconnects and resyncs.  Every kind
        # comes up in the first three rounds.
        kinds = rng.sample(["ack", "expire", "sever"], 3)
        kinds += [rng.choice(["ack", "expire", "sever"]) for _ in range(7)]
        for step, kind in enumerate(kinds):
            device = rng.randrange(N_DEVICES)
            if kind == "expire":
                farm.set_ack_delay(device, 3 * CALL_TIMEOUT)
            for n in range(2):
                set_out_port(db, rng.choice(ports), 200 + 2 * step + n)
                time.sleep(rng.uniform(0.0, 0.01))
            if kind == "expire":
                # The first batch expires, the second one waiting behind
                # it goes out and expires too.
                time.sleep(2 * CALL_TIMEOUT + 0.1)
                farm.set_ack_delay(device, 0.0)
            elif kind == "sever":
                proxies[device].sever()
        assert any(d.syncs_missed for d in controller.devices)
        assert any("quarantined" in c.conn.transitions for c in clients)

        # Heal, repair every device, and settle.  A sever of the last
        # round may still be on its way to its client: repeat until a
        # pass finds every device connected and out of quarantine.
        for i in range(N_DEVICES):
            farm.set_ack_delay(i, 0.0)
        deadline = time.monotonic() + 10.0
        while True:
            time.sleep(0.05)
            wait_for(lambda: all(c.connected for c in clients),
                     what="reconnects")
            for i in range(N_DEVICES):
                controller.resync_device(i)
            controller.drain(timeout=10.0)
            if all(c.connected for c in clients) and not any(
                d.quarantined for d in controller.devices
            ):
                break
            assert time.monotonic() < deadline, "the fleet never healed"

        for channel in controller.channels:
            name = channel.queue.name
            done = finished.get(name, 0) - started.get(name, 0)
            assert popped.get(name, 0) == done, name
            assert channel.queue.unfinished == 0
        assert controller._fanout_plane.inflight == 0
        assert farm.total_fifo_violations() == 0
        snapshot = tables(farm)
        assert snapshot[1:] == snapshot[:-1], "devices disagree"
        assert len(snapshot[0]["patch"]) == len(ports)
    finally:
        controller.stop()
        for client in clients:
            client.close()
        for proxy in proxies:
            proxy.stop()
        farm.stop()
        reactor.stop()


def settle_reads_per_batch(n_devices, commits=6):
    """Calls of the drain settle and reads of a queue's ``unfinished``
    on the controller's loop, per device batch, over ``commits``
    drained commits to in-process devices."""
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    sims = [project.new_simulator(n_ports=16) for _ in range(n_devices)]
    controller = NerpaController(project, db, sims).start()
    watched = {
        NerpaController._settle_drains.__code__,
        CoalescingQueue.unfinished.fget.__code__,
    }
    reads = 0

    def count(frame, event, arg):
        nonlocal reads
        if event == "call" and frame.f_code in watched:
            reads += 1

    def on_loop(fn):
        ran = threading.Event()
        controller.reactor.submit(lambda: (fn(), ran.set()))
        assert ran.wait(10.0)

    try:
        add_port(db, 1, 2)
        controller.drain()
        on_loop(lambda: sys.setprofile(count))
        try:
            for n in range(commits):
                set_out_port(db, 1, 3 + n)
                controller.drain()  # parked while the batches finish
        finally:
            on_loop(lambda: sys.setprofile(None))
        assert all(len(sim.table("patch")) == 1 for sim in sims)
    finally:
        controller.stop()
    return reads / (commits * n_devices)


def test_the_drain_settle_reads_per_batch_do_not_grow_with_the_fleet():
    """Each queue going idle used to rescan every queue for a parked
    drain: O(devices) reads per batch, O(devices²) per commit."""
    small, large = settle_reads_per_batch(8), settle_reads_per_batch(64)
    assert large <= small
