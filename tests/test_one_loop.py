"""One loop for the controller: stage 2, the checkpoint timer and every
device call of stage 3 run on one reactor.

* no engine, checkpoint-timer or fan-out pool thread exists once a
  controller runs against a device fleet, and the timer still cuts
  checkpoints;
* an engine task runs on ``controller.reactor``, and so does an
  in-process device's service — its batches, epoch reads and table
  reads alike;
* the calls that wait for the loop refuse to run on it, at once,
  instead of hanging, while ``resync_device(wait=False)`` runs there;
* ``stop()`` run as an engine task returns promptly while a timer save
  is waiting for an engine task queued behind it.
"""

import threading
import time

from repro.core.controller import NerpaController
from repro.core.pipeline import nerpa_build
from repro.errors import ReproError
from repro.mgmt.database import Database
from repro.net.aio import Reactor
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.api import DeviceService
from repro.p4runtime.farm import DeviceFarm
from tests.test_fanout import FAST, P4, RULES, SCHEMA, add_port, wait_for


def on_loop(reactor, fn):
    """Run ``fn`` as a reactor callback: ``(ReproError or None, seconds)``."""
    box, done = {}, threading.Event()

    def run():
        started = time.monotonic()
        try:
            fn()
        except ReproError as exc:
            box["error"] = exc
        box["seconds"] = time.monotonic() - started
        done.set()

    assert reactor.submit(run)
    assert done.wait(10.0), "reactor callback never finished"
    return box.get("error"), box["seconds"]


def test_a_farm_fleet_runs_without_engine_or_timer_threads(tmp_path):
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    farm = DeviceFarm(8).start()
    reactor = Reactor("t-one-loop").start()
    clients = [
        AioP4RuntimeClient(*farm.address, reactor, policy=FAST, device_hint=i)
        for i in range(8)
    ]
    controller = NerpaController(
        project,
        db,
        clients,
        state_dir=str(tmp_path),
        checkpoint_interval_s=0.01,
    ).start()
    try:
        for port in range(1, 5):
            add_port(db, port, 100 + port)
        controller.drain()
        wait_for(
            lambda: controller.auto_checkpoints >= 2,
            what="timer checkpoints",
        )
        names = {thread.name for thread in threading.enumerate()}
        assert "nerpa-engine" not in names
        assert "nerpa-ckpt-timer" not in names
        assert not any(name.startswith("fanout-blocking") for name in names)
        assert controller.reactor is reactor
        assert all(len(d.table_snapshot()["patch"]) == 4 for d in farm.devices)
    finally:
        controller.stop()
        for client in clients:
            client.close()
        farm.stop()
        reactor.stop()


def _controller(**kwargs):
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=16)
    return NerpaController(project, db, [switch], **kwargs)


def test_an_engine_task_runs_on_the_controllers_reactor():
    controller = _controller().start()
    try:
        assert controller._submit_engine(controller.reactor.in_loop) is True
    finally:
        controller.stop()


def test_waiting_for_the_loop_from_the_loop_raises_at_once():
    controller = _controller().start()
    try:
        for call in (controller.drain, lambda: controller._submit_engine(int)):
            error, seconds = on_loop(controller.reactor, call)
            assert isinstance(error, ReproError)
            assert "reactor" in str(error)
            assert seconds < 1.0
        controller.drain()  # the loop is still serving
    finally:
        controller.stop()


class _LoopRecordingService(DeviceService):
    """Records, per call, whether it ran on the controller's loop."""

    def __init__(self, sim):
        super().__init__(sim)
        self.controller = None
        self.on_loop = []

    def _record(self, method):
        self.on_loop.append((method, self.controller.reactor.in_loop()))

    def apply_batch(self, updates, mcast=None, fence=None):
        self._record("apply_batch")
        return super().apply_batch(updates, mcast, fence)

    def get_config_epoch(self):
        self._record("get_config_epoch")
        return super().get_config_epoch()

    def read_table(self, table):
        self._record("read_table")
        return super().read_table(table)


def test_an_in_process_device_is_served_on_the_loop():
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=16)
    first = NerpaController(project, db, [switch]).start()
    add_port(db, 1, 101)
    first.drain()
    first.stop()
    # The switch reports an epoch now, so the next start read-diffs it.
    service = _LoopRecordingService(switch)
    controller = NerpaController(project, db, [service])
    service.controller = controller
    controller.start()
    try:
        add_port(db, 2, 102)
        controller.drain()
        controller.resync_device(0)
        calls = {method for method, _ in service.on_loop}
        assert calls == {"apply_batch", "get_config_epoch", "read_table"}
        assert all(on_loop for _, on_loop in service.on_loop), service.on_loop
    finally:
        controller.stop()


def test_resync_without_waiting_runs_on_the_loop():
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=16)
    controller = NerpaController(project, db, [switch]).start()
    try:
        for port in (1, 2):
            add_port(db, port, 100 + port)
        controller.drain()
        table = switch.table("patch")
        table.delete(table.entries()[0])  # someone else drove the switch
        error, _ = on_loop(
            controller.reactor, lambda: controller.resync_device(0, wait=False)
        )
        assert error is None
        wait_for(lambda: len(table) == 2, what="the resync to repair it")
        controller.drain()
        assert controller.device_resyncs == 1
    finally:
        controller.stop()


def test_stop_from_an_engine_task_returns_while_a_timer_save_waits(tmp_path):
    """The timer's save holds the checkpoint lock and waits for its
    snapshot task, queued behind the engine task that stops the
    controller: stop() must neither wait for that save nor leave it
    waiting out its timeout."""
    controller = _controller(
        state_dir=str(tmp_path), checkpoint_interval_s=0.01
    )
    real_save = controller.save_checkpoint
    outcome, stopped = {}, threading.Event()

    def stop_from_engine():
        queue = controller.engine_queue
        deadline = time.monotonic() + 5.0
        while not len(queue) and time.monotonic() < deadline:
            time.sleep(0.001)  # until the save's snapshot task is queued
        outcome["queued"] = len(queue)
        started = time.monotonic()
        controller.stop()
        outcome["stop_seconds"] = time.monotonic() - started
        stopped.set()

    def save_behind_a_stop(mode="auto"):
        if "save" not in outcome:
            outcome["save"] = mode
            controller._submit_engine(stop_from_engine, wait=False)
        return real_save(mode)

    controller.save_checkpoint = save_behind_a_stop
    controller.start()
    assert stopped.wait(15.0), "stop() from an engine task hung"
    assert outcome["save"] == "auto"
    assert outcome["queued"] == 1
    assert outcome["stop_seconds"] < 1.0
    # The save was released with an error, not left to its timeout.
    lock = controller.checkpoints.lock
    assert lock.acquire(timeout=1.0)
    lock.release()
    saves = controller.auto_checkpoints
    time.sleep(0.05)
    assert controller.auto_checkpoints == saves
