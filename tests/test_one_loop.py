"""One loop for the controller: stage 2, checkpoint saves, reconnect
hooks and every device call of stage 3 run on one reactor, and a
reactor is one thread.

* no engine, checkpoint-timer, fan-out pool or hook-pool thread exists
  once a controller runs against a device fleet, and the timer still
  cuts checkpoints;
* an engine task runs on ``controller.reactor``, and so does an
  in-process device's service — its batches, epoch reads and table
  reads alike;
* the calls that wait for the loop refuse to run on it, at once,
  instead of hanging, while ``resync_device(wait=False)`` and
  ``save_checkpoint()`` run there;
* ``stop()`` run as an engine task cancels the armed timer: it returns
  promptly and no save runs after it;
* reconnect hooks run on the connection's loop, one after another: one
  that raises or blocks is counted and the next still runs — on a bare
  connection and through either client;
* every put on the engine queue and on a device channel's queue runs
  on the loop, whichever thread produced the work: an in-process
  database's committing thread, a management client's own loop, a
  thread injecting a packet into an in-process switch, a caller of
  ``resync_device`` or ``save_checkpoint``.
"""

import socket
import threading
import time

import pytest

from repro.apps.snvs.network import SnvsNetwork
from repro.core.controller import NerpaController
from repro.core.pipeline import nerpa_build
from repro.errors import ReproError
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.mgmt.server import ManagementServer
from repro.net.aio import AioConnection, Reactor
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
        assert not any("-hook" in name for name in names), names
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


def test_a_loop_callback_saves_a_checkpoint_that_restores_warm(tmp_path):
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=16)
    controller = NerpaController(
        project, db, [switch], state_dir=str(tmp_path)
    ).start()
    try:
        for port in (1, 2):
            add_port(db, port, 100 + port)
        controller.drain()
        error, _ = on_loop(controller.reactor, controller.save_checkpoint)
        assert error is None
        assert controller.last_checkpoint_mode == "full"
    finally:
        controller.stop()
    second = NerpaController(
        project, db, [switch], state_dir=str(tmp_path)
    ).start()
    try:
        restart = second.metrics()["restart"]
        assert (restart["mode"], restart["warm_skips"]) == ("warm", 1)
        assert len(switch.table("patch")) == 2
    finally:
        second.stop()


def test_stop_from_an_engine_task_returns_while_a_timer_save_waits(tmp_path):
    """The timer is armed, its next save waiting to fire: stop() run as
    an engine task cancels it there and then — it returns at once, and
    no save runs after it."""
    controller = _controller(
        state_dir=str(tmp_path), checkpoint_interval_s=0.01
    ).start()
    wait_for(lambda: controller.auto_checkpoints >= 1, what="a timer save")
    outcome, stopped = {}, threading.Event()

    def stop_from_engine():
        started = time.monotonic()
        controller.stop()
        outcome["stop_seconds"] = time.monotonic() - started
        outcome["saves"] = controller.auto_checkpoints
        stopped.set()

    controller._submit_engine(stop_from_engine, wait=False)
    assert stopped.wait(15.0), "stop() from an engine task hung"
    assert outcome["stop_seconds"] < 1.0
    time.sleep(0.05)
    assert controller.auto_checkpoints == outcome["saves"]


# -- reconnect hooks --------------------------------------------------------


def _listener():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    return listener


def _drop_first_connection(listener) -> None:
    """Close the connection the client made; the kernel accepts its
    redial on the listener's backlog — a reconnect."""
    peer, _ = listener.accept()
    peer.close()


def test_reconnect_hooks_run_on_the_loop_and_a_blocking_one_is_counted():
    listener = _listener()
    reactor = Reactor("t-hooks")
    conn = AioConnection(*listener.getsockname(), reactor, policy=FAST)
    seen = []

    def blocking():
        seen.append(("blocking", conn.reactor.in_loop()))
        conn.call("echo", ["from a hook"])

    conn.on_reconnect(blocking)
    conn.on_reconnect(lambda: seen.append(("next", conn.reactor.in_loop())))
    try:
        assert conn.wait_connected(5.0)
        _drop_first_connection(listener)
        wait_for(lambda: len(seen) == 2, what="both hooks")
        assert seen == [("blocking", True), ("next", True)]
        error = reactor.last_callback_error
        assert isinstance(error, ReproError)
        assert "reactor loop thread" in str(error)
    finally:
        conn.close()
        reactor.stop()
        listener.close()


@pytest.mark.parametrize(
    "connect",
    [
        lambda host, port: AioP4RuntimeClient(host, port, policy=FAST),
        lambda host, port: ManagementClient(host, port, policy=FAST),
    ],
    ids=["p4runtime", "mgmt"],
)
def test_a_raising_client_hook_does_not_stop_the_next(connect):
    listener = _listener()
    client = connect(*listener.getsockname())
    ran = threading.Event()

    def broken():
        raise RuntimeError("hook bug")

    client.on_reconnect(broken)
    client.on_reconnect(ran.set)
    try:
        assert client.conn.wait_connected(5.0)
        _drop_first_connection(listener)
        assert ran.wait(5.0), "the hook behind a raising one never ran"
        assert "hook bug" in str(client.conn.reactor.last_callback_error)
    finally:
        client.close()
        listener.close()


# -- every put on the loop -----------------------------------------------------


def watch_puts(controller):
    """``(queue name, on the loop?)`` for every later put on the engine
    queue and on each device channel's queue."""
    seen = []
    queues = [controller.engine_queue, *(c.queue for c in controller.channels)]
    for queue in queues:

        def put(item, supersedes=None, inner=queue.put, name=queue.name):
            seen.append((name, controller.reactor.in_loop()))
            inner(item, supersedes)

        queue.put = put
    return seen


def assert_all_on_loop(seen, *queues):
    assert {name for name, _ in seen} >= set(queues), seen
    assert [put for put in seen if not put[1]] == []


def test_an_in_process_commit_on_a_foreign_thread_is_put_on_the_loop():
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=16)
    controller = NerpaController(project, db, [switch]).start()
    try:
        seen = watch_puts(controller)
        committer = threading.Thread(target=add_port, args=(db, 1, 5))
        committer.start()
        committer.join(10.0)
        controller.drain()
        assert switch.table("patch").lookup([1]) == ("forward", (5,), True)
        assert_all_on_loop(seen, "engine", "device-0")
    finally:
        controller.stop()


def test_a_remote_management_client_update_is_put_on_the_loop():
    project = nerpa_build(SCHEMA, RULES, P4)
    db = Database(project.schema)
    switch = project.new_simulator(n_ports=16)
    server = ManagementServer(db).start()
    client = ManagementClient(*server.address, policy=FAST)
    controller = NerpaController(project, client, [switch]).start()
    try:
        seen = watch_puts(controller)
        add_port(db, 2, 6)
        wait_for(lambda: len(switch.table("patch")) == 1, what="the entry")
        controller.drain()
        assert_all_on_loop(seen, "engine", "device-0")
    finally:
        controller.stop()
        client.close()
        server.stop()


def test_a_digest_injected_from_the_test_thread_is_put_on_the_loop():
    net = SnvsNetwork(n_ports=8)
    try:
        net.add_vlan(10)
        net.add_access_port(0, vlan=10)
        net.add_access_port(1, vlan=10)
        seen = watch_puts(net.controller)
        learned = net.fwd_entries()
        net.send(0, "aa:00:00:00:00:0b", "aa:00:00:00:00:0a")
        assert net.controller.digests_processed == 1
        assert net.fwd_entries() == learned + 1
        assert_all_on_loop(seen, "engine", "device-0")
    finally:
        net.controller.stop()


def test_resync_and_checkpoint_called_off_the_loop_put_on_the_loop(tmp_path):
    controller = _controller(state_dir=str(tmp_path)).start()
    try:
        add_port(controller.mgmt.db, 3, 7)
        controller.drain()
        seen = watch_puts(controller)
        controller.resync_device(0)
        controller.save_checkpoint()
        assert controller.last_checkpoint_mode == "full"
        # The resync is put on its channel directly (it takes its own
        # snapshot when it runs); the save is one engine task.
        assert [name for name, _ in seen] == ["device-0", "engine"]
        assert_all_on_loop(seen, "engine", "device-0")
    finally:
        controller.stop()
