"""The system under test, wired the way a deployment wires it.

One process: ``Database`` behind a ``ManagementServer``; the controller
on its own ``ManagementClient``; ``NerpaController(apply_plane="aio",
shards=1)`` sharing one ``Reactor`` with one ``AioP4RuntimeClient`` per
device; a ``DeviceFarm(n_reactors=1)`` standing in for the fleet; the
operator on a second ``ManagementClient``.  Every hop crosses loopback
TCP.

The only benchmark code on the data path is :class:`ProbeDevice`, the
measurement endpoint: it notes when a device has applied the marker of
commit *n* (the paper's "entry added to the P4 table").  A traced run
passes a :class:`~benchmarks.e2e.tracing.Tracer`, which swaps in timing
subclasses of the same objects; an untraced run uses the stock classes.
"""

import threading
import time

from benchmarks.e2e.programs import BEAT_TABLE, PROBE_TABLE
from repro.core import NerpaController, nerpa_build
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.mgmt.server import ManagementServer
from repro.net import RetryPolicy
from repro.net.aio import Reactor
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.farm import DeviceFarm, FarmDevice

POLICY = RetryPolicy(
    connect_timeout=5.0,
    call_timeout=30.0,
    max_reconnect_attempts=100,
    base_delay=0.01,
    max_delay=0.1,
)


def marker_of(wire_updates):
    """The marker seq a device batch carries, or None."""
    for update in wire_updates:
        if update["table"] == PROBE_TABLE and update["type"] == "INSERT":
            return update["action"]["params"][0]
    return None


class ProbeDevice(FarmDevice):
    """A farm device that reports each marker it applies."""

    def __init__(self, index, on_apply):
        super().__init__(index)
        self.on_apply = on_apply

    def apply_updates(self, updates):
        entered = time.perf_counter()
        applied = super().apply_updates(updates)
        done = time.perf_counter()
        seq = marker_of(updates)
        if seq is not None:
            self.on_apply(self.index, seq, entered, done, len(updates))
        return applied


class Convergence:
    """When has every device applied the marker of commit *n*?

    Per-device markers only grow (device batches are FIFO), so commit
    *n* has converged once ``n_devices`` devices reported a seq >= n.
    Fed from the farm's loop thread; the operator thread waits.
    """

    def __init__(self, n_devices):
        self.n_devices = n_devices
        self._device_seq = [-1] * n_devices
        self._reached = {}
        #: seq -> perf_counter() when the last device applied it.
        self.converged_at = {}
        self._cond = threading.Condition()

    def applied(self, device, seq, _entered, done, _n_updates):
        newly = []
        for n in range(self._device_seq[device] + 1, seq + 1):
            count = self._reached.get(n, 0) + 1
            if count == self.n_devices:
                self._reached.pop(n, None)
                newly.append(n)
            else:
                self._reached[n] = count
        self._device_seq[device] = seq
        if newly:
            with self._cond:
                for n in newly:
                    self.converged_at[n] = done
                self._cond.notify_all()

    def wait(self, seq, timeout):
        """True once commit ``seq`` is on every device."""
        with self._cond:
            return self._cond.wait_for(
                lambda: seq in self.converged_at, timeout
            )


def _settle(reactor):
    """Block until ``reactor`` has made two full loop turns, so that the
    closes queued on it, and the end-of-stream events they cause on the
    peer's loop, have been handled.  A reactor stopped first drops them
    and leaves the sockets to the garbage collector."""
    for _ in range(2):
        turned = threading.Event()
        if reactor.submit(turned.set):
            turned.wait(5.0)


class Stack:
    """Build, start and tear down one instance of the whole stack."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.convergence = Convergence(workload.n_devices)
        self.seq = 0
        self._threads_before = set(threading.enumerate())
        self._closers = []
        started = time.perf_counter()
        try:
            self._build(workload, tracer)
            self.commit(workload.cold_start, insert_beat=True)
            if not self.convergence.wait(0, timeout=120.0):
                raise RuntimeError(
                    "cold-start commit did not reach every device"
                )
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _build(self, workload, tracer):
        program = workload.program
        self.project = nerpa_build(program.schema(), program.rules, program.p4)

        on_apply = self.convergence.applied
        db_class, client_class, device_client_class = (
            Database, ManagementClient, AioP4RuntimeClient
        )
        if tracer is not None:
            on_apply = tracer.device_hook(on_apply)
            db_class = tracer.database_class()
            client_class = tracer.controller_client_class()
            device_client_class = tracer.device_client_class()

        self.db = db_class(self.project.schema)
        self.server = ManagementServer(self.db).start()
        self._closers.append(self.server.stop)
        self.farm = DeviceFarm(workload.n_devices, n_reactors=1)
        self.farm.devices = [
            ProbeDevice(i, on_apply) for i in range(workload.n_devices)
        ]
        self.farm.start()
        self._closers.append(self.farm.stop)
        self.reactor = Reactor("e2e-fanout").start()
        self._closers.append(self.reactor.stop)
        # Runs after the device clients below have been closed.
        self._closers.append(
            lambda: (_settle(self.reactor), _settle(self.farm.reactor))
        )
        host, port = self.farm.address
        self.device_clients = []
        for i in range(workload.n_devices):
            client = device_client_class(
                host, port, self.reactor, policy=POLICY, device_hint=i
            )
            self.device_clients.append(client)
            self._closers.append(client.close)
        self.controller_client = client_class(
            *self.server.address, policy=POLICY
        )
        self._closers.append(self.controller_client.close)
        self.operator = ManagementClient(*self.server.address, policy=POLICY)
        self._closers.append(self.operator.close)
        controller_args = dict(
            apply_plane="aio", shards=1, reactor=self.reactor
        )
        if tracer is not None:
            # The traced engine goes in through the constructor's
            # hand-off parameter; start(warm=False) still starts cold.
            controller_args["warm_source"] = (
                tracer.start_runtime(self.project.program), {}
            )
        self.controller = NerpaController(
            self.project,
            self.controller_client,
            self.device_clients,
            **controller_args,
        )
        self._closers.append(self.controller.stop)
        self.controller.start()

    def commit(self, ops, insert_beat=False):
        """One management transaction: payload + marker.  Returns
        ``(seq, t0, t_reply)``; t0 is taken immediately before the
        operator calls ``transact``."""
        seq = self.seq
        if insert_beat:
            beat = {"op": "insert", "table": BEAT_TABLE, "row": {"seq": seq}}
        else:
            beat = {
                "op": "update",
                "table": BEAT_TABLE,
                "where": [],
                "row": {"seq": seq},
            }
        self.seq += 1
        t0 = time.perf_counter()
        self.operator.transact(ops + [beat])
        return seq, t0, time.perf_counter()

    def close(self):
        """Stop everything in reverse order of construction, then wait
        for the threads this stack started to end."""
        while self._closers:
            self._closers.pop()()
        deadline = time.monotonic() + 10.0
        for thread in set(threading.enumerate()) - self._threads_before:
            thread.join(max(0.0, deadline - time.monotonic()))
