"""Plane adapters: one calling convention per kind of neighbour.

The controller talks to a management plane and to devices; each comes
in an in-process and a remote flavour.  This module decides which is
which (:func:`wrap_mgmt`, :func:`wrap_device`) and gives the pipeline
one surface per plane.  What the controller keeps about a device (its
breaker, config epoch, latencies and queue) is the device's
:class:`~repro.core.fanout.DeviceChannel`, which holds its surface as
``io``.

The device surface the apply stage uses is non-blocking on both
flavours, and is the P4Runtime client's: ``apply_batch_async`` and
``call_async(method, args)`` for the calls a full sync makes
(``get_config_epoch``, ``read_table``, ``set_config_epoch``) each take
a ``callback(result, error)`` that runs on the loop.  An in-process
device answers inline, so its service is a loop callback and must not
block; a remote one answers when its response arrives.

The management surface has the same call for the lease operations an
HA replica makes (``lease_acquire``, ``lease_renew``,
``lease_release``): an in-process database answers inline, a remote
one on the management client's loop, bounded by ``timeout``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.errors import ConnectionLostError, ProtocolError, ReproError
from repro.mgmt import lease
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.mgmt.monitor import MonitorSpec, TableUpdates
from repro.net.reactor import Reactor
from repro.obs.trace import UPDATE_ID, use_update_id
from repro.p4.simulator import Simulator
from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.api import DeviceService

#: Exceptions treated as *transport* failures by the circuit breaker.
#: Semantic rejections (``WriteError`` etc.) are deferred to
#: :meth:`NerpaController.drain` — they indicate a controller bug, not
#: a flaky peer.
TRANSPORT_ERRORS = (ProtocolError, OSError)


def _call_inline(fn, args: list, callback) -> None:
    """Answer a non-blocking call at once: ``callback`` gets what ``fn``
    returns or raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - handed to the callback
        callback(None, exc)
    else:
        callback(result, None)


class LocalMgmt:
    def __init__(self, db: Database):
        self.db = db
        self.monitor = None

    def subscribe(self, tables, callback) -> TableUpdates:
        spec = MonitorSpec({t: None for t in tables})
        self.monitor, initial = self.db.add_monitor(spec, callback)
        return initial

    def unsubscribe(self) -> None:
        if self.monitor is not None:
            self.db.remove_monitor(self.monitor)
            self.monitor = None

    def on_reconnect(self, hook) -> None:
        pass  # in-process databases do not disconnect

    def call_async(self, method: str, args: list, callback, timeout=None):
        """Answered inline, so there is no deadline to keep."""
        fn, _key = lease.METHODS[method]
        _call_inline(fn, [self.db.transact, *args], callback)

    def health(self) -> Dict[str, object]:
        return {"peer": "local-db", "state": "connected", "transitions": []}


class RemoteMgmt:
    def __init__(self, client):
        self.client = client
        self.monitor_id = None

    def subscribe(self, tables, callback) -> TableUpdates:
        self.monitor_id, initial = self.client.monitor(
            {t: None for t in tables}, callback
        )
        return initial

    def unsubscribe(self) -> None:
        if self.monitor_id is not None:
            self.client.monitor_cancel(self.monitor_id)
            self.monitor_id = None

    def on_reconnect(self, hook) -> None:
        self.client.on_reconnect(hook)

    def call_async(
        self, method: str, args: list, callback, timeout: Optional[float]
    ) -> None:
        """``callback`` runs on the client's own loop; an answer without
        the method's key fails the call."""
        _fn, key = lease.METHODS[method]
        self.client.conn.call_async(
            method, args, callback, timeout=timeout,
            read=lambda answer: answer[key],
        )

    def health(self) -> Dict[str, object]:
        return self.client.health()


class LocalDevice:
    """An in-process device: every call answers inline, on the loop,
    with what the service returns or raises."""

    #: No connection: never parked on a drain, no send buffer to report,
    #: never dialled.
    writable = True
    send_buffer_bytes = None
    connected = True
    timeout = 0.0

    def __init__(self, target):
        if isinstance(target, Simulator):
            self.service = DeviceService(target)
        else:
            self.service = target
        self._event_log: List[str] = []

    def __getattr__(self, name: str):
        return getattr(self.service, name)

    def call_async(self, method: str, args: list, callback) -> None:
        _call_inline(getattr(self, method), args, callback)

    def apply_batch_async(
        self, updates, mcast=None, update_ids=None, callback=None,
        seq=None, fence=None,
    ) -> None:
        # Bound as P4RuntimeServer binds it: the newest merged update-id
        # is the config epoch the service stamps.
        token = UPDATE_ID.set(update_ids[-1] if update_ids else None)
        try:
            self.call_async("apply_batch", [updates, mcast, fence], callback)
        finally:
            UPDATE_ID.reset(token)

    def attach_digests(self, callback) -> None:
        sim = self.service.sim
        previous = sim.digest_callback

        def chained(message):
            if previous is not None:
                previous(message)
            # Bind the update-id of the config change that installed
            # the digest-producing entries, so the feedback transaction
            # can link back to it without a signature change.
            uid = getattr(message, "update_id", None)
            if uid is not None:
                with use_update_id(uid):
                    callback(message.name, message.values)
            else:
                callback(message.name, message.values)

        sim.digest_callback = chained

    def on_reconnect(self, hook) -> None:
        pass  # in-process devices do not disconnect

    def note_event(self, tag: str) -> None:
        self._event_log.append(tag)

    def health(self) -> Dict[str, object]:
        return {
            "peer": "local-device",
            "state": "connected",
            "transitions": list(self._event_log),
        }


class RemoteDevice:
    """A device behind a P4Runtime client.  The client's own surface is
    used as is — ``apply_batch_async``, ``call_async``, the watermark,
    reconnect hooks; only what :class:`LocalDevice` spells differently
    is adapted here."""

    def __init__(self, client: AioP4RuntimeClient):
        self.client = client
        # Every batch calls it: bound once, not found through __getattr__.
        self.apply_batch_async = client.apply_batch_async

    def __getattr__(self, name: str):
        return getattr(self.client, name)

    @property
    def writable(self) -> bool:
        # Every batch asks: straight to the connection.
        return self.client.conn.writable

    def attach_digests(self, callback) -> None:
        self.client.subscribe_digests(callback)

    def note_event(self, tag: str) -> None:
        self.client.conn.note_event(tag)


def wrap_device(target):
    if isinstance(target, AioP4RuntimeClient):
        return RemoteDevice(target)
    if isinstance(target, (Simulator, DeviceService)):
        return LocalDevice(target)
    raise TypeError(f"cannot manage device {target!r}")


def wrap_mgmt(target):
    if isinstance(target, Database):
        return LocalMgmt(target)
    if isinstance(target, ManagementClient):
        return RemoteMgmt(target)
    raise TypeError(f"cannot use {target!r} as a management plane")


def when_connected(devices: list, reactor: Reactor, callback, poll=0.01) -> None:
    """On ``reactor``'s loop: ``callback(None, error)`` once every one
    of ``devices`` (channels, each with its ``io`` and ``name``) is
    connected — inline when all are, else from a
    ``poll`` timer, so a client still dialling holds no loop.  A device
    not connected within its client's call timeout fails it with
    :class:`~repro.errors.ConnectionLostError`."""
    deadline = time.monotonic() + max(
        (device.io.timeout for device in devices), default=0.0
    )

    def check() -> None:
        dialling = next((d for d in devices if not d.io.connected), None)
        if dialling is None:
            callback(None, None)
        elif time.monotonic() >= deadline:
            state = dialling.io.health()["state"]
            callback(
                None, ConnectionLostError(f"{dialling.name} is {state}")
            )
        else:
            reactor.call_later(poll, check)

    check()


def shared_reactor(devices, reactor: Optional[Reactor]) -> Optional[Reactor]:
    """The one reactor the remote ``devices`` run on.  Channel and
    connection callbacks must share one loop thread, so the apply stage
    runs on the device clients' own reactor and an explicit ``reactor``
    has to be that same one; ``None`` means there is no remote device."""
    reactors = {
        d.reactor for d in devices if isinstance(d, AioP4RuntimeClient)
    }
    if reactor is not None:
        reactors.add(reactor)
    if len(reactors) > 1:
        raise ReproError(
            "controller and device clients must share one reactor "
            f"(got {sorted(r.name for r in reactors)})"
        )
    return reactors.pop() if reactors else None
