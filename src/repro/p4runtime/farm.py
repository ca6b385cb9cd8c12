"""A fleet of lightweight simulated devices behind one listener.

Benchmarking a 1000-device apply plane needs 1000 *servers*; running a
full :class:`~repro.p4.simulator.Simulator` behind a
:class:`~repro.p4runtime.server.P4RuntimeServer` (a reactor of its own)
per device would melt the bench machine before the plane under test
broke a sweat.  :class:`DeviceFarm` is the same reactor-hosted server
(:mod:`repro.net.server`) with one listener, a small pool of loops
(``n_reactors`` — real switches are parallel hardware, so fleet-scale
benches shouldn't serialize on a single simulated farm loop), and a
method table over N dict-table devices that speaks enough of the
P4Runtime wire protocol for the controller's hot path
(``apply_batch``, ``write``, ``read_table``, config epochs, multicast)
plus verification hooks:

* clients address a device with ``bind_device [index]`` (the
  :class:`~repro.p4runtime.aio_client.AioP4RuntimeClient`'s
  ``device_hint`` does this automatically, re-binding on reconnect);
* the optional ``"seq": [first, last]`` pair on an ``apply_batch``
  envelope — the coalesced batch's engine-sequence range — lets each
  device check per-device FIFO *at the receiver*: a batch whose range
  starts at or before the previous batch's end arrived out of order
  (supersedes legitimately skip ranges; they never rewind them), and
  is counted in ``fifo_violations``;
* :meth:`set_ack_delay` makes one device slow by *deferring its acks*
  with a reactor timer — the farm never blocks, so a slow device
  exercises the plane's isolation, not the farm's.

Table state is per-device ``{table: {match_key: wire_update}}``, keyed
like P4Runtime by the match fields plus a nonzero priority, with
the real service's batch semantics (atomic: a failing update rolls the
batch back; INSERT of a present key and MODIFY/DELETE of a missing key
are rejections).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import ProtocolError
from repro.net.server import RpcConnection, RpcServer


def _match_key(update: dict) -> str:
    key = json.dumps(update.get("match", []), sort_keys=True)
    priority = update.get("priority", 0)
    return f"{key}#{priority}" if priority else key


class FarmDevice:
    """One device's tables plus its verification counters."""

    __slots__ = (
        "index",
        "tables",
        "mcast",
        "epoch",
        "fence",
        "last_seq",
        "fifo_violations",
        "fenced_rejections",
        "batches_applied",
        "updates_applied",
        "ack_delay",
    )

    def __init__(self, index: int):
        self.index = index
        self.tables: Dict[str, Dict[str, dict]] = {}
        self.mcast: Dict[int, List[int]] = {}
        self.epoch: Optional[str] = None
        self.fence: Optional[int] = None
        self.last_seq: Optional[int] = None
        self.fifo_violations = 0
        self.fenced_rejections = 0
        self.batches_applied = 0
        self.updates_applied = 0
        #: Seconds each response to this device is deferred (reactor
        #: timer — simulates a slow device without blocking the farm).
        self.ack_delay = 0.0

    def check_fence(self, fence: Optional[int]) -> None:
        """Reject writes stamped with a deposed leader's fencing epoch
        (mirrors :class:`repro.p4runtime.api.DeviceService`'s check; the
        farm's loop serializes access, so no lock)."""
        if fence is None:
            return
        if self.fence is not None and fence < self.fence:
            self.fenced_rejections += 1
            raise ProtocolError(
                f"write fenced: epoch {fence} deposed by epoch {self.fence}"
            )
        self.fence = fence

    # -- write semantics -----------------------------------------------------

    def apply_updates(self, updates: List[dict]) -> int:
        """Atomic batch: failure reverts the applied prefix."""
        undo = []
        try:
            for i, update in enumerate(updates):
                table = self.tables.setdefault(update["table"], {})
                key = _match_key(update)
                kind = update["type"]
                old = table.get(key)
                if kind == "INSERT":
                    if old is not None:
                        raise ProtocolError(
                            f"update {i}: duplicate entry in "
                            f"{update['table']}"
                        )
                    table[key] = update
                elif kind == "MODIFY":
                    if old is None:
                        raise ProtocolError(
                            f"update {i}: no entry to modify in "
                            f"{update['table']}"
                        )
                    table[key] = update
                elif kind == "DELETE":
                    if old is None:
                        raise ProtocolError(
                            f"update {i}: no entry to delete in "
                            f"{update['table']}"
                        )
                    del table[key]
                else:
                    raise ProtocolError(f"update {i}: bad type {kind!r}")
                undo.append((update["table"], key, old))
        except ProtocolError:
            for table_name, key, old in reversed(undo):
                table = self.tables.setdefault(table_name, {})
                if old is None:
                    table.pop(key, None)
                else:
                    table[key] = old
            raise
        self.updates_applied += len(updates)
        return len(updates)

    def note_seq(self, seq) -> None:
        if not seq:
            return
        first, last = int(seq[0]), int(seq[1])
        if self.last_seq is not None and first <= self.last_seq:
            self.fifo_violations += 1
        self.last_seq = max(self.last_seq or 0, last)

    def table_snapshot(self) -> Dict[str, Dict[str, dict]]:
        return {name: dict(entries) for name, entries in self.tables.items()}


class DeviceFarm(RpcServer):
    """N lightweight P4Runtime-ish devices behind one listener.

    ``n_reactors`` spreads accepted connections round-robin over that
    many loops.  Real switches are parallel hardware; a fleet-scale
    bench that funnels 1000 devices through *one* farm loop would
    measure the farm's serialization, not the apply plane's.  Each
    connection is pinned to one reactor for its lifetime, and in the
    one-connection-per-device usage every :class:`FarmDevice` is only
    ever touched from its connection's loop thread.  A connection's
    session is the index of the device it is bound to (``None``: 0).
    """

    name = "farm"

    def __init__(
        self,
        n_devices: int,
        host: str = "127.0.0.1",
        port: int = 0,
        n_reactors: int = 1,
    ):
        super().__init__(host, port)
        self.devices = [FarmDevice(i) for i in range(n_devices)]
        self.n_reactors = max(1, n_reactors)

    # -- verification --------------------------------------------------------

    def set_ack_delay(self, index: int, seconds: float) -> None:
        self.devices[index].ack_delay = max(0.0, seconds)

    def total_fifo_violations(self) -> int:
        return sum(d.fifo_violations for d in self.devices)

    def total_batches(self) -> int:
        return sum(d.batches_applied for d in self.devices)

    # -- protocol ------------------------------------------------------------

    def reply(self, conn: RpcConnection, message: dict) -> None:
        delay = self.devices[conn.session or 0].ack_delay
        if delay > 0:
            conn.reactor.call_later(delay, lambda: conn.send(message))
        else:
            conn.send(message)

    def handle(self, conn: RpcConnection, method: str, params):
        if method == "bind_device":
            (index,) = params
            if not 0 <= int(index) < len(self.devices):
                raise ProtocolError(f"no device {index}")
            conn.session = int(index)
            return {}
        device = self.devices[conn.session or 0]
        if method == "echo":
            return params
        if method == "apply_batch":
            (envelope,) = params
            device.check_fence(envelope.get("fence"))
            for group, ports in envelope.get("mcast", []):
                if ports:
                    device.mcast[int(group)] = list(ports)
                else:
                    device.mcast.pop(int(group), None)
            updates = envelope.get("updates", [])
            applied = device.apply_updates(updates) if updates else 0
            update_ids = envelope.get("update_ids") or []
            if updates and update_ids:
                device.epoch = update_ids[-1]
            device.note_seq(envelope.get("seq"))
            device.batches_applied += 1
            return {"applied": applied}
        if method == "write":
            return {"applied": device.apply_updates(list(params))}
        if method == "read_table":
            (table,) = params
            return {
                "entries": list(device.tables.get(table, {}).values())
            }
        if method == "get_config_epoch":
            return {"epoch": device.epoch}
        if method == "set_config_epoch":
            epoch = params[0]
            device.check_fence(params[1] if len(params) > 1 else None)
            device.epoch = epoch
            return {}
        if method == "set_multicast_group":
            group_id, ports = params
            device.mcast[int(group_id)] = list(ports)
            return {}
        if method == "delete_multicast_group":
            (group_id,) = params
            device.mcast.pop(int(group_id), None)
            return {}
        if method == "subscribe_digests":
            return {}
        raise ProtocolError(f"unknown method {method!r}")
