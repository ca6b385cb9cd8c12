"""A fleet of lightweight simulated devices behind one listener.

Benchmarking a 1000-device apply plane needs 1000 *servers*; running a
full :class:`~repro.p4.simulator.Simulator` behind a
:class:`~repro.p4runtime.server.P4RuntimeServer` (a reactor of its own)
per device would melt the bench machine before the plane under test
broke a sweat.  :class:`DeviceFarm` is the same reactor-hosted server
(:mod:`repro.net.server`) with one listener, a small pool of loops
(``n_reactors`` — real switches are parallel hardware, so fleet-scale
benches shouldn't serialize on a single simulated farm loop), and N
devices.

Each :class:`FarmDevice` is a :class:`~repro.p4runtime.api.DeviceService`
over a :class:`TableStore` — dict tables with no pipeline to look
packets up in, holding each entry as the match key and value a wire
update decodes to (tuples of atoms the collector never tracks) — so a
farm device has exactly the batch semantics a simulator-backed device
has (atomic rollback, duplicate/missing-key rejections with the same
text, config epochs, multicast, the fence check), and the farm serves
it with the server's own method table
(:data:`~repro.p4runtime.server.DEVICE_METHODS`).  The farm adds only
what belongs to a fleet and its verification:

* clients address a device with ``bind_device [index]`` (the
  :class:`~repro.p4runtime.aio_client.AioP4RuntimeClient`'s
  ``device_hint`` does this automatically, re-binding on reconnect);
* the optional ``"seq": [first, last]`` pair on an ``apply_batch``
  envelope — the coalesced batch's engine-sequence range — lets each
  device check per-device FIFO *at the receiver*: a batch whose range
  starts at or before the previous batch's end arrived out of order
  (supersedes legitimately skip ranges; they never rewind them), and
  is counted in ``fifo_violations``;
* :meth:`DeviceFarm.set_ack_delay` makes one device slow by
  *deferring its acks* with a reactor timer — the farm never blocks,
  so a slow device exercises the plane's isolation, not the farm's.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import ProtocolError
from repro.net.server import RpcConnection, RpcServer
from repro.p4.tables import write_rejection
from repro.p4runtime.api import DeviceService
from repro.p4runtime.server import DEVICE_METHODS


class StoreTable(dict):
    """One table of a :class:`TableStore`: ``match key -> value``, both
    tuples of atoms as :func:`~repro.p4runtime.api.decode_update` gives
    them (so the collector tracks none of its entries), with
    :class:`~repro.p4.tables.TableState`'s write protocol and
    rejections (no validation against a P4Info: the store has none).
    A DELETE's ``value`` is not read."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def write(self, kind: str, key: tuple, value: tuple) -> Optional[tuple]:
        old = self.get(key)
        if (old is None) != (kind == "INSERT"):
            raise write_rejection(self.name, kind, key, value)
        if kind == "DELETE":
            del self[key]
        else:
            self[key] = value
        return old

    def restore(self, key: tuple, old: Optional[tuple]) -> None:
        if old is None:
            del self[key]
        else:
            self[key] = old


class TableStore:
    """What a :class:`~repro.p4runtime.api.DeviceService` reads of a
    simulator, without the pipeline: tables made on first use,
    multicast groups and the config and fencing epochs."""

    def __init__(self):
        self.tables: Dict[str, StoreTable] = {}
        self.multicast_groups: Dict[int, List[int]] = {}
        self.config_epoch: Optional[str] = None
        self.fencing_epoch: Optional[int] = None

    def table(self, name: str) -> StoreTable:
        table = self.tables.get(name)
        if table is None:
            table = self.tables[name] = StoreTable(name)
        return table

    def set_multicast_group(self, group_id: int, ports: List[int]) -> None:
        self.multicast_groups[group_id] = list(ports)

    def delete_multicast_group(self, group_id: int) -> None:
        self.multicast_groups.pop(group_id, None)


class FarmDevice(DeviceService):
    """One simulated device (its store is ``sim``) plus the farm's
    verification counters."""

    def __init__(self, index: int):
        super().__init__(TableStore(), f"device-{index}")
        self.index = index
        self.last_seq: Optional[int] = None
        self.fifo_violations = 0
        self.batches_applied = 0
        #: Seconds each response to this device is deferred (reactor
        #: timer — simulates a slow device without blocking the farm).
        self.ack_delay = 0.0

    def note_seq(self, seq) -> None:
        if not seq:
            return
        first, last = int(seq[0]), int(seq[1])
        if self.last_seq is not None and first <= self.last_seq:
            self.fifo_violations += 1
        self.last_seq = max(self.last_seq or 0, last)

    def table_snapshot(self) -> Dict[str, Dict[str, dict]]:
        """``{table: {key: INSERT update}}``, keyed like P4Runtime by the
        match fields' JSON plus a nonzero priority.

        A verification form, not the wire's: benchmarks digest it, so
        it keeps one rendering whatever the wire form — every exact
        field tagged ``{"exact": v}`` and every entry's ``priority``
        present, rendered here from the decoded key and value."""
        snapshot = {}
        for name, table in self.sim.tables.items():
            entries = snapshot[name] = {}
            for key, value in table.items():
                match = [
                    {kind: field if kind == "exact" else [field, arg]}
                    for kind, field, arg in zip(
                        key[1::3], key[2::3], key[3::3]
                    )
                ]
                text = json.dumps(match, sort_keys=True)
                if key[0]:
                    text = f"{text}#{key[0]}"
                entries[text] = {
                    "type": "INSERT",
                    "table": name,
                    "match": match,
                    "action": {"name": value[0], "params": list(value[1:])},
                    "priority": key[0],
                }
        return snapshot


class DeviceFarm(RpcServer):
    """N lightweight P4Runtime devices behind one listener.

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
        serve = DEVICE_METHODS.get(method)
        if serve is not None:
            result = serve(device, params)
            if method == "apply_batch":
                device.note_seq(params[0].get("seq"))
                device.batches_applied += 1
            return result
        if method == "subscribe_digests":
            return {}  # a store emits no digests
        raise ProtocolError(f"unknown method {method!r}")
