"""A fleet of lightweight simulated devices behind one listener.

Benchmarking a 1000-device apply plane needs 1000 *servers*; running a
full :class:`~repro.p4.simulator.Simulator` + thread-per-connection
:class:`~repro.p4runtime.server.P4RuntimeServer` per device would melt
the bench machine before the plane under test broke a sweat.
:class:`DeviceFarm` is the counterpart built the same way as the apply
plane itself: one TCP listener, a small pool of
:class:`~repro.net.reactor.Reactor` loops (``n_reactors`` — real switches
are parallel hardware, so fleet-scale benches shouldn't serialize on a
single simulated farm loop), and N dict-table devices that speak
enough of the P4Runtime wire
protocol for the controller's hot path (``apply_batch``, ``write``,
``read_table``, config epochs, multicast) plus verification hooks:

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

Table state is per-device ``{table: {match_key: wire_update}}`` with
the real service's batch semantics (atomic: a failing update rolls the
batch back; INSERT of a present key and MODIFY/DELETE of a missing key
are rejections).
"""

from __future__ import annotations

import json
import selectors
import socket
from typing import Dict, List, Optional, Tuple

from repro.errors import ProtocolError, ReproError
from repro.mgmt.jsonrpc import (
    classify,
    decode_frames,
    encode_frame,
    make_error,
    make_response,
)
from repro.net.aio import SocketWriter
from repro.net.reactor import Reactor


def _match_key(update: dict) -> str:
    return json.dumps(update.get("match", []), sort_keys=True)


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


class _FarmConnection:
    """One accepted socket: framed request/response on the loop thread."""

    def __init__(self, farm: "DeviceFarm", sock: socket.socket,
                 reactor: Reactor):
        self.farm = farm
        self.sock = sock
        #: The reactor this connection is pinned to (round-robin across
        #: the farm's reactors — see ``DeviceFarm`` on ``n_reactors``).
        self.reactor = reactor
        self.inbuf = b""
        self.writer = SocketWriter(
            reactor, sock, self.on_io, lambda _exc: self.close()
        )
        self.device_index = 0
        self.closed = False

    # All methods below run on this connection's reactor loop thread.

    def on_io(self, mask: int) -> None:
        if self.closed:
            return
        if mask & selectors.EVENT_READ:
            self._read()
        if not self.closed and (mask & selectors.EVENT_WRITE):
            self.writer.flush()

    def _read(self) -> None:
        try:
            data = self.reactor.recv(self.sock)
        except OSError:
            self.close()
            return
        if data is None:
            return
        if not data:
            self.close()
            return
        try:
            messages, self.inbuf = decode_frames(self.inbuf + data)
        except ProtocolError:
            self.close()
            return
        for message in messages:
            try:
                if classify(message) != "request":
                    continue
            except ProtocolError:
                continue
            self._serve(message)

    def _serve(self, message: dict) -> None:
        request_id = message["id"]
        try:
            result = self.farm._handle(self, message["method"],
                                       message.get("params", []))
            reply = make_response(result, request_id)
        except ReproError as exc:
            reply = make_error({"error": str(exc)}, request_id)
        except Exception as exc:  # noqa: BLE001 - farm must survive
            reply = make_error({"error": f"internal: {exc}"}, request_id)
        delay = self.farm.devices[self.device_index].ack_delay
        if delay > 0:
            self.reactor.call_later(delay, lambda: self._send(reply))
        else:
            self._send(reply)

    def _send(self, message: dict) -> None:
        if not self.closed:
            self.writer.send(encode_frame(message))

    def close(self) -> None:
        if not self.reactor.in_loop():
            # Shutdown path: hop to the owning loop (best-effort once
            # the reactor is gone — the socket still gets closed).
            if self.reactor.submit(self.close):
                return
        if self.closed:
            return
        self.closed = True
        self.reactor.unregister(self.sock)
        try:
            self.sock.close()
        except OSError:
            pass
        self.farm._connections.discard(self)


class DeviceFarm:
    """N lightweight P4Runtime-ish devices behind one listener.

    ``n_reactors`` spreads accepted connections round-robin over that
    many loops.  Real switches are parallel hardware; a fleet-scale
    bench that funnels 1000 devices through *one* farm loop would
    measure the farm's serialization, not the apply plane's.  Each
    connection is pinned to one reactor for its lifetime, and in the
    one-connection-per-device usage every :class:`FarmDevice` is only
    ever touched from its connection's loop thread.
    """

    def __init__(
        self,
        n_devices: int,
        host: str = "127.0.0.1",
        port: int = 0,
        reactor: Optional[Reactor] = None,
        n_reactors: int = 1,
    ):
        self.devices = [FarmDevice(i) for i in range(n_devices)]
        self.host = host
        self.port = port
        self._owns_reactors = reactor is None
        if reactor is not None:
            self.reactors = [reactor]
        else:
            self.reactors = [
                Reactor(f"farm-{i}") for i in range(max(1, n_reactors))
            ]
        #: The accept loop (and sole loop when ``n_reactors == 1``).
        self.reactor = self.reactors[0]
        self._listener: Optional[socket.socket] = None
        self._connections: set = set()
        self.connections_accepted = 0

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("farm not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "DeviceFarm":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(1024)
        listener.setblocking(False)
        self._listener = listener
        for reactor in self.reactors:
            reactor.start()
        self.reactor.submit(
            self.reactor.register, listener, selectors.EVENT_READ,
            self._accept,
        )
        return self

    def _accept(self, mask: int) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            target = self.reactors[
                self.connections_accepted % len(self.reactors)
            ]
            conn = _FarmConnection(self, sock, target)
            self._connections.add(conn)
            self.connections_accepted += 1
            if target is self.reactor:
                target.register(sock, selectors.EVENT_READ, conn.on_io)
            else:
                target.submit(
                    target.register, sock, selectors.EVENT_READ, conn.on_io
                )

    def stop(self) -> None:
        listener = self._listener
        def teardown():
            if listener is not None:
                self.reactor.unregister(listener)
            for conn in list(self._connections):
                conn.close()  # hops to each connection's own loop
        if not self.reactor.submit(teardown):
            pass  # reactor already stopped; sockets close below
        if self._owns_reactors:
            for reactor in self.reactors:
                reactor.stop()
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass

    def __enter__(self) -> "DeviceFarm":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- verification --------------------------------------------------------

    def set_ack_delay(self, index: int, seconds: float) -> None:
        self.devices[index].ack_delay = max(0.0, seconds)

    def total_fifo_violations(self) -> int:
        return sum(d.fifo_violations for d in self.devices)

    def total_batches(self) -> int:
        return sum(d.batches_applied for d in self.devices)

    # -- protocol ------------------------------------------------------------

    def _handle(self, conn: _FarmConnection, method: str, params):
        if method == "bind_device":
            (index,) = params
            if not 0 <= int(index) < len(self.devices):
                raise ProtocolError(f"no device {index}")
            conn.device_index = int(index)
            return {}
        device = self.devices[conn.device_index]
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
