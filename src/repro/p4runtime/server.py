"""TCP server exposing a simulated device through the P4Runtime-style API.

Methods:

* ``echo [...]`` — returns its params (keepalive/heartbeat);
* ``get_p4info []``
* ``write [update, ...]`` — atomic batch of table writes;
* ``apply_batch [{"updates", "mcast", "update_ids"}]`` — one
  coalesced pipeline batch: multicast config plus an atomic write
  batch, carrying every merged transaction's update-id;
* ``read_table [table]``
* ``set_default_action [table, action, params]``
* ``set_multicast_group [group_id, ports]`` / ``delete_multicast_group``
* ``inject [port, hex_bytes]`` — test/bench hook: run a packet, return
  ``[[port, hex], ...]`` outputs;
* ``subscribe_digests []`` — digest notifications
  (``{"method": "digest", "params": [name, values]}``) flow to this
  connection as packets produce them;
* ``subscribe_packet_ins []`` / ``packet_out [port, hex]`` — the CPU
  punt path: packets the pipeline sends to the CPU port arrive as
  ``{"method": "packet_in", "params": [ingress_port, hex]}``.

:data:`DEVICE_METHODS` holds the methods that only need a
:class:`~repro.p4runtime.api.DeviceService`; the simulated-device farm
(:mod:`repro.p4runtime.farm`) serves its devices with the same table.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.mgmt.jsonrpc import make_notification
from repro.net.server import RpcConnection, RpcServer
from repro.obs.trace import UPDATE_ID
from repro.p4.simulator import DigestMessage, Simulator
from repro.p4runtime.api import DeviceService, encode_update


def _apply_batch(service: DeviceService, params):
    # One coalesced pipeline batch: multicast config + atomic table
    # writes + the update-ids of every merged transaction (the newest
    # becomes the config epoch).
    (envelope,) = params
    mcast = envelope.get("mcast")
    if mcast:
        mcast = {int(group): ports for group, ports in mcast}
    update_ids = envelope.get("update_ids")
    token = UPDATE_ID.set(update_ids[-1] if update_ids else None)
    try:
        applied = service.apply_batch(
            envelope.get("updates"), mcast, envelope.get("fence")
        )
    finally:
        UPDATE_ID.reset(token)
    return {"applied": applied}


def _set_config_epoch(service: DeviceService, params):
    # A second param (fenced form) carries the writer's fencing epoch;
    # a deposed leader's resync must not stamp devices.
    service.set_config_epoch(params[0], params[1] if len(params) > 1 else None)
    return {}


def _read_table(service: DeviceService, params):
    (table,) = params
    return {
        "entries": [
            encode_update("INSERT", table, key, value)
            for key, value in service.read_table(table)
        ]
    }


def _set_multicast_group(service: DeviceService, params):
    group_id, ports = params
    service.set_multicast_group(group_id, ports)
    return {}


def _delete_multicast_group(service: DeviceService, params):
    (group_id,) = params
    service.delete_multicast_group(group_id)
    return {}


#: ``method -> handler(service, params)`` for every method a
#: :class:`DeviceService` answers on its own.
DEVICE_METHODS = {
    "echo": lambda service, params: params,
    "write": lambda service, params: {"applied": service.apply_updates(params)},
    "apply_batch": _apply_batch,
    "get_config_epoch": lambda service, _: {"epoch": service.get_config_epoch()},
    "set_config_epoch": _set_config_epoch,
    "read_table": _read_table,
    "set_multicast_group": _set_multicast_group,
    "delete_multicast_group": _delete_multicast_group,
}


class P4RuntimeServer(RpcServer):
    """Serves one simulator over TCP.  A connection's session is the
    set of notification streams it subscribed to.

    While started, the server is chained onto the simulator's digest
    and packet-in callbacks — so digests of in-process ``inject`` calls
    reach subscribers too — and ``stop()`` restores the callbacks it
    found."""

    name = "p4rt"

    def __init__(self, sim: Simulator, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        self.sim = sim
        self.service = DeviceService(sim)
        self._prev_digest = None
        self._prev_packet_in = None

    def start(self) -> "P4RuntimeServer":
        super().start()
        sim = self.sim
        self._prev_digest = sim.digest_callback
        sim.digest_callback = self._on_digest
        self._prev_packet_in = sim.packet_in_callback
        sim.packet_in_callback = self._on_packet_in
        return self

    def stop(self) -> None:
        sim = self.sim
        # Only while still the head of the chain: a hook chained on top
        # of ours since keeps calling us (we pass on to the previous).
        if sim.digest_callback == self._on_digest:
            sim.digest_callback = self._prev_digest
        if sim.packet_in_callback == self._on_packet_in:
            sim.packet_in_callback = self._prev_packet_in
        super().stop()

    def handle(self, conn: RpcConnection, method: str, params):
        service = self.service
        serve = DEVICE_METHODS.get(method)
        if serve is not None:
            return serve(service, params)
        if method == "get_p4info":
            return service.p4info()
        if method == "set_default_action":
            table, action, action_params = params
            service.set_default_action(table, action, action_params)
            return {}
        if method == "inject":
            port, hex_data = params
            outputs = self.sim.inject(port, bytes.fromhex(hex_data))
            self.flush_digests()
            return {"outputs": [[p, data.hex()] for p, data in outputs]}
        if method in ("subscribe_digests", "subscribe_packet_ins"):
            if conn.session is None:
                conn.session = set()
            conn.session.add(method)
            return {}
        if method == "packet_out":
            port, hex_data = params
            outputs = service.packet_out(port, bytes.fromhex(hex_data))
            self.flush_digests()
            return {"outputs": [[p, data.hex()] for p, data in outputs]}
        raise ProtocolError(f"unknown method {method!r}")

    def _subscribers(self, stream: str) -> list:
        return [
            conn for conn in self.connections()
            if conn.session is not None and stream in conn.session
        ]

    def _on_digest(self, digest: DigestMessage) -> None:
        if self._prev_digest is not None:
            self._prev_digest(digest)
        self._broadcast_digest(digest)

    def _broadcast_digest(self, digest: DigestMessage) -> None:
        params = [digest.name, list(digest.values)]
        uid = getattr(digest, "update_id", None)
        if uid is not None:
            params.append(uid)
        for conn in self._subscribers("subscribe_digests"):
            conn.send(make_notification("digest", params))

    def _on_packet_in(self, port: int, data: bytes) -> None:
        if self._prev_packet_in is not None:
            self._prev_packet_in(port, data)
        for conn in self._subscribers("subscribe_packet_ins"):
            conn.send(make_notification("packet_in", [port, data.hex()]))

    def flush_digests(self) -> None:
        """Deliver any digests queued in the simulator."""
        for digest in self.sim.drain_digests():
            self._broadcast_digest(digest)
