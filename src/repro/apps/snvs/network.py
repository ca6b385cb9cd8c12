"""A complete running snvs instance: database + controller + switch.

``SnvsNetwork`` wires up the full stack the way the paper's integration
test does ("executes the full network stack, using OVSDB, the DDlog
runtime, and the P4 behavioral simulator") and exposes the operations a
network administrator would perform against the management plane —
everything else (rule evaluation, table programming, learning) happens
through the Nerpa machinery.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.apps.snvs.artifacts import build_snvs
from repro.core.controller import NerpaController
from repro.mgmt.database import Database
from repro.p4.headers import ethernet, mac_to_int
from repro.p4.simulator import Simulator


class SnvsNetwork:
    """One virtual switch managed through the full Nerpa stack.

    It starts its controller; :meth:`close` (or leaving a ``with``
    block) stops it.
    """

    def __init__(self, n_ports: int = 64, learning: bool = True,
                 recursive_mode: str = "dred"):
        self.project = build_snvs(recursive_mode=recursive_mode)
        self.db = Database(self.project.schema)
        self.switch: Simulator = self.project.new_simulator(n_ports=n_ports)
        self.controller = NerpaController(
            self.project, self.db, [self.switch]
        )
        self.controller.start()
        self.set_learning(learning)

    def close(self) -> None:
        """Stop the controller (again: a no-op)."""
        self.controller.stop()

    def __enter__(self) -> "SnvsNetwork":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- management operations (what an admin would do) ---------------------

    def add_vlan(self, vid: int, description: str = "") -> str:
        (result,) = self.db.transact(
            [
                {
                    "op": "insert",
                    "table": "Vlan",
                    "row": {"vid": vid, "description": description},
                }
            ]
        )
        self.controller.drain()
        return result["uuid"]

    def add_access_port(self, port: int, vlan: int, name: str = "") -> str:
        (result,) = self.db.transact(
            [
                {
                    "op": "insert",
                    "table": "Port",
                    "row": {
                        "name": name or f"port{port}",
                        "port_num": port,
                        "vlan_mode": "access",
                        "tag": vlan,
                    },
                }
            ]
        )
        self.controller.drain()
        return result["uuid"]

    def add_trunk_port(
        self,
        port: int,
        native_vlan: int,
        trunks: Sequence[int],
        name: str = "",
    ) -> str:
        (result,) = self.db.transact(
            [
                {
                    "op": "insert",
                    "table": "Port",
                    "row": {
                        "name": name or f"port{port}",
                        "port_num": port,
                        "vlan_mode": "trunk",
                        "tag": native_vlan,
                        "trunks": frozenset(trunks),
                    },
                }
            ]
        )
        self.controller.drain()
        return result["uuid"]

    def remove_port(self, port: int) -> None:
        self.db.transact(
            [
                {
                    "op": "delete",
                    "table": "Port",
                    "where": [["port_num", "==", port]],
                }
            ]
        )
        self.controller.drain()

    def add_mirror(self, src_port: int, dst_port: int, name: str = "") -> str:
        (result,) = self.db.transact(
            [
                {
                    "op": "insert",
                    "table": "Mirror",
                    "row": {
                        "name": name or f"mirror{src_port}",
                        "src_port": src_port,
                        "dst_port": dst_port,
                    },
                }
            ]
        )
        self.controller.drain()
        return result["uuid"]

    def block_mac(self, vlan: int, mac: str) -> str:
        (result,) = self.db.transact(
            [
                {
                    "op": "insert",
                    "table": "BlockedMac",
                    "row": {"vlan": vlan, "mac": mac_to_int(mac)},
                }
            ]
        )
        self.controller.drain()
        return result["uuid"]

    def set_learning(self, enabled: bool) -> None:
        self.db.transact(
            [
                {"op": "delete", "table": "SwitchConfig", "where": []},
                {
                    "op": "insert",
                    "table": "SwitchConfig",
                    "row": {"name": "snvs", "learning_enabled": enabled},
                },
            ]
        )
        self.controller.drain()

    # -- traffic -----------------------------------------------------------------

    def send(
        self,
        port: int,
        dst: str,
        src: str,
        vlan: Optional[int] = None,
        payload: bytes = b"",
    ) -> List[Tuple[int, bytes]]:
        """Inject an Ethernet frame; returns ``[(egress_port, bytes)]``.

        Digests emitted during processing feed straight back into the
        controller (in-process), so MAC learning takes effect before
        this call returns.
        """
        frame = ethernet(dst, src, vlan=vlan, payload=payload)
        outputs = self.switch.inject(port, frame)
        # Digest feedback rides the staged pipeline; drain it so
        # learning is visible before the next frame.
        self.controller.drain()
        return outputs

    # -- inspection ---------------------------------------------------------------

    def fwd_entries(self) -> int:
        return len(self.switch.table("fwd"))

    def metrics(self):
        return self.controller.metrics()
