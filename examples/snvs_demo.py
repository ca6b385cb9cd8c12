#!/usr/bin/env python3
"""The paper's §4.3 example: snvs, the simple network virtual switch.

Demonstrates every snvs feature end-to-end through the full stack:
VLAN isolation, trunk tagging, MAC learning through the digest feedback
loop, an L2 ACL, and port mirroring — all driven purely by management-
plane writes.

Run:  python examples/snvs_demo.py
"""

from repro.apps.snvs import SnvsNetwork
from repro.p4.headers import EthernetView

A = "aa:00:00:00:00:0a"
B = "aa:00:00:00:00:0b"
EVIL = "ee:00:00:00:00:01"


def show(outputs):
    return sorted(
        (port, "tagged" if EthernetView(data).vlan is not None else "plain")
        for port, data in outputs
    )


def main():
    print("Standing up snvs (database + controller + behavioral switch)...")
    with SnvsNetwork(n_ports=16) as net:
        report = net.project.loc_report()
        print(
            f"  control plane: {report['dlog_rules']} hand-written rule lines, "
            f"{report['dlog_generated']} generated lines, "
            f"{report['schema_tables']} management tables\n"
        )

        print("Configuring VLANs 10 and 20, six access ports, one trunk...")
        net.add_vlan(10, "tenant A")
        net.add_vlan(20, "tenant B")
        for port in (0, 1, 2):
            net.add_access_port(port, vlan=10)
        for port in (4, 5):
            net.add_access_port(port, vlan=20)
        net.add_trunk_port(8, native_vlan=10, trunks=[10, 20])
        print(f"  in_vlan entries: {len(net.switch.table('in_vlan'))}")
        print(f"  flood groups: { {g: p for g, p in net.switch.multicast_groups.items()} }\n")

        print("A (port 0) sends to unknown B: floods VLAN 10 only")
        print("  ->", show(net.send(0, B, A)))
        print(f"  learning installed {net.fwd_entries()} forwarding entr(y/ies)")

        print("B (port 1) replies: unicast straight to A's port")
        print("  ->", show(net.send(1, A, B)), "\n")

        print("Tagged frame (VLAN 20) into the trunk: floods VLAN 20 members")
        print("  ->", show(net.send(8, A, B, vlan=20)), "\n")

        print("Blocking the EVIL mac on VLAN 10...")
        net.block_mac(10, EVIL)
        print("  EVIL's frame ->", net.send(0, B, EVIL), "(dropped)\n")

        print("Mirroring port 0 to port 15...")
        net.add_mirror(src_port=0, dst_port=15)
        print("  A sends again ->", show(net.send(0, B, A)))

        print("\nController metrics:", net.metrics())


if __name__ == "__main__":
    main()
