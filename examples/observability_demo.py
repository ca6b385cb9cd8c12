#!/usr/bin/env python3
"""Cross-plane observability: one update-id from transact to table write.

Enables `repro.obs` in detail mode, drives a config change through the
full stack, and prints the causal trace: the management-plane transact
mints an update-id that rides through the controller sync, the engine's
incremental evaluation (with per-operator tuple counts and timings),
and the resulting P4Runtime table writes — one id, per-stage durations.
Then a data-plane packet triggers a MAC-learning digest whose feedback
transaction links back to the config change that installed the entries.

Run:  python examples/observability_demo.py
"""

from repro import obs
from repro.apps.snvs import SnvsNetwork

A = "aa:00:00:00:00:0a"
B = "aa:00:00:00:00:0b"


def main():
    obs.enable(detail=True)
    try:
        print("Standing up snvs with observability enabled (detail tier)...")
        with SnvsNetwork(n_ports=8) as net:
            print("Configuring VLAN 10 with two access ports...\n")
            net.add_vlan(10)
            net.add_access_port(0, vlan=10)
            net.add_access_port(1, vlan=10)

            uid = obs.TRACER.latest_update_id(name="mgmt.transact")
            print(f"Trace of the last config change (update-id {uid}):")
            print(obs.TRACER.render(uid))

            print("\nB (port 1) sends to A: the switch emits a learning digest")
            net.send(1, A, B)
            digest_span = [
                s for s in obs.TRACER.spans() if s.name == "controller.digest"
            ][-1]
            print(
                f"  digest '{digest_span.attrs['digest']}' processed as "
                f"{digest_span.update_id}, links back to config change "
                f"{digest_span.attrs['link']}"
            )
            print("  feedback trace:")
            print(obs.TRACER.render(digest_span.update_id))

            print("\nMetrics registry (Prometheus-style):")
            print(obs.REGISTRY.to_text())
    finally:
        obs.disable()
        obs.reset()


if __name__ == "__main__":
    main()
