"""Seeded op streams for the four workloads.

A :class:`Workload` is the program, the fleet size, the cold-start
commit and the list of measured commits, each a list of management
operations *without* the marker (the runner appends ``Beat.seq := n``).
``--seed`` is the only randomness: the same seed gives the same
streams, byte for byte (``stream_digest``).

The E5 mix, the E3 load-balancer layout and the fat-tree construction
are copied here rather than imported from ``repro.workloads`` so that a
change under ``src/`` cannot alter the load the benchmark offers.
"""

import hashlib
import json
import random

from benchmarks.e2e import programs

#: The measured phase is a fixed *commit count*, not a clock interval,
#: so that the same seed does the same work on every run and on both
#: sides of a comparison.  These are the counts at BENCHMARK.json's
#: ``run_seconds`` (each takes about that long on the reference box);
#: any other ``--seconds`` scales them in proportion, and compare.py
#: refuses to compare result sets of different lengths.
RUN_SECONDS = 15
COMMITS = {
    "churn_fleet": 900,
    "churn_waves": 3200,  # 200 waves of 16
    "lb_replace": 260,
    "reroute": 108,  # one pass over the fat-tree's 108 links
}

WHY = {
    "churn_fleet": (
        "one-row commits fanned to 64 devices: single-reactor encode+send "
        "is the whole latency (core.fanout, net.aio, p4runtime)"
    ),
    "churn_waves": (
        "same fleet, 16 back-to-back commits per wave: backlog forms, so "
        "queue coalescing and serial mgmt round trips set the result"
    ),
    "lb_replace": (
        "2 devices, ~800 table writes per commit: per-entry conversion, "
        "wire encode and device apply dominate; fan-out width does nothing"
    ),
    "reroute": (
        "recursive shortest-path routing on a k=6 fat-tree under link "
        "failures: DRed re-derivation in dlog is nearly all of the commit"
    ),
}

WAVE = 16
#: Slices the measured phase is cut into (see run.py).
SLICES = 10


class Workload:
    def __init__(self, name, program, n_devices, cold_start, commits, wave=1):
        self.name = name
        self.program = program
        self.n_devices = n_devices
        #: Ops of the cold-start commit (applied on every device in set-up).
        self.cold_start = cold_start
        #: One op list per measured commit.
        self.commits = commits
        #: Commits sent back to back before waiting for convergence.
        self.wave = wave

    def stream_digest(self) -> str:
        """SHA-256 over the whole op stream (cold start + commits)."""
        blob = json.dumps(
            [self.cold_start, self.commits], sort_keys=True
        ).encode()
        return hashlib.sha256(blob).hexdigest()


def _insert(table, row):
    return {"op": "insert", "table": table, "row": row}


def _delete(table, **where):
    return {
        "op": "delete",
        "table": table,
        "where": [[col, "==", value] for col, value in where.items()],
    }


# -- churn: the E5 Robotron mix over a patch-panel model -----------------------

N_PORTS = 256
N_VLANS = 16


def _churn(seed, n_commits):
    """70 % attribute updates, 15 % adds, 15 % deletes, one row each."""
    rng = random.Random(seed)
    live = {port: 1 + port % N_VLANS for port in range(N_PORTS)}
    cold = [
        _insert("PortCfg", {"port": port, "out_port": out})
        for port, out in live.items()
    ]
    next_port = N_PORTS
    commits = []
    for _ in range(n_commits):
        roll = rng.random()
        if roll < 0.70 and live:
            port = rng.choice(sorted(live))
            # Always a different value, so every update reaches the
            # devices as one changed patch entry.
            out = rng.choice(
                [v for v in range(1, N_VLANS + 1) if v != live[port]]
            )
            live[port] = out
            commits.append(
                [
                    {
                        "op": "update",
                        "table": "PortCfg",
                        "where": [["port", "==", port]],
                        "row": {"out_port": out},
                    }
                ]
            )
        elif roll < 0.85 or not live:
            port, next_port = next_port, next_port + 1
            live[port] = rng.randrange(1, N_VLANS + 1)
            commits.append(
                [_insert("PortCfg", {"port": port, "out_port": live[port]})]
            )
        else:
            port = rng.choice(sorted(live))
            del live[port]
            commits.append([_delete("PortCfg", port=port)])
    return cold, commits


# -- lb_replace: the E3 load-balancer layout, rolling replacement --------------

N_LBS = 20
BACKENDS_PER_LB = 50
N_SWITCHES = 8


def _lb_rows(rng, lb, backends_per_lb, n_switches):
    vip = 0x0A000000 + lb
    backends = [
        0x0B000000 + lb * backends_per_lb + i for i in range(backends_per_lb)
    ]
    rng.shuffle(backends)
    ops = [
        _insert("LbVip", {"lb": lb, "vip": vip, "backend": backend})
        for backend in backends
    ]
    # Every LB is attached to every switch (OVN's pathological case).
    ops += [
        _insert("LbSwitch", {"lb": lb, "switch": switch})
        for switch in range(n_switches)
    ]
    return ops


def _lb_replace(seed, n_commits, n_lbs, *shape):
    """Each commit deletes the oldest load balancer and inserts a fresh
    one; ``shape`` is (backends per LB, switches)."""
    rng = random.Random(seed)
    cold = [op for lb in range(n_lbs) for op in _lb_rows(rng, lb, *shape)]
    commits = []
    for i in range(n_commits):
        commits.append(
            [_delete("LbVip", lb=i), _delete("LbSwitch", lb=i)]
            + _lb_rows(rng, n_lbs + i, *shape)
        )
    return cold, commits


# -- reroute: rolling single-link failures on a fat-tree -----------------------

FAT_TREE_K = 6


def fat_tree_links(k):
    """Undirected links of a k-ary fat-tree's switch fabric: core
    switches first, then per pod k/2 aggregation and k/2 edge switches."""
    half = k // 2
    n_core = half * half
    links = []
    for pod in range(k):
        for a in range(half):
            agg = n_core + pod * k + a
            for c in range(half):
                links.append((agg, a * half + c))
            for e in range(half):
                links.append((agg, n_core + pod * k + half + e))
    return links


def _both_ways(op, link):
    a, b = link
    if op == "insert":
        return [
            _insert("Link", {"src": a, "dst": b}),
            _insert("Link", {"src": b, "dst": a}),
        ]
    return [_delete("Link", src=a, dst=b), _delete("Link", src=b, dst=a)]


def _reroute(seed, n_commits, k):
    """Fail the links in seeded-shuffled passes over the whole fabric,
    so every seed exercises every kind of link about equally often."""
    rng = random.Random(seed)
    links = fat_tree_links(k)
    cold = [op for link in links for op in _both_ways("insert", link)]
    commits = []
    failed = None
    order = []
    for _ in range(n_commits):
        if not order:
            order = links[:]
            rng.shuffle(order)
            if order[-1] == failed:
                order.reverse()
        victim = order.pop()
        ops = _both_ways("delete", victim)
        if failed is not None:
            ops += _both_ways("insert", failed)
        failed = victim
        commits.append(ops)
    return cold, commits


def build(name, seed, seconds, quick=False):
    """The named workload, sized for a ``seconds``-long measured phase.

    ``quick`` shrinks the fleets and models to smoke-test sizes.
    """
    n = max(2 * SLICES, round(COMMITS[name] * seconds / RUN_SECONDS))
    if name in ("churn_fleet", "churn_waves"):
        wave = WAVE if name == "churn_waves" else 1
        n = max(2 * wave, n - n % wave)
        cold, commits = _churn(seed, n)
        devices = 8 if quick else 64
        return Workload(name, programs.CHURN, devices, cold, commits, wave)
    if name == "lb_replace":
        shape = (4, 10, 2) if quick else (N_LBS, BACKENDS_PER_LB, N_SWITCHES)
        cold, commits = _lb_replace(seed, n, *shape)
        return Workload(name, programs.LB, 2, cold, commits)
    if name == "reroute":
        cold, commits = _reroute(seed, n, 4 if quick else FAT_TREE_K)
        return Workload(name, programs.REROUTE, 4, cold, commits)
    raise ValueError(f"unknown workload {name!r}")


NAMES = tuple(COMMITS)
