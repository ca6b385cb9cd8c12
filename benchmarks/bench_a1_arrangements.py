"""A1 — ablation: arranged (indexed) joins vs. re-scanning joins.

DESIGN.md calls out maintained arrangements as the engine's core design
choice: a delta on one join input only probes the matching key of the
other side.  The ablation replaces the arrangement with the naive
alternative (keep both inputs as flat Z-sets, rescan on every delta)
and measures single-row update latency as the relation grows.
"""

import time
from typing import List, Optional

from benchmarks.conftest import emit, report
from repro.dlog.dataflow import operators
from repro.dlog.dataflow.operators import JoinNode, Node, _port
from repro.dlog.dataflow.zset import ZSet

SIZES = [1000, 4000, 16000]
N_DELTAS = 40


class RescanJoinNode(Node):
    """The ablated join: correct, but O(|input|) per delta."""

    n_ports = 2

    def __init__(self, left_key, right_key, step):
        super().__init__("rescan-join")
        self.left_key = left_key
        self.right_key = right_key
        self.step = step
        self.left = ZSet()
        self.right = ZSet()

    def process(self, deltas: List[Optional[ZSet]]) -> ZSet:
        dl, dr = _port(deltas, 0), _port(deltas, 1)
        out = {}
        self.right.merge(dr)
        for lrec, lw in dl.items():
            key = self.left_key(lrec)
            for rrec, rw in self.right.items():  # full scan
                if self.right_key(rrec) == key:
                    self.step(lrec, rrec, lw * rw, out)
        for rrec, rw in dr.items():
            key = self.right_key(rrec)
            for lrec, lw in self.left.items():  # full scan
                if self.left_key(lrec) == key:
                    self.step(lrec, rrec, lw * rw, out)
        self.left.merge(dl)
        return ZSet(out)


def _drive(node, n_rows):
    # Key space scales with the relation so each key's bucket stays
    # ~10 rows: the matched output per delta is constant, isolating
    # lookup cost from result-size cost.
    n_keys = max(1, n_rows // 10)
    left = ZSet({(i, i % n_keys): 1 for i in range(n_rows)})
    right = ZSet({(i % n_keys, i): 1 for i in range(n_rows)})
    node.process([left, right])
    started = time.perf_counter()
    for i in range(N_DELTAS):
        delta = ZSet({(n_rows + i, (n_rows + i) % n_keys): 1})
        node.process([delta, None])
    return (time.perf_counter() - started) / N_DELTAS


def _pair(a, b, weight, out):
    operators.emit((a[0], b[1]), weight, out)


def make_arranged():
    return JoinNode(lambda a: a[1], lambda b: b[0], _pair)


def make_rescan():
    return RescanJoinNode(lambda a: a[1], lambda b: b[0], _pair)


def run_ablation():
    rows = []
    for n_rows in SIZES:
        arranged = _drive(make_arranged(), n_rows)
        rescan = _drive(make_rescan(), n_rows)
        rows.append((n_rows, arranged, rescan))
    return rows


def test_a1_arrangement_ablation(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    report(
        "A1: single-delta join latency, arranged vs rescan",
        [
            (n, f"{a * 1e6:.0f} us", f"{r * 1e6:.0f} us", f"{r / a:.0f}x")
            for n, a, r in rows
        ],
        ["rows", "arranged", "rescan", "speedup"],
    )

    # Arranged latency is ~flat in relation size; rescan scales with it.
    arranged_growth = rows[-1][1] / rows[0][1]
    rescan_growth = rows[-1][2] / rows[0][2]
    emit(
        "a1", "arranged_vs_rescan_largest", "speedup_x",
        round(rows[-1][2] / rows[-1][1], 1), threshold=20,
    )
    assert arranged_growth < 4
    assert rescan_growth > 4
    assert rows[-1][2] / rows[-1][1] > 20


def test_a1_same_results(benchmark):
    """The ablation must not change semantics."""
    arranged, rescan = benchmark.pedantic(
        lambda: (make_arranged(), make_rescan()), rounds=1, iterations=1
    )
    batches = [
        ({(1, 5): 1, (2, 6): 1}, {(5, 10): 1}),
        ({(3, 5): 1}, {(6, 11): 1, (5, 12): 1}),
        ({(1, 5): -1}, {(5, 10): -1}),
    ]
    acc_a, acc_b = ZSet(), ZSet()
    for dl, dr in batches:
        acc_a.merge(arranged.process([ZSet(dict(dl)), ZSet(dict(dr))]))
        acc_b.merge(rescan.process([ZSet(dict(dl)), ZSet(dict(dr))]))
    assert acc_a == acc_b
