"""A4 — the e2e ``reroute`` workload's engine alone.

The end-to-end ``reroute`` workload (``benchmarks/e2e``) spends most of
each commit in one engine transaction.  This bench runs that
transaction without the stack around it: the workload's rules minus
the P4 head (``Route``), over the links of a k=6 fat-tree, through
rolling single-link failures — each flap fails one link (both
directions) and restores the previous one, in seeded shuffled passes
over the fabric, exactly like the e2e workload's commits.

It reports ms per transaction (p50/p90), the cold transaction that
derives every walk, and ``Hop`` rows removed per flap.  The gate is
box-independent: on the same flaps, an incremental transaction must be
at least 8x faster than ``recursive_mode="recompute"`` (the full
fixpoint per transaction), and both must end in the same state.

A separate pass over the same flaps, under the detail obs tier (each
``Graph.run`` records a ``profile=`` sample per dataflow node), reports
where a transaction goes: ms per transaction and share of operator time
for the SCC, the two ``min`` aggregates and the ``Dist ⋈ Hop`` join.
These are reported figures, not gates.
"""

import random
import statistics
import time

from benchmarks.conftest import emit, report
from benchmarks.e2e.workloads import fat_tree_links
from repro import obs
from repro.dlog import compile_program

#: The e2e ``reroute`` program's rules without the P4 ``Route`` head;
#: ``Link``'s first column stands in for the management row's uuid.
PROGRAM = """
input relation Link(id: bigint, src: bigint, dst: bigint)
relation Hop(src: bigint, dst: bigint, first: bigint, n: bigint)
relation Dist(src: bigint, dst: bigint, d: bigint)
output relation NextHop(src: bigint, dst: bigint, first: bigint)

Hop(a, b, b, 1) :- Link(_, a, b).
Hop(a, c, f, n + 1) :- Hop(a, b, f, n), n < 4, Link(_, b, c), a != c.
Dist(a, c, d) :- Hop(a, c, _, n), var d = Aggregate((a, c), min(n)).
NextHop(a, c, f) :- Dist(a, c, d), Hop(a, c, h, d),
    var f = Aggregate((a, c), min(h)).
"""

K = 6
N_FLAPS = 60
#: Flaps the recompute ablation runs (a full fixpoint per flap).
N_RECOMPUTE = 6
GATE_X = 8.0
#: Operator kinds the attribution reports, by dataflow node name.
KINDS = {"scc": "scc(", "aggregate": "aggregate(", "join": ":join("}


def _rows(link, ids):
    a, b = link
    return [(ids[(a, b)], a, b), (ids[(b, a)], b, a)]


def flaps(seed, links, n):
    """``n`` transactions: fail one link, restore the previously failed
    one; victims come in seeded shuffled passes over every link."""
    rng = random.Random(seed)
    ids = {}
    for a, b in links:
        ids[(a, b)] = len(ids)
        ids[(b, a)] = len(ids)
    out, order, failed = [], [], None
    for _ in range(n):
        if not order:
            order = links[:]
            rng.shuffle(order)
            if order[-1] == failed:
                order.reverse()
        victim = order.pop()
        inserts = _rows(failed, ids) if failed is not None else []
        out.append({"deletes": {"Link": _rows(victim, ids)},
                    "inserts": {"Link": inserts}})
        failed = victim
    cold = [row for link in links for row in _rows(link, ids)]
    return cold, out


def run(mode, cold, txns):
    """Cold transaction, then ``txns``; returns ``(cold seconds,
    per-txn seconds, Hop rows removed per txn, runtime)``."""
    runtime = compile_program(PROGRAM, recursive_mode=mode).start()
    started = time.perf_counter()
    runtime.transaction(inserts={"Link": cold})
    cold_s = time.perf_counter() - started
    seconds, removed = [], []
    for txn in txns:
        started = time.perf_counter()
        result = runtime.transaction(**txn)
        seconds.append(time.perf_counter() - started)
        removed.append(len(result.deleted("Hop")))
    return cold_s, seconds, removed, runtime


def attribute(cold, txns):
    """Per operator kind: ``(ms per transaction, share of operator
    time)`` over ``txns``, from the detail tier's per-node samples."""
    runtime = compile_program(PROGRAM).start()
    runtime.transaction(inserts={"Link": cold})
    with obs.enabled_scope(detail=True):
        try:
            for txn in txns:
                runtime.transaction(**txn)
        finally:
            obs.reset()
    seconds = {name: stats["seconds"] for name, stats in runtime.operator_totals.items()}
    total = sum(seconds.values())
    out = {}
    for kind, marker in KINDS.items():
        spent = sum(s for name, s in seconds.items() if marker in name)
        out[kind] = (spent * 1e3 / len(txns), spent / total)
    return out


def _ms(values, q):
    return statistics.quantiles(values, n=100)[q - 1] * 1e3


def test_a4_reroute_engine(benchmark, bench_seed):
    cold, txns = flaps(bench_seed, fat_tree_links(K), N_FLAPS)
    cold_s, seconds, removed, _ = benchmark.pedantic(
        run, args=("dred", cold, txns), rounds=1, iterations=1
    )
    # The ablation on a prefix of the same flaps, checked against an
    # incremental run stopped at the same point.
    _, full_seconds, _, full = run("recompute", cold, txns[:N_RECOMPUTE])
    _, inc_seconds, _, inc = run("dred", cold, txns[:N_RECOMPUTE])
    assert full.dump("NextHop") == inc.dump("NextHop")
    assert full.dump("Hop") == inc.dump("Hop")
    ratio = statistics.median(full_seconds) / statistics.median(inc_seconds)

    p50, p90 = _ms(seconds, 50), _ms(seconds, 90)
    hop_removes = statistics.mean(removed)
    shares = attribute(cold, txns)
    report(
        f"A4: reroute engine, k={K} fat-tree, {N_FLAPS} rolling flaps",
        [
            ("ms/txn p50", f"{p50:.2f}", ""),
            ("ms/txn p90", f"{p90:.2f}", ""),
            ("cold txn", f"{cold_s * 1e3:.1f} ms", ""),
            ("Hop removes/flap", f"{hop_removes:.1f}", ""),
            (f"recompute/incremental ({N_RECOMPUTE} flaps)",
             f"{ratio:.1f}x", f"gate: >= {GATE_X:.0f}x"),
            *(
                (f"{kind} ms/txn (share)", f"{ms:.2f} ({share:.0%})",
                 "detail tier, reported")
                for kind, (ms, share) in shares.items()
            ),
        ],
        ["metric", "measured", "reference"],
    )
    emit("a4", "txn_p50", "ms", round(p50, 3), p90_ms=round(p90, 3))
    emit("a4", "cold_txn", "ms", round(cold_s * 1e3, 2))
    emit("a4", "hop_removes_per_flap", "rows", round(hop_removes, 1))
    emit(
        "a4", "recompute_vs_incremental", "ratio_x", round(ratio, 1),
        threshold=GATE_X,
    )
    for kind, (ms, share) in shares.items():
        emit("a4", f"{kind}_ms_per_txn", "ms", round(ms, 3), share=round(share, 3))
    assert ratio >= GATE_X
