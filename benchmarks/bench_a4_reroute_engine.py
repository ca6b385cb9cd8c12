"""A4 — the e2e ``reroute`` workload's engine alone.

The end-to-end ``reroute`` workload (``benchmarks/e2e``) spends most of
each commit in one engine transaction.  This bench runs that
transaction without the stack around it: the workload's rules minus
the P4 head (``Route``), over the links of a k=6 fat-tree, through
rolling single-link failures — each flap fails one link (both
directions) and restores the previous one, in seeded shuffled passes
over the fabric, exactly like the e2e workload's commits.

``Hop``'s counter is bounded by a literal (``n < 4``), so
:mod:`repro.dlog.layers` plans it as four non-recursive layers
(``Hop@1`` … ``Hop@4``) maintained by counting, with no recursive
evaluator.  The bench reports ms per transaction (p50/p90), the cold
transaction that derives every walk, and ``Hop`` rows removed per flap.
Both gates are box-independent.  On the same flaps, an incremental
transaction must be at least 8x faster than
``recursive_mode="recompute"`` (the full fixpoint per transaction, which
is not rewritten into layers), and both must end in the same state.
The runtimes take turns over the flaps in blocks of ten — the ablation
runs a block, then the incremental runtime runs the same block — and
the ratio is that of their medians over all the flaps, so a box that
slows down part-way slows both.  Blocks, not single flaps: a flap timed
right after a recompute fixpoint starts with the CPU caches full of the
other runtime's derivation, which slowed every incremental flap by
about a fifth when the two alternated flap by flap.  The collector is
off while a block is timed and collects before each, so neither
runtime pays for the other's garbage.  And a flap may make at most
9,000 Python-level calls (``sys.setprofile`` ``"call"`` events over the
flaps after the cold transaction): rule bodies run as generated
functions, one call per variant and row, where a chain of closures made
18.7k calls per flap.

A *DRed twin* takes its turn in the same blocks: the same rules with the
bound read from a one-row input (``MaxHops(4)``, ``n < k``), which the
layer proof rejects, so ``Hop`` runs as a recursive SCC under DRed (an
over-delete and rederive per flap), as it did before layers.  Its ms per
transaction and its ratio to the layered runtime are reported, not
gated; A2 and E4 gate DRed on unbounded reachability.

A separate pass over the same flaps, under the detail obs tier (each
``Graph.run`` records a ``profile=`` sample per dataflow node), reports
where a transaction goes: ms per transaction and share of operator time
for the layer joins (``Hop@k ⋈ Link``), the two ``min`` aggregates and
the ``Dist ⋈ Hop`` join, and for the DRed twin's SCC.  These are
reported figures, not gates.
"""

import gc
import random
import statistics
import sys
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

#: ``PROGRAM`` with its bound read from a one-row input: the same
#: walks, but no literal bounds ``n``, so ``Hop`` stays a recursive SCC
#: (DRed).  Its cold transaction inserts ``MaxHops(4)``.
DRED_PROGRAM = """
input relation Link(id: bigint, src: bigint, dst: bigint)
input relation MaxHops(k: bigint)
relation Hop(src: bigint, dst: bigint, first: bigint, n: bigint)
relation Dist(src: bigint, dst: bigint, d: bigint)
output relation NextHop(src: bigint, dst: bigint, first: bigint)

Hop(a, b, b, 1) :- Link(_, a, b).
Hop(a, c, f, n + 1) :- Hop(a, b, f, n), MaxHops(k), n < k,
    Link(_, b, c), a != c.
Dist(a, c, d) :- Hop(a, c, _, n), var d = Aggregate((a, c), min(n)).
NextHop(a, c, f) :- Dist(a, c, d), Hop(a, c, h, d),
    var f = Aggregate((a, c), min(h)).
"""

#: The runtimes the bench compares: ``(program, recursive_mode)``.
RUNTIMES = {
    "recompute": (PROGRAM, "recompute"),
    "layers": (PROGRAM, "dred"),
    "dred twin": (DRED_PROGRAM, "dred"),
}

K = 6
N_FLAPS = 60
GATE_X = 8.0
#: Flaps one runtime runs before the other takes its turn.
BLOCK = 10
#: Python-level calls per flap (half the 18.7k of step-chain closures).
GATE_CALLS = 9000
#: Operator kinds the attribution reports, by dataflow node name; a
#: node counts toward the first kind whose marker it contains (a layer
#: rule is named ``rule@N[layer k]``).
KINDS = {
    "layer_join": "]:join(",
    "aggregate": "aggregate(",
    "join": ":join(",
    "scc": "scc(",
}


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


def start_runtime(name, cold):
    """``RUNTIMES[name]`` started, and its cold transaction's seconds."""
    text, mode = RUNTIMES[name]
    runtime = compile_program(text, recursive_mode=mode).start()
    inserts = {"Link": cold}
    if text is DRED_PROGRAM:
        inserts["MaxHops"] = [(4,)]
    started = time.perf_counter()
    runtime.transaction(inserts=inserts)
    return runtime, time.perf_counter() - started


def run(name, cold, txns):
    """Cold transaction, then ``txns``; returns ``(cold seconds,
    per-txn seconds, Hop rows removed per txn, runtime)``."""
    runtime, cold_s = start_runtime(name, cold)
    seconds, removed = [], []
    for txn in txns:
        started = time.perf_counter()
        result = runtime.transaction(**txn)
        seconds.append(time.perf_counter() - started)
        removed.append(len(result.deleted("Hop")))
    return cold_s, seconds, removed, runtime


def interleaved(cold, txns):
    """Per-flap seconds of every runtime in :data:`RUNTIMES` over the
    same ``txns``, taking turns in blocks of :data:`BLOCK` flaps, the
    collector off while timing; returns ``{name: (seconds, runtime)}``."""
    runtimes = [start_runtime(name, cold)[0] for name in RUNTIMES]
    seconds = tuple([] for _ in RUNTIMES)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for start in range(0, len(txns), BLOCK):
            for runtime, out in zip(runtimes, seconds):
                gc.collect()
                for txn in txns[start:start + BLOCK]:
                    started = time.perf_counter()
                    runtime.transaction(**txn)
                    out.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return dict(zip(RUNTIMES, zip(seconds, runtimes)))


def calls_per_flap(cold, txns):
    """Python-level function calls per transaction over ``txns``, after
    the cold one (C functions are not counted)."""
    runtime, _ = start_runtime("layers", cold)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for txn in txns:
            runtime.transaction(**txn)
    finally:
        sys.setprofile(previous)
    return calls / len(txns)


def attribute(name, cold, txns):
    """Per operator kind present in runtime ``name``: ``(ms per
    transaction, share of operator time)`` over ``txns``, from the
    detail tier's per-node samples."""
    runtime, _ = start_runtime(name, cold)
    with obs.enabled_scope(detail=True):
        try:
            for txn in txns:
                runtime.transaction(**txn)
        finally:
            obs.reset()
    seconds = {name: stats["seconds"] for name, stats in runtime.operator_totals.items()}
    total = sum(seconds.values())
    spent = dict.fromkeys(KINDS, 0.0)
    for node, s in seconds.items():
        kind = next((k for k, marker in KINDS.items() if marker in node), None)
        if kind is not None:
            spent[kind] += s
    return {
        kind: (s * 1e3 / len(txns), s / total)
        for kind, s in spent.items()
        if s
    }


def _ms(values, q):
    return statistics.quantiles(values, n=100)[q - 1] * 1e3


def test_a4_reroute_engine(benchmark, bench_seed):
    cold, txns = flaps(bench_seed, fat_tree_links(K), N_FLAPS)
    cold_s, seconds, removed, runtime = benchmark.pedantic(
        run, args=("layers", cold, txns), rounds=1, iterations=1
    )
    assert runtime.scc_evaluators == {}
    # The ablation and the DRed twin on the same flaps, interleaved with
    # the layered runtime and checked against it.
    turns = interleaved(cold, txns)
    inc_seconds, inc = turns["layers"]
    for name in ("recompute", "dred twin"):
        assert turns[name][1].dump("NextHop") == inc.dump("NextHop"), name
        assert turns[name][1].dump("Hop") == inc.dump("Hop"), name
    assert len(turns["dred twin"][1].scc_evaluators) == 1
    inc_median = statistics.median(inc_seconds)
    ratio = statistics.median(turns["recompute"][0]) / inc_median
    twin_median = statistics.median(turns["dred twin"][0])
    twin_ratio, twin_ms = twin_median / inc_median, twin_median * 1e3

    p50, p90 = _ms(seconds, 50), _ms(seconds, 90)
    hop_removes = statistics.mean(removed)
    calls = calls_per_flap(cold, txns)
    shares = attribute("layers", cold, txns)
    twin_shares = attribute("dred twin", cold, txns)
    report(
        f"A4: reroute engine, k={K} fat-tree, {N_FLAPS} rolling flaps",
        [
            ("ms/txn p50", f"{p50:.2f}", ""),
            ("ms/txn p90", f"{p90:.2f}", ""),
            ("cold txn", f"{cold_s * 1e3:.1f} ms", ""),
            ("Hop removes/flap", f"{hop_removes:.1f}", ""),
            (f"recompute/incremental ({N_FLAPS} flaps, blocks of {BLOCK})",
             f"{ratio:.1f}x", f"gate: >= {GATE_X:.0f}x"),
            ("Python calls/flap", f"{calls:,.0f}", f"gate: <= {GATE_CALLS:,}"),
            *(
                (f"{kind} ms/txn (share)", f"{ms:.2f} ({share:.0%})",
                 "detail tier, reported")
                for kind, (ms, share) in shares.items()
            ),
            ("DRed twin ms/txn p50", f"{twin_ms:.2f}",
             f"interleaved, reported: {twin_ratio:.2f}x layers"),
            *(
                (f"DRed twin {kind} ms/txn (share)", f"{ms:.2f} ({share:.0%})",
                 "detail tier, reported")
                for kind, (ms, share) in twin_shares.items()
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
    emit("a4", "python_calls_per_flap", "calls", round(calls), threshold=GATE_CALLS)
    for kind, (ms, share) in shares.items():
        emit("a4", f"{kind}_ms_per_txn", "ms", round(ms, 3), share=round(share, 3))
    emit(
        "a4", "dred_twin_txn_p50", "ms", round(twin_ms, 3),
        vs_layers_x=round(twin_ratio, 2),
    )
    for kind, (ms, share) in twin_shares.items():
        emit(
            "a4", f"dred_twin_{kind}_ms_per_txn", "ms", round(ms, 3),
            share=round(share, 3),
        )
    assert ratio >= GATE_X
    assert calls <= GATE_CALLS
