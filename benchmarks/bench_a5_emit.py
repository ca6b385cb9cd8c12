"""A5 — the emit and encode layers of ``lb_replace`` alone.

The end-to-end ``lb_replace`` workload (``benchmarks/e2e``) writes
about 800 table entries per commit to two devices, and most of its
commit → ack latency is spent turning engine output rows into the
bytes of one ``apply_batch`` request.  This bench runs exactly that
path with no engine transaction and no socket in the timed region: one
rolling-replace commit's output delta (one load balancer's ``Nat`` rows
deleted, a fresh one's inserted, plus the probe entry) goes through the
controller's fan-out (``NerpaController._fan_out``), the batch's write
list (``DeviceBatch.emit_writes``) and the request encoder
(``aio_client._encode_batch``).

It reports µs per output row.  The gates are box-independent ratios
against a plain ``dumps`` of the same finished update list (the JSON
the wire carries anyway), both timed in the same rounds:

* the whole path must cost at most 2.2x that ``dumps`` — the bound set
  when each row still became an update dict that ``dumps`` then walked
  (1.88x then);
* and at most 1.0x it: each table's generated converter writes the
  update's JSON text itself (``TableBinding.wire``) and the encoder
  joins those texts, so the rows cost less than encoding the finished
  dicts would.

Three more gates are counts, so they hold on any box:

* Python-level calls per output row over the whole path
  (``sys.setprofile`` ``"call"`` events, as A4 counts them per flap):
  at most 2.5.  It was 5.3 when the fan-out folded every row into a
  cell and the list held a ``RowWrite`` per row; the batch now holds
  the engine's deltas and a run of rows is one ``wire_run`` call;
* net GC-tracked objects allocated per output row while the batch and
  its write list are held, as they are while a device has the batch in
  flight (``gc.get_count()[0]`` before and after, collector off): at
  most 1.0.  It was 2.7 with a ``[dead, live]`` cell, a ``(binding,
  key)`` tuple and a ``RowWrite`` per row;
* wire bytes per output row, the request params' length over the
  rows: at most 113.32, the figure of this commit (920 rows, 401
  DELETEs and 401 INSERTs, 104,249 bytes) with every DELETE its match
  key and priority alone.  It was 133.36 when each DELETE also carried
  the action and params of the entry it removes (151.9 bytes per
  DELETE where its key is 105.9), so an action creeping back into
  DELETE text fails it.
"""

import gc
import statistics
import sys
import time
from types import SimpleNamespace

from benchmarks.conftest import emit, report
from benchmarks.e2e import programs, workloads
from repro.core import reconcile
from repro.core.controller import NerpaController
from repro.core.pipeline import nerpa_build
from repro.core.pipeline.changeset import MulticastState
from repro.mgmt.database import Database
from repro.mgmt.jsonrpc import dumps
from repro.mgmt.monitor import MonitorSpec
from repro.p4runtime.aio_client import _encode_batch

ROUNDS = 200
GATE_X = 2.2
TEXT_GATE_X = 1.0
GATE_CALLS_PER_ROW = 2.5
GATE_ALLOCS_PER_ROW = 1.0
GATE_WIRE_BYTES_PER_ROW = 113.32


def _snapshot(db, tables):
    monitor, initial = db.add_monitor(
        MonitorSpec({table: None for table in tables}), lambda _: None
    )
    db.remove_monitor(monitor)
    return initial


def commit_delta(seed):
    """The engine result of the workload's first measured commit, after
    its cold start: the output delta the controller fans out."""
    workload = workloads.build("lb_replace", seed, workloads.RUN_SECONDS)
    program = programs.LB
    project = nerpa_build(program.schema(), program.rules, program.p4)
    bindings = project.bindings
    tables = list(bindings.relation_for_ovsdb)
    db = Database(project.schema)
    runtime = project.program.start()
    beat = {"op": "insert", "table": programs.BEAT_TABLE, "row": {"seq": 0}}
    bump = {
        "op": "update",
        "table": programs.BEAT_TABLE,
        "where": [],
        "row": {"seq": 1},
    }
    result = None
    for ops in (workload.cold_start + [beat], workload.commits[0] + [bump]):
        db.transact(ops)
        inserts, deletes = reconcile.mgmt_delta(
            _snapshot(db, tables), bindings, runtime
        )
        result = runtime.transaction(inserts=inserts, deletes=deletes)
    runtime.close()
    return bindings, result


class _Capture:
    """A channel queue that keeps the batch a fan-out puts on it."""

    batch = None

    def put(self, batch):
        self.batch = batch

    def gauge_depth(self):
        pass


def emit_path(bindings, result):
    """Output delta → shared batch → write list → request params;
    returns all three."""
    queue = _Capture()
    fan = SimpleNamespace(
        _seq=0,
        bindings=bindings,
        _mcast=MulticastState(),
        _mint_epoch=lambda: "ep-bench-00000001",
        channels=[SimpleNamespace(queue=queue)],
    )
    NerpaController._fan_out(fan, result)
    batch = queue.batch
    writes = batch.emit_writes()
    params = _encode_batch(
        writes, batch.mcast, batch.update_ids, None,
        (batch.seq, batch.last_seq),
    )
    return batch, writes, params


def calls_per_pass(bindings, result):
    """Python-level function calls of one pass over the path (C
    functions are not counted)."""
    emit_path(bindings, result)  # nothing first-time in the count
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        emit_path(bindings, result)
    finally:
        sys.setprofile(previous)
    return calls


def allocations_held(bindings, result):
    """Net GC-tracked objects one pass leaves allocated while its
    batch, write list and params are still held."""
    emit_path(bindings, result)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        held = emit_path(bindings, result)
        allocated = gc.get_count()[0] - before
        del held
    finally:
        if enabled:
            gc.enable()
    return allocated


def measure(bindings, result, rounds):
    """Per-round seconds of the emit path and of the plain ``dumps``,
    interleaved so both see the same box."""
    _, writes, _ = emit_path(bindings, result)
    finished = [write.to_wire() for write in writes]
    path, plain = [], []
    gc.collect()
    for _ in range(rounds):
        started = time.perf_counter()
        emit_path(bindings, result)
        path.append(time.perf_counter() - started)
        started = time.perf_counter()
        dumps(finished)
        plain.append(time.perf_counter() - started)
    return path, plain, len(writes)


def test_a5_emit_encode(benchmark, bench_seed):
    bindings, result = commit_delta(bench_seed)
    rows = sum(len(delta) for delta in result.deltas.values())
    path, plain, n_writes = benchmark.pedantic(
        measure, args=(bindings, result, ROUNDS), rounds=1, iterations=1
    )
    path_s, plain_s = statistics.median(path), statistics.median(plain)
    us_per_row = path_s / rows * 1e6
    ratio = path_s / plain_s
    calls = calls_per_pass(bindings, result) / rows
    allocs = allocations_held(bindings, result) / rows
    wire_bytes = len(emit_path(bindings, result)[2]) / rows
    report(
        f"A5: lb_replace emit + encode, {rows} output rows, "
        f"{n_writes} writes, {ROUNDS} rounds",
        [
            ("emit path", f"{path_s * 1e3:.2f} ms", ""),
            ("us per output row", f"{us_per_row:.2f}", ""),
            ("plain dumps", f"{plain_s * 1e3:.2f} ms", ""),
            (
                "path / dumps", f"{ratio:.2f}x",
                f"gates: <= {GATE_X}x, <= {TEXT_GATE_X}x",
            ),
            ("Python calls per output row", f"{calls:.2f}",
             f"gate: <= {GATE_CALLS_PER_ROW}"),
            ("GC objects held per output row", f"{allocs:.2f}",
             f"gate: <= {GATE_ALLOCS_PER_ROW}"),
            ("wire bytes per output row", f"{wire_bytes:.2f}",
             f"gate: <= {GATE_WIRE_BYTES_PER_ROW}"),
        ],
        ["metric", "measured", "reference"],
    )
    emit("a5", "us_per_output_row", "us", round(us_per_row, 3),
         rows=rows, writes=n_writes)
    emit("a5", "path_vs_dumps", "ratio_x", round(ratio, 2), threshold=GATE_X)
    emit("a5", "path_vs_dumps_text", "ratio_x", round(ratio, 2),
         threshold=TEXT_GATE_X)
    emit("a5", "python_calls_per_output_row", "calls", round(calls, 2),
         threshold=GATE_CALLS_PER_ROW)
    emit("a5", "gc_objects_held_per_output_row", "objects",
         round(allocs, 2), threshold=GATE_ALLOCS_PER_ROW)
    emit("a5", "wire_bytes_per_output_row", "bytes", round(wire_bytes, 2),
         threshold=GATE_WIRE_BYTES_PER_ROW)
    assert ratio <= GATE_X
    assert ratio <= TEXT_GATE_X
    assert calls <= GATE_CALLS_PER_ROW
    assert allocs <= GATE_ALLOCS_PER_ROW
    assert wire_bytes <= GATE_WIRE_BYTES_PER_ROW
