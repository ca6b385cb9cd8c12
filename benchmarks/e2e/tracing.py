"""Tracing for the traced run: spans at every layer boundary.

Everything here wraps an object the benchmark itself constructs and
hands to the stack — timing subclasses of ``Database``,
``ManagementClient`` and ``AioP4RuntimeClient``, a proxy around the
engine runtime, the :class:`~benchmarks.e2e.stack.ProbeDevice` hook and
a 20 Hz ``Reactor.submit`` probe.  Nothing under ``src/`` is patched and
``repro.obs`` stays off.  Spans stay in memory until the run ends.

A :class:`Span` carries the marker ``seq`` of the commit it belongs to
(a coalesced engine transaction or device batch belongs to its highest
seq) and ``n``, a count whose meaning depends on the span name.
"""

import bisect
import threading
import time
from collections import namedtuple

from benchmarks.e2e.programs import BEAT_TABLE, PROBE_TABLE
from benchmarks.e2e.stats import mean, median, percentile
from repro.mgmt.client import ManagementClient
from repro.mgmt.database import Database
from repro.p4runtime.aio_client import AioP4RuntimeClient

PROBE_HZ = 20.0

Span = namedtuple("Span", "name start end device seq n")


class TracedRuntime:
    """Times ``transaction`` on the engine the controller drives; every
    other attribute is the runtime's own."""

    def __init__(self, runtime, tracer):
        self._runtime = runtime
        self._tracer = tracer

    def transaction(self, inserts=None, deletes=None, **kwargs):
        start = time.perf_counter()
        result = self._runtime.transaction(
            inserts=inserts, deletes=deletes, **kwargs
        )
        end = time.perf_counter()
        beats = (inserts or {}).get(BEAT_TABLE, ())
        seq = max((row[1] for row in beats), default=None)
        rows_in = sum(len(rows) for rows in (inserts or {}).values())
        rows_in += sum(len(rows) for rows in (deletes or {}).values())
        rows_out = sum(len(delta) for delta in result.deltas.values())
        self._tracer.record("txn", start, end, None, seq, (rows_in, rows_out))
        return result

    def __getattr__(self, name):
        return getattr(self._runtime, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.start_s = 0.0
        self._probe_stop = threading.Event()
        self._probe_thread = None

    def record(self, name, start, end, device=None, seq=None, n=0):
        self.spans.append(Span(name, start, end, device, seq, n))

    # -- the wrapped objects -------------------------------------------------

    def database_class(self):
        tracer = self

        class TracedDatabase(Database):
            def transact(self, operations):
                start = time.perf_counter()
                try:
                    return super().transact(operations)
                finally:
                    seq = None
                    for op in operations:
                        if op.get("table") == BEAT_TABLE:
                            seq = op["row"]["seq"]
                    tracer.record("db", start, time.perf_counter(), None, seq)

        return TracedDatabase

    def controller_client_class(self):
        tracer = self

        class TracedManagementClient(ManagementClient):
            def monitor(self, tables, callback):
                def timed(updates):
                    start = time.perf_counter()
                    try:
                        callback(updates)
                    finally:
                        seq = None
                        for update in updates.table(BEAT_TABLE).values():
                            seq = update.new["seq"]
                        rows = sum(
                            len(rows)
                            for table, rows in updates
                            if table != BEAT_TABLE
                        )
                        tracer.record(
                            "monitor", start, time.perf_counter(),
                            None, seq, rows,
                        )

                return super().monitor(tables, timed)

        return TracedManagementClient

    def device_client_class(self):
        tracer = self

        class TracedDeviceClient(AioP4RuntimeClient):
            def apply_batch_async(
                self, updates, mcast=None, update_ids=None, callback=None,
                seq=None, timeout=None, fence=None,
            ):
                start = time.perf_counter()
                device = self.device_hint
                marker = next(
                    (write.entry.action_params[0] for write in updates
                     if write.table == PROBE_TABLE and write.kind == "INSERT"),
                    None,
                )

                def acked(applied, error):
                    tracer.record(
                        "ack", start, time.perf_counter(), device, marker,
                        0 if error is None else 1,
                    )
                    if callback is not None:
                        callback(applied, error)

                super().apply_batch_async(
                    updates, mcast, update_ids, acked,
                    seq=seq, timeout=timeout, fence=fence,
                )
                tracer.record(
                    "send", start, time.perf_counter(), device, marker,
                    len(updates),
                )

        return TracedDeviceClient

    def start_runtime(self, program):
        start = time.perf_counter()
        runtime = program.start(shards=1)
        self.start_s = time.perf_counter() - start
        return TracedRuntime(runtime, self)

    def device_hook(self, on_apply):
        def hook(device, seq, entered, done, n_updates):
            self.record("apply", entered, done, device, seq, n_updates)
            on_apply(device, seq, entered, done, n_updates)

        return hook

    # -- reactor probe -------------------------------------------------------

    def start_probe(self, reactor):
        """Every 1/PROBE_HZ s, time how long the shared loop takes to
        run a cross-thread ``submit``."""

        def landed(submitted):
            self.record("submit", submitted, time.perf_counter())

        def loop():
            while not self._probe_stop.wait(1.0 / PROBE_HZ):
                reactor.submit(landed, time.perf_counter())

        self._probe_thread = threading.Thread(
            target=loop, name="e2e-submit-probe", daemon=True
        )
        self._probe_thread.start()

    def stop_probe(self):
        self._probe_stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5.0)


# -- per-layer metrics ---------------------------------------------------------

CHAIN = (
    "mgmt.request_in",
    "mgmt.db_commit",
    "mgmt.notify_delay",
    "controller.ingest_wait",
    "dlog.txn",
    "controller.emit",
    "fanout.spread",
    "device.wire_in",
    "device.apply",
)


def _covering(seqs, spans, seq):
    """The first span (sorted by seq) whose seq is >= ``seq``: the
    engine transaction or device batch that carried commit ``seq``."""
    i = bisect.bisect_left(seqs, seq)
    return spans[i] if i < len(spans) else None


def _ms(span):
    return (span.end - span.start) * 1e3


def analyse(spans, phase, n_devices):
    """Per-layer metrics and the median commit's latency budget for the
    measured commits of ``phase`` (what ``run.measure`` returned).

    Returns ``(metrics, budget)``: ``metrics`` maps name to value for
    every span-derived per-layer metric, ``budget`` lists the median of
    each step of the chain in ms.  All times are as measured.
    """
    first_seq, last_seq = phase["first_seq"], phase["last_seq"]
    wall = phase["stack_wall_s"]
    by_name = {name: [] for name in
               ("rtt", "db", "monitor", "txn", "send", "ack", "apply",
                "submit")}
    for span in spans:
        by_name[span.name].append(span)

    def measured(name):
        return [s for s in by_name[name]
                if s.seq is not None and first_seq <= s.seq <= last_seq]

    def in_seq_order(rows):
        rows = sorted((s for s in rows if s.seq is not None),
                      key=lambda s: s.seq)
        return [s.seq for s in rows], rows

    def per_device(name):
        rows = [[] for _ in range(n_devices)]
        for span in by_name[name]:
            rows[span.device].append(span)
        return [in_seq_order(device_rows) for device_rows in rows]

    rtts, dbs, monitors = (
        {s.seq: s for s in measured(name)} for name in ("rtt", "db", "monitor")
    )
    txns = in_seq_order(by_name["txn"])
    sends, applies = per_device("send"), per_device("apply")
    send_start = {(s.device, s.seq): s.start for s in by_name["send"]}

    chain = {name: [] for name in CHAIN}
    spread, skew = [], []
    for seq in range(first_seq, last_seq + 1):
        rtt, db, mon = rtts.get(seq), dbs.get(seq), monitors.get(seq)
        txn = _covering(*txns, seq)
        sent = [_covering(*device, seq) for device in sends]
        applied = [_covering(*device, seq) for device in applies]
        if None in (rtt, db, mon, txn) or None in sent or None in applied:
            continue  # a failed commit has no chain
        first_send = min(s.start for s in sent)
        last = max(applied, key=lambda s: s.end)
        last_send = send_start[(last.device, last.seq)]
        spread.append((max(s.start for s in sent) - first_send) * 1e3)
        skew.append((last.end - min(s.end for s in applied)) * 1e3)
        # The monitor callback can begin before Database.transact has
        # returned (the notification is pushed from inside it); the
        # chain then ends the commit step at the callback's entry.
        db_end = min(db.end, mon.start)
        for name, value in zip(CHAIN, (
            db.start - rtt.start,
            db_end - db.start,
            mon.start - db_end,
            txn.start - mon.start,
            txn.end - txn.start,
            first_send - txn.end,
            last_send - first_send,
            last.start - last_send,
            last.end - last.start,
        )):
            chain[name].append(value * 1e3)

    n_commits = last_seq - first_seq + 1
    phase_txns, phase_sends = measured("txn"), measured("send")
    phase_applies = measured("apply")
    submits = [
        _ms(s) for s in by_name["submit"]
        if phase["wall_start"] <= s.start <= phase["wall_end"]
    ]
    cold = [s for s in by_name["txn"] if s.seq == 0]
    txn_ms = [_ms(s) for s in phase_txns]
    budget = [(name, median(values)) for name, values in chain.items()]

    metrics = {
        "mgmt.transact_rtt_p50_ms": median([_ms(s) for s in rtts.values()]),
        "mgmt.request_in_p50_ms": median(chain["mgmt.request_in"]),
        "mgmt.db_commit_p50_ms": median([_ms(s) for s in dbs.values()]),
        "mgmt.notify_delay_p50_ms": median(chain["mgmt.notify_delay"]),
        "mgmt.rows_per_commit": mean([s.n for s in monitors.values()]),
        "controller.ingest_wait_p50_ms": median(
            chain["controller.ingest_wait"]
        ),
        "controller.emit_p50_ms": median(chain["controller.emit"]),
        "pipeline.engine_txns_per_commit": len(phase_txns) / n_commits,
        "pipeline.batches_per_commit_device": (
            len(phase_applies) / (n_commits * n_devices)
        ),
        "dlog.cold_txn_s": _ms(cold[0]) / 1e3 if cold else 0.0,
        "dlog.txn_p50_ms": median(txn_ms),
        "dlog.txn_p90_ms": percentile(txn_ms, 90),
        "dlog.busy_share": sum(txn_ms) / 1e3 / wall,
        "dlog.in_rows_per_txn": mean([s.n[0] for s in phase_txns]),
        "dlog.out_rows_per_txn": mean([s.n[1] for s in phase_txns]),
        "fanout.send_call_p50_us": median(
            [_ms(s) * 1e3 for s in phase_sends]
        ),
        "fanout.spread_p50_ms": median(spread),
        "fanout.ack_rtt_p50_ms": median([_ms(s) for s in measured("ack")]),
        "fanout.busy_share": sum(_ms(s) for s in phase_sends) / 1e3 / wall,
        "fanout.updates_per_batch": mean([s.n for s in phase_sends]),
        "fanout.failed_batches": sum(s.n for s in by_name["ack"]),
        "aio.submit_turnaround_p50_ms": median(submits),
        "aio.submit_turnaround_p90_ms": percentile(submits, 90),
        "device.wire_in_p50_ms": median(
            [(s.start - send_start[(s.device, s.seq)]) * 1e3
             for s in phase_applies if (s.device, s.seq) in send_start]
        ),
        "device.apply_p50_us": median(
            [_ms(s) * 1e3 for s in phase_applies]
        ),
        "device.apply_us_per_update": (
            sum(_ms(s) for s in phase_applies) * 1e3
            / max(1, sum(s.n for s in phase_applies))
        ),
        "device.skew_p50_ms": median(skew),
    }
    return metrics, budget
