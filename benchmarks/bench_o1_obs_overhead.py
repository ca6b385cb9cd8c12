"""O1 — observability overhead on the E2 incremental workload.

The tentpole requirement for `repro.obs`: telemetry must be effectively
free when disabled (one global flag check per instrumentation site) and
the standard enabled tier must add under 10% latency on the
steady-state change stream of ``bench_e2_incremental_gain``, so it can
stay on in production the way INT-style data-plane telemetry is
always-on.

Four configurations are measured:

* **disabled** (twice — the repeat bounds the noise floor that "~0%"
  is judged against);
* **enabled**: spans + all counters/histograms.  Engine transactions
  record their latency histogram always, and a trace span whenever the
  transaction is part of a causal trace (an enclosing span or
  update-id); this workload drives the Runtime directly, so it pays
  the always-on price — the <10% acceptance bound;
* **enabled, in-trace**: the same run under a bound update-id, so every
  transaction also records its span — the price a traced config change
  pays end-to-end;
* **detail** (``obs.enable(detail=True)``): additionally times every
  dataflow operator inside each transaction.  On this workload each
  transaction does only microseconds of real work, so per-node
  bookkeeping costs on the order of the transaction itself — a
  diagnosis mode, reported but not held to the always-on budget.

Methodology: the per-change latencies returned by ``run_incremental``
measure only the engine transactions (setup excluded); each
configuration's rounds are interleaved with the others and the best
round is kept, which cancels slow drift in machine load.
"""

from benchmarks.bench_e2_incremental_gain import N_CHANGES, N_PORTS, run_incremental
from benchmarks.conftest import emit, report
from repro import obs

ROUNDS = 6


def _mean_change_latency() -> float:
    latencies, _ = run_incremental()
    return sum(latencies) / len(latencies)


def _measure_all() -> dict:
    """One interleaved sweep over all configurations, best-of-rounds."""
    best = {}

    def sample(key, configure, run=_mean_change_latency):
        configure()
        obs.reset()
        value = run()
        if key not in best or value < best[key]:
            best[key] = value

    def traced_run():
        with obs.use_update_id(obs.mint_update_id()):
            return _mean_change_latency()

    for _ in range(ROUNDS):
        sample("disabled_a", obs.disable)
        sample("enabled", obs.enable)
        sample("in_trace", obs.enable, traced_run)
        sample("detail", lambda: obs.enable(detail=True))
        sample("disabled_b", obs.disable)
    return best


def test_o1_observability_overhead(benchmark):
    try:
        best = benchmark.pedantic(_measure_all, rounds=1, iterations=1)

        # One more enabled run to show the telemetry actually collected.
        obs.enable(detail=True)
        obs.reset()
        with obs.use_update_id(obs.mint_update_id()):
            _mean_change_latency()
        spans = len(obs.TRACER.spans())
        txns = obs.REGISTRY.histogram("engine_txn_seconds").count
    finally:
        obs.disable()
        obs.reset()

    base = min(best["disabled_a"], best["disabled_b"])
    noise = abs(best["disabled_b"] - best["disabled_a"]) / base
    enabled = best["enabled"] / base - 1.0
    in_trace = best["in_trace"] / base - 1.0
    detail = best["detail"] / base - 1.0

    report(
        f"O1: observability overhead ({N_PORTS} ports, "
        f"{N_CHANGES} changes/round)",
        [
            ("disabled mean/change", f"{base * 1e6:.1f} us", ""),
            ("disabled repeat delta", f"{noise * 100:.1f} %", "~0% target"),
            ("enabled overhead", f"{enabled * 100:.1f} %", "<10% target"),
            ("enabled in-trace overhead", f"{in_trace * 100:.1f} %",
             "span per txn"),
            ("detail overhead", f"{detail * 100:.1f} %", "diagnosis tier"),
            ("spans recorded", str(spans), ""),
            ("engine txns counted", str(txns), ""),
        ],
        ["metric", "measured", "reference"],
    )

    # The enabled run actually collected telemetry...
    assert txns >= N_CHANGES
    assert spans >= N_CHANGES
    emit(
        "o1", "enabled_overhead", "fraction",
        round(enabled, 4), threshold=0.10,
    )
    # ...the disabled path is indistinguishable from run-to-run noise...
    assert noise < 0.10
    # ...the always-on tier stays under the acceptance budget...
    assert enabled < 0.10
    # ...a full per-transaction trace stays modest...
    assert in_trace < 0.25
    # ...and even per-operator profiling costs less than one extra
    # transaction's worth of work per transaction.
    assert detail < 1.0
