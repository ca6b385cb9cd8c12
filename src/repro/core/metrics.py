"""What :meth:`NerpaController.metrics` reports, and the bounded sample
series behind it.

The controller owns the counters, and only its loop touches them; this
module owns how the ordered fleet-wide latency series is kept (a
sliding window, so a long-running controller's bookkeeping cannot grow
without limit) and the shape of the report built from them, which
:func:`report` reads on that loop.  Per-device latencies and stage
timings are :class:`repro.obs.Histogram` objects: fixed buckets, so
they do not grow with the number of batches either.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List

from repro import obs
from repro.analysis.stats import percentile
from repro.obs.metrics import BOUNDS

#: Samples the fleet-wide latency series reports on.
STATS_WINDOW = 8192
#: Samples it may hold before it is cut back to its window: dropping
#: the oldest sample on every append would move the whole window, a
#: cost every device batch would pay.
STATS_LIMIT = STATS_WINDOW + STATS_WINDOW // 8


def window(samples: List[float]) -> List[float]:
    """A copy of the last ``STATS_WINDOW`` samples of a series."""
    return samples[-STATS_WINDOW:]


def record_apply(
    controller,
    device,
    n_writes: int,
    latency: float,
    io_latency: float,
    apply_seconds: float,
) -> None:
    """One batch reached its device (the fan-out plane's ``on_applied``,
    on the controller's loop): ``latency`` is end to end (ingest
    enqueue → applied), ``io_latency`` the wire round trip alone — a
    slow peer shows up in both, fleet-wide queue pressure only in the
    former — and ``apply_seconds`` the batch's time in stage 3."""
    controller.entries_written += n_writes
    fleet = controller.sync_latencies
    fleet.append(latency)
    if len(fleet) > STATS_LIMIT:
        del fleet[:-STATS_WINDOW]
    # Histogram.observe, inline and unrolled: this runs once per device
    # batch, and only this loop writes these three histograms.
    hist, value = controller._stage_seconds["apply"], apply_seconds
    hist.counts[bisect_left(BOUNDS, value)] += 1
    hist.total += value
    if value < hist.min:
        hist.min = value
    if value > hist.max:
        hist.max = value
    hist, value = device.latencies, latency
    hist.counts[bisect_left(BOUNDS, value)] += 1
    hist.total += value
    if value < hist.min:
        hist.min = value
    if value > hist.max:
        hist.max = value
    hist, value = device.io_latencies, io_latency
    hist.counts[bisect_left(BOUNDS, value)] += 1
    hist.total += value
    if value < hist.min:
        hist.min = value
    if value > hist.max:
        hist.max = value


def summarize(histogram: obs.Histogram) -> Dict[str, float]:
    count = histogram.count
    if not count:
        return {"count": 0, "mean": 0.0, "p95": 0.0}
    return {
        "count": count,
        "mean": histogram.total / count,
        "p95": histogram.quantile(95),
    }


def report(controller) -> Dict[str, object]:
    """``controller.metrics()``: counters, end-to-end (ingest enqueue →
    device apply) latency keys, restart figures, the engine profile and
    :func:`pipeline_report`."""
    c = controller
    latencies = window(c.sync_latencies) or [0.0]
    out: Dict[str, object] = {
        "syncs": c.sync_count,
        "entries_written": c.entries_written,
        "digests_processed": c.digests_processed,
        "mgmt_reconciles": c.mgmt_reconciles,
        "device_resyncs": c.device_resyncs,
        "mean_sync_latency": sum(latencies) / len(latencies),
        "last_sync_latency": latencies[-1],
        "sync_latency_p50": percentile(latencies, 50),
        "sync_latency_p95": percentile(latencies, 95),
        "restart": {
            "mode": c.restart_mode,
            "warm_skips": c.warm_skips,
            "start_seconds": c.start_seconds,
            "checkpoint_bytes": c.checkpoint_bytes,
            "checkpoint_seconds": c.checkpoint_seconds,
            "auto_checkpoints": c.auto_checkpoints,
            "fencing_epoch": c.fencing_epoch,
        },
        "engine": c.runtime.profile(),
        "pipeline": pipeline_report(c),
    }
    if obs.ENABLED:
        out["registry"] = obs.REGISTRY.snapshot()
    return out


def pipeline_report(controller) -> Dict[str, object]:
    """Queue depths, coalesce counts, per-stage timings and — while
    the pipeline runs — the fan-out plane's channel states."""
    engine_queue, channels = controller.engine_queue, controller.channels
    devices, plane = controller.devices, controller._fanout_plane
    started = engine_queue is not None
    out: Dict[str, object] = {
        "engine_queue_depth": len(engine_queue) if started else 0,
        "engine_coalesced": engine_queue.coalesced if started else 0,
        "device_queue_depths": {c.device.name: len(c.queue) for c in channels},
        "device_coalesced": {
            c.device.name: c.queue.coalesced for c in channels
        },
        "device_writes_issued": {d.name: d.writes_issued for d in devices},
        "stage_seconds": {
            stage: summarize(histogram)
            for stage, histogram in controller._stage_seconds.items()
        },
    }
    if plane is not None:
        states: Dict[str, int] = {}
        for chan in plane.channels:
            states[chan.state] = states.get(chan.state, 0) + 1
        out["fanout"] = {
            "inflight": plane.inflight,
            "channel_states": states,
            "send_buffer_bytes": {
                d.name: d.io.send_buffer_bytes
                for d in devices
                if d.io.send_buffer_bytes is not None
            },
        }
    return out
