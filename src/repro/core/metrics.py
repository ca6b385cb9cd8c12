"""What :meth:`NerpaController.metrics` reports, and the bounded sample
series behind it.

The controller owns the counters, and only its loop touches them; this
module owns how a series is kept (a sliding window, so a long-running
controller's bookkeeping cannot grow without limit) and the shape of
the report built from them, which :func:`report` reads on that loop.
"""

from __future__ import annotations

from typing import Dict, List

from repro import obs
from repro.analysis.stats import percentile

#: Samples retained per latency/stage-timing series.
STATS_WINDOW = 8192
#: Samples a series may hold before it is cut back to its window.
STATS_LIMIT = STATS_WINDOW + STATS_WINDOW // 8


def append_sample(samples: List[float], value: float) -> None:
    """Append to a bounded series (on the controller's loop).

    The series is cut back to the last ``STATS_WINDOW`` samples once
    it holds more than ``STATS_LIMIT``: dropping the oldest sample on every append
    moves the whole window, a cost every device batch would pay.
    Reports read :func:`window`."""
    samples.append(value)
    if len(samples) > STATS_LIMIT:
        del samples[:-STATS_WINDOW]


def window(samples: List[float]) -> List[float]:
    """A copy of the last ``STATS_WINDOW`` samples of a series."""
    return samples[-STATS_WINDOW:]


def summarize(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"count": 0, "mean": 0.0, "p95": 0.0}
    return {
        "count": len(samples),
        "mean": sum(samples) / len(samples),
        "p95": percentile(samples, 95),
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
    if obs.enabled():
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
            stage: summarize(window(samples))
            for stage, samples in controller._stage_seconds.items()
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
