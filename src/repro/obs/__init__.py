"""repro.obs — cross-plane observability.

One module-level switch gates everything: metrics and tracing are
**disabled by default** and every instrumentation site in the stack
reads :data:`ENABLED` before doing any work, so the disabled path costs
essentially nothing.  When enabled:

* :data:`REGISTRY` collects counters/gauges/histograms from all planes;
* :data:`TRACER` collects causal spans keyed by the per-transaction
  update-id minted at the management-plane transact (see
  :mod:`repro.obs.trace` for how the id propagates).

Two tiers.  ``enable()`` turns on the always-affordable tier — spans
with per-stage durations plus all counters/histograms — which is cheap
enough to leave on in production (<10% added latency even on the
microsecond-scale transactions of the E2 benchmark).
``enable(detail=True)`` additionally times every dataflow operator
inside each engine transaction (per-operator tuple counts, per-stratum
seconds).  That per-node bookkeeping is worth roughly the cost of the
transaction itself on tiny incremental updates, so detail is a
diagnosis mode, not a default.

Typical use::

    from repro import obs

    obs.enable()          # or obs.enable(detail=True) to profile operators
    ...  # drive the stack
    uid = obs.TRACER.latest_update_id(name="mgmt.transact")
    print(obs.TRACER.render(uid))
    print(obs.REGISTRY.to_text())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    current_update_id,
    mint_update_id,
    use_update_id,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "REGISTRY",
    "TRACER",
    "enable",
    "disable",
    "ENABLED",
    "detail_enabled",
    "enabled_scope",
    "reset",
    "span",
    "mint_update_id",
    "current_update_id",
    "use_update_id",
    "export_json",
    "export_text",
]

REGISTRY = MetricsRegistry()
TRACER = Tracer()

#: The switch.  Read it as ``obs.ENABLED``; importing the name would
#: copy its value at import time, and :func:`enable` rebinds it.
ENABLED = False
_detail = False


def detail_enabled() -> bool:
    """Whether per-operator dataflow profiling is on (implies enabled)."""
    return _detail


def enable(detail: bool = False) -> None:
    global ENABLED, _detail
    ENABLED = True
    _detail = detail


def disable() -> None:
    global ENABLED, _detail
    ENABLED = False
    _detail = False


def reset() -> None:
    """Clear all collected metrics and spans (the switches are untouched)."""
    REGISTRY.reset()
    TRACER.reset()


@contextmanager
def enabled_scope(detail: bool = False):
    """Enable observability for the duration of a ``with`` block."""
    global ENABLED, _detail
    previous = (ENABLED, _detail)
    ENABLED = True
    _detail = detail
    try:
        yield
    finally:
        ENABLED, _detail = previous


def span(name: str, update_id: Optional[str] = None, **attrs):
    """Open a trace span, or a shared no-op span when disabled."""
    if not ENABLED:
        return NULL_SPAN
    return TRACER.span(name, update_id=update_id, **attrs)


def export_json(indent: Optional[int] = 2) -> str:
    return REGISTRY.to_json(indent=indent)


def export_text() -> str:
    return REGISTRY.to_text()
