"""Fault-tolerant transport layer shared by all wire-protocol clients.

``repro.net`` packages the robustness mechanics the paper's
"full-stack" pitch presumes but the original prototype leaves to the
operator: retry policies with exponential backoff
(:class:`~repro.net.retry.RetryPolicy`), the one reconnecting transport
(:class:`~repro.net.reactor.Reactor` /
:class:`~repro.net.aio.AioConnection`) that carries the management
client and every P4Runtime client and multiplexes thousands of device
connections on one thread, the one server shape every listener in the
tree shares — a non-blocking listener whose connections are callbacks
on the server's own reactor (:mod:`repro.net.server`) — and controlled
fault injection for tests and benchmarks
(:class:`~repro.net.faults.FaultInjector`), itself such a server.
"""

from repro.net.aio import BROKEN, CLOSED, CONNECTED, RETRYING, AioConnection
from repro.net.reactor import Reactor, default_reactor
from repro.net.faults import FaultInjector
from repro.net.retry import FAST_TEST_POLICY, RetryPolicy

__all__ = [
    "BROKEN",
    "CLOSED",
    "CONNECTED",
    "RETRYING",
    "FAST_TEST_POLICY",
    "AioConnection",
    "FaultInjector",
    "Reactor",
    "RetryPolicy",
    "default_reactor",
]
