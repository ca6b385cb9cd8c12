"""A P4Runtime-style control API for the behavioral simulator.

P4Runtime is how the paper's control plane programs its data planes:
typed writes of table entries, multicast group configuration, and a
stream of digests flowing back up.  This package reproduces that
contract over the same framed-JSON transport the management plane uses:

* :mod:`repro.p4runtime.api` — message/entity types and the
  :class:`~repro.p4runtime.api.DeviceService` that applies them to a
  :class:`~repro.p4.simulator.Simulator` (usable in-process, which is
  how a Nerpa *local control plane* embeds into a device);
* :mod:`repro.p4runtime.server` — the remote transport's device side,
  digest and packet-in subscriptions included, and the wire method
  table every device server shares;
* :mod:`repro.p4runtime.aio_client` — the one client: a blocking API
  for scripts and resyncs plus the non-blocking batched write the
  controller's apply plane uses, both over a shared
  :class:`~repro.net.reactor.Reactor`;
* :mod:`repro.p4runtime.farm` — a reactor-driven fleet of lightweight
  devices behind one listener, for fleet-scale tests and benchmarks:
  each is a ``DeviceService`` over dict tables, so it applies batches
  exactly as a simulator-backed device does.
"""

from repro.p4runtime.aio_client import AioP4RuntimeClient
from repro.p4runtime.api import DeviceService, TableWrite, WriteError
from repro.p4runtime.farm import DeviceFarm
from repro.p4runtime.server import P4RuntimeServer

__all__ = [
    "AioP4RuntimeClient",
    "DeviceFarm",
    "DeviceService",
    "P4RuntimeServer",
    "TableWrite",
    "WriteError",
]
