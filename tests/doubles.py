"""Test doubles shared by the test suite and the benchmarks."""

from repro.core.pipeline.changeset import Changeset, DeviceBatch
from repro.p4runtime.api import DeviceService


def uncoalesce(monkeypatch) -> None:
    """The unbatched pipeline: changesets and device batches refuse
    every queue-tail merge, so each engine transaction is its own wire
    write."""
    for cls in (Changeset, DeviceBatch):
        monkeypatch.setattr(cls, "coalesce", lambda self, other: None)


class RecordingService(DeviceService):
    """An in-process device that logs the updates of each batch it is
    sent, in arrival order, as ``(kind, params)``: an INSERT's or
    MODIFY's action params, and for a DELETE, which carries its key
    alone, the params of the entry it removes."""

    def __init__(self, sim):
        super().__init__(sim)
        self.log = []

    def apply_batch(self, updates, mcast=None, fence=None):
        self.log.append([self._logged(update) for update in updates])
        return super().apply_batch(updates, mcast, fence)

    def _logged(self, update) -> tuple:
        if update.kind != "DELETE":
            return update.kind, tuple(update.entry.action_params)
        held = dict(self.sim.table(update.table).items())
        return update.kind, held[update.entry.match_key()][1:]
