"""Test doubles shared by the test suite and the benchmarks."""

from repro.core.pipeline.changeset import Changeset, DeviceBatch


def uncoalesce(monkeypatch) -> None:
    """The unbatched pipeline: changesets and device batches refuse
    every queue-tail merge, so each engine transaction is its own wire
    write."""
    for cls in (Changeset, DeviceBatch):
        monkeypatch.setattr(cls, "coalesce", lambda self, other: None)
