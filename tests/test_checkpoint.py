"""Warm-start checkpointing tests.

Three layers are covered:

* engine — ``Runtime.checkpoint()`` / ``start(checkpoint=...)`` must be
  semantically invisible: a restored runtime produces byte-identical
  output deltas to one that never checkpointed, over randomized
  insert/delete sequences including joins, negation, and recursion
  (property-based, hypothesis);
* controller — ``NerpaController(state_dir=...)`` warm restart skips
  resync for epoch-matched devices, applies only the delta accumulated
  while it was down, and falls back to cold start when the checkpoint
  is absent or stale;
* persistence — ``Persister.compact()`` must not lose transactions
  that commit between the snapshot and the journal reopen (regression
  for the snapshot/journal race).
"""

import pickle
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.snvs import build_snvs
from repro.core import warmstate
from repro.core.controller import NerpaController
from repro.dlog.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointStore,
    load_checkpoint,
    program_hash,
    replay_segments,
    save_checkpoint,
)
from repro.dlog.engine import compile_program
from repro.errors import ReproError
from repro.mgmt.database import Database
from repro.mgmt.persist import Persister, restore
from tests.test_dlog_properties import HOP_PROG, LINEAR_PROG

# A join plus a negation: both arrangement kinds and distinct counts
# carry state across the checkpoint.
JOIN_NEG_PROGRAM = """
input relation R(a: bigint, b: bigint)
input relation S(b: bigint, c: bigint)
output relation J(a: bigint, b: bigint, c: bigint)
output relation OnlyR(a: bigint, b: bigint)
J(a, b, c) :- R(a, b), S(b, c).
OnlyR(a, b) :- R(a, b), not S(b, _).
"""

REACH_PROGRAM = """
input relation Edge(a: bigint, b: bigint)
output relation Reach(x: bigint, y: bigint)
Reach(x, y) :- Edge(x, y).
Reach(x, z) :- Reach(x, y), Edge(y, z).
"""


def _canonical(result):
    """Deltas as canonical bytes — the strongest equality we can ask
    two runtimes for."""
    return pickle.dumps(
        sorted(
            (name, sorted(zset.data.items()))
            for name, zset in result.deltas.items()
        )
    )


def _pairs(lo=0, hi=4):
    return st.lists(
        st.tuples(st.integers(lo, hi), st.integers(lo, hi)), max_size=6
    )


def _batches(relations, min_size=1, max_size=6):
    return st.lists(
        st.fixed_dictionaries(
            {f"{rel}{sign}": _pairs() for rel in relations for sign in "+-"}
        ),
        min_size=min_size,
        max_size=max_size,
    )


def _changes(batch, relations):
    return {
        "inserts": {rel: batch[f"{rel}+"] for rel in relations},
        "deletes": {rel: batch[f"{rel}-"] for rel in relations},
    }


class TestEngineCheckpointDifferential:
    """checkpoint → restore → transact must equal never-checkpointed."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batches=_batches(("R", "S")), data=st.data())
    def test_join_and_negation_deltas_identical(self, batches, data):
        cut = data.draw(st.integers(0, len(batches)), label="cut")
        reference = compile_program(JOIN_NEG_PROGRAM).start()
        subject = compile_program(JOIN_NEG_PROGRAM).start()
        for batch in batches[:cut]:
            changes = _changes(batch, ("R", "S"))
            reference.transaction(**changes)
            subject.transaction(**changes)
        snapshot = pickle.loads(pickle.dumps(subject.checkpoint()))
        restored = compile_program(JOIN_NEG_PROGRAM).start(checkpoint=snapshot)
        assert restored.restored
        for batch in batches[cut:]:
            changes = _changes(batch, ("R", "S"))
            want = reference.transaction(**changes)
            got = restored.transaction(**changes)
            assert _canonical(got) == _canonical(want)
        for rel in ("J", "OnlyR"):
            assert restored.dump(rel) == reference.dump(rel)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batches=_batches(("Edge",)), data=st.data())
    def test_recursive_deltas_identical(self, batches, data):
        """DRed support-count state must survive the round trip —
        deletions after restore are where stale counts would show."""
        cut = data.draw(st.integers(0, len(batches)), label="cut")
        reference = compile_program(REACH_PROGRAM).start()
        subject = compile_program(REACH_PROGRAM).start()
        for batch in batches[:cut]:
            changes = _changes(batch, ("Edge",))
            reference.transaction(**changes)
            subject.transaction(**changes)
        snapshot = pickle.loads(pickle.dumps(subject.checkpoint()))
        restored = compile_program(REACH_PROGRAM).start(checkpoint=snapshot)
        assert restored.restored
        for batch in batches[cut:]:
            changes = _changes(batch, ("Edge",))
            want = reference.transaction(**changes)
            got = restored.transaction(**changes)
            assert _canonical(got) == _canonical(want)
        assert restored.dump("Reach") == reference.dump("Reach")

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batches=_batches(("A", "B")), data=st.data())
    def test_linear_stretches_deltas_identical(self, batches, data):
        """Join, antijoin and aggregate state whose steps run guards,
        assignments and FlatMaps survives the round trip."""
        cut = data.draw(st.integers(0, len(batches)), label="cut")
        reference = compile_program(LINEAR_PROG).start()
        subject = compile_program(LINEAR_PROG).start()
        for batch in batches[:cut]:
            changes = _changes(batch, ("A", "B"))
            reference.transaction(**changes)
            subject.transaction(**changes)
        snapshot = pickle.loads(pickle.dumps(subject.checkpoint()))
        restored = compile_program(LINEAR_PROG).start(checkpoint=snapshot)
        assert restored.restored
        for batch in batches[cut:]:
            changes = _changes(batch, ("A", "B"))
            want = reference.transaction(**changes)
            got = restored.transaction(**changes)
            assert _canonical(got) == _canonical(want)
        for rel in ("J", "G", "N", "C"):
            assert restored.dump(rel) == reference.dump(rel)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batches=_batches(("A", "B")), data=st.data())
    def test_hop_recursion_and_min_deltas_identical(self, batches, data):
        """The recursive store's row maps and indexes (which compiled
        probes hold) and each ``min`` group's cached value survive the
        round trip: recursion through ``n + 1`` feeds a ``min``."""
        cut = data.draw(st.integers(0, len(batches)), label="cut")
        reference = compile_program(HOP_PROG).start()
        subject = compile_program(HOP_PROG).start()
        for batch in batches[:cut]:
            changes = _changes(batch, ("A", "B"))
            reference.transaction(**changes)
            subject.transaction(**changes)
        snapshot = pickle.loads(pickle.dumps(subject.checkpoint()))
        restored = compile_program(HOP_PROG).start(checkpoint=snapshot)
        assert restored.restored
        for batch in batches[cut:]:
            changes = _changes(batch, ("A", "B"))
            want = reference.transaction(**changes)
            got = restored.transaction(**changes)
            assert _canonical(got) == _canonical(want)
        for rel in ("H", "Best", "Tag"):
            assert restored.dump(rel) == reference.dump(rel)

    def test_checkpoint_then_delete_last_support_of_a_minimum(self):
        """Deterministic regression: ``Best(0, 2)`` is 1 through
        ``A(0, 2)`` alone and 2 through ``A(0, 1), A(1, 2)``; deleting
        ``A(0, 2)`` after a restore must move the minimum to 2."""
        runtime = compile_program(HOP_PROG).start()
        runtime.transaction(inserts={"A": [(0, 1), (1, 2), (0, 2)]})
        restored = compile_program(HOP_PROG).start(
            checkpoint=runtime.checkpoint()
        )
        assert restored.restored
        want = runtime.transaction(deletes={"A": [(0, 2)]})
        got = restored.transaction(deletes={"A": [(0, 2)]})
        assert _canonical(got) == _canonical(want)
        assert got.deleted("Best") == [(0, 2, 1)]
        assert got.inserted("Best") == [(0, 2, 2)]
        assert restored.dump("Best") == runtime.dump("Best")

    def test_checkpoint_then_delete_inside_cycle(self):
        """Deterministic regression: break a cycle after restoring —
        over-retained DRed state would keep the unreachable pairs."""
        runtime = compile_program(REACH_PROGRAM).start()
        runtime.transaction(
            inserts={"Edge": [(0, 1), (1, 2), (2, 0), (2, 3)]}
        )
        restored = compile_program(REACH_PROGRAM).start(
            checkpoint=runtime.checkpoint()
        )
        runtime.transaction(deletes={"Edge": [(1, 2)]})
        restored.transaction(deletes={"Edge": [(1, 2)]})
        assert restored.dump("Reach") == runtime.dump("Reach")
        assert (0, 3) not in restored.dump("Reach")


class TestCheckpointValidation:
    def test_program_hash_mismatch_falls_back_cold(self):
        runtime = compile_program(JOIN_NEG_PROGRAM).start()
        runtime.transaction(inserts={"R": [(1, 2)]})
        snapshot = runtime.checkpoint()
        other = compile_program(REACH_PROGRAM).start(checkpoint=snapshot)
        assert not other.restored
        assert other.dump("Reach") == set()

    def test_format_mismatch_falls_back_cold(self):
        runtime = compile_program(JOIN_NEG_PROGRAM).start()
        snapshot = runtime.checkpoint()
        snapshot["format"] = CHECKPOINT_FORMAT + 1
        assert not compile_program(JOIN_NEG_PROGRAM).start(
            checkpoint=snapshot
        ).restored

    def test_format_3_checkpoint_cold_starts(self, tmp_path):
        """Format 3 keyed operator state by the index of a graph with a
        node per linear item; those indices now name other nodes (here
        the antijoin moved from 7 to 6), so a v3 snapshot — bare or as a
        chain's anchor — must cold-start, not restore."""
        program = compile_program(JOIN_NEG_PROGRAM)
        runtime = program.start()
        runtime.transaction(inserts={"R": [(1, 2), (3, 4)], "S": [(2, 5)]})
        runtime.enable_journal()
        snapshot = runtime.checkpoint()
        snapshot["format"] = 3
        store = warmstate.open_store(str(tmp_path), program.program_hash)
        full = {
            "format": CHECKPOINT_FORMAT,
            "engine_txns": runtime.txn_count,
            "engine": snapshot,
        }
        store.save_full(full, runtime.txn_count)
        runtime.transaction(inserts={"R": [(7, 8)]})
        store.save_delta(runtime.drain_journal(), runtime.txn_count)
        assert len(store.load_chain(lambda f: f["engine_txns"])[1]) == 1

        def anchored():
            cold, warm = warmstate.restore(store, program, 1, "inline")
            assert warm is None
            return cold

        for start in (lambda: program.start(checkpoint=snapshot), anchored):
            cold = start()
            assert not cold.restored
            # Nothing replayed: the segment's (7, 8) is not there either.
            assert cold.dump("R") == cold.dump("J") == set()
            cold.transaction(inserts={"R": [(1, 2)], "S": [(2, 5)]})
            assert cold.dump("J") == {(1, 2, 5)}
            assert cold.dump("OnlyR") == set()

    def test_garbage_checkpoint_falls_back_cold(self):
        runtime = compile_program(JOIN_NEG_PROGRAM).start(
            checkpoint={"nonsense": True}
        )
        assert not runtime.restored
        runtime.transaction(inserts={"R": [(1, 2)]})
        assert runtime.dump("OnlyR") == {(1, 2)}

    def test_hash_distinguishes_source_and_mode(self):
        base = program_hash("x", "dred")
        assert program_hash("y", "dred") != base
        assert program_hash("x", "naive") != base

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        data = {"format": CHECKPOINT_FORMAT, "payload": [1, 2, 3]}
        size = save_checkpoint(path, data)
        assert size > 0
        assert load_checkpoint(path) == data

    def test_load_missing_returns_none(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "absent.ckpt")) is None

    def test_load_corrupt_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_load_truncated_raises(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        full = pickle.dumps({"format": CHECKPOINT_FORMAT})
        path.write_bytes(full[: len(full) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


class TestCheckpointStore:
    """Delta chains: full snapshot + append-only journal segments."""

    HASH = "h" * 64

    def _store(self, tmp_path):
        return CheckpointStore(str(tmp_path), "engine.ckpt", self.HASH)

    def test_delta_without_anchor_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            self._store(tmp_path).save_delta([], 0)

    def test_full_then_deltas_round_trip(self, tmp_path):
        store = self._store(tmp_path)
        store.save_full({"format": CHECKPOINT_FORMAT, "n": 3}, 3)
        store.save_delta([{"inserts": {"R": [(1, 2)]}, "deletes": {}}], 4)
        store.save_delta([], 4, meta={"seq": 9})
        full, segments = self._store(tmp_path).load_chain(lambda f: f["n"])
        assert full["n"] == 3
        assert [s["segment"] for s in segments] == [1, 2]
        assert segments[0]["base_txn"] == 3
        assert segments[1]["base_txn"] == 4
        assert segments[1]["meta"] == {"seq": 9}

    def test_save_full_purges_segments(self, tmp_path):
        store = self._store(tmp_path)
        store.save_full({"format": CHECKPOINT_FORMAT}, 1)
        store.save_delta([], 2)
        store.save_full({"format": CHECKPOINT_FORMAT}, 2)
        assert store._segment_paths() == []
        assert store.segments_since_full == 0

    def test_should_full_compaction_cue(self, tmp_path):
        store = self._store(tmp_path)
        assert store.should_full(2)  # unanchored
        store.save_full({"format": CHECKPOINT_FORMAT}, 0)
        assert not store.should_full(2)
        store.save_delta([], 1)
        assert not store.should_full(2)
        store.save_delta([], 2)
        assert store.should_full(2)

    def test_invalid_tail_unlinked(self, tmp_path):
        """A stale or corrupt segment (and everything after it) is
        dropped on load — the self-healing interrupted-compaction path."""
        store = self._store(tmp_path)
        store.save_full({"format": CHECKPOINT_FORMAT}, 1)
        store.save_delta([], 2)
        bad = store.segment_path(2)
        (tmp_path / bad.split("/")[-1]).write_bytes(b"torn write")
        fresh = self._store(tmp_path)
        segments = fresh.load_segments(1)
        assert [s["segment"] for s in segments] == [1]
        assert not (tmp_path / bad.split("/")[-1]).exists()
        # The reloaded store is re-anchored: appending continues.
        fresh.save_delta([], 3)
        assert len(self._store(tmp_path).load_segments(1)) == 2

    def test_hash_mismatch_segment_dropped(self, tmp_path):
        store = self._store(tmp_path)
        store.save_full({"format": CHECKPOINT_FORMAT}, 0)
        store.save_delta([], 1)
        other = CheckpointStore(str(tmp_path), "engine.ckpt", "x" * 64)
        assert other.load_segments(0) == []

    def test_reader_must_not_heal_a_concurrent_writers_chain(self, tmp_path):
        """Regression: a reader (warm-standby follower) racing a writer
        that just compacted sees segments that look stale relative to
        its own anchor.  With ``heal=True`` it would unlink them —
        destroying the *live writer's* chain.  Readers open the store
        with ``heal=False`` and must leave the files alone."""
        writer = self._store(tmp_path)
        writer.save_full({"format": CHECKPOINT_FORMAT, "n": 10}, 10)
        writer.save_delta([], 11)

        reader = CheckpointStore(
            str(tmp_path), "engine.ckpt", self.HASH, heal=False
        )
        full, segments = reader.load_chain(lambda f: f["n"])
        assert full["n"] == 10 and len(segments) == 1

        # The writer compacts and keeps appending: the old chain is
        # gone, segment index 1 now belongs to the *new* chain.
        writer.save_full({"format": CHECKPOINT_FORMAT, "n": 11}, 11)
        writer.save_delta([], 12)
        new_seg = tmp_path / "engine.ckpt.delta-000001.seg"
        assert new_seg.exists()

        # The reader tails from its stale position: the new segment is
        # not contiguous with its anchor, so nothing is replayable —
        # but the file MUST survive the attempt.
        assert reader.load_segments(10, start_index=2) == []
        assert reader.load_segments(10, start_index=1) == []
        assert new_seg.exists(), "reader healed a concurrent writer's chain"

        # The writer's chain is intact: a fresh store loads all of it.
        full, segments = self._store(tmp_path).load_chain(lambda f: f["n"])
        assert full["n"] == 11
        assert [s["segment"] for s in segments] == [1]

    def test_heal_false_keeps_torn_tail_heal_true_removes_it(self, tmp_path):
        writer = self._store(tmp_path)
        writer.save_full({"format": CHECKPOINT_FORMAT, "n": 1}, 1)
        writer.save_delta([], 2)
        torn = tmp_path / "engine.ckpt.delta-000002.seg"
        torn.write_bytes(b"torn write")

        reader = CheckpointStore(
            str(tmp_path), "engine.ckpt", self.HASH, heal=False
        )
        assert [s["segment"] for s in reader.load_segments(1)] == [1]
        assert torn.exists()
        # The chain's writer self-heals on reload, as before.
        assert [s["segment"] for s in self._store(tmp_path).load_segments(1)] == [1]
        assert not torn.exists()

    def test_replay_segments_pins_txn_count(self):
        runtime = compile_program(JOIN_NEG_PROGRAM).start()
        segments = [
            {
                "program_hash": None,
                "txns": [{"inserts": {"R": [(1, 2)]}, "deletes": {}}],
                "txn_count": 7,
            }
        ]
        assert replay_segments(runtime, segments, None) == 1
        assert runtime.txn_count == 7
        assert runtime.dump("R") == {(1, 2)}


def _snvs_config(db, ports):
    db.transact(
        [{"op": "insert", "table": "Vlan", "row": {"vid": 10}}]
        + [
            {
                "op": "insert",
                "table": "Port",
                "row": {
                    "name": f"p{p}",
                    "port_num": p,
                    "vlan_mode": "access",
                    "tag": 10,
                },
            }
            for p in ports
        ]
    )


class TestControllerWarmStart:
    def test_warm_restart_skips_resync_and_writes_nothing(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        first = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        _snvs_config(db, (0, 1))
        first.drain()
        entries = len(switch.table("in_vlan"))
        assert entries == 2
        first.save_checkpoint()
        first.stop()

        second = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        )
        second.start()
        second.drain()
        assert second.restart_mode == "warm"
        assert second.warm_skips == 1
        assert second.device_resyncs == 0
        assert second.entries_written == 0
        assert len(switch.table("in_vlan")) == entries
        second.stop()

    def test_warm_restart_applies_only_offline_delta(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        first = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        _snvs_config(db, (0, 1))
        first.drain()
        full_config_writes = first.entries_written
        first.save_checkpoint()
        first.stop()
        # A change lands while the controller is down.
        db.transact(
            [
                {
                    "op": "insert",
                    "table": "Port",
                    "row": {
                        "name": "p2",
                        "port_num": 2,
                        "vlan_mode": "access",
                        "tag": 10,
                    },
                }
            ]
        )

        second = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        )
        second.start()
        second.drain()
        assert second.restart_mode == "warm"
        assert second.warm_skips == 1
        # Only the new port's entries were shipped, not the full config.
        assert 0 < second.entries_written < full_config_writes
        assert len(switch.table("in_vlan")) == 3
        second.stop()

    def test_epoch_mismatch_forces_resync(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        first = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        _snvs_config(db, (0, 1))
        first.drain()
        first.save_checkpoint()
        first.stop()
        # Device restarted (or was written to) behind our back.
        switch.config_epoch = "ep-someone-else"

        second = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        )
        second.start()
        second.drain()
        assert second.restart_mode == "warm"
        assert second.warm_skips == 0
        assert second.device_resyncs == 1
        assert len(switch.table("in_vlan")) == 2
        second.stop()

    def test_missing_checkpoint_falls_back_cold(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        _snvs_config(db, (0, 1))
        controller = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        )
        controller.start()
        controller.drain()
        assert controller.restart_mode == "cold"
        assert len(switch.table("in_vlan")) == 2
        controller.stop()

    def test_corrupt_checkpoint_falls_back_cold(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        _snvs_config(db, (0, 1))
        (tmp_path / "controller.ckpt").write_bytes(b"\x80garbage")
        controller = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        )
        controller.start()
        controller.drain()
        assert controller.restart_mode == "cold"
        assert len(switch.table("in_vlan")) == 2
        controller.stop()

    def test_save_checkpoint_requires_state_dir(self):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        controller = NerpaController(project, db, [switch]).start()
        with pytest.raises(ReproError):
            controller.save_checkpoint()
        controller.stop()

    def test_restart_metrics_exposed(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        first = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        _snvs_config(db, (0,))
        first.drain()
        first.save_checkpoint()
        assert first.checkpoint_bytes > 0
        assert first.checkpoint_seconds >= 0.0
        first.stop()
        second = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        )
        second.start()
        restart = second.metrics()["restart"]
        assert restart["mode"] == "warm"
        assert restart["start_seconds"] > 0.0
        second.stop()


class TestControllerDeltaCheckpoint:
    def test_auto_mode_full_then_delta(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        controller = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        _snvs_config(db, (0, 1))
        controller.drain()
        controller.save_checkpoint()
        assert controller.last_checkpoint_mode == "full"
        full_bytes = controller.checkpoint_bytes
        db.transact(
            [
                {
                    "op": "insert",
                    "table": "Port",
                    "row": {
                        "name": "p2",
                        "port_num": 2,
                        "vlan_mode": "access",
                        "tag": 10,
                    },
                }
            ]
        )
        controller.drain()
        controller.save_checkpoint()
        assert controller.last_checkpoint_mode == "delta"
        assert 0 < controller.checkpoint_bytes < full_bytes
        controller.stop()

        # The restart restores full + segment: the engine already holds
        # p2's entries and the device epoch from the segment meta
        # matches, so the warm start ships nothing.
        second = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        )
        second.start()
        second.drain()
        assert second.restart_mode == "warm"
        assert second.warm_skips == 1
        assert second.entries_written == 0
        assert len(switch.table("in_vlan")) == 3
        second.stop()

    def test_compaction_after_checkpoint_every(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        controller = NerpaController(
            project, db, [switch], state_dir=str(tmp_path),
            checkpoint_every=2,
        ).start()
        _snvs_config(db, (0,))
        controller.drain()
        modes = []
        for _ in range(5):
            controller.save_checkpoint()
            modes.append(controller.last_checkpoint_mode)
        assert modes == ["full", "delta", "delta", "full", "delta"]
        controller.stop()

    def test_explicit_modes(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        controller = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        _snvs_config(db, (0,))
        controller.drain()
        with pytest.raises(ReproError):
            controller.save_checkpoint(mode="sideways")
        controller.save_checkpoint(mode="full")
        assert controller.last_checkpoint_mode == "full"
        controller.save_checkpoint(mode="delta")
        assert controller.last_checkpoint_mode == "delta"
        controller.stop()

    def test_delta_restart_applies_offline_changes_too(self, tmp_path):
        """Changes after the last delta segment (while the controller
        was down) still converge via the warm mgmt diff."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        first = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        ).start()
        _snvs_config(db, (0,))
        first.drain()
        first.save_checkpoint(mode="full")
        db.transact(
            [
                {
                    "op": "insert",
                    "table": "Port",
                    "row": {
                        "name": "p1",
                        "port_num": 1,
                        "vlan_mode": "access",
                        "tag": 10,
                    },
                }
            ]
        )
        first.drain()
        first.save_checkpoint(mode="delta")
        first.stop()
        # Lands while no controller is running.
        db.transact(
            [
                {
                    "op": "insert",
                    "table": "Port",
                    "row": {
                        "name": "p2",
                        "port_num": 2,
                        "vlan_mode": "access",
                        "tag": 10,
                    },
                }
            ]
        )
        second = NerpaController(
            project, db, [switch], state_dir=str(tmp_path)
        )
        second.start()
        second.drain()
        assert second.restart_mode == "warm"
        assert len(switch.table("in_vlan")) == 3
        second.stop()


class TestCompactRace:
    def test_compact_never_loses_concurrent_transactions(self, tmp_path):
        """Regression: transactions committing while ``compact()`` runs
        must land in either the snapshot or the fresh journal — never
        in the closed one."""
        schema = build_snvs().schema
        db = Database(schema)
        persister = Persister(db, str(tmp_path))
        stop = threading.Event()
        inserted = []

        def hammer():
            vid = 1
            while not stop.is_set():
                db.transact(
                    [
                        {
                            "op": "insert",
                            "table": "Vlan",
                            "row": {"vid": vid},
                        }
                    ]
                )
                inserted.append(vid)
                vid += 1

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for _ in range(50):
                persister.compact()
        finally:
            stop.set()
            thread.join(30.0)
        assert not thread.is_alive()
        persister.close()

        recovered = restore(str(tmp_path), schema=schema)
        assert recovered.count("Vlan") == len(inserted)
        assert {row["vid"] for row in recovered.rows("Vlan")} == set(inserted)


class TestBackgroundCheckpointTimer:
    def _wait_for(self, predicate, timeout=15.0, what="condition"):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return
            time.sleep(0.005)
        raise AssertionError(f"timed out waiting for {what}")

    def test_timer_cuts_checkpoints_and_stop_cancels_it(self, tmp_path):
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=8)
        controller = NerpaController(
            project,
            db,
            [switch],
            state_dir=str(tmp_path),
            checkpoint_interval_s=0.01,
        ).start()
        _snvs_config(db, (0, 1))
        controller.drain()
        self._wait_for(
            lambda: controller.auto_checkpoints >= 2,
            what="background checkpoints",
        )
        controller.stop()
        saves = controller.auto_checkpoints
        time.sleep(0.05)
        assert controller.auto_checkpoints == saves  # really cancelled
        # What the timer persisted is a valid warm-start source.
        second = NerpaController(
            project,
            db,
            [project.new_simulator(n_ports=8)],
            state_dir=str(tmp_path),
        )
        second.start()
        second.drain()
        assert second.restart_mode == "warm"
        assert len(second.devices[0].io.service.sim.table("in_vlan")) == 2
        second.stop()

    def test_timer_racing_explicit_saves_keeps_chain_valid(self, tmp_path):
        """Regression: the background timer and an explicit
        ``save_checkpoint()`` caller race on the store's index/anchor
        bookkeeping; without the controller's checkpoint lock the chain
        interleaves into segments that do not validate."""
        project = build_snvs()
        db = Database(project.schema)
        switch = project.new_simulator(n_ports=16)
        controller = NerpaController(
            project,
            db,
            [switch],
            state_dir=str(tmp_path),
            checkpoint_interval_s=0.002,
        ).start()
        _snvs_config(db, (0,))
        controller.drain()

        stop = threading.Event()

        def churn():
            port = 1
            while not stop.is_set():
                db.transact(
                    [
                        {
                            "op": "insert",
                            "table": "Port",
                            "row": {
                                "name": f"p{port}",
                                "port_num": (port % 15) + 1,
                                "vlan_mode": "access",
                                "tag": 10,
                            },
                        }
                    ]
                )
                db.transact(
                    [
                        {
                            "op": "delete",
                            "table": "Port",
                            "where": [["name", "==", f"p{port}"]],
                        }
                    ]
                )
                port += 1

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            controller.save_checkpoint("full")
            for i in range(30):
                controller.save_checkpoint(
                    ("auto", "delta", "full")[i % 3]
                )
        finally:
            stop.set()
            churner.join(30.0)
        assert not churner.is_alive()
        controller.drain()
        controller.save_checkpoint()
        controller.stop()

        # The chain survived the race: a fresh controller warm-starts
        # from it and converges to the database's current state.
        second = NerpaController(
            project,
            db,
            [project.new_simulator(n_ports=16)],
            state_dir=str(tmp_path),
        )
        second.start()
        second.drain()
        assert second.restart_mode == "warm"
        assert len(second.devices[0].io.service.sim.table("in_vlan")) == 1
        second.stop()
