"""Unit tests for `repro.dlog.shard`: partition analysis, routing
stability, worker lifecycles, checkpoint compatibility, and the obs
instrumentation of the sharded facade.

The end-to-end correctness story (sharded vs single-shard vs full
recompute, under hypothesis-generated programs) lives in
``test_differential.py``; this file pins the mechanisms.
"""

import pickle

import pytest

from repro import obs
from repro.dlog import compile_program
from repro.dlog.shard import (
    PARTITIONED,
    ShardedRuntime,
    analyze,
    shard_for,
)
from repro.dlog.shard.worker import ProcessWorker, make_worker
from repro.errors import TransactionError

JOIN_SRC = """
input relation Port(port: bigint, vlan: bigint)
input relation Trunk(vlan: bigint, uplink: bigint)
output relation InVlan(port: bigint, vlan: bigint)
output relation Uplinked(port: bigint, uplink: bigint)
InVlan(p, v) :- Port(p, v).
Uplinked(p, u) :- Port(p, v), Trunk(v, u).
"""

CLOSURE_SRC = """
input relation Edge(src: bigint, dst: bigint)
output relation Reach(src: bigint, dst: bigint)
Reach(a, b) :- Edge(a, b).
Reach(a, c) :- Reach(a, b), Edge(b, c).
"""

NEG_SRC = """
input relation Port(port: bigint, vlan: bigint)
input relation Blocked(port: bigint)
output relation Active(port: bigint, vlan: bigint)
Active(p, v) :- Port(p, v), not Blocked(p).
"""

AGG_SRC = """
input relation Port(port: bigint, vlan: bigint)
output relation VlanSize(vlan: bigint, n: bigint)
VlanSize(v, n) :- Port(p, v), var n = Aggregate((v), count()).
"""

GLOBAL_AGG_SRC = """
input relation Port(port: bigint, vlan: bigint)
output relation Total(n: bigint)
Total(n) :- Port(p, v), var n = Aggregate((), count()).
"""


class TestPartitionAnalysis:
    def test_equi_join_co_partitions_on_the_link_column(self):
        plan = analyze(compile_program(JOIN_SRC))
        assert plan.status("Port") == (PARTITIONED, 1)
        assert plan.status("Trunk") == (PARTITIONED, 0)

    def test_head_carrying_partition_var_stays_partitioned(self):
        plan = analyze(compile_program(JOIN_SRC))
        # InVlan(p, v) carries the key variable v at position 1.
        assert plan.status("InVlan") == (PARTITIONED, 1)

    def test_non_key_closed_recursion_demotes_to_broadcast(self):
        plan = analyze(compile_program(CLOSURE_SRC))
        assert plan.is_replicated("Edge")
        assert plan.is_replicated("Reach")
        assert plan.notes  # the demotion explains itself

    def test_negation_co_partitions_when_keys_align(self):
        plan = analyze(compile_program(NEG_SRC))
        assert plan.status("Port") == (PARTITIONED, 0)
        assert plan.status("Blocked") == (PARTITIONED, 0)

    def test_aggregate_keyed_by_partition_var_is_shard_local(self):
        plan = analyze(compile_program(AGG_SRC))
        assert plan.status("Port") == (PARTITIONED, 1)
        assert plan.status("VlanSize") == (PARTITIONED, 0)

    def test_global_aggregate_forces_broadcast(self):
        plan = analyze(compile_program(GLOBAL_AGG_SRC))
        assert plan.is_replicated("Port")
        assert any("aggregate" in note for note in plan.notes)

    def test_explain_names_every_relation(self):
        text = analyze(compile_program(JOIN_SRC)).explain()
        for rel in ("Port", "Trunk", "InVlan", "Uplinked"):
            assert rel in text


class TestRouting:
    def test_shard_for_is_stable_across_processes(self):
        """The routing hash must not be Python's salted ``hash()``:
        a row's delete (possibly after restore into a new process) must
        land on the shard holding its insert."""
        import subprocess
        import sys

        values = [0, 17, "vlan-7", (1, "x"), 3.5, True]
        here = [shard_for(v, 8) for v in values]
        code = (
            "from repro.dlog.shard import shard_for\n"
            f"print([shard_for(v, 8) for v in {values!r}])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"},
        )
        assert eval(out.stdout) == here

    def test_partitioned_rows_route_to_one_shard(self):
        plan = analyze(compile_program(JOIN_SRC))
        owner = plan.route("Port", (1, 10), 4)
        assert owner == shard_for(10, 4)

    def test_replicated_rows_broadcast(self):
        plan = analyze(compile_program(CLOSURE_SRC))
        assert plan.route("Edge", (1, 2), 4) is None


class TestShardedRuntimeFacade:
    def test_rejects_zero_shards(self):
        program = compile_program(JOIN_SRC)
        with pytest.raises(ValueError):
            ShardedRuntime(program, shards=0)

    def test_unknown_worker_kind_rejected(self):
        program = compile_program(JOIN_SRC)
        with pytest.raises(ValueError, match="unknown shard_workers"):
            ShardedRuntime(program, shards=2, workers="thread")

    def test_non_input_relation_rejected_before_dispatch(self):
        program = compile_program(JOIN_SRC)
        sharded = ShardedRuntime(program, shards=2, workers="inline")
        try:
            with pytest.raises(TransactionError, match="InVlan"):
                sharded.transaction(inserts={"InVlan": [(1, 2)]})
        finally:
            sharded.close()

    def test_duplicate_and_absent_warnings_match_single_engine(self):
        program = compile_program(JOIN_SRC)
        single = program.start()
        sharded = ShardedRuntime(program, shards=3, workers="inline")
        changes = {
            "inserts": {"Port": [(1, 10), (1, 10)]},
            "deletes": {"Trunk": [(99, 99)]},
        }
        try:
            expect = single.transaction(**changes)
            got = sharded.transaction(**changes)
            assert expect.warnings == got.warnings
            assert len(got.warnings) == 2
        finally:
            sharded.close()

    def test_untouched_shards_are_skipped(self):
        """A transaction only visits shards that received rows."""
        program = compile_program(JOIN_SRC)
        sharded = ShardedRuntime(program, shards=4, workers="inline")
        try:
            sharded.transaction(inserts={"Port": [(1, 10)]})
            counts = [
                w._runtime.txn_count for w in sharded._workers
            ]
            # Every worker ran the initial transaction; exactly one saw
            # the single keyed row.
            assert sorted(counts) == [1, 1, 1, 2]
        finally:
            sharded.close()

    def test_start_shards_knob_returns_facade(self):
        program = compile_program(JOIN_SRC)
        runtime = program.start(shards=2, shard_workers="inline")
        try:
            assert isinstance(runtime, ShardedRuntime)
            assert runtime.shards == 2
        finally:
            runtime.close()

    def test_state_size_and_profile_aggregate_all_shards(self):
        program = compile_program(JOIN_SRC)
        sharded = ShardedRuntime(program, shards=2, workers="inline")
        try:
            sharded.transaction(
                inserts={"Port": [(1, 10), (2, 20)], "Trunk": [(10, 5)]}
            )
            assert sharded.state_size() > 0
            profile = sharded.profile()
            assert profile["shards"] == 2
            assert len(profile["per_shard"]) == 2
            assert "partitioned" in profile["plan"]
        finally:
            sharded.close()


MODIFY_SRC = """
input relation Cfg(u: string, port: bigint, out: bigint)
output relation Patch(port: bigint, out: bigint)
Patch(p, o) :- Cfg(_, p, o).
"""


class TestMergeOrdering:
    """A merged delta must be a well-formed stream: retractions before
    insertions.  The device fan-out's two-slot cells cancel a pending
    insert when a delete for the same match key follows it, so an
    insert-first interleaving from a cross-shard modify silently
    dropped the new row (regression: stale device entries under churn
    through a uuid-partitioned input)."""

    @staticmethod
    def _uuid_on_shard(shard, shards=2):
        for i in range(1000):
            u = f"row-{i}"
            if shard_for(u, shards) == shard:
                return u
        raise AssertionError("no uuid found")

    def test_cross_shard_modify_emits_delete_before_insert(self):
        program = compile_program(MODIFY_SRC)
        plan = analyze(program)
        assert plan.statuses["Cfg"] == (PARTITIONED, 0)  # premise
        # Old row lives on shard 1, its replacement on shard 0, so the
        # un-ordered merge would emit the insert (shard 0 reports
        # first) ahead of the delete.
        old_u = self._uuid_on_shard(1)
        new_u = self._uuid_on_shard(0)
        sharded = ShardedRuntime(program, shards=2, workers="inline")
        try:
            sharded.transaction(inserts={"Cfg": [(old_u, 1, 5)]})
            result = sharded.transaction(
                inserts={"Cfg": [(new_u, 1, 7)]},
                deletes={"Cfg": [(old_u, 1, 5)]},
            )
            assert list(result.deltas["Patch"].data.items()) == [
                ((1, 5), -1),
                ((1, 7), 1),
            ]
        finally:
            sharded.close()

    def test_partitioned_passthrough_is_also_ordered(self):
        program = compile_program(MODIFY_SRC)
        old_u = self._uuid_on_shard(1)
        new_u = self._uuid_on_shard(0)
        sharded = ShardedRuntime(program, shards=2, workers="inline")
        try:
            sharded.transaction(inserts={"Cfg": [(old_u, 1, 5)]})
            result = sharded.transaction(
                inserts={"Cfg": [(new_u, 1, 7)]},
                deletes={"Cfg": [(old_u, 1, 5)]},
            )
            weights = list(result.deltas["Cfg"].data.values())
            assert weights == sorted(weights)  # all -1s, then all +1s
        finally:
            sharded.close()


class TestShardedCheckpoints:
    def _checkpointed(self, shards=2):
        program = compile_program(JOIN_SRC)
        sharded = ShardedRuntime(program, shards=shards, workers="inline")
        sharded.transaction(
            inserts={"Port": [(1, 10), (2, 20)], "Trunk": [(10, 5)]}
        )
        snapshot = sharded.checkpoint()
        sharded.close()
        return program, snapshot

    def test_checkpoint_keyed_by_shard_id_and_count(self):
        program, snapshot = self._checkpointed()
        assert snapshot["sharded"] is True
        assert snapshot["shard_count"] == 2
        for shard_id, entry in enumerate(snapshot["shards"]):
            assert entry["shard_id"] == shard_id
            assert entry["shard_count"] == 2
            assert entry["program_hash"] == program.program_hash

    def test_checkpoint_is_picklable(self):
        _, snapshot = self._checkpointed()
        assert pickle.loads(pickle.dumps(snapshot))["shard_count"] == 2

    def test_restore_matching_count(self):
        program, snapshot = self._checkpointed()
        resumed = ShardedRuntime(
            program, shards=2, workers="inline", checkpoint=snapshot
        )
        try:
            assert resumed.restored
            assert resumed.dump("Uplinked") == {(1, 5)}
        finally:
            resumed.close()

    def test_shard_count_change_degrades_to_cold_start(self):
        program, snapshot = self._checkpointed(shards=2)
        resumed = ShardedRuntime(
            program, shards=4, workers="inline", checkpoint=snapshot
        )
        try:
            assert not resumed.restored
            assert resumed.dump("Port") == set()
        finally:
            resumed.close()

    def test_single_runtime_rejects_sharded_bundle(self):
        program, snapshot = self._checkpointed()
        runtime = program.start(checkpoint=snapshot)
        assert not runtime.restored

    def test_sharded_rejects_single_engine_checkpoint(self):
        program = compile_program(JOIN_SRC)
        single = program.start()
        single.transaction(inserts={"Port": [(1, 10)]})
        snapshot = single.checkpoint()
        sharded = ShardedRuntime(
            program, shards=2, workers="inline", checkpoint=snapshot
        )
        try:
            assert not sharded.restored
        finally:
            sharded.close()

    def test_program_change_degrades_to_cold_start(self):
        _, snapshot = self._checkpointed()
        other = compile_program(JOIN_SRC + "\n// changed\n")
        resumed = ShardedRuntime(
            other, shards=2, workers="inline", checkpoint=snapshot
        )
        try:
            assert not resumed.restored
        finally:
            resumed.close()


class TestProcessWorkers:
    def test_worker_round_trip_and_close(self):
        program = compile_program(JOIN_SRC)
        worker = ProcessWorker(program, shard_id=0, checkpoint=None)
        try:
            assert worker.ready["restored"] is False
            worker.submit("txn", {"Port": [(1, 10)]}, {})
            result = worker.result()
            assert result["deltas"]["Port"] == {(1, 10): 1}
            worker.submit("dump", "InVlan")
            assert worker.result() == {(1, 10)}
        finally:
            worker.close()
        assert not worker._proc.is_alive()

    def test_errors_propagate_from_child(self):
        program = compile_program(JOIN_SRC)
        worker = ProcessWorker(program, shard_id=0, checkpoint=None)
        try:
            worker.submit("dump", "NoSuchRelation")
            with pytest.raises(KeyError):
                worker.result()
            # The worker survives a failed request.
            worker.submit("state_size")
            assert worker.result() == 0
        finally:
            worker.close()

    def test_process_falls_back_to_inline_without_source(self):
        program = compile_program(JOIN_SRC)
        program.source_text = None
        kind, worker = make_worker("process", program, 0, None)
        try:
            assert kind == "inline"
        finally:
            worker.close()

    def test_close_is_idempotent(self):
        program = compile_program(JOIN_SRC)
        sharded = ShardedRuntime(program, shards=2, workers="process")
        sharded.close()
        sharded.close()


class TestShardObservability:
    pytestmark = pytest.mark.serial  # enables/resets the global obs registry

    def test_exchange_counters_and_stage_timings(self):
        program = compile_program(JOIN_SRC)
        obs.enable()
        try:
            sharded = ShardedRuntime(program, shards=2, workers="inline")
            try:
                sharded.transaction(
                    inserts={"Port": [(1, 10), (2, 20)], "Trunk": [(10, 5)]}
                )
                snap = obs.REGISTRY.snapshot()
                assert snap["counters"]["shard_exchange_rows_total"] == 3
                assert snap["counters"]["shard_txns_total"] == 1
                hists = snap["histograms"]
                for stage in ("route", "eval", "merge"):
                    assert (
                        hists[f"shard_stage_{stage}_seconds"]["count"] == 1
                    )
                gauges = snap["gauges"]
                assert 'shard_queue_depth{shard="0"}' in gauges
            finally:
                sharded.close()
        finally:
            obs.disable()
            obs.reset()

    def test_broadcast_counter_counts_replicated_fanout(self):
        program = compile_program(CLOSURE_SRC)
        obs.enable()
        try:
            sharded = ShardedRuntime(program, shards=4, workers="inline")
            try:
                sharded.transaction(inserts={"Edge": [(1, 2), (2, 3)]})
                snap = obs.REGISTRY.snapshot()
                assert snap["counters"]["shard_broadcast_rows_total"] == 8
                assert (
                    snap["counters"].get("shard_exchange_rows_total", 0)
                    == 0
                )
            finally:
                sharded.close()
        finally:
            obs.disable()
            obs.reset()
