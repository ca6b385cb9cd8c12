"""`ShardedRuntime`: N per-shard engines behind the single-engine API.

The facade owns the three jobs that make shard count unobservable:

* **Routing** (the exchange step).  Input rows are validated and
  set-normalized here — mirroring :meth:`Runtime._normalize` exactly,
  warnings included — then partitioned rows go to their key's owner
  shard and replicated rows to every shard.  Because normalization
  happens before dispatch, per-shard engines never see a duplicate
  insert or an absent delete, so their own input states stay mutually
  consistent across transactions and checkpoints.

* **Merging** (global deduplication).  Each relation keeps a
  cross-shard reference count per row: how many shards currently derive
  it.  A shard delta moves the count; the facade emits +1 only on the
  0→1 transition and -1 only on the 1→0 transition.  This collapses the
  N identical copies of replicated relations into one logical row, and
  it is what makes DRed deletion correct across shards — a row deleted
  on one shard but still derived on another keeps a positive count and
  produces no global delta.

* **Checkpointing.**  ``checkpoint()`` nests one ordinary engine
  checkpoint per shard (each stamped with the program hash and keyed by
  shard id and shard count) plus the facade's own input state and
  reference counts.  Restore validates the whole bundle and falls back
  to a cold start on any mismatch, matching ``Runtime.restored``
  semantics so the controller's warm-start path works untouched.

Transactions only visit shards whose routed input set is non-empty; a
deterministic engine given no changes produces no deltas, so skipped
shards contribute nothing by construction.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro import obs
from repro.dlog.checkpoint import CHECKPOINT_FORMAT
from repro.dlog.dataflow.zset import ZSet
from repro.dlog.engine import checked_rows, rows_validator
from repro.dlog.shard.analyze import PARTITIONED, ShardPlan, analyze
from repro.dlog.shard.worker import make_worker
from repro.errors import TransactionError


def _deletes_first(delta: ZSet) -> None:
    """Reorder a merged delta so -1 rows iterate before +1 rows.

    The single engine's deltas are well-formed streams: within one
    transaction every retraction precedes every insertion, and the
    device fan-out's two-slot coalescing cells rely on that (a delete
    observed after an insert for the same match key cancels it).  A
    cross-shard merge interleaves shard results in arrival order, so an
    old row retracted on one shard could trail its replacement from
    another; restore the contract before handing the delta out.
    """
    data = delta.data
    has_pos = has_neg = False
    for weight in data.values():
        if weight > 0:
            has_pos = True
        else:
            has_neg = True
        if has_pos and has_neg:
            break
    if not (has_pos and has_neg):
        return
    ordered = {row: w for row, w in data.items() if w < 0}
    ordered.update((row, w) for row, w in data.items() if w > 0)
    delta.data = ordered


class ShardedRuntime:
    """Drop-in for :class:`~repro.dlog.engine.Runtime` at any shard count."""

    def __init__(
        self,
        program,
        shards: int,
        workers: str = "process",
        checkpoint: Optional[dict] = None,
        plan: Optional[ShardPlan] = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.program = program
        self.shards = shards
        self._journal: Optional[List[dict]] = None
        self.plan = plan if plan is not None else analyze(program)
        self._input_state: Dict[str, Set[tuple]] = {
            name: set() for name in program.input_relations
        }
        # Cross-shard reference counts: relation -> row -> #shards
        # currently deriving/holding the row.  Only relations that can
        # be multiply derived need them; a relation the plan proves
        # partitioned has every row on exactly one shard, so its shard
        # deltas are disjoint and merge with bulk dict updates instead
        # of per-row count transitions (the facade's hot path).
        self._counts: Dict[str, Dict[tuple, int]] = {}
        self._disjoint = {
            rel
            for rel, (kind, _) in self.plan.statuses.items()
            if kind == PARTITIONED
        }
        self._validators = {
            name: rows_validator(
                program.checked.relation(name), program.checked.tenv
            )
            for name in program.input_relations
        }
        self.txn_count = 0
        self.total_txn_time = 0.0
        self._obs_gen = -1
        self._metrics = None
        self._workers: List[object] = []
        self.worker_kind = workers

        shard_ckpts = self._extract_checkpoints(checkpoint)
        self.restored = shard_ckpts is not None
        if self.restored:
            self._start_workers(workers, shard_ckpts)
            if not all(w.ready["restored"] for w in self._workers):
                # Partial restore would leave shards inconsistent with
                # the facade's counts; abandon and start cold.
                self.close()
                self.restored = False
        if not self.restored:
            self._counts = {}
            for state in self._input_state.values():
                state.clear()
            self.txn_count = 0
            self.total_txn_time = 0.0
            self._start_workers(workers, [None] * shards)
        merged, warnings = self._merge(
            [w.ready["result"] for w in self._workers]
        )
        from repro.dlog.engine import TxnResult

        self.initial_result = TxnResult(
            {} if self.restored else merged,
            program.output_relations,
            warnings,
            0.0,
        )

    def _start_workers(self, kind: str, checkpoints: Sequence) -> None:
        self._workers = []
        for shard_id, ckpt in enumerate(checkpoints):
            used_kind, worker = make_worker(kind, self.program, shard_id, ckpt)
            self.worker_kind = used_kind
            self._workers.append(worker)

    # -- transactions ----------------------------------------------------------

    def enable_journal(self) -> None:
        """Record normalized facade-level input deltas per transaction
        (same format as :meth:`Runtime.enable_journal`); the journal
        captures the global rows, so replay through a facade of *any*
        shard count reproduces the same state."""
        if self._journal is None:
            self._journal = []

    def drain_journal(self) -> List[dict]:
        if self._journal is None:
            return []
        drained, self._journal = self._journal, []
        return drained

    def transaction(
        self,
        inserts: Optional[Mapping[str, Iterable[Sequence]]] = None,
        deletes: Optional[Mapping[str, Iterable[Sequence]]] = None,
        initial: bool = False,
    ):
        # ``initial`` is accepted for Runtime API parity; per-shard
        # engines detect the cold-load case from their own empty state.
        from repro.dlog.engine import TxnResult

        started = time.perf_counter()
        warnings: List[str] = []
        per_shard, routed, broadcast = self._route(
            inserts or {}, deletes or {}, warnings
        )
        t_routed = time.perf_counter()

        active = [
            (idx, changes)
            for idx, changes in enumerate(per_shard)
            if changes is not None
        ]
        for idx, changes in active:
            self._workers[idx].submit(
                "txn", changes["inserts"], changes["deletes"]
            )
        results = [self._workers[idx].result() for idx, _ in active]
        t_evaluated = time.perf_counter()

        merged, shard_warnings = self._merge(results)
        warnings.extend(shard_warnings)
        duration = time.perf_counter() - started
        self.txn_count += 1
        self.total_txn_time += duration
        if obs.ENABLED:
            self._observe(
                active,
                routed,
                broadcast,
                t_routed - started,
                t_evaluated - t_routed,
                duration - (t_evaluated - started),
            )
        return TxnResult(
            merged, self.program.output_relations, warnings, duration
        )

    def _route(self, inserts, deletes, warnings):
        """Normalize inputs and split them per shard.

        Returns ``(per_shard, routed, broadcast)`` where ``per_shard[i]``
        is ``None`` for untouched shards, and the two counters tally
        keyed rows sent to a single owner vs. rows sent everywhere.
        """
        for rel_name in set(inserts) | set(deletes):
            if rel_name not in self._input_state:
                raise TransactionError(f"{rel_name} is not an input relation")
        deletes = checked_rows(self._validators, deletes)
        inserts = checked_rows(self._validators, inserts)
        per_shard: List[Optional[dict]] = [None] * self.shards
        routed = broadcast = 0
        journal = self._journal
        entry: Optional[dict] = (
            {"inserts": {}, "deletes": {}} if journal is not None else None
        )

        def bucket(shard_id: int, key: str, rel: str) -> List[tuple]:
            changes = per_shard[shard_id]
            if changes is None:
                changes = per_shard[shard_id] = {
                    "inserts": {},
                    "deletes": {},
                }
            return changes[key].setdefault(rel, [])

        def dispatch(rel: str, row: tuple, key: str) -> int:
            owner = self.plan.route(rel, row, self.shards)
            if owner is None:
                for shard_id in range(self.shards):
                    bucket(shard_id, key, rel).append(row)
                return 0
            bucket(owner, key, rel).append(row)
            return 1

        # Deletes before inserts, duplicate/absent rows skipped with a
        # warning: byte-for-byte the single engine's normalization.
        for rel_name, rows in deletes.items():
            state = self._input_state[rel_name]
            for row in rows:
                if row not in state:
                    warnings.append(
                        f"{rel_name}: delete of absent row {row!r}"
                    )
                    continue
                state.discard(row)
                if entry is not None:
                    entry["deletes"].setdefault(rel_name, []).append(row)
                keyed = dispatch(rel_name, row, "deletes")
                routed += keyed
                broadcast += (1 - keyed) * self.shards
        for rel_name, rows in inserts.items():
            state = self._input_state[rel_name]
            added = set()
            for row in rows:
                if row in state or row in added:
                    warnings.append(
                        f"{rel_name}: duplicate insert {row!r}"
                    )
                    continue
                state.add(row)
                added.add(row)
                if entry is not None:
                    entry["inserts"].setdefault(rel_name, []).append(row)
                keyed = dispatch(rel_name, row, "inserts")
                routed += keyed
                broadcast += (1 - keyed) * self.shards
        if entry is not None and (entry["inserts"] or entry["deletes"]):
            journal.append(entry)
        return per_shard, routed, broadcast

    def _merge(self, results: Sequence[dict]):
        """Combine per-shard deltas into one global delta.

        Partitioned relations pass through disjointly (bulk update);
        everything else folds through the reference counts, emitting
        only global 0↔positive transitions."""
        merged: Dict[str, ZSet] = {}
        before: Dict[str, Dict[tuple, int]] = {}
        warnings: List[str] = []
        for result in results:
            warnings.extend(result["warnings"])
            for rel, rows in result["deltas"].items():
                if rel in self._disjoint:
                    existing = merged.get(rel)
                    if existing is None:
                        merged[rel] = ZSet(dict(rows))
                    else:
                        existing.data.update(rows)
                    continue
                counts = self._counts.setdefault(rel, {})
                first = before.setdefault(rel, {})
                for row, weight in rows.items():
                    first.setdefault(row, counts.get(row, 0))
                    new = counts.get(row, 0) + weight
                    if new:
                        counts[row] = new
                    else:
                        counts.pop(row, None)
        for rel, first in before.items():
            counts = self._counts.get(rel, {})
            delta = ZSet()
            for row, old in first.items():
                now = counts.get(row, 0)
                if old == 0 and now > 0:
                    delta.add(row, 1)
                elif old > 0 and now == 0:
                    delta.add(row, -1)
            if delta:
                merged[rel] = delta
        for delta in merged.values():
            _deletes_first(delta)
        return merged, warnings

    def _observe(
        self, active, routed, broadcast, t_route, t_eval, t_merge
    ) -> None:
        registry = obs.REGISTRY
        if self._metrics is None or self._obs_gen != registry.generation:
            self._obs_gen = registry.generation
            self._metrics = {
                "routed": registry.counter("shard_exchange_rows_total"),
                "broadcast": registry.counter("shard_broadcast_rows_total"),
                "txns": registry.counter("shard_txns_total"),
                "route_s": registry.histogram("shard_stage_route_seconds"),
                "eval_s": registry.histogram("shard_stage_eval_seconds"),
                "merge_s": registry.histogram("shard_stage_merge_seconds"),
                "depth": [
                    registry.gauge("shard_queue_depth", shard=str(i))
                    for i in range(self.shards)
                ],
            }
        m = self._metrics
        m["routed"].inc(routed)
        m["broadcast"].inc(broadcast)
        m["txns"].inc()
        m["route_s"].observe(t_route)
        m["eval_s"].observe(t_eval)
        m["merge_s"].observe(t_merge)
        pending = {
            idx: sum(
                len(rows)
                for key in ("inserts", "deletes")
                for rows in changes[key].values()
            )
            for idx, changes in active
        }
        for idx, gauge in enumerate(m["depth"]):
            gauge.set(pending.get(idx, 0))

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> dict:
        for worker in self._workers:
            worker.submit("checkpoint")
        shard_ckpts = [
            {
                "shard_id": shard_id,
                "shard_count": self.shards,
                "program_hash": self.program.program_hash,
                "engine": worker.result(),
            }
            for shard_id, worker in enumerate(self._workers)
        ]
        return {
            "format": CHECKPOINT_FORMAT,
            "sharded": True,
            "program_hash": self.program.program_hash,
            "shard_count": self.shards,
            "inputs": {
                name: set(rows) for name, rows in self._input_state.items()
            },
            "counts": {
                rel: dict(rows) for rel, rows in self._counts.items()
            },
            "shards": shard_ckpts,
            "txn_count": self.txn_count,
            "total_txn_time": self.total_txn_time,
        }

    def _extract_checkpoints(self, data) -> Optional[List[dict]]:
        """Validate a sharded checkpoint against this configuration;
        ``None`` (→ cold start) on any mismatch."""
        if not isinstance(data, dict) or not data.get("sharded"):
            return None
        if data.get("format") != CHECKPOINT_FORMAT:
            return None
        phash = self.program.program_hash
        if phash is None or data.get("program_hash") != phash:
            return None
        if data.get("shard_count") != self.shards:
            return None
        shard_ckpts = data.get("shards")
        if (
            not isinstance(shard_ckpts, list)
            or len(shard_ckpts) != self.shards
        ):
            return None
        engines = []
        for shard_id, entry in enumerate(shard_ckpts):
            if not isinstance(entry, dict):
                return None
            if (
                entry.get("shard_id") != shard_id
                or entry.get("shard_count") != self.shards
                or entry.get("program_hash") != phash
            ):
                return None
            engines.append(entry.get("engine"))
        inputs = data.get("inputs", {})
        if set(inputs) != set(self._input_state):
            return None
        for name, rows in inputs.items():
            self._input_state[name] = set(rows)
        self._counts = {
            rel: dict(rows)
            for rel, rows in data.get("counts", {}).items()
        }
        self.txn_count = data.get("txn_count", 0)
        self.total_txn_time = data.get("total_txn_time", 0.0)
        return engines

    # -- inspection ------------------------------------------------------------

    def dump(self, relation: str) -> Set[tuple]:
        """Current global contents of any relation."""
        if relation in self._input_state:
            return set(self._input_state[relation])
        if relation not in self.program.checked.relations:
            raise KeyError(f"unknown relation {relation!r}")
        for worker in self._workers:
            worker.submit("dump", relation)
        out: Set[tuple] = set()
        for worker in self._workers:
            out |= worker.result()
        return out

    def state_size(self) -> int:
        for worker in self._workers:
            worker.submit("state_size")
        return sum(worker.result() for worker in self._workers)

    def profile(self) -> Dict[str, object]:
        for worker in self._workers:
            worker.submit("profile")
        return {
            "transactions": self.txn_count,
            "total_txn_time": self.total_txn_time,
            "shards": self.shards,
            "workers": self.worker_kind,
            "plan": self.plan.explain(),
            "per_shard": [worker.result() for worker in self._workers],
        }

    def close(self) -> None:
        for worker in self._workers:
            worker.close()
        self._workers = []
