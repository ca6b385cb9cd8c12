"""The incremental Datalog engine: compilation and transactions.

``compile_program`` turns source text into a :class:`CompiledProgram`:
parse → typecheck → stratify → plan.  ``CompiledProgram.start()``
creates a :class:`Runtime` whose :meth:`~Runtime.transaction` applies a
batch of input inserts/deletes and returns only the resulting *changes*
of every derived relation — the paper's key control-plane property.

Architecture
------------

One dataflow graph covers the whole program:

* every relation has a node — input relations a pass-through source,
  non-recursive derived relations a Distinct (set semantics over the
  union of their rules), recursive relations a pass-through fed by
  their SCC's evaluator node;
* every non-recursive rule is its stateful operators (join, antijoin,
  aggregate) wired between relation nodes by :mod:`repro.dlog.plan`,
  its linear items and head running inside them;
* every recursive SCC is a single :class:`~repro.dlog.recursive.SccNode`
  (rank-checked deletion); its *base rules* (no recursion in the body)
  are planned as ordinary dataflow feeding a synthetic ``__base_<rel>``
  relation that enters the SCC like any other external input.  Every
  relation node, synthetic ones included, exists before any rule is
  planned.

Facts (rules with no body atoms) are evaluated at compile time and
injected as an initial transaction by :meth:`CompiledProgram.start`.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro import obs
from repro.dlog import ast as A
from repro.dlog import types as T
from repro.dlog.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    program_hash,
)
from repro.dlog.dataflow.arrangement import Arrangement
from repro.dlog.dataflow.graph import Graph
from repro.dlog.dataflow.operators import (
    AggregateNode,
    AntiJoinNode,
    DistinctNode,
    JoinNode,
    Node,
    SourceNode,
)
from repro.dlog.dataflow.zset import ZSet
from repro.dlog.interp import Evaluator
from repro.dlog.parser import parse_program
from repro.dlog.plan import Planner
from repro.dlog.recursive import SccEvaluator, SccNode
from repro.dlog.stratify import Stratification, stratify
from repro.dlog.typecheck import CheckedProgram, check_program
from repro.dlog.values import MapValue, StructValue
from repro.errors import TransactionError

BASE_PREFIX = "__base_"


def _is_recursive_rule(rule: A.Rule, members: Set[str]) -> bool:
    for item in rule.body:
        if isinstance(item, A.AtomItem) and item.atom.relation in members:
            return True
    return False


def _make_base_rule(member: str, arity: int) -> A.Rule:
    """Synthesize ``Member(a0..an) :- __base_Member(a0..an).``"""
    args = [A.PVar(f"__a{i}") for i in range(arity)]
    head = A.Atom(member, args)
    body = [A.AtomItem(A.Atom(BASE_PREFIX + member, [A.PVar(f"__a{i}") for i in range(arity)]))]
    rule = A.Rule(head, body, name=f"{member}:base")
    return rule


class CompiledProgram:
    """A compiled program; create runtimes with :meth:`start`."""

    def __init__(
        self,
        checked: CheckedProgram,
        recursive_mode: str = "dred",
        source_text: Optional[str] = None,
    ):
        self.checked = checked
        self.recursive_mode = recursive_mode
        self.source_text = source_text
        self.evaluator = Evaluator(checked)
        self.planner = Planner(checked, self.evaluator)
        self.stratification: Stratification = stratify(
            [r.name for r in checked.ast.relations], checked.ast.rules
        )
        self.input_relations: List[str] = [
            r.name for r in checked.ast.relations if r.role == "input"
        ]
        self.output_relations: List[str] = [
            r.name for r in checked.ast.relations if r.role == "output"
        ]
        self._shard_plan = None

    @property
    def program_hash(self) -> Optional[str]:
        """Checkpoint-compatibility identity; ``None`` when the program
        was built without source text (checkpoints then unavailable)."""
        if self.source_text is None:
            return None
        return program_hash(self.source_text, self.recursive_mode)

    def start(
        self,
        checkpoint: Optional[dict] = None,
        shards: int = 1,
        shard_workers: str = "process",
    ):
        """Create a runtime; with ``checkpoint`` (from
        :meth:`Runtime.checkpoint`), restore its state in O(state)
        instead of recomputing.  A checkpoint whose program hash does
        not match this program falls back to a cold start; check
        ``Runtime.restored`` to see which path was taken.

        ``checkpoint`` may also be a delta chain bundle
        (``{"delta_chain": True, "full": <snapshot-or-None>,
        "segments": [...]}``, see :mod:`repro.dlog.checkpoint`): the
        full snapshot is restored first and the journaled segments are
        replayed on top.

        ``shards > 1`` returns a :class:`~repro.dlog.shard.ShardedRuntime`
        — the same API over N per-shard engines (``shard_workers`` picks
        ``"process"`` or ``"inline"`` evaluation); checkpoints are then
        sharded bundles, incompatible across shard counts.
        """
        if isinstance(checkpoint, dict) and checkpoint.get("delta_chain"):
            from repro.dlog.checkpoint import replay_segments

            segments = checkpoint.get("segments") or []
            full = checkpoint.get("full")
            runtime = self.start(
                checkpoint=full, shards=shards, shard_workers=shard_workers
            )
            # Only replay on top of the state the segments were cut
            # against; if the full snapshot fell back to a cold start,
            # replaying deltas would corrupt it.
            if full is None or runtime.restored:
                replay_segments(runtime, segments, self.program_hash)
            return runtime
        if shards > 1:
            from repro.dlog.shard.runtime import ShardedRuntime

            return ShardedRuntime(
                self,
                shards=shards,
                workers=shard_workers,
                checkpoint=checkpoint,
                plan=self.shard_plan(),
            )
        return Runtime(self, checkpoint=checkpoint)

    def shard_plan(self):
        """The program's partition analysis (cached); see
        :func:`repro.dlog.shard.analyze`."""
        if self._shard_plan is None:
            from repro.dlog.shard.analyze import analyze

            self._shard_plan = analyze(self)
        return self._shard_plan

    def relation_decl(self, name: str) -> A.RelationDecl:
        return self.checked.relation(name)

    def explain(self) -> str:
        """Human-readable description of the compiled evaluation plan:
        strata in execution order, which are recursive, and the rules
        deriving each relation."""
        strat = self.stratification
        rules_by_head: Dict[str, List[A.Rule]] = {}
        for rule in self.checked.ast.rules:
            rules_by_head.setdefault(rule.head.relation, []).append(rule)
        lines = []
        for idx, scc in enumerate(strat.order):
            kind = "recursive (DRed)" if strat.recursive[idx] else "dataflow"
            lines.append(f"stratum {idx} [{kind}]: {', '.join(scc)}")
            for rel in scc:
                decl = self.checked.relations.get(rel)
                role = decl.role if decl else "?"
                n_rules = len(rules_by_head.get(rel, ()))
                lines.append(f"  {rel} ({role}, {n_rules} rule(s))")
                for rule in rules_by_head.get(rel, ()):
                    body = []
                    for item in rule.body:
                        if isinstance(item, A.AtomItem):
                            body.append(item.atom.relation)
                        elif isinstance(item, A.NegAtom):
                            body.append(f"not {item.atom.relation}")
                        elif isinstance(item, A.AggregateItem):
                            body.append(f"aggregate({item.func})")
                        elif isinstance(item, A.FlatMapItem):
                            body.append("flatmap")
                        elif isinstance(item, A.Guard):
                            body.append("guard")
                        elif isinstance(item, A.Assignment):
                            body.append("assign")
                    lines.append(
                        f"    :- {', '.join(body) if body else '<fact>'}"
                    )
        return "\n".join(lines)


def compile_program(
    text: str, source: str = "<input>", recursive_mode: str = "dred"
) -> CompiledProgram:
    """Parse, typecheck, stratify, and plan a program.

    ``recursive_mode`` selects how recursive SCCs handle deletions:
    ``"dred"`` (default, incremental rank-checked deletion — see
    :mod:`repro.dlog.recursive`) or ``"recompute"`` (full fixpoint per
    transaction; kept as an ablation baseline).
    """
    ast = parse_program(text, source)
    checked = check_program(ast)
    return CompiledProgram(checked, recursive_mode, source_text=text)


class TxnResult:
    """Outcome of one transaction.

    ``deltas`` maps every derived relation touched by the transaction to
    its change Z-set (+1 inserted row, -1 deleted row); relations whose
    contents did not change are absent.  ``outputs`` restricts that to
    ``output relation`` declarations.  ``warnings`` records ignored
    duplicate inserts / missing deletes.
    """

    def __init__(
        self,
        deltas: Dict[str, ZSet],
        output_names: Sequence[str],
        warnings: List[str],
        duration: float,
    ):
        self.deltas = deltas
        self._output_names = set(output_names)
        self.warnings = warnings
        self.duration = duration

    @property
    def outputs(self) -> Dict[str, ZSet]:
        return {
            name: delta
            for name, delta in self.deltas.items()
            if name in self._output_names
        }

    def inserted(self, relation: str) -> List[tuple]:
        delta = self.deltas.get(relation)
        if delta is None:
            return []
        return [row for row, w in delta.items() if w > 0]

    def deleted(self, relation: str) -> List[tuple]:
        delta = self.deltas.get(relation)
        if delta is None:
            return []
        return [row for row, w in delta.items() if w < 0]

    def __repr__(self):
        changed = ", ".join(sorted(self.deltas))
        return f"TxnResult(changed=[{changed}], warnings={len(self.warnings)})"


class Runtime:
    """A running instance of a compiled program."""

    def __init__(
        self, program: CompiledProgram, checkpoint: Optional[dict] = None
    ):
        self.program = program
        self.checked = program.checked
        self.graph = Graph()
        self.relation_nodes: Dict[str, Node] = {}
        self.scc_evaluators: Dict[int, SccEvaluator] = {}
        self._input_state: Dict[str, Set[tuple]] = {
            name: set() for name in program.input_relations
        }
        self._validators = {
            rel.name: rows_validator(rel, self.checked.tenv)
            for rel in self.checked.ast.relations
        }
        self._journal: Optional[List[dict]] = None
        self._static_rows: Dict[str, ZSet] = {}
        self._node_stratum: Dict[int, int] = {}
        self.operator_totals: Dict[str, Dict[str, float]] = {}
        self._obs_handles: Optional[Tuple[int, object]] = None
        self.txn_count = 0
        self.total_txn_time = 0.0
        self._build()
        self.restored = (
            checkpoint is not None and self._restore(checkpoint)
        )
        if self.restored:
            # The restored operator state already contains the static
            # rows and every prior transaction's effects; re-running the
            # initial transaction would double-count them.
            self.initial_result = TxnResult(
                {}, program.output_relations, [], 0.0
            )
        else:
            self.initial_result = self._apply({}, initial=True)

    # -- construction -------------------------------------------------------------

    def _build(self) -> None:
        checked = self.checked
        strat = self.program.stratification
        graph = self.graph

        # Relation nodes.
        recursive_members: Set[str] = set()
        for scc_idx, scc in enumerate(strat.order):
            if strat.recursive[scc_idx]:
                recursive_members.update(scc)
        for rel in checked.ast.relations:
            if rel.role == "input":
                node: Node = SourceNode(name=f"input({rel.name})")
            elif rel.name in recursive_members:
                node = SourceNode(name=f"recursive({rel.name})")
            else:
                node = DistinctNode(name=f"relation({rel.name})")
            self.relation_nodes[rel.name] = graph.add(node)
            self._node_stratum[id(node)] = strat.scc_of[rel.name]

        # Partition rules: non-recursive ones are planned as dataflow;
        # recursive SCC rules go to their SCC evaluator, with their base
        # rules planned as dataflow into a synthetic base relation — a
        # Distinct over their outputs, built here so that every relation
        # node exists before any rule is planned.
        scc_rules: Dict[int, List[A.Rule]] = {}
        planned: List[Tuple[A.Rule, str]] = []
        for rule in checked.ast.rules:
            head = rule.head.relation
            scc_idx = strat.scc_of[head]
            if not strat.recursive[scc_idx]:
                planned.append((rule, head))
                continue
            members = set(strat.order[scc_idx])
            if _is_recursive_rule(rule, members):
                scc_rules.setdefault(scc_idx, []).append(rule)
                continue
            base_name = BASE_PREFIX + head
            if base_name not in self.relation_nodes:
                node = DistinctNode(name=f"relation({base_name})")
                self.relation_nodes[base_name] = graph.add(node)
                self._node_stratum[id(node)] = scc_idx
                checked.relations.setdefault(
                    base_name,
                    A.RelationDecl(
                        base_name, list(checked.relations[head].columns), "internal"
                    ),
                )
            planned.append((rule, base_name))
        for rule, target in planned:
            self._plan_into(rule, target)

        # SCC evaluator nodes.
        for scc_idx, rules in sorted(scc_rules.items()):
            members = list(strat.order[scc_idx])
            synthetic: List[A.Rule] = []
            for member in members:
                base_name = BASE_PREFIX + member
                if base_name in self.relation_nodes:
                    rule = _make_base_rule(
                        member, checked.relations[member].arity
                    )
                    checked.head_exprs[id(rule)] = [
                        A.Var(f"__a{i}")
                        for i in range(checked.relations[member].arity)
                    ]
                    synthetic.append(rule)
            evaluator = SccEvaluator(
                members,
                rules + synthetic,
                checked,
                self.program.evaluator,
                mode=self.program.recursive_mode,
            )
            self.scc_evaluators[scc_idx] = evaluator
            scc_node = SccNode(evaluator)
            graph.add(scc_node)
            self._node_stratum[id(scc_node)] = scc_idx
            for port, ext in enumerate(scc_node.externals):
                self.relation_nodes[ext].connect_to(scc_node, port)
            for member in members:
                scc_node.connect_to(
                    self.relation_nodes[member], 0, out_key=member
                )

    def _plan_into(self, rule: A.Rule, target_relation: str) -> None:
        planner = self.program.planner
        rows = planner.fact_rows(rule)
        if rows is not None:
            self._static_rows.setdefault(target_relation, ZSet()).merge(ZSet(rows))
            return
        head = target_relation
        if head.startswith(BASE_PREFIX):
            head = head[len(BASE_PREFIX):]
        stratum = self.program.stratification.scc_of.get(head)
        for node in planner.plan_rule(
            rule, self.relation_nodes, self.relation_nodes[target_relation]
        ):
            self.graph.add(node)
            if stratum is not None:
                self._node_stratum[id(node)] = stratum

    # -- transactions -----------------------------------------------------------------

    def transaction(
        self,
        inserts: Optional[Mapping[str, Iterable[Sequence]]] = None,
        deletes: Optional[Mapping[str, Iterable[Sequence]]] = None,
    ) -> TxnResult:
        """Apply input changes; return the deltas of all derived relations.

        Duplicate inserts and deletes of absent rows are ignored with a
        warning (input relations are sets).  Rows are validated against
        the relation's declared column types.
        """
        return self._apply({"inserts": inserts or {}, "deletes": deletes or {}})

    def _apply(self, changes, initial: bool = False) -> TxnResult:
        if not obs.ENABLED:
            return self._apply_inner(changes, initial, None)
        # Per-operator profiling (detail tier) costs on the order of the
        # transaction itself for tiny incremental updates, so the
        # standard tier records only the span and the registry metrics —
        # and only records the span at all when the transaction is part
        # of a causal trace (an enclosing span or update-id exists).  A
        # bare Runtime.transaction() call has nothing to attribute the
        # span to, so it pays just the histogram.
        detail = obs.detail_enabled()
        if detail:
            with obs.TRACER.span("engine.transaction") as span:
                profile: List[Tuple[Node, float, int, int]] = []
                result = self._apply_inner(changes, initial, profile)
                operators, strata = self._summarize_profile(profile)
                span.set(
                    initial=initial,
                    deltas={r: len(d) for r, d in result.deltas.items()},
                    operators=operators,
                    stratum_seconds=strata,
                )
        elif (
            obs.TRACER.active() is not None
            or obs.current_update_id() is not None
        ):
            with obs.TRACER.span("engine.transaction"):
                result = self._apply_inner(changes, initial, None)
        else:
            result = self._apply_inner(changes, initial, None)
        # One registry update per transaction: the histogram's exact
        # ``count`` doubles as the transaction counter, so no separate
        # Counter (and its lock) is paid on this path.
        registry = obs.REGISTRY
        handles = self._obs_handles
        if handles is None or handles[0] != registry.generation:
            handles = self._obs_handles = (
                registry.generation,
                registry.histogram("engine_txn_seconds"),
            )
        handles[1].observe(result.duration)
        return result

    def _apply_inner(self, changes, initial, profile) -> TxnResult:
        started = time.perf_counter()
        warnings: List[str] = []
        source_deltas: Dict[int, ZSet] = {}

        journal = self._journal
        entry: Optional[dict] = None
        if journal is not None and not initial:
            entry = {"inserts": {}, "deletes": {}}

        if initial:
            for rel_name, delta in self._static_rows.items():
                node = self.relation_nodes[rel_name]
                source_deltas.setdefault(id(node), ZSet()).merge(delta)
        else:
            inserts = changes["inserts"]
            deletes = changes["deletes"]
            for rel_name in set(inserts) | set(deletes):
                if rel_name not in self._input_state:
                    raise TransactionError(
                        f"{rel_name} is not an input relation"
                    )
            deletes = checked_rows(self._validators, deletes)
            inserts = checked_rows(self._validators, inserts)
            for rel_name, rows in deletes.items():
                delta = self._normalize(
                    rel_name, rows, insert=False, warnings=warnings
                )
                if delta:
                    node = self.relation_nodes[rel_name]
                    source_deltas.setdefault(id(node), ZSet()).merge(delta)
                    if entry is not None:
                        entry["deletes"][rel_name] = list(delta.data)
            for rel_name, rows in inserts.items():
                delta = self._normalize(
                    rel_name, rows, insert=True, warnings=warnings
                )
                if delta:
                    node = self.relation_nodes[rel_name]
                    source_deltas.setdefault(id(node), ZSet()).merge(delta)
                    if entry is not None:
                        entry["inserts"][rel_name] = list(delta.data)

        outputs = self.graph.run(source_deltas, profile=profile)

        if entry is not None and (entry["inserts"] or entry["deletes"]):
            journal.append(entry)

        deltas: Dict[str, ZSet] = {}
        for rel_name, node in self.relation_nodes.items():
            if rel_name.startswith(BASE_PREFIX):
                continue
            out = outputs.get(id(node))
            if isinstance(out, ZSet) and out:
                deltas[rel_name] = out

        duration = time.perf_counter() - started
        self.txn_count += 1
        self.total_txn_time += duration
        return TxnResult(deltas, self.program.output_relations, warnings, duration)

    def _summarize_profile(self, profile) -> Tuple[dict, Dict[int, float]]:
        """Fold one transaction's node samples into per-operator stats
        (for the engine span) and per-stratum seconds, accumulating the
        process-lifetime totals as a side effect."""
        operators: Dict[str, Dict[str, float]] = {}
        strata: Dict[int, float] = {}
        probes = 0
        for node, seconds, n_in, n_out in profile:
            entry = operators.get(node.name)
            if entry is None:
                entry = operators[node.name] = {
                    "calls": 0,
                    "seconds": 0.0,
                    "in_tuples": 0,
                    "out_tuples": 0,
                }
            entry["calls"] += 1
            entry["seconds"] += seconds
            entry["in_tuples"] += n_in
            entry["out_tuples"] += n_out
            if isinstance(node, JoinNode):
                probes += n_in
            stratum = self._node_stratum.get(id(node))
            if stratum is not None:
                strata[stratum] = strata.get(stratum, 0.0) + seconds
        for name, entry in operators.items():
            total = self.operator_totals.get(name)
            if total is None:
                total = self.operator_totals[name] = {
                    "calls": 0,
                    "seconds": 0.0,
                    "in_tuples": 0,
                    "out_tuples": 0,
                }
            total["calls"] += entry["calls"]
            total["seconds"] += entry["seconds"]
            total["in_tuples"] += entry["in_tuples"]
            total["out_tuples"] += entry["out_tuples"]
        if probes:
            obs.REGISTRY.counter("engine_arrangement_probes_total").inc(probes)
        return operators, strata

    def _normalize(
        self, rel_name: str, rows: List[tuple], insert: bool,
        warnings: List[str],
    ) -> ZSet:
        """``rows`` (checked) as a delta against the input state, which
        it updates: duplicate inserts and absent deletes are dropped
        with a warning."""
        state = self._input_state[rel_name]
        if insert and not state and len(set(rows)) == len(rows):
            # First rows of this relation, none repeated: a wholesale
            # set/dict build.
            state.update(rows)
            return ZSet(dict.fromkeys(rows, 1))
        delta = ZSet()
        for row in rows:
            if insert:
                if row in state or delta.weight(row) > 0:
                    warnings.append(f"{rel_name}: duplicate insert {row!r}")
                    continue
                state.add(row)
                delta.add(row, 1)
            else:
                if row not in state:
                    warnings.append(f"{rel_name}: delete of absent row {row!r}")
                    continue
                state.discard(row)
                delta.add(row, -1)
        return delta

    # -- journaling --------------------------------------------------------------------

    def enable_journal(self) -> None:
        """Start recording each transaction's *normalized* input delta
        (duplicates and absent-row deletes already filtered) for delta
        checkpointing; see :class:`repro.dlog.checkpoint.CheckpointStore`."""
        if self._journal is None:
            self._journal = []

    def drain_journal(self) -> List[dict]:
        """Return and clear the journaled transactions since the last
        drain (or :meth:`enable_journal`).  Each entry is
        ``{"inserts": {rel: [row, ...]}, "deletes": {...}}``; replaying
        them in order through :meth:`transaction` reproduces the exact
        input-state trajectory."""
        if self._journal is None:
            return []
        drained, self._journal = self._journal, []
        return drained

    # -- checkpointing -----------------------------------------------------------------

    def checkpoint(self) -> dict:
        """Serialize the full dataflow state into a plain dict.

        Captures input relation contents, every stateful operator's
        arrangement (keyed by node index in the deterministically built
        graph), and each recursive SCC's member and external rows with
        their ranks, stamped with the program hash.  The result is
        picklable and independent of this runtime (one-level copies
        throughout), so the runtime may keep transacting after the
        snapshot.
        """
        phash = self.program.program_hash
        if phash is None:
            raise CheckpointError(
                "program was compiled without source text; "
                "checkpoints need a program hash"
            )
        nodes: List[Tuple[int, str, object]] = []
        for index, node in enumerate(self.graph.nodes):
            kind = _node_kind(node)
            if kind is None:
                continue
            nodes.append((index, kind, _node_state(node, kind)))
        sccs = {
            scc_idx: {
                rel: dict(rows)
                for rel, rows in evaluator.state.rows.items()
            }
            for scc_idx, evaluator in self.scc_evaluators.items()
        }
        return {
            "format": CHECKPOINT_FORMAT,
            "program_hash": phash,
            "inputs": {
                name: set(rows) for name, rows in self._input_state.items()
            },
            "nodes": nodes,
            "sccs": sccs,
            "txn_count": self.txn_count,
            "total_txn_time": self.total_txn_time,
        }

    def _restore(self, data: dict) -> bool:
        """Load a checkpoint into this (freshly built, empty) runtime.

        Returns ``False`` — leaving the runtime untouched for a cold
        start — whenever the checkpoint does not exactly fit this
        program: wrong format, hash mismatch, or any structural
        disagreement with the built graph.
        """
        if not isinstance(data, dict):
            return False
        if data.get("format") != CHECKPOINT_FORMAT:
            return False
        if data.get("sharded"):
            # A sharded bundle (N nested engine checkpoints) carries no
            # operator state at this level; only ShardedRuntime with the
            # matching shard count can restore it.
            return False
        phash = self.program.program_hash
        if phash is None or data.get("program_hash") != phash:
            return False
        graph_nodes = self.graph.nodes
        staged: List[Tuple[Node, str, object]] = []
        for index, kind, state in data.get("nodes", ()):
            if not 0 <= index < len(graph_nodes):
                return False
            node = graph_nodes[index]
            if _node_kind(node) != kind:
                return False
            staged.append((node, kind, state))
        inputs = data.get("inputs", {})
        if set(inputs) != set(self._input_state):
            return False
        sccs = data.get("sccs", {})
        if set(sccs) != set(self.scc_evaluators):
            return False
        # Validation passed; copy the state in.
        for name, rows in inputs.items():
            self._input_state[name] = set(rows)
        for node, kind, state in staged:
            if kind == "distinct":
                node.counts = ZSet(dict(state))
            elif kind == "join":
                left, right = state
                node.left = _arrangement_from(left)
                node.right = _arrangement_from(right)
            elif kind == "antijoin":
                left, counts = state
                node.left = _arrangement_from(left)
                node.right_counts = dict(counts)
            elif kind == "aggregate":
                node.restore(_arrangement_from(state))
        for scc_idx, rels in sccs.items():
            self.scc_evaluators[scc_idx].state.restore(rels)
        self.txn_count = data.get("txn_count", 0)
        self.total_txn_time = data.get("total_txn_time", 0.0)
        return True

    # -- inspection ----------------------------------------------------------------------

    def dump(self, relation: str) -> Set[tuple]:
        """Current contents of any relation (input or derived)."""
        if relation in self._input_state:
            return set(self._input_state[relation])
        strat = self.program.stratification
        scc_idx = strat.scc_of.get(relation)
        if scc_idx is not None and strat.recursive[scc_idx]:
            return self.scc_evaluators[scc_idx].extent(relation)
        node = self.relation_nodes.get(relation)
        if isinstance(node, DistinctNode):
            return set(node.positive_records())
        raise KeyError(f"unknown relation {relation!r}")

    def close(self) -> None:
        """No resources to release; exists so callers can treat
        single-shard and sharded runtimes uniformly."""

    def state_size(self) -> int:
        """Total records held by all stateful operators (memory proxy)."""
        return self.graph.total_state() + sum(
            len(s) for s in self._input_state.values()
        )

    def profile(self) -> Dict[str, object]:
        return {
            "transactions": self.txn_count,
            "total_txn_time": self.total_txn_time,
            "state_records": self.state_size(),
            "graph_nodes": len(self.graph.nodes),
            "operators": {
                name: dict(stats)
                for name, stats in sorted(self.operator_totals.items())
            },
        }


def _node_kind(node: Node) -> Optional[str]:
    """Stable tag of a stateful node's class for checkpoint validation."""
    if isinstance(node, DistinctNode):
        return "distinct"
    if isinstance(node, JoinNode):
        return "join"
    if isinstance(node, AntiJoinNode):
        return "antijoin"
    if isinstance(node, AggregateNode):
        return "aggregate"
    return None


def _arrangement_data(arrangement: Arrangement) -> Dict[object, Dict[object, int]]:
    return {key: dict(group) for key, group in arrangement.data.items()}


def _arrangement_from(data: Dict[object, Dict[object, int]]) -> Arrangement:
    out = Arrangement()
    out.data = {key: dict(group) for key, group in data.items()}
    out.records = sum(len(g) for g in out.data.values())
    return out


def _node_state(node: Node, kind: str) -> object:
    if kind == "distinct":
        return dict(node.counts.data)
    if kind == "join":
        return (_arrangement_data(node.left), _arrangement_data(node.right))
    if kind == "antijoin":
        return (_arrangement_data(node.left), dict(node.right_counts))
    return _arrangement_data(node.groups)


def checked_rows(validators, changes) -> Dict[str, List[tuple]]:
    """``{relation: rows}`` with every row a tuple that its relation's
    validator (:func:`rows_validator`) accepts, all checked before the
    caller touches any state: an ill-typed row raises (the first, in
    order) and leaves the transaction unapplied."""
    checked = {}
    for rel_name, rows in changes.items():
        rows = list(map(tuple, rows))  # a tuple stays the same object
        validators[rel_name](rows)
        checked[rel_name] = rows
    return checked


def _row_validator(decl: A.RelationDecl, tenv: T.TypeEnv):
    """Build a shallow row validator for one relation."""
    col_types = decl.column_types()
    arity = decl.arity
    name = decl.name

    def validate(row: tuple) -> None:
        if len(row) != arity:
            raise TransactionError(
                f"{name}: row {row!r} has {len(row)} column(s), expected {arity}"
            )
        for i, (value, ty) in enumerate(zip(row, col_types)):
            if not _shallow_check(value, ty):
                raise TransactionError(
                    f"{name}: column {decl.columns[i][0]} expects {ty}, "
                    f"got {value!r}"
                )

    return validate


def _exact_type(ty: T.Type) -> Optional[type]:
    """The Python type whose exact instances pass :func:`_shallow_check`
    for ``ty``, or None when any value does.

    ``type(v) is X`` is strictly stronger than the isinstance chain (it
    also rejects subclasses, e.g. bool-as-int), so a batch passing the
    exact-type sweep needs no per-row revalidation; a batch failing it
    is re-run through the precise per-row validator to either accept
    the subclass case or raise the exact error.
    """
    if isinstance(ty, T.TBool):
        return bool
    if isinstance(ty, (T.TBit, T.TSigned, T.TBigInt)):
        return int
    if isinstance(ty, T.TFloat):
        return float
    if isinstance(ty, T.TString):
        return str
    if isinstance(ty, (T.TTuple, T.TVec)):
        return tuple
    if isinstance(ty, T.TMap):
        return MapValue
    if isinstance(ty, T.TUser):
        return StructValue
    return None


def rows_validator(decl: A.RelationDecl, tenv: T.TypeEnv):
    """A relation's validator for a list of rows: a sweep of exact
    types with a per-row fallback (:func:`_row_validator`).

    Raises exactly what the per-row check would raise on the first
    offending row (in batch order); accepts everything it would accept.
    Plain loops, so a batch of any size is one Python-level call.
    """
    validate = _row_validator(decl, tenv)
    arity = decl.arity
    columns = [
        (i, exact)
        for i, exact in enumerate(_exact_type(ty) for ty in decl.column_types())
        if exact is not None
    ]

    def validate_rows(rows: List[tuple]) -> None:
        for row in rows:
            if len(row) != arity:
                break
            for i, exact in columns:
                if type(row[i]) is not exact:
                    break
            else:
                continue
            break
        else:
            return  # every row passed
        for row in rows:
            validate(row)

    return validate_rows


def _shallow_check(value, ty: T.Type) -> bool:
    if isinstance(ty, T.TBool):
        return isinstance(value, bool)
    if isinstance(ty, (T.TBit, T.TSigned, T.TBigInt)):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(ty, T.TFloat):
        return isinstance(value, float)
    if isinstance(ty, T.TString):
        return isinstance(value, str)
    if isinstance(ty, (T.TTuple, T.TVec)):
        return isinstance(value, tuple)
    if isinstance(ty, T.TMap):
        return isinstance(value, MapValue)
    if isinstance(ty, T.TUser):
        return isinstance(value, StructValue)
    return True
