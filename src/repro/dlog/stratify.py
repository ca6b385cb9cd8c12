"""Dependency analysis and stratification of rule sets.

Relations form a dependency graph (an edge ``B -> H`` for every rule
with head ``H`` and body atom ``B``).  Strongly connected components of
that graph are *strata*; a nontrivial SCC is a recursive rule set and
is evaluated by :mod:`repro.dlog.recursive`, everything else by the
delta-dataflow operators.  Under the default ``recursive_mode`` the
compiler hands this stratification of the source to
:mod:`repro.dlog.layers`, which rewrites each recursive SCC whose
counter column is provably bounded into non-recursive layers; only when
some SCC was rewritten is the rewritten program stratified again, and
there the unrolled relation is not recursive at all.

Stratified semantics require that negation and aggregation never occur
*inside* an SCC: a rule may negate or aggregate only relations computed
in strictly lower strata.  Violations raise
:class:`~repro.errors.StratificationError` at compile time (this is the
classic "no negation through recursion" condition).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.dlog import ast as A
from repro.errors import StratificationError

POSITIVE = "positive"
NEGATIVE = "negative"  # negated atoms *and* aggregated bodies


def rule_dependencies(rule: A.Rule) -> List[Tuple[str, str]]:
    """``(relation, polarity)`` for every body atom of ``rule``.

    A body atom occurring before an :class:`~repro.dlog.ast.AggregateItem`
    is reported as NEGATIVE: aggregation, like negation, is non-monotonic
    (removing an input row can change a group's aggregate), so the
    aggregated sub-body must be fully computed before this rule runs.
    """
    deps: List[Tuple[str, str]] = []
    has_aggregate = any(isinstance(i, A.AggregateItem) for i in rule.body)
    for item in rule.body:
        if isinstance(item, A.AtomItem):
            polarity = NEGATIVE if has_aggregate else POSITIVE
            deps.append((item.atom.relation, polarity))
        elif isinstance(item, A.NegAtom):
            deps.append((item.atom.relation, NEGATIVE))
    return deps


class Stratification:
    """The SCC condensation of a program's dependency graph.

    ``order`` lists SCCs bottom-up (dependencies first); each SCC is a
    tuple of relation names.  ``scc_of`` maps a relation to its SCC
    index in ``order``.  ``recursive`` marks SCCs that need fixpoint
    evaluation (more than one member, or a self-loop).
    """

    def __init__(
        self,
        order: List[Tuple[str, ...]],
        scc_of: Dict[str, int],
        recursive: List[bool],
    ):
        self.order = order
        self.scc_of = scc_of
        self.recursive = recursive

    def is_recursive_relation(self, name: str) -> bool:
        idx = self.scc_of.get(name)
        return idx is not None and self.recursive[idx]


def _tarjan(vertices: Sequence[str], edges: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's SCC algorithm, iterative to survive deep graphs.

    Returns SCCs in reverse topological order (consumers before
    dependencies), which we reverse before use.
    """
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in vertices:
        if root in index_of:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            vertex, edge_idx = work.pop()
            if edge_idx == 0:
                index_of[vertex] = counter[0]
                lowlink[vertex] = counter[0]
                counter[0] += 1
                stack.append(vertex)
                on_stack.add(vertex)
            advanced = False
            neighbors = sorted(edges.get(vertex, ()))
            while edge_idx < len(neighbors):
                succ = neighbors[edge_idx]
                edge_idx += 1
                if succ not in index_of:
                    work.append((vertex, edge_idx))
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[vertex] = min(lowlink[vertex], index_of[succ])
            if advanced:
                continue
            if lowlink[vertex] == index_of[vertex]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == vertex:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[vertex])
    return sccs


def stratify(relations: Sequence[str], rules: Sequence[A.Rule]) -> Stratification:
    """Compute the stratification; reject unstratifiable programs."""
    vertices = list(relations)
    vertex_set = set(vertices)
    edges: Dict[str, Set[str]] = {v: set() for v in vertices}
    polarity: Dict[Tuple[str, str], str] = {}
    for rule in rules:
        head = rule.head.relation
        for body_rel, pol in rule_dependencies(rule):
            if body_rel not in vertex_set:
                # Typechecker reports unknown relations with a position.
                continue
            edges[body_rel].add(head)
            key = (body_rel, head)
            if pol == NEGATIVE or polarity.get(key) == NEGATIVE:
                polarity[key] = NEGATIVE
            else:
                polarity.setdefault(key, POSITIVE)

    sccs = _tarjan(vertices, edges)
    sccs.reverse()  # bottom-up: dependencies first
    order = [tuple(sorted(scc)) for scc in sccs]
    scc_of = {rel: i for i, scc in enumerate(order) for rel in scc}

    recursive = []
    for scc in order:
        members = set(scc)
        self_recursive = len(scc) > 1 or any(
            rel in edges[rel] for rel in scc
        )
        recursive.append(self_recursive)
        if not self_recursive:
            continue
        for src in scc:
            for dst in edges[src]:
                if dst in members and polarity.get((src, dst)) == NEGATIVE:
                    raise StratificationError(
                        f"relation {dst} depends on {src} through negation "
                        f"or aggregation inside a recursive cycle "
                        f"({' -> '.join(scc)}); stratified programs must "
                        "negate/aggregate only lower strata"
                    )
    return Stratification(order, scc_of, recursive)
