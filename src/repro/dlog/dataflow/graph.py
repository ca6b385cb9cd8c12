"""Dataflow graph construction and per-transaction scheduling.

The graph is a DAG of :class:`~repro.dlog.dataflow.operators.Node`
(recursive rule sets are collapsed into a single evaluator node by the
engine, so cycles never appear here).  ``run`` pushes a set of source
deltas through the graph in topological order and returns every node's
output delta for the transaction.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.dlog.dataflow.operators import Node
from repro.dlog.dataflow.zset import ZSet


class Graph:
    def __init__(self):
        self.nodes: List[Node] = []
        self._order: Optional[List[Node]] = None

    def add(self, node: Node) -> Node:
        self.nodes.append(node)
        self._order = None
        return node

    def topo_order(self) -> List[Node]:
        """Kahn's algorithm; raises on cycles (engine must prevent them)."""
        if self._order is not None:
            return self._order
        indegree: Dict[int, int] = {id(n): 0 for n in self.nodes}
        by_id: Dict[int, Node] = {id(n): n for n in self.nodes}
        for node in self.nodes:
            for child, _, _ in node.downstream:
                if id(child) not in indegree:
                    raise ValueError(
                        f"edge to node {child.name} that is not in the graph"
                    )
                indegree[id(child)] += 1
        queue = deque(n for n in self.nodes if indegree[id(n)] == 0)
        order: List[Node] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for child, _, _ in node.downstream:
                indegree[id(child)] -= 1
                if indegree[id(child)] == 0:
                    queue.append(child)
        if len(order) != len(self.nodes):
            cyclic = [by_id[i].name for i, d in indegree.items() if d > 0]
            raise ValueError(f"dataflow graph has a cycle through {cyclic}")
        self._order = order
        return order

    def run(
        self,
        source_deltas: Dict[int, ZSet],
        profile: Optional[List[Tuple[Node, float, int, int]]] = None,
    ) -> Dict[int, ZSet]:
        """Propagate deltas; returns ``id(node) -> output delta``.

        ``source_deltas`` maps ``id(node)`` to the delta injected at its
        port 0.  Nodes with no pending input are skipped entirely — an
        empty transaction does no work, and a small one touches only the
        paths it reaches.

        When ``profile`` is a list, every processed node appends a
        ``(node, seconds, in_tuples, out_tuples)`` sample to it.

        Output deltas are treated as immutable once emitted: a
        downstream input slot *borrows* the producer's delta on first
        assignment and only copies it if a second producer has to merge
        into the same slot.  Operators must therefore never mutate their
        input deltas (they don't — an output is either freshly built
        or the input delta itself, forwarded unchanged).
        """
        pending: Dict[int, List[Optional[ZSet]]] = {}
        for node_id, delta in source_deltas.items():
            if delta:
                pending[node_id] = [delta]
        outputs: Dict[int, object] = {}
        borrowed: Dict[Tuple[int, int], bool] = {}
        for node in self.topo_order():
            inputs = pending.pop(id(node), None)
            if inputs is None:
                continue
            while len(inputs) < node.n_ports:
                inputs.append(None)
            if profile is None:
                result = node.process(inputs)
            else:
                n_in = sum(len(d) for d in inputs if d is not None)
                started = time.perf_counter()
                result = node.process(inputs)
                elapsed = time.perf_counter() - started
                if isinstance(result, dict):
                    n_out = sum(len(z) for z in result.values())
                else:
                    n_out = len(result)
                profile.append((node, elapsed, n_in, n_out))
            outputs[id(node)] = result
            for child, port, out_key in node.downstream:
                out = result[out_key] if out_key is not None else result
                if not out:
                    continue
                slot = pending.get(id(child))
                if slot is None:
                    slot = [None] * child.n_ports
                    pending[id(child)] = slot
                while len(slot) < child.n_ports:
                    slot.append(None)
                if slot[port] is None:
                    slot[port] = out
                    borrowed[(id(child), port)] = True
                else:
                    if borrowed.pop((id(child), port), False):
                        slot[port] = slot[port].copy()
                    slot[port].merge(out)
        return outputs

    def total_state(self) -> int:
        """Total records held across all stateful nodes (for profiling)."""
        return sum(n.state_size() for n in self.nodes)
