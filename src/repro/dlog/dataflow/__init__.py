"""Delta-dataflow machinery behind the incremental engine.

Non-recursive rules compile to the operators in
:mod:`repro.dlog.dataflow.operators`, exchanging weighted multiset
deltas (:class:`~repro.dlog.dataflow.zset.ZSet`): a join, antijoin or
aggregate per stateful body item and a distinct per derived relation,
each maintaining *arrangements* — indexed copies of its inputs — so
each transaction does work proportional to the delta, which is the
scalability property the paper claims for the control plane.  A rule's
linear items (guards, assignments, FlatMaps, the head) are compiled
steps that run inside the operator producing their input; the one
stateless operator scans a relation's delta.
"""

from repro.dlog.dataflow.zset import ZSet
from repro.dlog.dataflow.arrangement import Arrangement
from repro.dlog.dataflow.graph import Graph

__all__ = ["Arrangement", "Graph", "ZSet"]
