"""Bounded recursion, rewritten as non-recursive layers.

A recursive SCC whose depth a counter column bounds is a fixed-depth
chain of joins, not a fixpoint: with ``Hop(a, b, 1) :- Link(a, b)`` as
its base, ``Hop(a, c, n + 1) :- Hop(a, b, n), n < 4, Link(b, c)`` only
ever derives ``n`` in 1..4.  Planned as one non-recursive relation per
counter value (a *layer*), it is ordinary stratified dataflow, which
counting maintains exactly, where the recursive evaluator
(:mod:`repro.dlog.recursive`) would over-delete and rederive.  That is
the split of Gupta, Mumick and Subrahmanian, "Maintaining Views
Incrementally" (SIGMOD 1993): counting for non-recursive views, DRed for
recursive ones.  Rewriting bounded recursion without recursion is
Naughton and Sagiv (PODS 1987).

The proof (:func:`prove_bound`) holds only when:

* the SCC has exactly one member ``R``;
* one ``bigint`` column of ``R`` is an integer literal in the head of
  every base rule (a rule with no ``R`` atom in its body);
* every recursive rule is linear (exactly one ``R`` atom in its body),
  with that column a variable ``v`` in the atom and ``v + c`` in the
  head, ``c`` a positive integer literal;
* every recursive rule has a guard ``v < K`` or ``v <= K``, ``K`` an
  integer literal;
* the counter values reachable from the base constants (each rule
  adding its step to a value its guard admits) number at most
  :data:`MAX_LAYERS`.

The rewrite (:func:`unroll_bounded`) is AST to AST, and its result is
typechecked again, so planning, shard analysis and checkpoints see an
ordinary stratified program.  Each reachable value ``k`` gets an
internal relation ``R@k``, a name no source can write (``@`` is not an
identifier character).  A base rule whose constant is ``k`` derives
into layer ``k``.  A recursive rule is copied once per value ``k`` its
guard admits: its ``R`` atom reads layer ``k`` and its head writes
layer ``k + c``.  The body is otherwise unchanged, so the guard and
``v + c`` still evaluate.  ``R(x̄) :- R@k(x̄)`` adds each layer into
``R``.  An SCC with no proof is left as it is, for the recursive
evaluator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dlog import ast as A
from repro.dlog import types as T
from repro.dlog.stratify import Stratification
from repro.dlog.typecheck import CheckedProgram, check_program

#: What marks a layer's name: ``R@k`` is ``R``'s layer ``k``.
LAYER_MARK = "@"

#: The most counter values (layers) one SCC may unroll into.  Measured
#: on A4's rules over fat-tree links at bounds 4 to 64 (k=4) and 4 to 32
#: (k=6): a link flap ran 1.2x to 2.0x faster in layers than under DRed
#: at every bound, at equal peak memory; compile and start grew to about
#: 20 ms at 64 layers.  No deeper bound has been measured.
MAX_LAYERS = 64

#: ``(counter column, reachable counter values in ascending order)``.
Bound = Tuple[int, Tuple[int, ...]]


def layer_name(relation: str, value: int) -> str:
    """The internal relation holding ``relation``'s rows whose counter
    is ``value``."""
    return f"{relation}{LAYER_MARK}{value}"


def _const(expr: A.Expr) -> Optional[int]:
    """The integer literal ``expr`` is (``-k`` included), or None."""
    if isinstance(expr, A.UnaryOp) and expr.op == "-":
        value = _const(expr.operand)
        return None if value is None else -value
    if isinstance(expr, A.Lit) and type(expr.value) is int:
        return expr.value
    return None


def _literal(arg: A.Pattern) -> Optional[int]:
    """The integer literal a head argument is, or None."""
    if isinstance(arg, A.PLit):
        return arg.value if type(arg.value) is int else None
    if isinstance(arg, A.PExpr):
        return _const(arg.expr)
    return None


def _reads(rule: A.Rule, relation: str) -> List[A.Atom]:
    return [
        item.atom
        for item in rule.body
        if isinstance(item, A.AtomItem) and item.atom.relation == relation
    ]


def _step(rule: A.Rule, relation: str, column: int) -> Optional[Tuple[int, int]]:
    """``(c, limit)`` of a recursive rule whose head counter is ``v + c``
    for the counter ``v`` of its one ``relation`` atom, under a guard
    that admits ``v`` up to ``limit``; None when the rule is not so."""
    atoms = _reads(rule, relation)
    if len(atoms) != 1 or not isinstance(atoms[0].args[column], A.PVar):
        return None
    var = atoms[0].args[column].name
    head = rule.head.args[column]
    if not isinstance(head, A.PExpr):
        return None
    expr = head.expr
    if not (
        isinstance(expr, A.BinOp)
        and expr.op == "+"
        and isinstance(expr.left, A.Var)
        and expr.left.name == var
    ):
        return None
    step = _const(expr.right)
    if step is None or step <= 0:
        return None
    limits = []
    for item in rule.body:
        guard = item.expr if isinstance(item, A.Guard) else None
        if (
            isinstance(guard, A.BinOp)
            and guard.op in ("<", "<=")
            and isinstance(guard.left, A.Var)
            and guard.left.name == var
            and _const(guard.right) is not None
        ):
            limits.append(_const(guard.right) - (guard.op == "<"))
    if not limits:
        return None
    return step, min(limits)


def _reachable(
    seeds: Sequence[int], steps: Sequence[Tuple[int, int]]
) -> Optional[Tuple[int, ...]]:
    """The closure of ``seeds`` under every ``(c, limit)`` step, sorted;
    None past :data:`MAX_LAYERS` values."""
    values = set(seeds)
    todo = list(values)
    while todo:
        value = todo.pop()
        for step, limit in steps:
            nxt = value + step
            if value <= limit and nxt not in values:
                values.add(nxt)
                todo.append(nxt)
        if len(values) > MAX_LAYERS:
            return None
    return tuple(sorted(values))


def prove_bound(
    relation: str, rules: Sequence[A.Rule], checked: CheckedProgram
) -> Optional[Bound]:
    """The counter bound of the one-member recursive SCC ``relation``
    whose rules (every rule with ``relation`` as head) are ``rules``;
    None when no column proves one (see the module docstring)."""
    base = [rule for rule in rules if not _reads(rule, relation)]
    recursive = [rule for rule in rules if _reads(rule, relation)]
    if not base or not recursive:
        return None
    for column, (_, ty) in enumerate(checked.relations[relation].columns):
        if not isinstance(ty, T.TBigInt):
            continue
        seeds = [_literal(rule.head.args[column]) for rule in base]
        steps = [_step(rule, relation, column) for rule in recursive]
        if None in seeds or None in steps:
            continue
        values = _reachable(seeds, steps)
        if values is not None:
            return column, values
    return None


def _layered_rules(rule: A.Rule, relation: str, bound: Bound) -> List[A.Rule]:
    """``rule`` (of head ``relation``) as the rules deriving its layers."""
    column, values = bound
    if not _reads(rule, relation):
        value = _literal(rule.head.args[column])
        return [_copy(rule, layer_name(relation, value), None, value)]
    step, limit = _step(rule, relation, column)
    return [
        _copy(rule, layer_name(relation, k + step), layer_name(relation, k), k + step)
        for k in values
        if k <= limit
    ]


def _copy(rule: A.Rule, head: str, body: Optional[str], value: int) -> A.Rule:
    """A copy of ``rule`` deriving into ``head``, its one atom of the
    head's relation reading ``body`` instead (a base rule has none).
    The copy shares its patterns, expressions and other items with
    ``rule``: no compiler pass writes to the AST."""
    relation = rule.head.relation
    items = [
        A.AtomItem(A.Atom(body, item.atom.args, item.atom.pos), item.pos)
        if isinstance(item, A.AtomItem) and item.atom.relation == relation
        else item
        for item in rule.body
    ]
    return A.Rule(
        A.Atom(head, rule.head.args, rule.head.pos),
        items,
        rule.pos,
        name=f"{rule.name}[layer {value}]",
    )


def _union_rule(relation: str, arity: int, value: int) -> A.Rule:
    """``relation(x̄) :- relation@value(x̄).``"""
    args = [f"__a{i}" for i in range(arity)]
    head = A.Atom(relation, [A.PVar(a) for a in args])
    body = [A.AtomItem(A.Atom(layer_name(relation, value), [A.PVar(a) for a in args]))]
    return A.Rule(head, body, name=f"{relation}[layer {value}]")


def unroll_bounded(
    checked: CheckedProgram, strat: Stratification
) -> Tuple[CheckedProgram, Dict[str, Tuple[int, ...]]]:
    """Rewrite every recursive SCC of ``strat`` (``checked``'s
    stratification) with a proved bound into layers.

    Returns the typechecked rewritten program and, per unrolled
    relation, its layers' counter values in ascending order; with no
    proof anywhere, ``checked`` itself and ``{}``."""
    ast = checked.ast
    rules_of: Dict[str, List[A.Rule]] = {}
    for rule in ast.rules:
        rules_of.setdefault(rule.head.relation, []).append(rule)
    bounds: Dict[str, Bound] = {}
    for idx, scc in enumerate(strat.order):
        if strat.recursive[idx] and len(scc) == 1:
            bound = prove_bound(scc[0], rules_of[scc[0]], checked)
            if bound is not None:
                bounds[scc[0]] = bound
    if not bounds:
        return checked, {}
    relations: List[A.RelationDecl] = []
    for decl in ast.relations:
        relations.append(decl)
        if decl.name in bounds:
            relations.extend(
                A.RelationDecl(layer_name(decl.name, k), list(decl.columns), "internal", decl.pos)
                for k in bounds[decl.name][1]
            )
    rules: List[A.Rule] = []
    for rule in ast.rules:
        bound = bounds.get(rule.head.relation)
        rules.extend([rule] if bound is None else _layered_rules(rule, rule.head.relation, bound))
    for relation, (_, values) in bounds.items():
        arity = checked.relations[relation].arity
        rules.extend(_union_rule(relation, arity, k) for k in values)
    program = A.Program(ast.typedefs, ast.functions, relations, rules, ast.pos)
    return check_program(program), {rel: values for rel, (_, values) in bounds.items()}
