"""Bounded recursion, unrolled into layers (:mod:`repro.dlog.layers`).

* The proof: a one-member recursive SCC whose ``bigint`` counter starts
  at literals and steps by positive literals under literal ``<``/``<=``
  guards is planned as non-recursive layers, with no SCC evaluator; any
  program outside that shape plans exactly as before (DRed, same
  program hash).
* The rewrite is invisible: on random bounded programs and random
  insert/delete scripts, the layered runtime equals the full-fixpoint
  ablation (``recursive_mode="recompute"``) and a from-scratch run
  after every transaction, at one shard and at two.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.programs import REROUTE
from repro.core import nerpa_build
from repro.dlog import compile_program
from repro.dlog.checkpoint import program_hash
from repro.dlog.layers import MAX_LAYERS, layer_name
from repro.errors import ParseError


def closure(seeds, rules):
    """The counter values a program of ``rules`` (``(step, op, K)``)
    reaches from ``seeds``, computed the slow way."""
    values = set(seeds)
    while True:
        grown = values | {
            v + step
            for v in values
            for step, op, k in rules
            if (v < k if op == "<" else v <= k)
        }
        if grown == values:
            return tuple(sorted(values))
        values = grown


def bounded_program(seeds, rules):
    """``R(x, y, n)``: one or two base rules (``seeds``, the counter's
    starting literals) and one or two linear recursive rules, each
    ``(step, op, K)`` stepping ``n`` under ``n op K``; ``Best`` takes
    each pair's ``min`` counter downstream."""
    bases = ["R(x, x, {}) :- S(x).", "R(x, y, {}) :- E(x, y)."]
    steps = [
        "R(x, z, n + {}) :- R(x, y, n), n {} {}, E(y, z).",
        "R(y, x, n + {}) :- R(x, y, n), S(y), n {} {}.",
    ]
    lines = [
        "input relation E(x: bigint, y: bigint)",
        "input relation S(x: bigint)",
        "output relation R(x: bigint, y: bigint, n: bigint)",
        "output relation Best(x: bigint, y: bigint, d: bigint)",
        "Best(x, y, d) :- R(x, y, n), var d = Aggregate((x, y), min(n)).",
    ]
    lines += [base.format(seed) for base, seed in zip(bases, seeds)]
    lines += [step.format(*rule) for step, rule in zip(steps, rules)]
    return "\n".join(lines)


class TestProof:
    def test_reroute_plans_no_scc_evaluator(self):
        project = nerpa_build(REROUTE.schema(), REROUTE.rules, REROUTE.p4)
        assert project.program.layered == {"Hop": (1, 2, 3, 4)}
        assert project.program.start().scc_evaluators == {}

    def test_layers_are_hidden_from_results_but_dumpable(self):
        rt = compile_program(bounded_program([1], [(1, "<", 3)])).start()
        result = rt.transaction(inserts={"S": [(1,)], "E": [(1, 2), (2, 3)]})
        assert set(result.deltas) == {"S", "E", "R", "Best"}
        assert rt.dump(layer_name("R", 2)) == {(1, 2, 2)}
        assert rt.dump("R") == {(1, 1, 1), (1, 2, 2), (1, 3, 3)}

    def test_a_layer_name_cannot_be_written_in_source(self):
        with pytest.raises(ParseError):
            compile_program(f"input relation {layer_name('R', 1)}(x: bigint)")

    def test_depth_at_the_cap_unrolls(self):
        text = bounded_program([0], [(1, "<", MAX_LAYERS - 1)])
        assert compile_program(text).layered == {"R": tuple(range(MAX_LAYERS))}

    def test_recompute_mode_is_not_rewritten(self):
        text = bounded_program([1], [(1, "<", 4)])
        program = compile_program(text, recursive_mode="recompute")
        assert program.layered == {}
        assert len(program.start().scc_evaluators) == 1
        assert program.program_hash == program_hash(text, "recompute")


#: Programs the proof rejects; each must still plan one SCC evaluator.
REJECTED = {
    "bound_from_a_column": """
        input relation E(x: bigint, y: bigint)
        input relation MaxHops(k: bigint)
        output relation R(x: bigint, y: bigint, n: bigint)
        R(x, y, 1) :- E(x, y).
        R(x, z, n + 1) :- R(x, y, n), MaxHops(k), n < k, E(y, z).
    """,
    "step_of_zero": """
        input relation E(x: bigint, y: bigint)
        output relation R(x: bigint, y: bigint, n: bigint)
        R(x, y, 1) :- E(x, y).
        R(x, z, n + 0) :- R(x, y, n), n < 4, E(y, z).
    """,
    "negative_step": """
        input relation E(x: bigint, y: bigint)
        output relation R(x: bigint, y: bigint, n: bigint)
        R(x, y, 1) :- E(x, y).
        R(x, z, n - 1) :- R(x, y, n), n < 4, E(y, z).
    """,
    "bit_counter": """
        input relation E(x: bigint, y: bigint)
        output relation R(x: bigint, y: bigint, n: bit<8>)
        R(x, y, 1) :- E(x, y).
        R(x, z, n + 1) :- R(x, y, n), n < 4, E(y, z).
    """,
    "two_member_scc": """
        input relation E(x: bigint, y: bigint)
        output relation P(x: bigint, n: bigint)
        output relation Q(x: bigint, n: bigint)
        P(x, 1) :- E(x, _).
        Q(y, n + 1) :- P(x, n), n < 4, E(x, y).
        P(x, n) :- Q(x, n).
    """,
    "nonlinear_rule": """
        input relation E(x: bigint, y: bigint)
        output relation R(x: bigint, y: bigint, n: bigint)
        R(x, y, 1) :- E(x, y).
        R(x, z, n + 1) :- R(x, y, n), R(y, z, _), n < 4.
    """,
    "depth_over_the_cap": f"""
        input relation E(x: bigint, y: bigint)
        output relation R(x: bigint, y: bigint, n: bigint)
        R(x, y, 0) :- E(x, y).
        R(x, z, n + 1) :- R(x, y, n), n < {MAX_LAYERS}, E(y, z).
    """,
    "base_counter_not_a_literal": """
        input relation E(x: bigint, y: bigint)
        output relation R(x: bigint, y: bigint, n: bigint)
        R(x, y, x) :- E(x, y).
        R(x, z, n + 1) :- R(x, y, n), n < 4, E(y, z).
    """,
    "no_guard": """
        input relation E(x: bigint, y: bigint)
        output relation R(x: bigint, y: bigint, n: bigint)
        R(x, y, 1) :- E(x, y).
        R(x, z, n + 1) :- R(x, y, n), E(y, z), x < 4.
    """,
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_a_program_outside_the_proof_keeps_dred(name):
    text = REJECTED[name]
    program = compile_program(text)
    assert program.layered == {}
    assert "recursive (DRed)" in program.explain()
    assert len(program.start().scc_evaluators) == 1
    # The same checkpoint identity as before layers existed.
    assert program.program_hash == program_hash(text, "dred")


seeds = st.lists(st.integers(-2, 3), min_size=1, max_size=2)
rules = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from(["<", "<="]), st.integers(-1, 7)),
    min_size=1,
    max_size=2,
)
pairs = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4)
nodes = st.lists(st.tuples(st.integers(0, 3)), max_size=2)
scripts = st.lists(st.tuples(pairs, nodes), min_size=1, max_size=6)


def toggle(state, rows):
    inserts, deletes = [], []
    for row in dict.fromkeys(rows):
        (deletes if row in state else inserts).append(row)
        state ^= {row}
    return inserts, deletes


@settings(max_examples=40, deadline=None)
@given(seeds=seeds, rules=rules, script=scripts)
def test_layers_equal_recompute_and_a_fresh_run(seeds, rules, script):
    text = bounded_program(seeds, rules)
    program = compile_program(text)
    assert program.layered == {"R": closure(seeds, rules)}
    layered = [program.start(), program.start(shards=2, shard_workers="inline")]
    assert layered[0].scc_evaluators == {}
    full = compile_program(text, recursive_mode="recompute").start()
    state = {"E": set(), "S": set()}
    try:
        for edges, starts in script:
            changes = {"inserts": {}, "deletes": {}}
            for rel, rows in (("E", edges), ("S", starts)):
                inserts, deletes = toggle(state[rel], rows)
                changes["inserts"][rel] = inserts
                changes["deletes"][rel] = deletes
            for runtime in (*layered, full):
                runtime.transaction(**changes)
            fresh = program.start()
            fresh.transaction(inserts={rel: list(rows) for rel, rows in state.items()})
            for rel in ("R", "Best"):
                want = fresh.dump(rel)
                assert full.dump(rel) == want, rel
                for runtime in layered:
                    assert runtime.dump(rel) == want, rel
    finally:
        layered[1].close()
