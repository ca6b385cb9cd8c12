"""Property-based tests of the engine's core claim.

The entire value proposition of the incremental control plane is: after
any sequence of transactions, every relation's contents equal what a
fresh evaluation over the final inputs would produce, and the sum of
emitted deltas equals the final contents.  We drive several
representative programs (joins, negation, aggregation, recursion) with
random edit scripts and check both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dlog import compile_program

JOIN_PROG = """
input relation A(x: bigint, y: bigint)
input relation B(y: bigint, z: bigint)
output relation J(x: bigint, z: bigint)
J(x, z) :- A(x, y), B(y, z).
"""

NEG_PROG = """
input relation A(x: bigint, y: bigint)
input relation B(y: bigint, z: bigint)
output relation N(x: bigint)
N(x) :- A(x, y), not B(y, _).
"""

AGG_PROG = """
input relation A(x: bigint, y: bigint)
input relation B(y: bigint, z: bigint)
output relation Cnt(x: bigint, n: bigint)
output relation Tot(x: bigint, s: bigint)
Cnt(x, n) :- A(x, y), var n = Aggregate((x), count()).
Tot(x, s) :- A(x, y), B(y, z), var s = Aggregate((x), sum(z)).
"""

REACH_PROG = """
input relation A(x: bigint, y: bigint)
input relation B(y: bigint, z: bigint)
output relation Reach(x: bigint, y: bigint)
Reach(x, y) :- A(x, y).
Reach(x, z) :- Reach(x, y), A(y, z).
output relation Labeled(x: bigint)
Labeled(x) :- Reach(x, _), not B(x, _).
"""

# Recursion through computed head columns: a hop count (``n + 1``), a
# repeated head variable, a bit<8> cast that wraps around, a head
# variable bound by an assignment, and an aggregate downstream.
HOP_PROG = """
input relation A(x: bigint, y: bigint)
input relation B(y: bigint, z: bigint)
output relation H(x: bigint, z: bigint, n: bigint)
H(x, y, 1) :- A(x, y).
H(x, z, n + 1) :- H(x, y, n), n < 3, A(y, z), x != z.
H(x, x, n + 2) :- H(x, y, n), n < 2, B(y, x).
output relation Best(x: bigint, z: bigint, d: bigint)
Best(x, z, d) :- H(x, z, n), var d = Aggregate((x, z), min(n)).
output relation Tag(x: bigint, t: bit<8>)
Tag(x, (y * 100) as bit<8>) :- A(x, y).
Tag(z, ((t as bigint) + 100) as bit<8>) :- Tag(y, t), t >= 100, A(y, z).
Tag(z, u) :- Tag(y, t), B(y, z), var u = t & 15.
"""

# Nonlinear recursion (a derivation joins two facts of the relation it
# derives) and mutual recursion with negation inside the SCC.  ``U(y,
# x)`` implies ``B(x, _)``, so the back edge negates ``B(y, _)``, not
# ``B(x, _)`` — the latter could never hold.
NONLINEAR_PROG = """
input relation A(x: bigint, y: bigint)
input relation B(y: bigint, z: bigint)
output relation T(x: bigint, y: bigint)
output relation U(x: bigint, y: bigint)
T(x, y) :- A(x, y).
T(x, z) :- T(x, y), T(y, z).
U(x, y) :- T(x, y), B(y, _).
T(x, y) :- U(y, x), not B(y, _).
"""

# Every kind of compiled step inside one SCC (``R`` and ``S``): a
# constructor pattern and literals in atom arguments, a user function
# (whose body is a ``match``) and a ``match`` in computed heads, a
# negated external atom whose residual is a literal under a wildcard, a
# repeated variable in one atom, a FlatMap over a Vec (its variable is a
# head variable, so top-down it is a check), and a refutable
# constructor ``var`` pattern.
STEPS_PROG = """
typedef tag_t = Hop{n: bigint} | Stop
function bump(n: bigint): bigint { match (n) { 0 -> 1, 1 -> 2, _ -> 0 } }
input relation A(x: bigint, y: bigint)
input relation B(y: bigint, z: bigint)
relation Par(y: bigint, p: (bigint, bigint))
Par(y, (z, z % 2)) :- B(y, z).
output relation R(x: bigint, t: tag_t, y: bigint)
output relation S(x: bigint, m: bigint)
R(x, Hop{0}, y) :- A(x, y).
R(x, Hop{bump(n)}, z) :- R(x, Hop{n}, y), A(y, z), not Par(z, (_, 0)).
R(w, Stop, x) :- R(x, _, x), var w = FlatMap([x + 1, x + 2]), w < 5.
S(x, m) :- R(x, t, y), var Hop{m} = t, B(y, x).
R(y, match (m) { 2 -> Stop, _ -> Hop{m} }, x) :- S(x, m), A(x, y).
R(x, Stop, 0) :- S(x, 2), A(0, x).
"""

# Every linear item kind — guard, assignment, FlatMap — in every
# position a stretch can run: after the first atom (before the first
# join), between joins, after an antijoin and after an aggregate; a
# refutable constructor assignment, a FlatMap over a Map (from
# ``group_to_map``) and one over a Vec with a repeated element (weight
# 2), a ``match`` in a head, negated atoms keyed on a literal and on the
# whole row, a scan with a literal, and two rules of one head whose
# outputs can collide and cancel in one transaction (``C``).
LINEAR_PROG = """
typedef half_t = Half{h: bigint} | Odd
function half(n: bigint): half_t { if (n % 2 == 0) { Half{n / 2} } else { Odd } }
input relation A(x: bigint, y: bigint)
input relation B(y: bigint, z: bigint)
output relation J(x: bigint, k: bigint, t: bigint)
J(x, k, match (e) { 0 -> 10, 1 -> 11, _ -> e }) :-
    A(x, y), y != 3, var s = x + y, var w = FlatMap([s, s % 3]),
    B(y, z), z != w, var Half{h} = half(z + w), var k = FlatMap([h, 0]),
    A(z, v), not B(v, 2), v < 4, var d = (k + v) % 3, var e = FlatMap([d, d]).
output relation G(x: bigint, k: bigint, n: bigint)
G(x, k, n) :- A(x, y), var m = Aggregate((x), group_to_map(y, x + y)),
    var kv = FlatMap(m), var (k, v) = kv, v != 5, var n = k * 10 + v.
output relation N(x: bigint, y: bigint, c: bigint)
N(x, y, c) :- B(x, y), not A(y, x), x < y, var c = x * y,
    var q = FlatMap([c]), q != 4.
output relation C(a: bigint)
C(y) :- A(_, y).
C(y) :- B(y, 1).
"""

# Every expression and pattern kind of the generated rule code, once in
# a dataflow rule (``D``) and once in a recursive one (``R``): ``bit<8>``
# and ``signed<8>`` arithmetic that wraps, C-style ``/`` and ``%`` on
# negative operands, a ``match`` whose arms bind variables shadowing
# outer ones, struct and tuple patterns and field access, a FlatMap over
# a Map, a recursive user function, and a computed head column
# ``n + 1`` (solved top-down in ``R``).
KINDS_PROG = """
typedef pt_t = Pt{a: bigint, b: bigint}
function tri(n: bigint): bigint { if (n <= 0) { 0 } else { n + tri(n - 1) } }
input relation A(x: bigint, y: bigint)
input relation B(y: bigint, z: bigint)
relation M(y: bigint, m: Map<bigint, bigint>)
M(y, m) :- B(y, z), var m = Aggregate((y), group_to_map(z, y - z)).
output relation D(x: bigint, w: bit<8>, s: signed<8>, q: bigint, r: bigint,
                  h: bigint, f: bigint, n: bigint)
D(x, w, s, q, r, h, tri(b), n + 1) :-
    A(x, y), var p = Pt{x, y}, var Pt{a, b} = p, var (c, n) = (p.b, (a, b).0),
    M(y, m), var kv = FlatMap(m), var (k, v) = kv,
    var w = ((a * 60) as bit<8>) + ((v * 70) as bit<8>),
    var s = ((c * 40) as signed<8>) + 100,
    var q = (v - 2) / (k + 1), var r = (v - 2) % (k + 1),
    var h = match ((k, v)) { (x, 0) -> x * 10, (k, v) -> k + v + x }.
output relation R(x: bigint, v: bit<8>, s: signed<8>, p: pt_t, n: bigint)
R(x, (y * 90) as bit<8>, (y * 60) as signed<8>, Pt{x, y}, 0) :- A(x, y).
R(z, v + 100, s + 100, Pt{q, r}, n + 1) :-
    R(x, v, s, p, n), n < 3, var Pt{a, _} = p, var b = p.b,
    M(x, m), var kv = FlatMap(m), var (k, e) = kv,
    var z = match ((k, e)) { (x, 0) -> x, (_, x) -> x + k } % 5,
    var q = (a - 3) / (k + 1), var r = (e - tri(b)) % (kv.0 + 2).
"""

PROGRAMS = {
    "join": JOIN_PROG,
    "negation": NEG_PROG,
    "aggregation": AGG_PROG,
    "recursion": REACH_PROG,
    "bounded_hops": HOP_PROG,
    "nonlinear_mutual": NONLINEAR_PROG,
    "compiled_steps": STEPS_PROG,
    "linear_stretches": LINEAR_PROG,
    "expression_kinds": KINDS_PROG,
}

pairs = st.tuples(st.integers(0, 4), st.integers(0, 4))

# A script is a list of transactions; each transaction toggles some rows
# in A and B (insert if absent, delete if present).
scripts = st.lists(
    st.tuples(st.lists(pairs, max_size=4), st.lists(pairs, max_size=4)),
    min_size=1,
    max_size=8,
)


def toggle(state, rows):
    # Dedupe within a transaction: the engine applies a transaction's
    # deletes before its inserts, so toggling one row twice in the same
    # transaction would not model sequential state.
    rows = list(dict.fromkeys(rows))
    inserts, deletes = [], []
    for row in rows:
        if row in state:
            state.discard(row)
            deletes.append(row)
        else:
            state.add(row)
            inserts.append(row)
    return inserts, deletes


def run_script(program_text, script, **compile_kwargs):
    rt = compile_program(program_text, **compile_kwargs).start()
    a_state, b_state = set(), set()
    summed = {}
    for a_rows, b_rows in script:
        a_ins, a_del = toggle(a_state, a_rows)
        b_ins, b_del = toggle(b_state, b_rows)
        result = rt.transaction(
            inserts={"A": a_ins, "B": b_ins},
            deletes={"A": a_del, "B": b_del},
        )
        for rel, delta in result.deltas.items():
            acc = summed.setdefault(rel, {})
            for row, w in delta.items():
                acc[row] = acc.get(row, 0) + w
                if acc[row] == 0:
                    del acc[row]
    return rt, a_state, b_state, summed


class TestIncrementalEqualsFromScratch:
    @settings(max_examples=45, deadline=None)
    @given(script=scripts, program_name=st.sampled_from(sorted(PROGRAMS)))
    def test_final_state_matches_fresh_run(self, script, program_name):
        text = PROGRAMS[program_name]
        rt, a_state, b_state, _ = run_script(text, script)

        fresh = compile_program(text).start()
        fresh.transaction(inserts={"A": list(a_state), "B": list(b_state)})

        prog = compile_program(text)
        for rel in prog.output_relations:
            assert rt.dump(rel) == fresh.dump(rel), (
                f"{program_name}/{rel}: incremental diverged from scratch"
            )

    @settings(max_examples=45, deadline=None)
    @given(script=scripts, program_name=st.sampled_from(sorted(PROGRAMS)))
    def test_summed_deltas_equal_final_contents(self, script, program_name):
        text = PROGRAMS[program_name]
        rt, _, _, summed = run_script(text, script)
        prog = compile_program(text)
        for rel in prog.output_relations:
            acc = summed.get(rel, {})
            assert all(w == 1 for w in acc.values()), (
                f"{program_name}/{rel}: non-unit accumulated weight {acc}"
            )
            assert set(acc) == rt.dump(rel)

    @settings(max_examples=44, deadline=None)
    @given(
        script=scripts,
        text=st.sampled_from(
            [REACH_PROG, HOP_PROG, NONLINEAR_PROG, STEPS_PROG, KINDS_PROG]
        ),
    )
    def test_dred_equals_recompute_mode(self, script, text):
        rt_dred, _, _, _ = run_script(text, script)
        rt_full, _, _, _ = run_script(text, script, recursive_mode="recompute")
        for rel in compile_program(text).output_relations:
            assert rt_dred.dump(rel) == rt_full.dump(rel), rel


class TestLinearStretches:
    def test_colliding_rules_cancel(self):
        """``C(1)`` loses its ``A`` support and gains a ``B`` one in one
        transaction: the two rules' deltas meet at ``C`` and cancel."""
        rt = compile_program(LINEAR_PROG).start()
        rt.transaction(inserts={"A": [(0, 1)]})
        assert rt.dump("C") == {(1,)}
        result = rt.transaction(deletes={"A": [(0, 1)]}, inserts={"B": [(1, 1)]})
        assert "C" not in result.deltas
        assert rt.dump("C") == {(1,)}
        result = rt.transaction(deletes={"B": [(1, 1)]})
        assert result.deltas["C"].data == {(1,): -1}

    def test_fact_body_holding_twice_counts_twice(self):
        """A fact runs the same generated stretch, once, at plan time."""
        rt = compile_program("""
        output relation F(n: bigint)
        F(n) :- var n = FlatMap([1, 2, 2]), n > 1.
        """).start()
        assert rt.dump("F") == {(2,)}
        assert rt.relation_nodes["F"].counts.data == {(2,): 2}
