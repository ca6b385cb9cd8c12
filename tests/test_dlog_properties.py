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

PROGRAMS = {
    "join": JOIN_PROG,
    "negation": NEG_PROG,
    "aggregation": AGG_PROG,
    "recursion": REACH_PROG,
    "bounded_hops": HOP_PROG,
    "nonlinear_mutual": NONLINEAR_PROG,
    "compiled_steps": STEPS_PROG,
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
    @settings(max_examples=40, deadline=None)
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

    @settings(max_examples=40, deadline=None)
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

    @settings(max_examples=35, deadline=None)
    @given(
        script=scripts,
        text=st.sampled_from([REACH_PROG, HOP_PROG, NONLINEAR_PROG, STEPS_PROG]),
    )
    def test_dred_equals_recompute_mode(self, script, text):
        rt_dred, _, _, _ = run_script(text, script)
        rt_full, _, _, _ = run_script(text, script, recursive_mode="recompute")
        for rel in compile_program(text).output_relations:
            assert rt_dred.dump(rel) == rt_full.dump(rel), rel
