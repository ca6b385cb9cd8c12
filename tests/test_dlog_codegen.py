"""Rule bodies as generated Python: what the source generator promises
beyond evaluating correctly (which every engine test checks).

* No program text is spliced into the source: dlog identifiers that are
  Python keywords or the generator's own local names, and string
  literals full of quoting and formatting characters, evaluate like any
  other.
* Each generated function's code object is filed under its rule and
  variant, with its text in :mod:`linecache`, so tracebacks and
  :func:`inspect.getsource` show the rule.
"""

import inspect
import linecache
import traceback

import pytest

from repro.dlog import ast as A
from repro.dlog import compile_program
from repro.dlog.interp import Evaluator, Slots
from repro.dlog.parser import parse_program
from repro.dlog.typecheck import check_program
from repro.errors import EvalError

#: Every generated name a variable could collide with: Python keywords
#: and builtins, the generator's parameters and locals (``row``, ``out``,
#: ``rank``, ``weight``, ``heads``, ``check``, ``ceiling``, ...) and its
#: slot, temporary and constant names (``v0``, ``t1``, ``k1``).
NAMES_PROG = r"""
input relation In(lambda: bigint, return: bigint, s: string)
input relation Edge(row: bigint, out: bigint)
output relation Out(in: bigint, row: bigint, out: string, rank: bigint)
output relation Walk(rank: bigint, check: bigint, n: bigint)
Out(in, row, out, rank) :- In(lambda, return, weight),
    var in = lambda + return, var v0 = in * 2,
    var row = match ((lambda, return)) { (return, lambda) -> return - lambda },
    var out = weight ++ "\"q\" 'a' \\ \n %s {} {0} %(x)s",
    var t1 = v0, var k1 = t1, var rank = k1 + row,
    var heads = rank, heads >= 0, not Edge(heads, in).
Walk(rank, check, 0) :- Edge(rank, check).
Walk(rank, ceiling, n + 1) :- Walk(rank, check, n), n < 3,
    Edge(check, ceiling), var record = ceiling, record != rank.
"""


def test_identifiers_and_literals_are_never_spliced_into_source():
    rt = compile_program(NAMES_PROG).start()
    rt.transaction(inserts={
        "In": [(2, 5, "x"), (7, 1, "y")],
        "Edge": [(1, 2), (2, 3), (3, 1), (20, 7)],
    })
    tail = "\"q\" 'a' \\ \n %s {} {0} %(x)s"
    # The match arm's ``return`` is the tuple's first element (the outer
    # ``lambda``): row = lambda - return, rank = 2 * in + row.
    assert rt.dump("Out") == {(7, -3, "x" + tail, 11), (8, 6, "y" + tail, 22)}
    assert rt.dump("Walk") == {
        (1, 2, 0), (2, 3, 0), (3, 1, 0), (20, 7, 0), (1, 3, 1), (2, 1, 1), (3, 2, 1),
    }
    # Deleting a link takes its walks (the top-down check runs under the
    # same names).
    rt.transaction(deletes={"Edge": [(2, 3)]})
    assert rt.dump("Walk") == {(1, 2, 0), (3, 1, 0), (20, 7, 0), (3, 2, 1)}
    rt.transaction(inserts={"Edge": [(22, 8)]})  # not Edge(heads, in)
    assert rt.dump("Out") == {(7, -3, "x" + tail, 11)}


@pytest.mark.parametrize("name", ["None", "lambda", "row", "frame", "value", "f"])
def test_any_variable_name_is_a_slot(name):
    # ``None`` cannot be written as a dlog variable (an uppercase name is
    # a constructor), so this goes through the AST: the name reaches no
    # source either way.
    evaluator = Evaluator(check_program(parse_program("input relation Nil(x: bool)")))
    slots = Slots(["x", name])
    expr = A.BinOp("+", A.Var(name), A.Var("x"))
    assert evaluator.compile_expr(expr, slots)([1, 41]) == 42
    frame = [None] * 3
    pat = A.PTuple([A.PVar(name), A.PLit("it's \"{}\"")])
    test = evaluator.compile_pattern(pat, Slots(["x"]), rebind=True)
    assert test((9, "it's \"{}\""), frame) and frame[1] == 9
    assert not test((9, "other"), [None] * 3)


DIV_PROG = """
input relation In(x: bigint, y: bigint)
output relation Out(q: bigint)
Out(x / y) :- In(x, y).
"""


def test_a_division_by_zero_names_its_rule_in_the_traceback():
    rt = compile_program(DIV_PROG).start()
    with pytest.raises(EvalError, match="division by zero") as info:
        rt.transaction(inserts={"In": [(1, 0)]})
    # (A name another program's text already holds gets a " #n" suffix.)
    (frame,) = [
        frame
        for frame in traceback.extract_tb(info.value.__traceback__)
        if frame.filename.startswith("<dlog rule rule@4: scan(In)")
    ]
    assert "_int_div(" in frame.line


HOPS_PROG = """
input relation Link(a: bigint, b: bigint)
output relation Hop(a: bigint, b: bigint, n: bigint)
Hop(a, b, 1) :- Link(a, b).
Hop(a, c, n + 1) :- Hop(a, b, n), n < 4, Link(b, c).
"""


def test_getsource_of_a_compiled_variant_is_its_generated_text():
    rt = compile_program(HOPS_PROG).start()
    (scc,) = rt.scc_evaluators.values()
    (walk,) = [c for c in scc.rules if c.rule.name == "rule@5"]
    for variant, signature in [("head", "head(row, check)"), (0, "seed(rows, heads)")]:
        fn = walk.variants[variant]
        filename = fn.__code__.co_filename
        assert filename.startswith(f"<dlog rule rule@5: {'seed 0' if variant == 0 else variant}")
        source = inspect.getsource(fn)
        assert source == "".join(linecache.getlines(filename))
        assert source.startswith(f"def {signature}:\n")
    # Each join is a ``for`` over the probe resolved at compile time.
    assert "for " in inspect.getsource(walk.variants["head"])


def test_tests_do_not_nest():
    # CPython refuses more than 100 levels of indentation: a test is a
    # flat ``if not (...): continue``, so only loops nest, and an atom
    # of 120 literals or a rule of 60 guards compiles.
    cols = ", ".join(f"c{i}: bigint" for i in range(120))
    guards = ", ".join(f"x + {i} > 0" for i in range(60))
    rt = compile_program(f"""
    input relation W({cols})
    input relation E(a: bigint, b: bigint)
    output relation Out(x: bigint)
    output relation R(a: bigint, b: bigint)
    Out(1) :- W({", ".join(["1"] * 120)}).
    R(a, b) :- E(a, b).
    R(a, c) :- R(a, b), E(b, c), var x = a, {guards}.
    """).start()
    rt.transaction(inserts={"W": [(1,) * 120, (1,) * 119 + (2,)], "E": [(1, 2), (2, 3)]})
    assert rt.dump("Out") == {(1,)}
    assert rt.dump("R") == {(1, 2), (1, 3), (2, 3)}
    rt.transaction(deletes={"E": [(1, 2)]})
    assert rt.dump("R") == {(2, 3)}
