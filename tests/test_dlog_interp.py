"""Unit tests for the expression compiler (semantics details).

Most cases compile one expression or pattern over a frame holding a
variable dict's values (:func:`run_expr`, :func:`run_match`) and run it;
:class:`TestCompiledCode` also drives whole rules."""

import pytest

from repro.dlog import ast as A
from repro.dlog import compile_program
from repro.dlog.interp import Evaluator, Slots, _int_div, _int_mod
from repro.dlog.parser import parse_program
from repro.dlog.typecheck import check_program
from repro.dlog.values import MapValue, StructValue
from repro.errors import EvalError


def _frame(env, slots):
    return [*env.values(), *[None] * (len(slots) - len(env))]


def run_expr(evaluator, expr, env):
    """Compile ``expr`` over a frame holding ``env``'s variables, in
    order, and run it."""
    slots = Slots(env)
    fn = evaluator.compile_expr(expr, slots)
    return fn(_frame(env, slots))


def run_match(evaluator, pat, value, env, rebind):
    """Compile ``pat`` the same way and match ``value``; on success the
    bindings are copied back into ``env``."""
    slots = Slots(env)
    test = evaluator.compile_pattern(pat, slots, rebind)
    frame = _frame(env, slots)
    if not test(value, frame):
        return False
    env.update((name, frame[i]) for name, i in slots.index.items())
    return True


def make_evaluator(prelude=""):
    checked = check_program(parse_program(prelude or "input relation Nil(x: bool)"))
    return Evaluator(checked), checked


def checked_expr(expr_text, prelude="", var_decls=()):
    """Typecheck an expression inside a rule context."""
    # Build a tiny program binding variables via a relation.
    cols = ", ".join(f"{name}: {ty}" for name, ty in var_decls)
    text = f"""
    {prelude}
    input relation Env({cols})
    output relation Out(r: bool)
    Out(true) :- Env({", ".join(name for name, _ in var_decls)}),
        var result = {expr_text}, result == result.
    """
    checked = check_program(parse_program(text))
    assignment = checked.ast.rules[0].body[1]
    return checked, assignment.expr


def eval_in_rule(expr_text, env, prelude="", var_decls=""):
    """Typecheck an expression inside a rule context and evaluate it."""
    checked, expr = checked_expr(expr_text, prelude, var_decls)
    return run_expr(Evaluator(checked), expr, env)


def compile_in_rule(expr_text, prelude="", var_decls=()):
    """Typecheck an expression inside a rule context and compile it over
    a frame holding the declared variables in order."""
    checked, expr = checked_expr(expr_text, prelude, var_decls)
    slots = Slots(name for name, _ in var_decls)
    fn = Evaluator(checked).compile_expr(expr, slots)
    return lambda *values: fn([*values, *[None] * (len(slots) - len(values))])


class TestIntegerSemantics:
    def test_trunc_division(self):
        assert _int_div(7, 2) == 3
        assert _int_div(-7, 2) == -3  # C-style, not Python floor
        assert _int_div(7, -2) == -3

    def test_trunc_modulo(self):
        assert _int_mod(7, 2) == 1
        assert _int_mod(-7, 2) == -1

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            _int_div(1, 0)
        with pytest.raises(EvalError):
            _int_mod(1, 0)

    def test_bit_wrap_on_add(self):
        value = eval_in_rule("x + 1", {"x": 255}, var_decls=[("x", "bit<8>")])
        assert value == 0

    def test_signed_wrap(self):
        value = eval_in_rule("x + 1", {"x": 127}, var_decls=[("x", "signed<8>")])
        assert value == -128

    def test_bigint_does_not_wrap(self):
        value = eval_in_rule("x + 1", {"x": 2**80}, var_decls=[("x", "bigint")])
        assert value == 2**80 + 1

    def test_bitwise_not_wraps(self):
        value = eval_in_rule("~x", {"x": 0}, var_decls=[("x", "bit<8>")])
        assert value == 255

    def test_shift(self):
        value = eval_in_rule("x << 4", {"x": 1}, var_decls=[("x", "bit<8>")])
        assert value == 16
        value = eval_in_rule("x << 8", {"x": 1}, var_decls=[("x", "bit<8>")])
        assert value == 0  # shifted out


class TestValuesAndCalls:
    def test_match_binds_fields(self):
        prelude = "typedef sh_t = Circle{r: bigint} | Square{s: bigint}"
        value = eval_in_rule(
            "match (x) { Circle{r} -> r * 3, Square{s} -> s * 4 }",
            {"x": StructValue("Circle", (5,))},
            prelude=prelude,
            var_decls=[("x", "sh_t")],
        )
        assert value == 15

    def test_match_no_arm_raises(self):
        evaluator, _ = make_evaluator()
        expr = A.MatchExpr(A.Var("x"), [(A.PLit(1), A.Lit(10))])
        with pytest.raises(EvalError, match="no match arm"):
            run_expr(evaluator, expr, {"x": 2})

    def test_user_function_recursion_guard(self):
        prelude = "function boom(x: bigint): bigint { boom(x) }"
        with pytest.raises(EvalError, match="depth"):
            eval_in_rule("boom(x)", {"x": 1}, prelude=prelude,
                         var_decls=[("x", "bigint")])

    def test_user_function_result_coerced(self):
        prelude = "function wrap(x: bit<4>): bit<4> { x + 1 }"
        value = eval_in_rule("wrap(x)", {"x": 15}, prelude=prelude,
                             var_decls=[("x", "bit<4>")])
        assert value == 0

    def test_stdlib_via_call(self):
        evaluator, _ = make_evaluator()
        assert evaluator.call("len", ["abc"]) == 3
        assert evaluator.call("to_uppercase", ["ab"]) == "AB"
        assert evaluator.call("unwrap_or", [StructValue("None", ()), 9]) == 9

    def test_unknown_function_raises(self):
        evaluator, _ = make_evaluator()
        with pytest.raises(EvalError, match="unknown function"):
            evaluator.call("frobnicate", [])

    def test_builtin_error_wrapped(self):
        evaluator, _ = make_evaluator()
        with pytest.raises(EvalError):
            evaluator.call("vec_sort", [(1, "a")])

    def test_field_access_on_struct(self):
        prelude = "typedef pt = Pt{x: bigint, y: bigint}"
        value = eval_in_rule(
            "p.y", {"p": StructValue("Pt", (3, 4))}, prelude=prelude,
            var_decls=[("p", "pt")],
        )
        assert value == 4

    def test_tuple_index(self):
        value = eval_in_rule(
            "t.1", {"t": (7, 8)}, var_decls=[("t", "(bigint, bigint)")]
        )
        assert value == 8

    def test_map_builtins(self):
        m = MapValue([("a", 1)])
        evaluator, _ = make_evaluator()
        assert evaluator.call("map_contains_key", [m, "a"]) is True
        m2 = evaluator.call("map_insert", [m, "b", 2])
        assert m2["b"] == 2
        assert "b" not in m  # immutability

    def test_hash_is_stable(self):
        evaluator, _ = make_evaluator()
        a = evaluator.call("hash64", [("x", 1)])
        b = evaluator.call("hash64", [("x", 1)])
        assert a == b
        assert 0 <= a < 2**64


class TestPatternMatching:
    def test_bind_always_rebinds(self):
        evaluator, _ = make_evaluator()
        env = {"x": 1}
        assert run_match(evaluator, A.PVar("x"), 2, env, rebind=True)
        assert env["x"] == 2

    def test_bind_check_mode_compares(self):
        evaluator, _ = make_evaluator()
        env = {"x": 1}
        assert not run_match(evaluator, A.PVar("x"), 2, env, rebind=False)
        assert run_match(evaluator, A.PVar("x"), 1, env, rebind=False)

    def test_tuple_pattern_arity_mismatch(self):
        evaluator, _ = make_evaluator()
        pat = A.PTuple([A.PVar("a"), A.PVar("b")])
        assert not run_match(evaluator, pat, (1, 2, 3), {}, rebind=True)

    def test_struct_pattern_wrong_ctor(self):
        evaluator, _ = make_evaluator()
        pat = A.PStruct("Some", [(None, A.PVar("v"))])
        assert not run_match(
            evaluator, pat, StructValue("None", ()), {}, rebind=True
        )

    def test_wildcard_always_matches(self):
        evaluator, _ = make_evaluator()
        assert run_match(evaluator, A.PWildcard(), object(), {}, rebind=False)


class TestCompiledCode:
    def test_fixed_width_wraps_in_guard_and_head(self):
        prog = """
        input relation In(x: bit<8>, s: signed<8>)
        output relation Out(y: bit<8>, t: signed<8>)
        Out(x + 1, s + 1) :- In(x, s), x + 1 == 0, s + 1 < 0.
        """
        rt = compile_program(prog).start()
        rt.transaction(inserts={"In": [(255, 127), (254, 127), (255, 126)]})
        assert rt.dump("Out") == {(0, -128)}

    def test_fixed_width_wraps_inside_a_recursive_stratum(self):
        # Computed heads and guards of an SCC: the walk wraps past the
        # type's top and stops at the guard, and deleting the seed
        # takes every wrapped row with it (top-down checks compute the
        # same wrapped values).
        prog = """
        input relation Seed(x: bit<8>, s: signed<8>)
        output relation Ring(x: bit<8>)
        output relation SRing(s: signed<8>)
        Ring(x) :- Seed(x, _).
        Ring(x + 1) :- Ring(x), x + 1 != 3.
        SRing(s) :- Seed(_, s).
        SRing(s + 1) :- SRing(s), s != -126.
        """
        rt = compile_program(prog).start()
        rt.transaction(inserts={"Seed": [(250, 126)]})
        assert rt.dump("Ring") == {(x % 256,) for x in range(250, 259)}
        assert rt.dump("SRing") == {(126,), (127,), (-128,), (-127,), (-126,)}
        rt.transaction(deletes={"Seed": [(250, 126)]})
        assert rt.dump("Ring") == rt.dump("SRing") == set()

    def test_division_and_modulo_by_zero_raise_from_compiled_code(self):
        decls = [("x", "bigint"), ("y", "bigint")]
        divide = compile_in_rule("x / y", var_decls=decls)
        modulo = compile_in_rule("x % y", var_decls=decls)
        assert divide(-7, 2) == -3 and modulo(-7, 2) == -1
        with pytest.raises(EvalError, match="division by zero"):
            divide(1, 0)
        with pytest.raises(EvalError, match="modulo by zero"):
            modulo(1, 0)
        rt = compile_program("""
        input relation In(x: bigint, y: bigint)
        output relation Out(q: bigint)
        Out(x / y) :- In(x, y).
        """).start()
        with pytest.raises(EvalError, match="division by zero"):
            rt.transaction(inserts={"In": [(1, 0)]})

    def test_recursive_user_function_hits_the_call_depth_limit(self):
        prelude = """
        function down(n: bigint): bigint { if (n == 0) { 0 } else { down(n - 1) } }
        """
        down = compile_in_rule("down(x)", prelude, [("x", "bigint")])
        assert down(150) == 0
        with pytest.raises(EvalError, match="call depth exceeded in function down"):
            down(500)
        assert down(5) == 0  # the depth counter unwound with the error

    def test_match_arm_bindings_shadow_outer_variables(self):
        decls = [("x", "bigint"), ("t", "(bigint, bigint)")]
        # The arm's x is the tuple's first element; the outer x, read
        # after the match, is untouched.
        expr = compile_in_rule("match (t) { (x, _) -> x } * 10 + x", var_decls=decls)
        assert expr(1, (5, 6)) == 51
        assert eval_in_rule(
            "match (t) { (x, _) -> x } * 10 + x", {"x": 1, "t": (5, 6)},
            var_decls=decls,
        ) == 51
        rt = compile_program("""
        input relation In(x: bigint, t: (bigint, bigint))
        output relation Out(a: bigint, b: bigint)
        Out(match (t) { (x, _) -> x }, x) :- In(x, t).
        """).start()
        rt.transaction(inserts={"In": [(1, (5, 6))]})
        assert rt.dump("Out") == {(5, 1)}
