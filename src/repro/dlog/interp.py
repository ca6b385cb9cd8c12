"""Expression and pattern compilation for the control-plane language.

Every expression and pattern a rule uses is compiled once, at plan
time, into a Python closure over a *frame*: a flat sequence holding the
rule's variables at slot indices the compiler fixes (:class:`Slots`).
``compile_expr(expr, slots)`` returns ``fn(frame) -> value`` and
``compile_pattern(pat, slots)`` returns ``fn(value, frame) -> bool``,
which binds the pattern's variables into the frame on success.  A
dataflow record or relation row is a frame as it stands (its
variables, or columns, are slots ``0..n-1``), so a compiled expression
reads a row with no dict in between.

The compiler consults the checker's node-type table so fixed-width
arithmetic wraps exactly like the declared type says (``bit<8>``
addition wraps at 256, signed types wrap two's-complement), which
matters when control-plane rules compute values destined for P4 table
entries of a fixed width.

:class:`Evaluator` owns the compiler (and user functions' compiled
bodies); nothing evaluates an expression without compiling it first.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.dlog import ast as A
from repro.dlog import types as T
from repro.dlog import values as V
from repro.dlog.stdlib import BUILTINS
from repro.dlog.typecheck import CheckedProgram
from repro.errors import EvalError

_MAX_CALL_DEPTH = 200

Frame = Sequence[object]
ExprFn = Callable[[Frame], object]
PatternFn = Callable[[object, List[object]], bool]


def _int_div(a: int, b: int) -> int:
    """C-style division truncating toward zero (DDlog semantics)."""
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    return a - _int_div(a, b) * b


def _divide(a, b):
    if isinstance(a, float):
        if b == 0.0:
            raise EvalError("division by zero")
        return a / b
    return _int_div(a, b)


#: Operators whose result is wrapped to the expression's fixed width.
_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _int_mod,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": operator.lshift,
    ">>": operator.rshift,
}
_PLAIN = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "++": operator.add,
}


def _always(value, frame) -> bool:
    return True


class Slots:
    """Variable name -> frame index for one compiled scope.

    Binding a name allocates the next free index, so variables land in
    binding order.  A match arm compiles in a :meth:`scope` that shares
    the frame's index counter, so its bindings get their own slots and
    shadow outer variables without copying anything at run time.
    ``len(slots)`` is the frame size the compiled code needs."""

    __slots__ = ("index", "_size")

    def __init__(self, names: Iterable[str] = ()):
        self.index: Dict[str, int] = {}
        self._size = [0]
        for name in names:
            self.bind(name)

    def bind(self, name: str) -> int:
        i = self._size[0]
        self._size[0] = i + 1
        self.index[name] = i
        return i

    def scope(self) -> "Slots":
        child = Slots()
        child.index = dict(self.index)
        child._size = self._size
        return child

    def bound(self):
        """The names bound so far, as a set-like view."""
        return self.index.keys()

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __len__(self) -> int:
        return self._size[0]


class Evaluator:
    """Compiles the expressions and patterns of one
    :class:`CheckedProgram`."""

    def __init__(self, checked: CheckedProgram):
        self.checked = checked
        self.tenv = checked.tenv
        self._ctor_index_cache: Dict[str, Dict[str, int]] = {}
        self._functions: Dict[str, Callable[[List[object]], object]] = {}
        self._depth = 0

    def call(self, name: str, args: List[object]) -> object:
        """Call a user function or builtin with already-evaluated args."""
        decl = self.checked.functions.get(name)
        if decl is not None:
            return self._user_function(decl)(list(args))
        builtin = BUILTINS.get(name)
        if builtin is None:
            raise EvalError(f"unknown function {name!r}")
        return _call_builtin(name, builtin.fn, args)

    # -- compilation ---------------------------------------------------------

    def compile_expr(self, expr: A.Expr, slots: Slots) -> ExprFn:
        """``fn(frame) -> value`` computing ``expr`` over ``slots``."""
        return self._COMPILE[type(expr)](self, expr, slots)

    def compile_tuple(self, exprs: Sequence[A.Expr], slots: Slots) -> ExprFn:
        """``fn(frame) -> tuple`` of ``exprs``; a plain selection when
        every element is a bound variable."""
        idx = [
            slots.index.get(e.name) if isinstance(e, A.Var) else None
            for e in exprs
        ]
        if None not in idx:
            if not idx:
                return lambda f: ()
            if len(idx) == 1:
                i = idx[0]
                return lambda f: (f[i],)
            return operator.itemgetter(*idx)
        fns = [self.compile_expr(e, slots) for e in exprs]
        if len(fns) == 1:
            (a,) = fns
            return lambda f: (a(f),)
        if len(fns) == 2:
            a, b = fns
            return lambda f: (a(f), b(f))
        if len(fns) == 3:
            a, b, c = fns
            return lambda f: (a(f), b(f), c(f))
        if len(fns) == 4:
            a, b, c, d = fns
            return lambda f: (a(f), b(f), c(f), d(f))
        return lambda f: tuple([fn(f) for fn in fns])

    def compile_pattern(
        self, pat: A.Pattern, slots: Slots, rebind: bool = False
    ) -> PatternFn:
        """``fn(value, frame) -> bool`` matching ``pat``.

        A variable not yet in ``slots`` binds (it gets the next slot); a
        bound one is an equality constraint — unless ``rebind`` (match
        arms), where every variable binds a fresh slot."""
        if isinstance(pat, A.PWildcard):
            return _always
        if isinstance(pat, A.PVar):
            i = slots.index.get(pat.name)
            if i is not None and not rebind:
                return lambda v, f: f[i] == v
            i = slots.bind(pat.name)

            def bind(v, f):
                f[i] = v
                return True

            return bind
        if isinstance(pat, A.PLit):
            const = pat.value
            return lambda v, f: v == const
        if isinstance(pat, A.PExpr):
            expected = self.compile_expr(pat.expr, slots)
            return lambda v, f: v == expected(f)
        if isinstance(pat, A.PTuple):
            n = len(pat.elems)
            subs = self._sub_patterns(pat.elems, slots, rebind)

            def match_tuple(v, f):
                if not isinstance(v, tuple) or len(v) != n:
                    return False
                for i, sub in subs:
                    if not sub(v[i], f):
                        return False
                return True

            return match_tuple
        if isinstance(pat, A.PStruct):
            ctor = pat.ctor
            subs = self._sub_patterns([p for _, p in pat.fields], slots, rebind)

            def match_struct(v, f):
                if not isinstance(v, V.StructValue) or v.constructor != ctor:
                    return False
                fields = v.fields
                for i, sub in subs:
                    if not sub(fields[i], f):
                        return False
                return True

            return match_struct
        raise EvalError(f"unsupported pattern {pat!r}")  # pragma: no cover

    def _sub_patterns(self, pats, slots, rebind):
        return [
            (i, self.compile_pattern(p, slots, rebind))
            for i, p in enumerate(pats)
            if not isinstance(p, A.PWildcard)
        ]

    # -- helpers --------------------------------------------------------------

    def _result_type(self, expr: A.Expr) -> Optional[T.Type]:
        return self.checked.node_types.get(id(expr))

    def _field_index(self, ctor_name: str, field_name: str) -> int:
        cache = self._ctor_index_cache.get(ctor_name)
        if cache is None:
            tdef = self.tenv.owner_of_constructor(ctor_name)
            if tdef is None:
                raise EvalError(f"unknown constructor {ctor_name!r}")
            ctor = tdef.constructor(ctor_name)
            cache = {f.name: i for i, f in enumerate(ctor.fields)}
            self._ctor_index_cache[ctor_name] = cache
        try:
            return cache[field_name]
        except KeyError:
            raise EvalError(
                f"constructor {ctor_name} has no field {field_name!r}"
            ) from None

    def _user_function(self, decl: A.FunctionDecl):
        """The compiled ``args list -> result`` of a user function.

        It is registered before its body compiles, so a recursive call
        compiles to a call of the very function being built."""
        invoke = self._functions.get(decl.name)
        if invoke is not None:
            return invoke
        name = decl.name

        def invoke(args):
            if self._depth >= _MAX_CALL_DEPTH:
                raise EvalError(f"call depth exceeded in function {name}")
            if pad:
                args.extend(pad)
            self._depth += 1
            try:
                return body(args)
            finally:
                self._depth -= 1

        self._functions[name] = invoke
        slots = Slots(p for p, _ in decl.params)
        # The checker gave the body the declared return type; wrap it.
        body = _wrapped(self.compile_expr(decl.body, slots), decl.return_type)
        pad = [None] * (len(slots) - len(decl.params))
        return invoke

    # -- node compilers (run once per node, at plan time) -----------------------

    def _c_lit(self, expr: A.Lit, slots):
        value = expr.value
        return lambda f: value

    def _c_var(self, expr: A.Var, slots):
        i = slots.index.get(expr.name)
        if i is not None:
            return operator.itemgetter(i)
        name = expr.name

        def unbound(f):
            raise EvalError(f"unbound variable {name}")

        return unbound

    def _c_binop(self, expr: A.BinOp, slots):
        left = self.compile_expr(expr.left, slots)
        right = self.compile_expr(expr.right, slots)
        if expr.op == "and":
            return lambda f: bool(left(f)) and bool(right(f))
        if expr.op == "or":
            return lambda f: bool(left(f)) or bool(right(f))
        op = _PLAIN.get(expr.op)
        if op is not None:
            return _apply2(op, expr, left, right)
        op = _ARITH.get(expr.op)
        if op is None:  # pragma: no cover
            raise EvalError(f"unknown operator {expr.op}")
        return _wrapped(_apply2(op, expr, left, right), self._result_type(expr))

    def _c_unary(self, expr: A.UnaryOp, slots):
        operand = self.compile_expr(expr.operand, slots)
        if expr.op == "not":
            return lambda f: not operand(f)
        if expr.op == "-":
            return _wrapped(lambda f: -operand(f), self._result_type(expr))
        if expr.op == "~":
            return _wrapped(lambda f: ~operand(f), self._result_type(expr))
        raise EvalError(f"unknown unary operator {expr.op}")  # pragma: no cover

    def _c_field(self, expr: A.Field, slots):
        base_of = self.compile_expr(expr.expr, slots)
        name = expr.name
        idx = int(name) if name.isdigit() else None
        field_index = self._field_index

        def field(f):
            base = base_of(f)
            if isinstance(base, tuple):
                if idx is None or idx >= len(base):
                    raise EvalError(f"tuple index {name} out of range")
                return base[idx]
            if isinstance(base, V.StructValue):
                return base.fields[field_index(base.constructor, name)]
            raise EvalError(f"cannot access field {name!r} of {base!r}")

        return field

    def _c_call(self, expr: A.Call, slots):
        args = self.compile_tuple(expr.args, slots)
        name = expr.func
        decl = self.checked.functions.get(name)
        if decl is not None:
            invoke = self._user_function(decl)
            return lambda f: invoke(list(args(f)))
        builtin = BUILTINS.get(name)
        if builtin is None:

            def unknown(f):
                raise EvalError(f"unknown function {name!r}")

            return unknown
        fn = builtin.fn
        return lambda f: _call_builtin(name, fn, args(f))

    def _c_tuple(self, expr, slots):
        return self.compile_tuple(expr.elems, slots)

    def _c_struct(self, expr: A.StructExpr, slots):
        fields = self.compile_tuple([e for _, e in expr.fields], slots)
        ctor = expr.ctor
        make = V.StructValue
        return lambda f: make(ctor, fields(f))

    def _c_if(self, expr: A.IfExpr, slots):
        cond = self.compile_expr(expr.cond, slots)
        then = self.compile_expr(expr.then, slots)
        els = self.compile_expr(expr.els, slots)
        return lambda f: then(f) if cond(f) else els(f)

    def _c_match(self, expr: A.MatchExpr, slots):
        subject = self.compile_expr(expr.subject, slots)
        arms = []
        for pat, arm in expr.arms:
            scope = slots.scope()
            test = self.compile_pattern(pat, scope, rebind=True)
            arms.append((test, self.compile_expr(arm, scope)))

        def match(f):
            value = subject(f)
            for test, arm in arms:
                if test(value, f):
                    return arm(f)
            raise EvalError(
                f"no match arm matched value {V.format_value(value)}"
            )

        return match

    def _c_cast(self, expr: A.Cast, slots):
        value = self.compile_expr(expr.expr, slots)
        ty = expr.type
        if isinstance(ty, T.TBit):
            mask = (1 << ty.width) - 1
            return lambda f: int(value(f)) & mask
        if isinstance(ty, T.TSigned):
            width = ty.width
            return lambda f: V.wrap_signed(int(value(f)), width)
        if isinstance(ty, T.TBigInt):
            return lambda f: int(value(f))
        if isinstance(ty, T.TFloat):
            return lambda f: float(value(f))
        raise EvalError(f"unsupported cast target {ty}")  # pragma: no cover

    _COMPILE = {
        A.Lit: _c_lit,
        A.Var: _c_var,
        A.BinOp: _c_binop,
        A.UnaryOp: _c_unary,
        A.Field: _c_field,
        A.Call: _c_call,
        A.TupleExpr: _c_tuple,
        A.VecExpr: _c_tuple,
        A.StructExpr: _c_struct,
        A.IfExpr: _c_if,
        A.MatchExpr: _c_match,
        A.Cast: _c_cast,
    }


def _apply2(op, expr: A.BinOp, left: ExprFn, right: ExprFn) -> ExprFn:
    """``op(left, right)``, reading a literal operand as a constant."""
    if isinstance(expr.right, A.Lit):
        const = expr.right.value
        return lambda f: op(left(f), const)
    if isinstance(expr.left, A.Lit):
        const = expr.left.value
        return lambda f: op(const, right(f))
    return lambda f: op(left(f), right(f))


def _wrapped(fn: ExprFn, ty: Optional[T.Type]) -> ExprFn:
    """``fn`` with its integer result wrapped to ``ty``'s width."""
    if isinstance(ty, T.TBit):
        mask = (1 << ty.width) - 1
        return lambda f: fn(f) & mask
    if isinstance(ty, T.TSigned):
        width = ty.width
        return lambda f: V.wrap_signed(fn(f), width)
    return fn


def _call_builtin(name: str, fn, args) -> object:
    try:
        return fn(*args)
    except EvalError:
        raise
    except Exception as exc:
        raise EvalError(f"{name}(): {exc}") from exc
