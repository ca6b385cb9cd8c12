"""Expressions and patterns of the control-plane language, as generated
Python.

Rule bodies run as generated source: every (rule, evaluation order) is
one Python function, written into a :class:`Code` by the planners
(:mod:`repro.dlog.plan` for dataflow, :mod:`repro.dlog.recursive` for
recursive strata) and compiled once when the runtime is built.  This
module writes what all of them share: an expression as inline Python
text (:meth:`Evaluator.expr`), and a pattern as the binds and tests that
match a value (:meth:`Evaluator.pattern`).

A rule's variables are the function's locals.  :class:`Slots` gives
each variable a slot index in binding order, and slot ``i`` is the
local ``v<i>``.  No program text is spliced into the source: a variable
is named by its slot, and literals, constructor names, helpers, user
functions and the probes and row maps a rule reads reach the function
through its globals (``k<n>``, and the ``_``-prefixed helpers of
:data:`_HELPERS`); only integers the generator computes itself
(indexes, arities, masks, widths) are written as numbers.  So a dlog
variable named ``lambda``, ``None`` or ``row`` is one more slot.

:meth:`Code.function` is the one place generated text becomes code.  It
names the code object's file ``<dlog rule NAME: VARIANT>`` and puts the
text in :mod:`linecache`, so a traceback or a profile attributes time
and errors to a rule, and :func:`inspect.getsource` shows the text.

The generator consults the checker's node-type table so fixed-width
arithmetic wraps exactly like the declared type says (``bit<8>``
addition wraps at 256, signed types wrap two's-complement), which
matters when control-plane rules compute values destined for P4 table
entries of a fixed width.  Wherever a value is not plainly an integer
or a bool, the generated code calls the same helpers a hand-written
evaluator would (:func:`_int_div`, :func:`_call_builtin`, ...), so
results and :class:`EvalError` messages are exact.

:meth:`Evaluator.compile_expr` and :meth:`Evaluator.compile_pattern`
generate a standalone function over a *frame*, a list holding the
variables at their slot indices: ``fn(frame) -> value`` and
``fn(value, frame) -> bool``, the latter writing the variables it binds
into the frame.
"""

from __future__ import annotations

import linecache
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
#: A pattern as generated steps: ``(local, text)`` assigns ``text`` to
#: the local, ``(None, text)`` tests the condition ``text``.
Parts = List[Tuple[Optional[str], str]]


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


def _call_builtin(name: str, fn, args) -> object:
    try:
        return fn(*args)
    except EvalError:
        raise
    except Exception as exc:
        raise EvalError(f"{name}(): {exc}") from exc


def _field(base, name: str, field_index: Callable[[str, str], int]):
    """``base.name`` where the checker could not say ``base`` is a
    tuple: a tuple index or a struct field, looked up by constructor."""
    if isinstance(base, tuple):
        idx = int(name) if name.isdigit() else None
        if idx is None or idx >= len(base):
            raise EvalError(f"tuple index {name} out of range")
        return base[idx]
    if isinstance(base, V.StructValue):
        return base.fields[field_index(base.constructor, name)]
    raise EvalError(f"cannot access field {name!r} of {base!r}")


def _unbound(name: str):
    raise EvalError(f"unbound variable {name}")


def _unknown_function(name: str):
    raise EvalError(f"unknown function {name!r}")


def _no_match(value):
    raise EvalError(f"no match arm matched value {V.format_value(value)}")


#: Globals of every generated function.
_HELPERS = {
    "_int_div": _int_div,
    "_int_mod": _int_mod,
    "_divide": _divide,
    "_wrap_signed": V.wrap_signed,
    "_StructValue": V.StructValue,
    "_interned": V._struct_intern.get,
    "_NoneType": type(None),
    "_MapValue": V.MapValue,
    "_call_builtin": _call_builtin,
    "_field": _field,
    "_unbound": _unbound,
    "_unknown_function": _unknown_function,
    "_no_match": _no_match,
    "_EvalError": EvalError,
}

#: Operators that are the same in Python, and never wrap.
_PLAIN = {"==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=", "++": "+"}
#: Operators whose result is wrapped to the expression's fixed width
#: (``/`` and ``%`` are helper calls).
_ARITH = {"+": "+", "-": "-", "*": "*", "&": "&", "|": "|", "^": "^", "<<": "<<", ">>": ">>"}
_INT_TYPES = (T.TBigInt, T.TBit, T.TSigned)


def slot(i: int) -> str:
    """The local holding slot ``i``."""
    return f"v{i}"


def tuple_text(items: Sequence[str]) -> str:
    """A tuple display of the expression texts ``items``."""
    if len(items) == 1:
        return f"({items[0]},)"
    return f"({', '.join(items)})"


def condition(parts: Parts) -> str:
    """``parts`` as one condition (assignments as ``:=``)."""
    return " and ".join(
        f"[{local} := {text}]" if local else f"({text})" for local, text in parts
    ) or "True"


def _register(filename: str, text: str) -> str:
    """Put ``text`` in :mod:`linecache` under ``filename``, or under a
    numbered variant of it when another text holds that name."""
    lines = text.splitlines(True)
    name, n = filename, 1
    while True:
        entry = linecache.cache.get(name)
        if entry is None or entry[2] == lines:
            break
        n += 1
        name = f"{filename[:-1]} #{n}>"
    linecache.cache[name] = (len(text), None, lines, name)
    return name


class Code:
    """One generated function being written: its body, and the globals
    it reads.  Lines go in at the current depth, and the rest of a rule
    runs once per way a body item holds: a loop (a join, a FlatMap) is
    a block that everything after it runs in, and a test is flat — a
    failed :meth:`require` goes on with the innermost loop's next
    iteration, or returns ``None`` outside any loop — so only loops
    nest.  CPython compiles at most 20 nested loops: a variant with more
    joins and FlatMaps than that is a ``SyntaxError`` naming its rule."""

    def __init__(self, filename: str):
        self.filename = filename
        self.env: Dict[str, object] = dict(_HELPERS)
        self.lines: List[str] = []
        self.depth = 1
        #: Slots whose locals the text reads.
        self.reads = set()
        self._names = 0
        self._loops: List[bool] = []  # per open block: is it a loop

    def const(self, value) -> str:
        """A global holding ``value``."""
        self._names += 1
        name = f"k{self._names}"
        self.env[name] = value
        return name

    def temp(self) -> str:
        """A fresh local."""
        self._names += 1
        return f"t{self._names}"

    def read(self, i: int) -> str:
        self.reads.add(i)
        return slot(i)

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def open(self, text: str, loop: bool = False) -> None:
        self.line(text)
        self.depth += 1
        self._loops.append(loop)

    def close(self) -> None:
        self.depth -= 1
        self._loops.pop()

    def fail(self) -> str:
        """The statement that abandons the current way the rule holds."""
        return "continue" if any(self._loops) else "return"

    def require(self, test: str) -> None:
        """The rest of the rule runs only where ``test`` holds."""
        self.line(f"if not ({test}): {self.fail()}")

    def match(self, parts: Parts) -> None:
        """``parts`` as statements, each test a :meth:`require`."""
        for local, text in parts:
            if local is None:
                self.require(text)
            else:
                self.line(f"{local} = {text}")

    def load(self, source: str, size: int) -> None:
        """Read the slots below ``size`` that the text uses from the
        sequence ``source``."""
        for i in sorted(self.reads):
            if i < size:
                self.line(f"{slot(i)} = {source}[{i}]")

    def function(self, name: str, params: Sequence[str]) -> Callable:
        """Compile the text as ``def name(params)`` and return it."""
        text = f"def {name}({', '.join(params)}):\n" + "\n".join(self.lines or ["    pass"]) + "\n"
        exec(compile(text, _register(self.filename, text), "exec"), self.env)
        return self.env[name]


class Slots:
    """Variable name -> slot index for one compiled scope.

    Binding a name allocates the next free index, so variables land in
    binding order.  A match arm compiles in a :meth:`scope` that shares
    the index counter, so its bindings get slots of their own and
    shadow outer variables.  ``len(slots)`` is the number of slots
    allocated (the frame size :meth:`Evaluator.compile_expr` needs)."""

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
    """Generates the expressions and patterns of one
    :class:`CheckedProgram`, and owns its user functions."""

    def __init__(self, checked: CheckedProgram):
        self.checked = checked
        self.tenv = checked.tenv
        self._ctor_index_cache: Dict[str, Dict[str, int]] = {}
        # name -> [function]: call sites hold the cell, so a recursive
        # call compiles before the function it calls exists.
        self._functions: Dict[str, List[Optional[Callable]]] = {}
        self._depth = 0

    def call(self, name: str, args: List[object]) -> object:
        """Call a user function or builtin with already-evaluated args."""
        decl = self.checked.functions.get(name)
        if decl is not None:
            return self._user_function(decl)[0](*args)
        builtin = BUILTINS.get(name)
        if builtin is None:
            raise EvalError(f"unknown function {name!r}")
        return _call_builtin(name, builtin.fn, args)

    # -- standalone functions over a frame -----------------------------------------

    def compile_expr(self, expr: A.Expr, slots: Slots) -> ExprFn:
        """``fn(frame) -> value`` computing ``expr`` over ``slots``."""
        code = Code("<dlog expr>")
        size = len(slots)
        text = self.expr(code, expr, slots)
        code.load("frame", size)
        code.line(f"return {text}")
        return code.function("expr", ["frame"])

    def compile_pattern(
        self, pat: A.Pattern, slots: Slots, rebind: bool = False
    ) -> PatternFn:
        """``fn(value, frame) -> bool`` matching ``pat``.

        A variable not yet in ``slots`` binds (it gets the next slot); a
        bound one is an equality constraint — unless ``rebind`` (match
        arms), where every variable binds a fresh slot."""
        code = Code("<dlog pattern>")
        size = len(slots)
        parts = self.pattern(code, pat, slots, "value", rebind)
        code.load("frame", size)
        code.open(f"if {condition(parts)}:")
        for local, _ in parts:
            if local is not None and local.startswith("v"):  # a slot, not a temporary
                code.line(f"frame[{local[1:]}] = {local}")
        code.line("return True")
        code.close()
        code.line("return False")
        return code.function("pattern", ["value", "frame"])

    # -- generation --------------------------------------------------------------

    def expr(self, code: Code, expr: A.Expr, slots: Slots) -> str:
        """``expr`` over ``slots`` as a Python expression in ``code``."""
        return self._GEN[type(expr)](self, code, expr, slots)

    def tuple_expr(self, code: Code, exprs: Sequence[A.Expr], slots: Slots) -> str:
        return tuple_text([self.expr(code, e, slots) for e in exprs])

    def pattern(
        self, code: Code, pat: A.Pattern, slots: Slots, value: str,
        rebind: bool = False,
    ) -> Parts:
        """The binds and tests that match the Python expression
        ``value`` against ``pat``, in order (see :meth:`compile_pattern`
        for binding).  ``value`` is evaluated once per use, so a
        compound pattern first assigns it to a temporary."""
        parts: Parts = []
        self._pattern(code, pat, slots, value, rebind, parts)
        return parts

    def _pattern(self, code, pat, slots, value, rebind, parts) -> None:
        if isinstance(pat, A.PWildcard):
            return
        if isinstance(pat, A.PVar):
            i = slots.index.get(pat.name)
            if i is not None and not rebind:
                parts.append((None, f"{code.read(i)} == {value}"))
            else:
                parts.append((slot(slots.bind(pat.name)), value))
            return
        if isinstance(pat, A.PLit):
            parts.append((None, f"{value} == {code.const(pat.value)}"))
            return
        if isinstance(pat, A.PExpr):
            parts.append((None, f"{value} == {self.expr(code, pat.expr, slots)}"))
            return
        if not value.isidentifier():
            temp = code.temp()
            parts.append((temp, value))
            value = temp
        if isinstance(pat, A.PTuple):
            parts.append(
                (None, f"isinstance({value}, tuple) and len({value}) == {len(pat.elems)}")
            )
            subs, base = pat.elems, value
        elif isinstance(pat, A.PStruct):
            parts.append((
                None,
                f"isinstance({value}, _StructValue)"
                f" and {value}.constructor == {code.const(pat.ctor)}",
            ))
            subs, base = [p for _, p in pat.fields], f"{value}.fields"
        else:  # pragma: no cover
            raise EvalError(f"unsupported pattern {pat!r}")
        for i, sub in enumerate(subs):
            self._pattern(code, sub, slots, f"{base}[{i}]", rebind, parts)

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

    def _user_function(self, decl: A.FunctionDecl) -> List[Optional[Callable]]:
        """The cell holding the generated ``fn(*args) -> result`` of a
        user function.  The cell exists before the body is generated,
        so a recursive call compiles to a call through it."""
        cell = self._functions.get(decl.name)
        if cell is not None:
            return cell
        cell = self._functions[decl.name] = [None]
        code = Code(f"<dlog function {decl.name}>")
        slots = Slots(p for p, _ in decl.params)
        # The checker gave the body the declared return type; wrap it.
        body = _wrap(self.expr(code, decl.body, slots), decl.return_type)
        evaluator = code.const(self)
        message = code.const(f"call depth exceeded in function {decl.name}")
        code.open(f"if {evaluator}._depth >= {_MAX_CALL_DEPTH}:")
        code.line(f"raise _EvalError({message})")
        code.close()
        code.line(f"{evaluator}._depth += 1")
        code.open("try:")
        code.line(f"return {body}")
        code.close()
        code.open("finally:")
        code.line(f"{evaluator}._depth -= 1")
        cell[0] = code.function("function", [slot(i) for i in range(len(decl.params))])
        return cell

    # -- node generators (text of one expression node) ------------------------------

    def _g_lit(self, code, expr: A.Lit, slots):
        return code.const(expr.value)

    def _g_var(self, code, expr: A.Var, slots):
        i = slots.index.get(expr.name)
        if i is None:
            return f"_unbound({code.const(expr.name)})"
        return code.read(i)

    def _g_binop(self, code, expr: A.BinOp, slots):
        left = self.expr(code, expr.left, slots)
        right = self.expr(code, expr.right, slots)
        if expr.op in ("and", "or"):
            if not isinstance(self._result_type(expr.left), T.TBool):
                left = f"bool({left})"
            if not isinstance(self._result_type(expr.right), T.TBool):
                right = f"bool({right})"
            return f"({left} {expr.op} {right})"
        if expr.op in _PLAIN:
            return f"({left} {_PLAIN[expr.op]} {right})"
        ty = self._result_type(expr)
        if expr.op == "/":
            helper = "_int_div" if isinstance(ty, _INT_TYPES) else "_divide"
            return _wrap(f"{helper}({left}, {right})", ty)
        if expr.op == "%":
            return _wrap(f"_int_mod({left}, {right})", ty)
        if expr.op not in _ARITH:  # pragma: no cover
            raise EvalError(f"unknown operator {expr.op}")
        return _wrap(f"({left} {_ARITH[expr.op]} {right})", ty)

    def _g_unary(self, code, expr: A.UnaryOp, slots):
        operand = self.expr(code, expr.operand, slots)
        if expr.op == "not":
            return f"(not {operand})"
        if expr.op in ("-", "~"):
            return _wrap(f"({expr.op}{operand})", self._result_type(expr))
        raise EvalError(f"unknown unary operator {expr.op}")  # pragma: no cover

    def _g_field(self, code, expr: A.Field, slots):
        base = self.expr(code, expr.expr, slots)
        ty = self._result_type(expr.expr)
        name = expr.name
        if isinstance(ty, T.TTuple) and name.isdigit() and int(name) < len(ty.elems):
            return f"{base}[{int(name)}]"
        return f"_field({base}, {code.const(name)}, {code.const(self._field_index)})"

    def _g_call(self, code, expr: A.Call, slots):
        args = [self.expr(code, e, slots) for e in expr.args]
        name = expr.func
        decl = self.checked.functions.get(name)
        if decl is not None:
            return f"{code.const(self._user_function(decl))}[0]({', '.join(args)})"
        builtin = BUILTINS.get(name)
        if builtin is None:
            return f"_unknown_function({code.const(name)})"
        return (
            f"_call_builtin({code.const(name)}, {code.const(builtin.fn)},"
            f" {tuple_text(args)})"
        )

    def _g_tuple(self, code, expr, slots):
        return self.tuple_expr(code, expr.elems, slots)

    def _g_struct(self, code, expr: A.StructExpr, slots):
        # The intern table's reference, called, is the value when it is
        # already interned (an absent key calls ``NoneType()``): only a
        # new value costs a call of the constructor.
        fields = self.tuple_expr(code, [e for _, e in expr.fields], slots)
        key = code.temp()
        return (
            f"((_interned({key} := ({code.const(expr.ctor)}, {fields}))"
            f" or _NoneType)() or _StructValue(*{key}))"
        )

    def _g_if(self, code, expr: A.IfExpr, slots):
        cond = self.expr(code, expr.cond, slots)
        then = self.expr(code, expr.then, slots)
        els = self.expr(code, expr.els, slots)
        return f"({then} if {cond} else {els})"

    def _g_match(self, code, expr: A.MatchExpr, slots):
        subject = self.expr(code, expr.subject, slots)
        value = code.temp()
        arms = []
        for pat, arm in expr.arms:
            scope = slots.scope()
            test = condition(self.pattern(code, pat, scope, value, rebind=True))
            arms.append((test, self.expr(code, arm, scope)))
        text = f"_no_match({value})"
        for i, (test, arm) in reversed(list(enumerate(arms))):
            if i == 0:
                test = f"[{value} := {subject}] and {test}"
            text = f"({arm} if {test} else {text})"
        return text if arms else f"_no_match({subject})"

    def _g_cast(self, code, expr: A.Cast, slots):
        value = self.expr(code, expr.expr, slots)
        ty = expr.type
        if isinstance(ty, (T.TBit, T.TSigned)):
            return _wrap(f"int({value})", ty)
        if isinstance(ty, T.TBigInt):
            return f"int({value})"
        if isinstance(ty, T.TFloat):
            return f"float({value})"
        raise EvalError(f"unsupported cast target {ty}")  # pragma: no cover

    _GEN = {
        A.Lit: _g_lit,
        A.Var: _g_var,
        A.BinOp: _g_binop,
        A.UnaryOp: _g_unary,
        A.Field: _g_field,
        A.Call: _g_call,
        A.TupleExpr: _g_tuple,
        A.VecExpr: _g_tuple,
        A.StructExpr: _g_struct,
        A.IfExpr: _g_if,
        A.MatchExpr: _g_match,
        A.Cast: _g_cast,
    }


def _wrap(text: str, ty: Optional[T.Type]) -> str:
    """``text`` with its integer result wrapped to ``ty``'s width."""
    if isinstance(ty, T.TBit):
        return f"({text} & {(1 << ty.width) - 1})"
    if isinstance(ty, T.TSigned):
        return f"_wrap_signed({text}, {ty.width})"
    return text
