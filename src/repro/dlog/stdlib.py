"""Built-in functions of the control-plane language.

Each builtin supplies a *type rule* (``sig``: argument types in, result
type out, raising :class:`TypeCheckError` on misuse) and an *evaluator*
(``fn``: runtime values in, value out).  Several builtins are overloaded
on their first argument (e.g. ``len`` works on strings, vectors, and
maps), which is why signatures are functions rather than type lists.

Aggregate functions (``count``, ``sum``, ...) are *not* here — they are
group operators, not expressions, and live in :data:`AGGREGATES`.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List

from repro.dlog import types as T
from repro.dlog import values as V
from repro.errors import EvalError, TypeCheckError


class Builtin:
    """A built-in function: a type rule plus an evaluator."""

    __slots__ = ("name", "sig", "fn")

    def __init__(
        self,
        name: str,
        sig: Callable[[List[T.Type]], T.Type],
        fn: Callable[..., object],
    ):
        self.name = name
        self.sig = sig
        self.fn = fn


def _arity(n: int):
    def check(args: List[T.Type]) -> None:
        if len(args) != n:
            raise TypeCheckError(f"expected {n} argument(s), got {len(args)}")

    return check


# -- individual signatures --------------------------------------------------


def _sig_len(args):
    _arity(1)(args)
    (a,) = args
    if isinstance(a, (T.TString, T.TVec, T.TMap)):
        return T.BIGINT
    raise TypeCheckError(f"len() expects string/Vec/Map, got {a}")


def _sig_to_string(args):
    _arity(1)(args)
    return T.STRING


def _sig_substr(args):
    _arity(3)(args)
    if not isinstance(args[0], T.TString):
        raise TypeCheckError("substr() expects a string")
    for a in args[1:]:
        if not T.is_integer(a):
            raise TypeCheckError("substr() indices must be integers")
    return T.STRING


def _sig_str_str_to_bool(name):
    def sig(args):
        _arity(2)(args)
        if not isinstance(args[0], T.TString) or not isinstance(args[1], T.TString):
            raise TypeCheckError(f"{name}() expects two strings")
        return T.BOOL

    return sig


def _sig_split(args):
    _arity(2)(args)
    if not isinstance(args[0], T.TString) or not isinstance(args[1], T.TString):
        raise TypeCheckError("string_split() expects two strings")
    return T.TVec(T.STRING)


def _sig_join(args):
    _arity(2)(args)
    if not isinstance(args[0], T.TVec) or not isinstance(args[0].elem, T.TString):
        raise TypeCheckError("string_join() expects Vec<string> and string")
    if not isinstance(args[1], T.TString):
        raise TypeCheckError("string_join() separator must be a string")
    return T.STRING


def _sig_case(args):
    _arity(1)(args)
    if not isinstance(args[0], T.TString):
        raise TypeCheckError("expects a string")
    return T.STRING


def _sig_parse_int(args):
    _arity(1)(args)
    if not isinstance(args[0], T.TString):
        raise TypeCheckError("parse_int() expects a string")
    return T.TUser("Option", [T.BIGINT])


def _sig_abs(args):
    _arity(1)(args)
    if not T.is_numeric(args[0]):
        raise TypeCheckError("abs() expects a number")
    return args[0]


def _sig_numeric2_same(name):
    def sig(args):
        _arity(2)(args)
        if args[0] != args[1] or not T.is_numeric(args[0]):
            raise TypeCheckError(f"{name}() expects two numbers of the same type")
        return args[0]

    return sig


def _sig_pow(args):
    _arity(2)(args)
    if not T.is_integer(args[0]) or not T.is_integer(args[1]):
        raise TypeCheckError("pow() expects integers")
    return args[0]


def _sig_hash(result):
    def sig(args):
        _arity(1)(args)
        return result

    return sig


def _sig_vec_push(args):
    _arity(2)(args)
    if not isinstance(args[0], T.TVec):
        raise TypeCheckError("vec_push() expects a Vec")
    if args[0].elem != args[1]:
        raise TypeCheckError(
            f"vec_push(): element type {args[1]} does not match {args[0]}"
        )
    return args[0]


def _sig_vec_contains(args):
    _arity(2)(args)
    if not isinstance(args[0], T.TVec) or args[0].elem != args[1]:
        raise TypeCheckError("vec_contains() expects (Vec<T>, T)")
    return T.BOOL


def _sig_vec_at(args):
    _arity(2)(args)
    if not isinstance(args[0], T.TVec) or not T.is_integer(args[1]):
        raise TypeCheckError("vec_at() expects (Vec<T>, integer)")
    return T.TUser("Option", [args[0].elem])


def _sig_vec_sort(args):
    _arity(1)(args)
    if not isinstance(args[0], T.TVec):
        raise TypeCheckError("vec_sort() expects a Vec")
    return args[0]


def _sig_vec_empty(args):
    _arity(1)(args)
    if not isinstance(args[0], (T.TVec, T.TMap, T.TString)):
        raise TypeCheckError("is_empty() expects string/Vec/Map")
    return T.BOOL


def _sig_map_get(args):
    _arity(2)(args)
    if not isinstance(args[0], T.TMap) or args[0].kty != args[1]:
        raise TypeCheckError("map_get() expects (Map<K,V>, K)")
    return T.TUser("Option", [args[0].vty])


def _sig_map_contains(args):
    _arity(2)(args)
    if not isinstance(args[0], T.TMap) or args[0].kty != args[1]:
        raise TypeCheckError("map_contains_key() expects (Map<K,V>, K)")
    return T.BOOL


def _sig_map_insert(args):
    _arity(3)(args)
    m = args[0]
    if not isinstance(m, T.TMap) or m.kty != args[1] or m.vty != args[2]:
        raise TypeCheckError("map_insert() expects (Map<K,V>, K, V)")
    return m


def _sig_map_remove(args):
    _arity(2)(args)
    if not isinstance(args[0], T.TMap) or args[0].kty != args[1]:
        raise TypeCheckError("map_remove() expects (Map<K,V>, K)")
    return args[0]


def _sig_map_keys(args):
    _arity(1)(args)
    if not isinstance(args[0], T.TMap):
        raise TypeCheckError("map_keys() expects a Map")
    return T.TVec(args[0].kty)


def _sig_map_values(args):
    _arity(1)(args)
    if not isinstance(args[0], T.TMap):
        raise TypeCheckError("map_values() expects a Map")
    return T.TVec(args[0].vty)


def _sig_option_pred(args):
    _arity(1)(args)
    a = args[0]
    if not (isinstance(a, T.TUser) and a.name == "Option"):
        raise TypeCheckError("expects an Option")
    return T.BOOL


def _sig_unwrap_or(args):
    _arity(2)(args)
    a = args[0]
    if not (isinstance(a, T.TUser) and a.name == "Option" and len(a.args) == 1):
        raise TypeCheckError("unwrap_or() expects an Option")
    if a.args[0] != args[1]:
        raise TypeCheckError(
            f"unwrap_or(): default type {args[1]} does not match {a}"
        )
    return a.args[0]


# -- evaluators ----------------------------------------------------------------


def _ev_len(x):
    return len(x)


def _ev_substr(s, start, end):
    return s[int(start) : int(end)]


def _ev_parse_int(s):
    try:
        return V.some(int(s, 0))
    except ValueError:
        return V.NONE


def _ev_vec_at(v, i):
    i = int(i)
    if 0 <= i < len(v):
        return V.some(v[i])
    return V.NONE


def _ev_vec_sort(v):
    try:
        return tuple(sorted(v))
    except TypeError as exc:  # mixed-type vec slipped past checks
        raise EvalError(f"vec_sort: unorderable elements: {exc}") from exc


def _ev_map_get(m, k):
    if k in m:
        return V.some(m[k])
    return V.NONE


def _ev_unwrap_or(opt, default):
    if V.is_some(opt):
        return opt.fields[0]
    return default


def _ev_hash64(x):
    # Stable across runs (unlike Python's salted hash()): FNV-1a over repr.
    data = repr(x).encode()
    acc = 0xCBF29CE484222325
    for b in data:
        acc ^= b
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def _ev_hash32(x):
    return zlib.crc32(repr(x).encode()) & 0xFFFFFFFF


BUILTINS: Dict[str, Builtin] = {}


def _register(name, sig, fn):
    BUILTINS[name] = Builtin(name, sig, fn)


_register("len", _sig_len, _ev_len)
_register("is_empty", _sig_vec_empty, lambda x: len(x) == 0)
_register("to_string", _sig_to_string, V.format_value)
_register("substr", _sig_substr, _ev_substr)
_register(
    "string_contains",
    _sig_str_str_to_bool("string_contains"),
    lambda s, t: t in s,
)
_register(
    "starts_with", _sig_str_str_to_bool("starts_with"), lambda s, t: s.startswith(t)
)
_register(
    "ends_with", _sig_str_str_to_bool("ends_with"), lambda s, t: s.endswith(t)
)
_register("string_split", _sig_split, lambda s, sep: tuple(s.split(sep)))
_register("string_join", _sig_join, lambda v, sep: sep.join(v))
_register("to_lowercase", _sig_case, lambda s: s.lower())
_register("to_uppercase", _sig_case, lambda s: s.upper())
_register("parse_int", _sig_parse_int, _ev_parse_int)
_register("abs", _sig_abs, abs)
_register("min2", _sig_numeric2_same("min2"), min)
_register("max2", _sig_numeric2_same("max2"), max)
_register("pow32", _sig_pow, lambda b, e: pow(int(b), int(e)))
_register("hash32", _sig_hash(T.TBit(32)), _ev_hash32)
_register("hash64", _sig_hash(T.TBit(64)), _ev_hash64)
_register("vec_push", _sig_vec_push, lambda v, x: v + (x,))
_register("vec_contains", _sig_vec_contains, lambda v, x: x in v)
_register("vec_at", _sig_vec_at, _ev_vec_at)
_register("vec_sort", _sig_vec_sort, _ev_vec_sort)
_register("map_get", _sig_map_get, _ev_map_get)
_register("map_contains_key", _sig_map_contains, lambda m, k: k in m)
_register("map_insert", _sig_map_insert, lambda m, k, v: m.insert(k, v))
_register("map_remove", _sig_map_remove, lambda m, k: m.remove(k))
_register("map_keys", _sig_map_keys, lambda m: tuple(k for k, _ in m))
_register("map_values", _sig_map_values, lambda m: tuple(v for _, v in m))
_register("is_none", _sig_option_pred, V.is_none)
_register("is_some", _sig_option_pred, V.is_some)
_register("unwrap_or", _sig_unwrap_or, _ev_unwrap_or)


# -- aggregate functions -------------------------------------------------------


class Aggregate:
    """An aggregate: a type rule and a fold over a group's rows.

    ``fn`` receives a list of evaluated argument tuples (one per row in
    the group, respecting multiplicity) and returns the aggregate value.
    ``select`` is set for an aggregate whose value is one of its single
    argument's values: it is the builtin ``min`` or ``max``, called on
    an iterable of values or on several values, so an operator can
    update a cached value from the arguments that arrive instead of
    refolding the group.
    """

    __slots__ = ("name", "nargs", "sig", "fn", "select")

    def __init__(self, name, nargs, sig, fn, select=None):
        self.name = name
        self.nargs = nargs
        self.sig = sig
        self.fn = fn
        self.select = select


def _agg_sig_count(arg_types):
    if arg_types:
        raise TypeCheckError("count() takes no arguments")
    return T.BIGINT


def _agg_sig_same_numeric(name):
    def sig(arg_types):
        if len(arg_types) != 1 or not T.is_numeric(arg_types[0]):
            raise TypeCheckError(f"{name}() takes one numeric argument")
        return arg_types[0]

    return sig


def _agg_sig_ordered(name):
    def sig(arg_types):
        if len(arg_types) != 1:
            raise TypeCheckError(f"{name}() takes one argument")
        return arg_types[0]

    return sig


def _agg_sig_avg(arg_types):
    if len(arg_types) != 1 or not T.is_numeric(arg_types[0]):
        raise TypeCheckError("avg() takes one numeric argument")
    return T.FLOAT


def _agg_sig_vec(arg_types):
    if len(arg_types) != 1:
        raise TypeCheckError("group_to_vec() takes one argument")
    return T.TVec(arg_types[0])


def _agg_sig_map(arg_types):
    if len(arg_types) != 2:
        raise TypeCheckError("group_to_map() takes two arguments")
    return T.TMap(arg_types[0], arg_types[1])


def _agg_avg(rows):
    total = sum(r[0] for r in rows)
    return float(total) / len(rows)


def _selector(name, select):
    return Aggregate(
        name,
        1,
        _agg_sig_ordered(name),
        lambda rows: select(r[0] for r in rows),
        select,
    )


AGGREGATES: Dict[str, Aggregate] = {
    "count": Aggregate("count", 0, _agg_sig_count, lambda rows: len(rows)),
    "sum": Aggregate(
        "sum", 1, _agg_sig_same_numeric("sum"), lambda rows: sum(r[0] for r in rows)
    ),
    "min": _selector("min", min),
    "max": _selector("max", max),
    "avg": Aggregate("avg", 1, _agg_sig_avg, _agg_avg),
    "group_to_vec": Aggregate(
        "group_to_vec",
        1,
        _agg_sig_vec,
        lambda rows: tuple(sorted((r[0] for r in rows), key=repr)),
    ),
    "group_to_set": Aggregate(
        "group_to_set",
        1,
        _agg_sig_vec,
        lambda rows: tuple(sorted(set(r[0] for r in rows), key=repr)),
    ),
    "group_to_map": Aggregate(
        "group_to_map",
        2,
        _agg_sig_map,
        lambda rows: V.MapValue((r[0], r[1]) for r in rows),
    ),
}
