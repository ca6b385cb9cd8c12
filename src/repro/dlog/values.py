"""Runtime values for the control-plane language.

Every value that can live in a relation must be **immutable and
hashable**, because relations are weighted sets keyed by the value.  We
therefore map language types onto Python as follows:

===================  =====================================
language type        Python representation
===================  =====================================
``bool``             :class:`bool`
``bit<N>``           :class:`int` (non-negative, < 2**N)
``signed<N>``        :class:`int` (two's-complement range)
``bigint``           :class:`int`
``float``            :class:`float`
``string``           :class:`str`
tuple                :class:`tuple`
struct / union       :class:`StructValue`
``Vec<T>``           :class:`tuple`
``Map<K,V>``         :class:`MapValue`
===================  =====================================

Plain Python ints/strings/tuples are used directly where possible so
that interop with the rest of the stack (database rows, P4 table
entries) needs no boxing.

Interning invariants
--------------------

:class:`StructValue` and :class:`MapValue` are **hash-consed**: the
constructor returns the canonical instance for its contents from a
per-process weak intern table, so within one process

* *identity implies equality* — always true for immutable values — and
* *equality implies identity*: two live equal instances are the same
  object, which lets ``__eq__`` answer most comparisons with a single
  pointer check and lets dict probes in the dataflow hot paths skip
  field-by-field comparison entirely.

The table holds the values weakly: an interned value is dropped as
soon as the last relation row referencing it dies, so interning never
pins memory.  It is a plain ``dict`` of weak references (a
:class:`weakref.KeyedRef` whose callback drops its own entry), not a
``WeakValueDictionary``, so looking up a value that is already
interned is a C-level ``dict.get`` and a reference call: generated rule
bodies do that themselves (:mod:`repro.dlog.interp`) and call the
constructor only for a new value.  Pickling round-trips through the
constructor (:meth:`~StructValue.__reduce__`), so values crossing a
shard-worker pipe re-intern on arrival.  Both depend on the instances
being deeply immutable — never bypass the ``__setattr__`` guard on an
interned value, and never pass a field/value that can mutate after
construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple
from weakref import KeyedRef

from _weakref import _remove_dead_weakref

#: ``key -> KeyedRef(value)``; an entry goes when its value dies.
_struct_intern: Dict[tuple, KeyedRef] = {}
_map_intern: Dict[tuple, KeyedRef] = {}


def _drop_struct(ref, _remove=_remove_dead_weakref, _table=_struct_intern):
    # Only if the entry is still this dead reference: a value made
    # again under the same key may already have replaced it.  Bound as
    # defaults, as values die during interpreter shutdown too.
    _remove(_table, ref.key)


def _drop_map(ref, _remove=_remove_dead_weakref, _table=_map_intern):
    _remove(_table, ref.key)


class StructValue:
    """An instance of a named struct or union constructor.

    ``constructor`` is the constructor name (for a plain struct it
    equals the type name); ``fields`` is a tuple of field values in
    declaration order.  Instances are immutable, hashable, and
    interned (see the module docstring's interning invariants).
    """

    __slots__ = ("constructor", "fields", "_hash", "__weakref__")

    def __new__(cls, constructor: str, fields: Iterable[object] = ()):
        fields = tuple(fields)
        key = (constructor, fields)
        if cls is StructValue:
            ref = _struct_intern.get(key)
            if ref is not None:
                cached = ref()
                if cached is not None:
                    return cached
        self = object.__new__(cls)
        object.__setattr__(self, "constructor", constructor)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "_hash", hash(key))
        if cls is StructValue:
            _struct_intern[key] = KeyedRef(self, _drop_struct, key)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("StructValue is immutable")

    def __reduce__(self):
        # Default unpickling assigns slots one by one, which the
        # immutability guard rejects; rebuild through the constructor
        # (which also re-interns the value in the receiving process).
        return (StructValue, (self.constructor, self.fields))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, StructValue)
            and self._hash == other._hash
            and self.constructor == other.constructor
            and self.fields == other.fields
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(repr(f) for f in self.fields)
        return f"{self.constructor}{{{inner}}}"


class MapValue:
    """An immutable, hashable map.

    Stored as a tuple of ``(key, value)`` pairs sorted by the repr-stable
    ordering of keys, so two maps with equal contents compare and hash
    equal regardless of insertion order.  Instances are interned on the
    canonical sorted pairs (see the module docstring's interning
    invariants), so equal maps are the same object within a process.
    """

    __slots__ = ("pairs", "_index", "_hash", "__weakref__")

    def __new__(cls, pairs: Iterable[Tuple[object, object]] = ()):
        index = dict(pairs)
        ordered = tuple(sorted(index.items(), key=_sort_key))
        if cls is MapValue:
            ref = _map_intern.get(ordered)
            if ref is not None:
                cached = ref()
                if cached is not None:
                    return cached
        self = object.__new__(cls)
        object.__setattr__(self, "pairs", ordered)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_hash", hash(ordered))
        if cls is MapValue:
            _map_intern[ordered] = KeyedRef(self, _drop_map, ordered)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("MapValue is immutable")

    def __reduce__(self):
        return (MapValue, (self.pairs,))

    def get(self, key, default=None):
        return self._index.get(key, default)

    def __contains__(self, key):
        return key in self._index

    def __getitem__(self, key):
        return self._index[key]

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def insert(self, key, value) -> "MapValue":
        """Return a new map with ``key`` set to ``value``."""
        items = dict(self._index)
        items[key] = value
        return MapValue(items.items())

    def remove(self, key) -> "MapValue":
        """Return a new map without ``key`` (no-op if absent)."""
        items = dict(self._index)
        items.pop(key, None)
        return MapValue(items.items())

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, MapValue) and self.pairs == other.pairs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.pairs)
        return f"map{{{inner}}}"


def _sort_key(item):
    key, _ = item
    # Sort by type name first so heterogeneous keys (which the type
    # checker forbids, but defensive code may produce) still order.
    return (type(key).__name__, repr(key))


# Union constructors for Option<T>; declared here so the runtime can
# build them without going through the interpreter.
NONE = StructValue("None", ())


def some(value) -> StructValue:
    """Build ``Some{value}`` of the built-in ``Option`` union."""
    return StructValue("Some", (value,))


def is_none(value) -> bool:
    return isinstance(value, StructValue) and value.constructor == "None"


def is_some(value) -> bool:
    return isinstance(value, StructValue) and value.constructor == "Some"


def wrap_signed(value: int, width: int) -> int:
    """Truncate ``value`` into the two's-complement range of ``signed<width>``."""
    mask = (1 << width) - 1
    value &= mask
    sign = 1 << (width - 1)
    return value - (1 << width) if value & sign else value


def format_value(value) -> str:
    """Render a runtime value the way the language's `to_string` does."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    if isinstance(value, StructValue):
        if not value.fields:
            return value.constructor
        inner = ", ".join(format_value(f) for f in value.fields)
        return f"{value.constructor}{{{inner}}}"
    if isinstance(value, MapValue):
        inner = ", ".join(
            f"{format_value(k)}: {format_value(v)}" for k, v in value.pairs
        )
        return f"[{inner}]"
    return repr(value) if isinstance(value, float) else str(value)
