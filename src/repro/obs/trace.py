"""Causal trace spans keyed by a per-transaction update-id.

A management-plane transact mints an **update-id** (``upd-000042``);
the id rides a :class:`contextvars.ContextVar` through the controller
sync path, the engine's delta evaluation, and the resulting device
writes, and is stamped onto digest feedback — so one id names a config
change end-to-end across planes and threads (each plane sets the
contextvar around the callbacks it invokes, which is what carries the
id across thread hops and socket hops without changing any callback
signature).

Spans nest via a second contextvar holding the current span, so a
``device.write`` opened while ``controller.sync`` is active records it
as its parent.  A ``device.write`` covers its batch's send and is
recorded when the send returns, so write spans sit in send order; the
ack sets ``applied=True, ack=True`` (for a remote device, later,
stretching the span to the send→ack interval), and a batch that failed
has no ``applied``.  The tracer keeps a bounded ring of finished spans;
:meth:`Tracer.render` pretty-prints one update-id's tree with
per-stage durations.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import deque
from contextvars import ContextVar
from typing import Deque, Dict, List, Optional

_update_counter = itertools.count(1)

#: The current update-id; a per-batch site binds it with a bare
#: ``set``/``reset`` pair, not the :func:`use_update_id` scope object.
UPDATE_ID: ContextVar[Optional[str]] = ContextVar(
    "repro_obs_update_id", default=None
)


def mint_update_id() -> str:
    """Return a fresh process-unique update-id.

    ``itertools.count`` advances atomically under the GIL, so minting
    needs no lock.
    """
    return f"upd-{next(_update_counter):06d}"


def current_update_id() -> Optional[str]:
    return UPDATE_ID.get()


class _UpdateIdScope:
    __slots__ = ("uid", "_token")

    def __init__(self, uid: Optional[str]) -> None:
        self.uid = uid

    def __enter__(self) -> Optional[str]:
        self._token = UPDATE_ID.set(self.uid)
        return self.uid

    def __exit__(self, *exc) -> bool:
        UPDATE_ID.reset(self._token)
        return False


def use_update_id(uid: Optional[str]) -> _UpdateIdScope:
    """Context manager binding ``uid`` as the current update-id."""
    return _UpdateIdScope(uid)


class Span:
    """A finished or in-flight trace span.

    Spans are their own context managers (no separate scope object —
    one allocation per span matters at engine-transaction frequency):
    ``__enter__`` resolves the parent and update-id from the tracer's
    contextvars, ``__exit__`` records the duration and appends the span
    to the tracer's ring.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "update_id",
        "start",
        "duration",
        "_attrs",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        update_id: Optional[str],
        attrs: Optional[dict],
        tracer: "Tracer",
    ) -> None:
        self.span_id = span_id
        self.parent_id: Optional[int] = None
        self.name = name
        self.update_id = update_id
        self.start = 0.0
        self.duration = 0.0
        self._attrs = attrs
        self._tracer = tracer

    @property
    def attrs(self) -> dict:
        if self._attrs is None:
            self._attrs = {}
        return self._attrs

    def set(self, **attrs) -> None:
        # Take ownership of the kwargs dict on first use — spans are
        # opened on every engine transaction, so one avoided dict per
        # span is measurable on microsecond-scale workloads.
        if self._attrs is None:
            self._attrs = attrs
        else:
            self._attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        parent = tracer._current.get()
        if parent is not None:
            self.parent_id = parent.span_id
        if self.update_id is None:
            # Inherit from the enclosing span first, then from the
            # cross-thread contextvar set by the plane that called us.
            if parent is not None and parent.update_id is not None:
                self.update_id = parent.update_id
            else:
                self.update_id = UPDATE_ID.get()
        self._token = tracer._current.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        tracer = self._tracer
        tracer._current.reset(self._token)
        self._token = None  # tokens chain to prior spans; don't pin them
        tracer._record(self)
        return False

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "update_id": self.update_id,
            "duration": self.duration,
            "attrs": self._attrs or {},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, update_id={self.update_id!r}, "
            f"duration={self.duration * 1e3:.3f}ms)"
        )


class _NullSpan:
    """Shared no-op span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class _AdoptScope:
    """Make a span opened on another thread the current parent here.

    The staged pipeline hops threads (a committing thread or a
    management client's loop → the controller's reactor) and loop turns
    between stages; contextvars don't follow, so each stage re-adopts
    the span its work should nest under.  The adopted span is *not*
    re-recorded on exit — it was (or will be) recorded by the thread
    that opened it.  ``adopt(None)`` explicitly clears any inherited
    parent.
    """

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Optional[Span]) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Optional[Span]:
        self._token = self._tracer._current.set(self._span)
        return self._span

    def __exit__(self, *exc) -> bool:
        self._tracer._current.reset(self._token)
        return False


class Tracer:
    """Bounded ring buffer of finished spans."""

    def __init__(self, capacity: int = 4096) -> None:
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._current: ContextVar[Optional[Span]] = ContextVar(
            "repro_obs_span", default=None
        )

    def span(
        self, name: str, update_id: Optional[str] = None, **attrs
    ) -> Span:
        return Span(next(self._ids), name, update_id, attrs or None, self)

    def active(self) -> Optional[Span]:
        """The span currently open on this context, if any."""
        return self._current.get()

    def adopt(self, span: Optional[Span]) -> _AdoptScope:
        """Context manager parenting subsequent spans under ``span``
        (opened on another thread) without re-recording it."""
        return _AdoptScope(self, span)

    def _record(self, span: Span) -> None:
        # deque.append is atomic under the GIL — the recording hot path
        # takes no lock; readers retry the (rare) mutated-mid-copy case.
        self._spans.append(span)

    def spans(self, update_id: Optional[str] = None) -> List[Span]:
        while True:
            try:
                spans = list(self._spans)
                break
            except RuntimeError:  # ring mutated during the copy
                continue
        if update_id is None:
            return spans
        return [s for s in spans if s.update_id == update_id]

    def update_ids(self) -> List[str]:
        """Update-ids in order of first appearance."""
        seen: Dict[str, None] = {}
        for span in self.spans():
            if span.update_id is not None:
                seen.setdefault(span.update_id, None)
        return list(seen)

    def latest_update_id(self, name: Optional[str] = None) -> Optional[str]:
        for span in reversed(self.spans()):
            if span.update_id is None:
                continue
            if name is None or span.name == name:
                return span.update_id
        return None

    def to_json(
        self, update_id: Optional[str] = None, indent: Optional[int] = None
    ) -> str:
        return json.dumps(
            [s.to_dict() for s in self.spans(update_id)],
            indent=indent,
            sort_keys=True,
        )

    def render(self, update_id: str) -> str:
        """Pretty-print one update-id's span tree with durations."""
        spans = self.spans(update_id)
        if not spans:
            return f"(no spans for {update_id})"
        by_parent: Dict[Optional[int], List[Span]] = {}
        ids = {s.span_id for s in spans}
        for span in spans:
            parent = span.parent_id if span.parent_id in ids else None
            by_parent.setdefault(parent, []).append(span)
        lines = [f"trace {update_id}"]

        def walk(parent: Optional[int], depth: int) -> None:
            for span in sorted(
                by_parent.get(parent, []), key=lambda s: s.start
            ):
                attrs = " ".join(
                    f"{k}={v}" for k, v in sorted((span._attrs or {}).items())
                )
                pad = "  " * depth
                lines.append(
                    f"{pad}- {span.name} "
                    f"[{span.duration * 1e3:.3f} ms]"
                    + (f" {attrs}" if attrs else "")
                )
                walk(span.span_id, depth + 1)

        walk(None, 1)
        return "\n".join(lines)

    def reset(self) -> None:
        self._spans.clear()
