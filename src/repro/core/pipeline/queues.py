"""Coalescing queues connecting the pipeline stages.

A :class:`CoalescingQueue` is a FIFO with two twists:

* **tail coalescing** — if the newest queued item can absorb an
  incoming one (``tail.coalesce(item)`` returns the item that now
  holds the merge — the tail itself, or for a shared, copy-on-write
  tail the copy it merged into, which other queues holding that same
  tail may share — rather than ``None``), the put merges instead of
  appending.  While a consumer is busy, every burst collapses into
  the single pending tail item, which is where the pipeline's batching
  win comes from: a slow device accumulates *one* merged batch, not an
  unbounded backlog;
* **in-flight accounting** — ``unfinished`` counts the items put and
  not yet ``task_done``; the queues of one pipeline share a
  :class:`QueueGroup`, whose ``on_idle`` fires when the last of them
  falls to 0 — how :meth:`NerpaController.drain` learns, at O(1) per
  item, that the stages are quiet.

Every put, pop and ``task_done`` runs on the controller's loop (a
producer on another thread hops onto it), so a queue has no lock.  A
put never blocks: consumers are reactor callbacks that ``pop_nowait``,
and producers are callbacks on that same loop, so a bound would park
the loop on itself; a backlog sits here, where it merges, and not in
some queue further upstream, where it does not.

Control items (:class:`Task` — engine tasks, device syncs) have no
``coalesce`` and act as barriers: later write batches never merge
across them, preserving order.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional

from repro import obs
from repro.errors import ReproError


class PipelineStalledError(ReproError):
    """A drain deadline expired with work still in flight."""


class Task:
    """A piece of work finished on the loop: an engine task the engine
    pump :meth:`run`\\ s (``fn()`` returns the result), or a callback
    handed to the loop that :meth:`finish`\\ es it.  A caller on
    another thread :meth:`wait`\\ s for its result; a callback on the
    loop has :meth:`then` call it back instead."""

    __slots__ = ("fn", "event", "result", "error", "_then")

    def __init__(self, fn):
        self.fn = fn
        self.event = threading.Event()
        self.result = None
        self.error: Optional[BaseException] = None
        self._then: Optional[Callable] = None

    def run(self) -> None:
        try:
            result, error = self.fn(), None
        except BaseException as exc:  # noqa: BLE001 - handed to waiter
            result, error = None, exc
        self.finish(result, error)

    def finish(self, result, error: Optional[BaseException]) -> None:
        self.result, self.error = result, error
        self.event.set()
        self._fire()

    def abandon(self) -> None:
        """Release the waiter of a task that will never run."""
        self.finish(None, ReproError("task abandoned: its queue was closed"))

    def then(self, callback: Callable) -> None:
        """Have ``callback(result, error)`` run once the task has
        finished: where it finishes, or at once if it already has."""
        self._then = callback
        if self.event.is_set():
            self._fire()

    def _fire(self) -> None:
        callback, self._then = self._then, None
        if callback is not None:
            callback(self.result, self.error)

    def wait(self, what: str, timeout: float = 30.0):
        """The task's result; re-raises what ``fn`` raised."""
        if not self.event.wait(timeout):
            raise ReproError(f"{what} timed out")
        if self.error is not None:
            raise self.error
        return self.result


def when_all(tasks, callback: Callable) -> None:
    """``callback(None, error)`` once every task in ``tasks`` has
    finished; ``error`` is the first failed task's, in ``tasks`` order.
    One countdown, not a chain: tasks that finished already call back
    in turn instead of nesting."""
    left = len(tasks)

    def one(_result, _error) -> None:
        nonlocal left
        left -= 1
        if left == 0:
            errors = (task.error for task in tasks if task.error is not None)
            callback(None, next(errors, None))

    if not tasks:
        callback(None, None)
    for task in tasks:
        task.then(one)


class SyncTask(Task):
    """A device channel's control item: ``steps`` is a generator of the
    device's non-blocking calls, which the channel drives
    (:func:`repro.core.reconcile.drive`) and :meth:`finish`\\ es the
    task with."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        super().__init__(None)
        self.steps = steps


class QueueGroup:
    """The queues of one pipeline, as one in-flight count: ``busy`` is
    how many of them have work in flight, and ``on_idle`` runs each
    time the last of them goes idle (loop only)."""

    __slots__ = ("busy", "on_idle")

    def __init__(self, on_idle: Optional[Callable[[], None]] = None):
        self.busy = 0
        self.on_idle = on_idle


class CoalescingQueue:
    """FIFO with tail coalescing and in-flight accounting (loop only)."""

    def __init__(
        self,
        name: str = "queue",
        on_ready: Optional[Callable[[], None]] = None,
        group: Optional[QueueGroup] = None,
    ):
        self.name = name
        #: Called after a put appends a new distinct item: it wakes the
        #: consumer (a device's state machine runs in place, the engine
        #: pump is submitted).  A merge into the queued tail does not
        #: notify: the tail's own append already did, and its consumer
        #: has not popped it yet.
        self.on_ready = on_ready
        #: The group this queue's in-flight work counts in (set before
        #: the first put); it hears when ``unfinished`` falls to 0.
        self.group = group
        self._items: deque = deque()
        self._unfinished = 0
        self._closed = False
        #: Number of puts absorbed by a queued tail item (coalescing
        #: effectiveness; surfaced through controller metrics).
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self._items)

    def gauge_depth(self) -> None:
        """Publish the current depth as ``pipeline_queue_depth{queue=}``."""
        if obs.ENABLED:
            obs.REGISTRY.gauge("pipeline_queue_depth", queue=self.name).set(
                len(self._items)
            )

    @property
    def unfinished(self) -> int:
        return self._unfinished

    def put(self, item, supersedes: Optional[Callable] = None) -> None:
        """Enqueue ``item``, merging into the tail when possible.

        ``supersedes`` (a predicate over queued items) :meth:`drop`\\ s
        every pending item it matches before enqueueing — used by resync
        tasks, whose full-sync subsumes any queued incremental batches.
        Puts on a closed queue are dropped (shutdown is best-effort); a
        dropped :class:`Task` is abandoned, so its waiter hears of it.
        """
        if self._closed:
            if isinstance(item, Task):
                item.abandon()
            return
        if supersedes is not None:
            self.drop(supersedes)
        if self._items:
            fold = getattr(self._items[-1], "coalesce", None)
            merged = fold(item) if fold is not None else None
            if merged is not None:
                self._items[-1] = merged
                self.coalesced += 1
                return
        self._items.append(item)
        if not self._unfinished and self.group is not None:
            self.group.busy += 1
        self._unfinished += 1
        ready = self.on_ready
        if ready is not None:
            ready()

    def drop(self, predicate: Callable) -> None:
        """Remove every pending item ``predicate`` matches; each counts
        as finished.  The group's ``on_idle`` does not fire: both callers
        hold an item in flight (the one being put, or the running sync)."""
        kept = deque(item for item in self._items if not predicate(item))
        was = self._unfinished
        self._unfinished -= len(self._items) - len(kept)
        self._items = kept
        if was and not self._unfinished and self.group is not None:
            self.group.busy -= 1

    def pop_nowait(self):
        """Dequeue the head without blocking; ``None`` when empty."""
        return self._items.popleft() if self._items else None

    def task_done(self) -> None:
        if self._closed:
            # close() already wrote off the item still in its
            # consumer's hands; counting it again would go negative.
            return
        self._unfinished -= 1
        group = self.group
        if not self._unfinished and group is not None:
            group.busy -= 1
            if not group.busy and group.on_idle is not None:
                group.on_idle()

    def close(self) -> None:
        """Drop the pending items: nothing is in flight afterwards, and
        a pending :class:`Task`'s waiter gets a ``ReproError``, not its
        timeout."""
        self._closed = True
        abandoned, self._items = self._items, deque()
        if self._unfinished and self.group is not None:
            self.group.busy -= 1
        self._unfinished = 0
        for item in abandoned:
            if isinstance(item, Task):
                item.abandon()
