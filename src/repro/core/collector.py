"""The process's cyclic-collector policy while a controller runs.

CPython's default policy taxes every batch: a decoded batch of a few
hundred table writes is thousands of short-lived containers, so a
gen-0 threshold of 700 runs young passes inside each one, and every
few commits a full pass walks the whole heap — mostly objects that
were there before the controller started (imports, the compiled
program, generated code, the recovered engine and management state).

While any :class:`~repro.core.controller.NerpaController` is started
(:func:`hold`, its ``start()``; :func:`release`, its ``stop()``), this
module owns that policy:

* young passes are sized above a batch: the gen-0 threshold is raised
  to :data:`YOUNG_THRESHOLD`, never lowered below a larger value the
  process set (nor turned on where it set 0); gen 1 and gen 2 keep
  theirs;
* once a controller's recovery ends, :func:`freeze` moves every
  object then alive out of all later passes (``gc.freeze()``).  It is
  not preceded by ``gc.collect()``: a full pass over a large recovered
  state (0.5M tracked objects at 100k table entries, ~0.15 s) would
  land inside a failover's promotion budget.  The price is that
  cyclic garbage alive at the freeze stays pinned until the last
  release.

The last release unfreezes and restores the thresholds saved by the
first hold.  The collector is process-wide, so the holds are too:
counted under a lock, since a controller may start and stop on
different threads.
"""

import gc
import threading

#: Gen-0 threshold while held: above the ~3.2k containers an
#: 800-update batch decodes to, so one batch's transients alone run no
#: young pass.
YOUNG_THRESHOLD = 10_000

_lock = threading.Lock()
_holds: set = set()
_saved = gc.get_threshold()


def hold() -> object:
    """Take a hold on the policy; returns the token to release it."""
    global _saved
    token = object()
    with _lock:
        if not _holds:
            _saved = gc.get_threshold()
            young, *older = _saved
            if 0 < young < YOUNG_THRESHOLD:
                gc.set_threshold(YOUNG_THRESHOLD, *older)
        _holds.add(token)
    return token


def freeze(token: object) -> None:
    """Freeze the heap out of later passes, if ``token`` still holds."""
    with _lock:
        if token in _holds:
            gc.freeze()


def release(token: object) -> None:
    """Give ``token``'s hold back (again: a no-op); the last one
    unfreezes and restores the saved thresholds."""
    with _lock:
        if token not in _holds:
            return
        _holds.discard(token)
        if not _holds:
            gc.unfreeze()
            gc.set_threshold(*_saved)
