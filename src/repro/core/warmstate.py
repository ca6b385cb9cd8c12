"""The controller's checkpoint chain: its name, its keys, its two ends.

A controller checkpoint is a :class:`~repro.dlog.checkpoint.CheckpointStore`
chain under ``state_dir`` — a full snapshot (engine state plus the
controller bookkeeping a warm start needs) followed by delta segments
whose ``meta`` carries the bookkeeping as of each cut.  Everything
that knows the chain's file name or the bookkeeping keys is here:

* :func:`restore` folds a chain into ``(runtime, warm state)`` — used
  by a restarting controller and by a standby's
  :class:`~repro.core.ha.CheckpointFollower` alike, so both always
  agree on what a chain means;
* :func:`unpack` turns warm state back into the controller's fields;
* :class:`Checkpointer` is the writer: full-vs-delta policy, the save
  itself, and the optional background timer on the controller's reactor.
  A save is one loop callback — snapshot, pickle, write, fsync — so saves
  are ordered like engine transactions and need no lock.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.dlog import checkpoint as ckpt

#: The full snapshot keeps the pre-chain file name and payload, so
#: checkpoints from older controllers restore fine.
CHAIN_NAME = "controller.ckpt"

#: Controller bookkeeping saved beside the engine state: multicast
#: membership, the fan-out sequence number, per-device config epochs.
_WARM_KEYS = ("mcast", "seq", "device_epochs")


def open_store(
    state_dir: str, program_hash: Optional[str], heal: bool = True
) -> ckpt.CheckpointStore:
    """The chain under ``state_dir``; readers that are not its writer
    (standbys) pass ``heal=False`` and never unlink a segment."""
    return ckpt.CheckpointStore(state_dir, CHAIN_NAME, program_hash, heal=heal)


def absorb_meta(warm: dict, segments: List[dict]) -> None:
    """The chain's tail is the freshest controller state: each
    segment's meta snapshots the bookkeeping as of its cut."""
    if segments:
        meta = segments[-1].get("meta") or {}
        warm.update({key: meta[key] for key in _WARM_KEYS if key in meta})


def restore(
    store: ckpt.CheckpointStore, program, shards: int, shard_workers: str
) -> Tuple[Optional[object], Optional[dict]]:
    """Start a runtime from ``store``'s chain: ``(runtime, warm)``.

    ``warm`` is ``None`` when the engine state could not be restored —
    no readable chain (``runtime`` is ``None`` too) or a program-hash
    mismatch (``runtime`` then cold-started; reuse or close it).  An
    unrestorable chain is never an error: a cold start is always
    correct, just slower.
    """
    try:
        full, segments = store.load_chain(
            lambda data: int(data.get("engine_txns", 0))
        )
    except ckpt.CheckpointError:
        return None, None
    if full is None:
        return None, None
    runtime = program.start(
        checkpoint=full.get("engine"),
        shards=shards,
        shard_workers=shard_workers,
    )
    if not runtime.restored:
        # Segments replay only onto the state they were cut against.
        return runtime, None
    ckpt.replay_segments(runtime, segments)
    warm = {key: full[key] for key in _WARM_KEYS if key in full}
    absorb_meta(warm, segments)
    return runtime, warm


def unpack(
    warm: dict,
) -> Tuple[int, Dict[int, List[int]], Dict[str, Optional[str]]]:
    """``(seq, multicast groups, device epochs)`` out of warm state
    (empty warm state — a hand-off with nothing to hand — is zeros)."""
    return (
        int(warm.get("seq", 0)),
        dict(warm.get("mcast", {})),
        dict(warm.get("device_epochs", {})),
    )


class Checkpointer:
    """The chain's writer for one controller.

    ``state_dir=None`` is the disabled checkpointer: no store, and
    :meth:`save` is never reached.  Every save and the timer run on the
    controller's loop (or before it starts), one callback each, so the
    store's index/anchor bookkeeping never sees two at once.
    """

    def __init__(self, state_dir: Optional[str], program_hash: Optional[str]):
        self.state_dir = state_dir
        self._program_hash = program_hash
        self.store: Optional[ckpt.CheckpointStore] = None
        self.reset()
        self.bytes = 0
        self.seconds = 0.0
        #: ``"full"`` or ``"delta"`` — what the last save wrote.
        self.last_mode: Optional[str] = None
        #: Saves cut by the background timer.
        self.auto_saves = 0
        self._timer = self._reactor = None

    def reset(self) -> None:
        """Forget the chain on disk: an unanchored store, so the next
        save cuts a full snapshot (the chain did not describe the
        running engine, or this controller just became its writer)."""
        if self.state_dir is not None:
            self.store = open_store(self.state_dir, self._program_hash)

    def save(
        self,
        mode: str,
        every: int,
        runtime,
        mcast: Dict[int, List[int]],
        seq: int,
        epochs: Dict[str, Optional[str]],
    ) -> str:
        """Cut one checkpoint; returns the path written.

        Call where the engine state is consistent — a callback on the
        controller's loop, or before the pipeline starts — with the
        controller's bookkeeping as of now.  ``"auto"`` writes a delta
        while the chain holds fewer than ``every`` segments, a full
        snapshot otherwise.
        """
        started = time.perf_counter()
        warm = {"mcast": mcast, "seq": seq, "device_epochs": epochs}
        store = self.store
        if mode == "auto":
            mode = "full" if store.should_full(every) else "delta"
        # A full snapshot captures everything journaled so far (the
        # chain restarts here); a delta *is* the journal.
        txns = runtime.drain_journal()
        engine_txns = int(runtime.txn_count)
        if mode == "full":
            path = store.full_path
            data = {
                "engine_txns": engine_txns,
                **warm,
                "format": ckpt.CHECKPOINT_FORMAT,
                "engine": runtime.checkpoint(),
            }
            size = store.save_full(data, engine_txns)
        else:
            path = store.segment_path(store.next_index)
            size = store.save_delta(txns, engine_txns, meta=warm)
        self.bytes = size
        self.seconds = time.perf_counter() - started
        self.last_mode = mode
        if obs.ENABLED:
            obs.REGISTRY.gauge(
                "controller_checkpoint_bytes", mode=mode
            ).set(size)
            obs.REGISTRY.gauge("controller_checkpoint_seconds").set(
                self.seconds
            )
        return path

    # -- background timer ----------------------------------------------------

    def start_timer(self, reactor, interval_s: float, save: Callable) -> None:
        """Call ``save(mode="auto")`` on ``reactor``'s loop every
        ``interval_s`` seconds until :meth:`stop_timer`.  Each tick is
        one timer callback — the save, then the re-arm — so the timer
        state belongs to the loop.  A save that raises is counted like
        any callback error, and the next tick tries again."""
        self._reactor = reactor

        def tick() -> None:
            try:
                save(mode="auto")
            except Exception as exc:  # noqa: BLE001 - the next tick retries
                reactor.note_callback_error(exc)
            else:
                self.auto_saves += 1
                if obs.ENABLED:
                    obs.REGISTRY.counter(
                        "controller_auto_checkpoints_total"
                    ).inc()
            self._timer = reactor.call_later(interval_s, tick)

        self._timer = reactor.call_later(interval_s, tick)

    def stop_timer(self) -> None:
        """Idempotent.  The cancel runs on the loop: at once from a loop
        callback, otherwise queued there, behind any tick in flight — no
        tick starts once the loop has reached it."""
        if self._reactor is None:
            return
        if self._reactor.in_loop():
            self._cancel_timer()
        else:
            self._reactor.submit(self._cancel_timer)

    def _cancel_timer(self) -> None:
        timer, self._timer = self._timer, None
        if timer is not None:
            timer.cancel()
