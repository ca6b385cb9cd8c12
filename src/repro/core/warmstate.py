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
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.dlog import checkpoint as ckpt
from repro.errors import ReproError

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
    engine_ckpt = full.get("engine")
    if segments:
        engine_ckpt = {
            "delta_chain": True,
            "full": engine_ckpt,
            "segments": segments,
        }
    runtime = program.start(
        checkpoint=engine_ckpt, shards=shards, shard_workers=shard_workers
    )
    if not runtime.restored:
        return runtime, None
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
    :meth:`save` is never reached.  Saves are serialised by
    :attr:`lock` — the background timer and an explicit caller may
    race, and the store's index/anchor bookkeeping is not
    concurrency-safe.
    """

    def __init__(self, state_dir: Optional[str], program_hash: Optional[str]):
        self.state_dir = state_dir
        self._program_hash = program_hash
        self.store: Optional[ckpt.CheckpointStore] = None
        self.reset()
        self.lock = threading.RLock()
        self.bytes = 0
        self.seconds = 0.0
        #: ``"full"`` or ``"delta"`` — what the last save wrote.
        self.last_mode: Optional[str] = None
        #: Saves cut by the background timer.
        self.auto_saves = 0
        self._timer = self._reactor = None
        self._stopped = False  # set by stop_timer, checked under ``lock``

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
        on_engine: Callable,
        engine_state: Callable[[], Tuple[dict, int]],
        epochs: Dict[str, Optional[str]],
    ) -> str:
        """Cut one checkpoint; returns the path written.

        ``on_engine(fn)`` runs ``fn`` where the engine state may be
        read consistently (an engine task while the pipeline runs);
        ``engine_state()`` is called there and returns ``(multicast
        snapshot, seq)``.  ``"auto"`` writes a delta while the chain
        holds fewer than ``every`` segments, a full snapshot otherwise.
        """
        with self.lock:
            started = time.perf_counter()
            store = self.store
            if mode == "auto":
                mode = "full" if store.should_full(every) else "delta"

            def snap() -> dict:
                # A full snapshot captures everything journaled so far
                # (the chain restarts here); a delta *is* the journal.
                txns = runtime.drain_journal()
                mcast, seq = engine_state()
                data = {
                    "engine_txns": int(runtime.txn_count),
                    "mcast": mcast,
                    "seq": seq,
                    "device_epochs": epochs,
                }
                if mode == "full":
                    data["format"] = ckpt.CHECKPOINT_FORMAT
                    data["engine"] = runtime.checkpoint()
                else:
                    data["txns"] = txns
                return data

            data = on_engine(snap)
            engine_txns = data["engine_txns"]
            if mode == "full":
                path = store.full_path
                size = store.save_full(data, engine_txns)
            else:
                path = store.segment_path(store.next_index)
                meta = {key: data[key] for key in _WARM_KEYS}
                size = store.save_delta(data["txns"], engine_txns, meta=meta)
            self.bytes = size
            self.seconds = time.perf_counter() - started
            self.last_mode = mode
            if obs.enabled():
                obs.REGISTRY.gauge(
                    "controller_checkpoint_bytes", mode=mode
                ).set(size)
                obs.REGISTRY.gauge("controller_checkpoint_seconds").set(
                    self.seconds
                )
            return path

    # -- background timer ----------------------------------------------------

    def start_timer(self, reactor, interval_s: float, save: Callable) -> None:
        """Call ``save(mode="auto")`` every ``interval_s`` seconds until
        :meth:`stop_timer`: a ``reactor`` timer hands each save (which
        waits on an engine task and fsyncs) to the reactor's hook pool
        and re-arms once it is done."""
        self._reactor, self._stopped = reactor, False

        def tick() -> None:
            with self.lock:
                if self._stopped:
                    return
                try:
                    save(mode="auto")
                except ReproError:
                    pass  # racing teardown (engine queue closed): a no-op
                else:
                    self.auto_saves += 1
                    if obs.enabled():
                        obs.REGISTRY.counter(
                            "controller_auto_checkpoints_total"
                        ).inc()
            arm()

        def arm() -> None:
            # A stop_timer racing this re-arm leaves at most one timer
            # behind, and its tick sees ``_stopped``.
            if not self._stopped:
                self._timer = reactor.call_later(
                    interval_s, lambda: reactor.run_hook(tick)
                )

        arm()

    def stop_timer(self) -> None:
        """Idempotent.  No timer save starts after this returns; off the
        reactor it also waits out a save in flight (one called on the
        loop must not: that save is waiting for an engine task)."""
        self._stopped = True
        timer, self._timer = self._timer, None
        if timer is not None:
            timer.cancel()
        if self._reactor is not None and not self._reactor.in_loop():
            with self.lock:
                pass
