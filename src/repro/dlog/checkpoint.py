"""Engine checkpoint serialization: full snapshots and delta segments.

A checkpoint captures the full state of a :class:`~repro.dlog.engine.Runtime`
— input relation contents, every stateful operator's arrangement, and
each recursive SCC's member rows with their ranks — keyed by a hash of
the compiled program source.  Restoring into a runtime compiled from
the *same* source skips the cold-start fixpoint entirely; a hash mismatch (the
program changed) falls back to cold start, which is always correct.

The on-disk format is a pickled dict written atomically: temp file in
the target directory, ``fsync``, then ``os.replace``.  A crash mid-save
leaves the previous checkpoint (or none) intact, never a torn one.

Checkpoint format v2 — delta chains
-----------------------------------

Writing a full snapshot costs O(total state) no matter how little
changed.  :class:`CheckpointStore` amortizes that: between full
snapshots it appends *delta segments* — each one the journaled,
normalized input transactions since the previous save (see
``Runtime.enable_journal``) — so steady-state persistence cost tracks
the change rate.  On disk a chain is::

    <name>               the full snapshot (unchanged v1 payload)
    <name>.delta-000001.seg
    <name>.delta-000002.seg  ...

Each segment records the program hash, its position in the chain, and
the transaction-counter interval it covers; :meth:`CheckpointStore.load_segments`
only accepts a contiguous, same-hash chain anchored at the snapshot's
transaction count and **unlinks** any segment that fails validation
(plus everything after it) — a crash between writing a new full
snapshot and purging old segments therefore self-heals on the next
load instead of replaying stale deltas.  Restore = restore the full
snapshot, then replay the segments' transactions through the normal
transaction path (:func:`replay_segments`); because journaled rows are
already normalized, replay is deterministic and warning-free.

Compaction: every :meth:`CheckpointStore.save_full` purges all
segments and restarts the chain; callers typically cut a full snapshot
every N transactions (``should_full``) or when the accumulated segment
bytes approach the snapshot size.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

#: 2: operator state is keyed by graph node index, and the planner no
#: longer emits a node for identity scans — older snapshots would misalign.
#: 3: a recursive SCC's rows map to their ranks; a v2 snapshot has no
#: ranks, so it cold-starts.
#: 4: a rule's linear items run inside the stateful node that feeds
#: them, which has no node of its own any more — v3 indices misalign.
CHECKPOINT_FORMAT = 4
SEGMENT_FORMAT = 1


class CheckpointError(Exception):
    """A checkpoint could not be read or does not fit this program."""


def program_hash(
    source_text: str,
    recursive_mode: str,
    layered: Optional[Mapping[str, Sequence[int]]] = None,
) -> str:
    """Identity of a compiled program for checkpoint compatibility.

    Two programs with the same source, recursive mode and plan build the
    same dataflow graph in the same node order, so operator state keyed
    by node index transfers between them.  The plan is ``layered``: each
    recursive relation unrolled into layers, with its layers' counter
    values (:mod:`repro.dlog.layers`).  A program with none hashes its
    source and mode alone, so a snapshot of its recursive evaluator's
    state never restores into layers.
    """
    digest = hashlib.sha256()
    digest.update(recursive_mode.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(source_text.encode("utf-8"))
    for relation, values in sorted((layered or {}).items()):
        digest.update(f"\x00layered {relation}: {list(values)}".encode("utf-8"))
    return digest.hexdigest()


def save_checkpoint(path: str, data: dict) -> int:
    """Atomically write ``data`` to ``path``; return the byte size."""
    payload = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(payload)


def load_checkpoint(path: str) -> Optional[dict]:
    """Read a checkpoint; ``None`` if absent, :class:`CheckpointError`
    if present but unreadable or from an unknown format version."""
    try:
        with open(path, "rb") as handle:
            data = pickle.load(handle)
    except FileNotFoundError:
        return None
    except (pickle.UnpicklingError, EOFError, AttributeError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path!r}: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path!r} has unsupported format "
            f"{data.get('format') if isinstance(data, dict) else '?'}"
        )
    return data


class CheckpointStore:
    """A full snapshot plus an append-only chain of delta segments.

    The store manages one chain under ``directory``: the full snapshot
    at ``<directory>/<name>`` (written with the ordinary atomic
    :func:`save_checkpoint`, so existing full-snapshot readers keep
    working) and numbered ``<name>.delta-NNNNNN.seg`` files.  All
    writes are atomic; every file is stamped with ``program_hash`` and
    validated on load.
    """

    def __init__(
        self,
        directory: str,
        name: str,
        program_hash: Optional[str],
        heal: bool = True,
    ):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.name = name
        self.program_hash = program_hash
        #: Whether :meth:`load_segments` may unlink invalid tail
        #: segments.  Only the chain's *writer* may heal: a concurrent
        #: reader (a warm standby tailing the chain) that healed would
        #: race the writer's ``save_full``/``save_delta`` and could
        #: delete a segment of the *new* chain it has not yet observed
        #: the anchor of — torching a valid chain.  Followers pass
        #: ``heal=False`` and simply stop at the last contiguous
        #: segment.
        self.heal = heal
        self.full_path = os.path.join(directory, name)
        #: Index the next delta segment will be written (or read) at.
        self.next_index = 1
        #: Transaction count the chain has reached; ``None`` until a
        #: ``save_full`` or a load anchors it.
        self.anchor: Optional[int] = None
        self.segments_since_full = 0

    # -- write side --------------------------------------------------------

    def save_full(self, data: dict, txn_count: int) -> int:
        """Write a full snapshot, purge every delta segment (compaction),
        and re-anchor the chain at ``txn_count``.  Returns bytes written."""
        size = save_checkpoint(self.full_path, data)
        for path in self._segment_paths():
            try:
                os.unlink(path)
            except OSError:
                pass
        self.next_index = 1
        self.anchor = txn_count
        self.segments_since_full = 0
        return size

    def save_delta(
        self, txns: List[dict], txn_count: int, meta: Optional[dict] = None
    ) -> int:
        """Append one segment covering ``txns`` (journal entries) and
        ending at transaction counter ``txn_count``.  Returns bytes
        written.  Requires an anchored chain (a prior :meth:`save_full`
        or a validated :meth:`load_segments`)."""
        if self.anchor is None:
            raise CheckpointError(
                "delta segment without an anchored full snapshot; "
                "call save_full first"
            )
        segment = {
            "format": SEGMENT_FORMAT,
            "program_hash": self.program_hash,
            "segment": self.next_index,
            "base_txn": self.anchor,
            "txn_count": txn_count,
            "txns": list(txns),
            "meta": meta or {},
        }
        size = save_checkpoint(self.segment_path(self.next_index), segment)
        self.next_index += 1
        self.anchor = txn_count
        self.segments_since_full += 1
        return size

    def should_full(self, every: int) -> bool:
        """True when the chain holds >= ``every`` segments (or has no
        anchor yet) — the caller's cue to cut a fresh full snapshot."""
        return self.anchor is None or self.segments_since_full >= every

    # -- read side ---------------------------------------------------------

    def load_full(self) -> Optional[dict]:
        """The full snapshot (``None`` if absent); may raise
        :class:`CheckpointError` exactly like :func:`load_checkpoint`."""
        return load_checkpoint(self.full_path)

    def load_segments(self, base_txn: int, start_index: int = 1) -> List[dict]:
        """The validated segment chain anchored at ``base_txn`` (the
        loaded full snapshot's transaction count, or — for a follower
        tailing the chain incrementally — the transaction count it has
        already replayed, with ``start_index`` naming the next segment
        it expects).

        Walks segments in index order and stops at the last contiguous
        valid one — wrong format or hash, non-contiguous index, a
        transaction-counter interval that does not continue the chain,
        or a torn in-progress file all end the walk.  When this store
        is the chain's **writer** (``heal=True``, the default) the
        invalid tail is unlinked: it is a stale leftover of an older
        chain after an interrupted compaction, and the next
        :meth:`save_delta` would collide with it.  A reader
        (``heal=False``) must never unlink — the "invalid" tail may be
        a segment of a *newer* chain the concurrent writer just
        re-anchored.  Also re-anchors the store so subsequent
        :meth:`save_delta` (writer) or :meth:`load_segments` (follower)
        calls continue the chain.
        """
        chain: List[dict] = []
        anchor = base_txn
        expected = start_index
        paths = [
            path
            for path in self._segment_paths()
            if (self._index_of(path) or 0) >= start_index
        ]
        valid_prefix = 0
        for path in paths:
            segment = self._read_segment(path)
            if (
                segment is None
                or segment.get("format") != SEGMENT_FORMAT
                or segment.get("program_hash") != self.program_hash
                or segment.get("segment") != expected
                or self._index_of(path) != expected
                or segment.get("base_txn") != anchor
                or not isinstance(segment.get("txns"), list)
                or not isinstance(segment.get("txn_count"), int)
                or segment["txn_count"] < anchor
            ):
                break
            chain.append(segment)
            anchor = segment["txn_count"]
            expected += 1
            valid_prefix += 1
        if self.heal:
            for path in paths[valid_prefix:]:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        self.next_index = expected
        self.anchor = anchor
        self.segments_since_full = len(chain)
        return chain

    def load_chain(
        self, anchor_of: Callable[[dict], int]
    ) -> Tuple[Optional[dict], List[dict]]:
        """Convenience: ``(full, segments)`` with the chain anchored at
        ``anchor_of(full)``; ``(None, [])`` when no snapshot exists."""
        full = self.load_full()
        if full is None:
            return None, []
        return full, self.load_segments(anchor_of(full))

    def tail(self) -> List[dict]:
        """The segments appended since this store's last load — how a
        follower that already replayed up to :attr:`anchor` continues."""
        return self.load_segments(self.anchor, start_index=self.next_index)

    def segment_path(self, index: int) -> str:
        """Where segment ``index`` lives (``segment_path(next_index)``
        is the file the next :meth:`save_delta` writes)."""
        return os.path.join(
            self.directory, f"{self.name}.delta-{index:06d}.seg"
        )

    # -- internals ---------------------------------------------------------

    def _segment_paths(self) -> List[str]:
        prefix = f"{self.name}.delta-"
        try:
            entries = os.listdir(self.directory)
        except OSError:
            return []
        return [
            os.path.join(self.directory, entry)
            for entry in sorted(entries)
            if entry.startswith(prefix) and entry.endswith(".seg")
        ]

    @staticmethod
    def _index_of(path: str) -> Optional[int]:
        stem = os.path.basename(path)[:-len(".seg")]
        try:
            return int(stem.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return None

    @staticmethod
    def _read_segment(path: str) -> Optional[dict]:
        try:
            with open(path, "rb") as handle:
                data = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError):
            return None
        return data if isinstance(data, dict) else None


def replay_segments(runtime, segments: List[dict]) -> int:
    """Replay a segment chain through ``runtime.transaction``.

    The segments are :meth:`CheckpointStore.load_segments`' (or
    :meth:`~CheckpointStore.tail`'s): already checked against the
    store's program hash.  Works on any runtime with the engine
    transaction API (single :class:`~repro.dlog.engine.Runtime` or
    sharded facade).  Returns the number of transactions replayed and
    pins the runtime's transaction counter to the chain's end (journals
    skip empty transactions, so the raw replay count may undercount).
    """
    replayed = 0
    for segment in segments:
        for txn in segment.get("txns", ()):
            runtime.transaction(
                inserts=txn.get("inserts") or {},
                deletes=txn.get("deletes") or {},
            )
            replayed += 1
        runtime.txn_count = segment.get("txn_count", runtime.txn_count)
    return replayed
