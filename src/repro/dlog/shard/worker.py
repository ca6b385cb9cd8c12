"""Shard workers: one unmodified :class:`~repro.dlog.engine.Runtime`
per shard, in-process or behind a pipe in a child process.

Both worker kinds expose the same split request/reply surface —
``submit(op, *args)`` then ``result()`` — so the facade can fan a
transaction out to every shard before collecting any reply (the process
workers then evaluate concurrently).  Operations mirror the Runtime
API: ``txn``, ``checkpoint``, ``dump``, ``profile``, ``state_size``.

Process workers re-compile the program in the child from its source
text rather than shipping the compiled object: the same path works for
``fork`` and ``spawn`` start methods, and compilation is deterministic,
so the child's graph is node-for-node identical (which per-shard
checkpoints rely on).  Transaction deltas cross the pipe as plain
``{relation: {row: weight}}`` dicts to keep the wire format independent
of engine internals.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import Optional, Tuple


class ShardWorkerError(RuntimeError):
    """A shard worker died or reported a failure."""


def _serialize_result(result) -> dict:
    return {
        "deltas": {rel: dict(z.data) for rel, z in result.deltas.items()},
        "warnings": list(result.warnings),
        "duration": result.duration,
    }


def _ready(runtime) -> dict:
    """A started shard's first reply: how it started, and its initial
    transaction."""
    return {
        "restored": runtime.restored,
        "result": _serialize_result(runtime.initial_result),
    }


def _serve(runtime, op: str, args: tuple):
    """Run one request on a shard's runtime; the reply's payload.  An
    op is the runtime method of its name; ``txn`` is ``transaction(
    inserts, deletes)``, its result in wire form."""
    if op == "txn":
        return _serialize_result(runtime.transaction(*args))
    if op in ("checkpoint", "dump", "profile", "state_size"):
        return getattr(runtime, op)(*args)
    raise ShardWorkerError(f"unknown op {op!r}")


class InlineWorker:
    """A shard evaluated in the calling process (``shard_workers="inline"``).

    Used for tests and differential runs where determinism matters more
    than parallelism, and as the automatic fallback when the program has
    no source text (process workers cannot re-compile it).
    """

    kind = "inline"

    def __init__(
        self,
        program,
        shard_id: int,
        checkpoint: Optional[dict],
    ):
        self.shard_id = shard_id
        self._runtime = program.start(checkpoint=checkpoint)
        self._pending = None
        self.ready = _ready(self._runtime)

    def submit(self, op: str, *args) -> None:
        assert self._pending is None, "worker already has a request in flight"
        self._pending = (op, args)

    def result(self):
        op, args = self._pending
        self._pending = None
        return _serve(self._runtime, op, args)

    def close(self) -> None:
        self._pending = None


def _worker_main(conn, source_text, recursive_mode, checkpoint) -> None:
    """Child-process entry: compile, start, then serve the pipe."""
    from repro.dlog.engine import compile_program

    try:
        runtime = compile_program(
            source_text, recursive_mode=recursive_mode
        ).start(checkpoint=checkpoint)
        conn.send(("ready", _ready(runtime)))
    except BaseException as exc:  # noqa: BLE001 — forwarded to parent
        _send_error(conn, exc)
        conn.close()
        return
    while True:
        try:
            op, args = conn.recv()
        except (EOFError, OSError):
            break
        if op == "stop":
            conn.send(("ok", None))
            break
        try:
            conn.send(("ok", _serve(runtime, op, args)))
        except BaseException as exc:  # noqa: BLE001 — forwarded to parent
            _send_error(conn, exc)
    conn.close()


def _send_error(conn, exc: BaseException) -> None:
    try:
        pickle.dumps(exc)
        conn.send(("err", exc))
    except Exception:
        conn.send(
            ("err", ShardWorkerError(f"{type(exc).__name__}: {exc}"))
        )


def _context():
    """Prefer ``fork`` (no re-import tax) where it exists."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class ProcessWorker:
    """A shard evaluated in a child process (``shard_workers="process"``)."""

    kind = "process"

    def __init__(
        self,
        program,
        shard_id: int,
        checkpoint: Optional[dict],
    ):
        if program.source_text is None:
            raise ShardWorkerError(
                "process shard workers need program source text"
            )
        self.shard_id = shard_id
        ctx = _context()
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                program.source_text,
                program.recursive_mode,
                checkpoint,
            ),
            name=f"dlog-shard-{shard_id}",
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        self.ready = self._recv("ready")

    def _recv(self, expect: str):
        try:
            tag, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerError(
                f"shard {self.shard_id} worker died (pipe closed)"
            ) from exc
        if tag == "err":
            raise payload
        if tag != expect:
            raise ShardWorkerError(
                f"shard {self.shard_id}: expected {expect!r}, got {tag!r}"
            )
        return payload

    def submit(self, op: str, *args) -> None:
        try:
            self._conn.send((op, args))
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerError(
                f"shard {self.shard_id} worker died (send failed)"
            ) from exc

    def result(self):
        return self._recv("ok")

    def close(self) -> None:
        if self._proc.is_alive():
            try:
                self._conn.send(("stop", ()))
                self._conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
        self._conn.close()
        self._proc.join(timeout=5)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5)


WORKER_KINDS = {"inline": InlineWorker, "process": ProcessWorker}


def make_worker(
    kind: str,
    program,
    shard_id: int,
    checkpoint: Optional[dict],
) -> Tuple[str, object]:
    """Build one worker, degrading ``process`` to ``inline`` when the
    program cannot be shipped to a child (no source text)."""
    if kind == "process" and program.source_text is None:
        kind = "inline"
    try:
        cls = WORKER_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown shard_workers {kind!r}; expected one of "
            f"{sorted(WORKER_KINDS)}"
        ) from None
    return kind, cls(program, shard_id, checkpoint)
