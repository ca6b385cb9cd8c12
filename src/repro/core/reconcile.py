"""Recovery by rebuilding from the engine: the diffs and the repairs.

The control plane is the authoritative copy of both neighbours' state,
so every failure — a management reconnect, a device reconnect, a
controller restart against devices that already hold entries — is
repaired by *diffing a neighbour against the engine*:

* :func:`mgmt_delta` — a fresh management snapshot against the engine's
  input relations: what changed while the controller was deaf or down;
* :func:`desired_writes` / :func:`compute_fixes` / :func:`full_sync` —
  the engine's output relations against one device's tables, repaired
  by one atomic batch that leaves the device stamped with a config
  epoch naming exactly the state it now holds.  What the device
  reports decides what is read: its checkpointed epoch proves it holds
  the checkpointed state (no sync at all), no epoch proves it is
  blank (nothing to read), anything else is read and diffed.  The
  desired state is taken only when the report does not prove it, so a
  restart whose devices all match never dumps it.

These are plain functions over a runtime, the generated bindings and
the devices' :class:`~repro.core.fanout.DeviceChannel` objects; *when*
they run (an engine task on the controller's reactor, or — for
everything that does device I/O — a task on the device's own channel
queue) and what is counted is the controller's business.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Tuple, Union

from repro.core.codegen import GeneratedBindings
from repro.core.planes import TRANSPORT_ERRORS
from repro.mgmt.monitor import TableUpdates
from repro.p4runtime.api import PairCodec, WriteBatch


def mgmt_delta(
    fresh: TableUpdates, bindings: GeneratedBindings, runtime
) -> Tuple[Dict[str, List[tuple]], Dict[str, List[tuple]]]:
    """``(inserts, deletes)`` that bring the engine's input relations to
    the ``fresh`` snapshot: rows that vanished become deletes, new rows
    become inserts."""
    inserts: Dict[str, List[tuple]] = {}
    deletes: Dict[str, List[tuple]] = {}
    for table, relation in bindings.relation_for_ovsdb.items():
        fresh_rows = {
            bindings.input_row(table, uuid, update.new)
            for uuid, update in fresh.table(table).items()
            if update.new is not None
        }
        current = runtime.dump(relation)
        stale = current - fresh_rows
        missing = fresh_rows - current
        if stale:
            deletes[relation] = list(stale)
        if missing:
            inserts[relation] = list(missing)
    return inserts, deletes


def desired_writes(bindings: GeneratedBindings, runtime) -> WriteBatch:
    """The engine's current output relations replayed as inserts — the
    authoritative desired state of every device table, one run of rows
    per table.  O(derived state); on the loop, outside an engine
    transaction.  The rows are converted only by the device that needs
    them: to the wire for a blank remote device, decoded for a
    read-diff or an in-process device."""
    return WriteBatch([
        ("INSERT", binding, runtime.dump(relation))
        for relation, binding in bindings.table_relations.items()
    ])


def compute_fixes(
    read_table, bindings: GeneratedBindings, desired: WriteBatch
) -> WriteBatch:
    """Read-diff one device — ``read_table(table)`` returns what a
    P4Runtime client's does, ``(key, value)`` pairs — against the
    desired entries: deletes for stale entries, modifies for wrong
    actions, inserts for missing ones — deletes first."""
    wanted: Dict[str, Dict[tuple, tuple]] = {}
    for _, table, key, value in desired.decoded():
        wanted.setdefault(table, {})[key] = value
    deletes, repairs = [], []
    for binding in bindings.table_relations.values():
        table = binding.info.name
        want = wanted.get(table, {})
        stale, wrong = [], []
        for key, value in read_table(table):
            target = want.pop(key, None)
            if target is None:
                stale.append((key, value))
            elif target != value:
                wrong.append((key, target))
        codec = PairCodec(table)
        deletes.append(("DELETE", codec, stale))
        # Modifies, then the entries still missing.
        repairs += [("MODIFY", codec, wrong), ("INSERT", codec, list(want.items()))]
    return WriteBatch(deletes + repairs)


#: The :func:`full_sync` outcome that is not a repair count: the
#: expected epoch was reported, so nothing was read or written.
MATCHED = "matched"


def full_sync(
    device,
    bindings: GeneratedBindings,
    expected: Optional[str],
    snapshot: Callable[[], tuple],
) -> Generator[Callable, object, Union[int, str, None]]:
    """Bring ``device`` (a :class:`~repro.core.fanout.DeviceChannel`,
    whose plane gives the fencing epoch and breaker threshold) to what
    ``snapshot()`` returns — ``(desired writes, multicast groups,
    epoch)`` — taking and reading only what its reported config epoch
    does not already prove:

    * it reports ``expected`` (the epoch a restored engine's state was
      checkpointed with): its tables provably hold that state —
      :data:`MATCHED`, no snapshot, no table read, no write;
    * it reports no epoch at all: nothing was ever written to it
      through this stack, so its tables are empty and the desired
      writes go out as is, unread;
    * anything else: read-diff (:func:`compute_fixes`).

    ``snapshot()`` is called once, on the loop, between the epoch's
    answer and the first read or write.  The repairs, the multicast
    config and the snapshot's epoch travel as **one** atomic batch —
    the device never reports an epoch naming a state it does not hold,
    whichever call fails.  With nothing to repair the device keeps the
    epoch it reported.  Returns the number of repairs written,
    :data:`MATCHED`, or ``None`` on a transport failure (charged to the
    device's breaker; racing a second failure is normal — the next
    successful reconnect triggers the resync again).

    A generator for :func:`drive`: each ``yield`` is one of the device's
    non-blocking calls, so a sync holds no thread — it runs as a task
    on the device's own channel, on the loop."""
    io, fence = device.io, device.plane.fence
    try:
        reported = yield partial(io.call_async, "get_config_epoch", [])
        matched = expected is not None and reported == expected
        fixes, mcast = [], {}
        if not matched:
            desired, mcast, epoch = snapshot()
            if reported is None:
                fixes = desired
            else:
                held = {}
                for binding in bindings.table_relations.values():
                    table = binding.info.name
                    held[table] = yield partial(
                        io.call_async, "read_table", [table]
                    )
                fixes = compute_fixes(held.__getitem__, bindings, desired)
        if fixes or mcast:
            yield lambda done: io.apply_batch_async(
                fixes, mcast, [epoch], done, fence=fence
            )
        elif fence is not None:
            # Nothing to send, but the device must still learn this
            # leader's fencing epoch *during* takeover — otherwise the
            # deposed leader's writes (stamped with the old epoch) would
            # keep passing until our first batch happened to arrive.
            yield partial(
                io.call_async, "set_config_epoch", [reported, fence]
            )
    except TRANSPORT_ERRORS as exc:
        device.record_failure(exc)
        return None
    device.record_success()
    # Only table writes advance the on-device epoch (see DeviceChannel).
    device.config_epoch = epoch if fixes else reported
    return MATCHED if matched else len(fixes)


def drive(steps: Generator, done: Callable) -> None:
    """Run ``steps`` (e.g. :func:`full_sync`) on the loop: each value it
    yields is a call taking a ``callback(result, error)``, and the
    generator resumes with the result or has the error raised at its
    ``yield``.  ``done(value, error)`` receives what it returns or
    raises."""

    def resume(result, error) -> None:
        try:
            call = steps.send(result) if error is None else steps.throw(error)
        except StopIteration as stop:
            done(stop.value, None)
        except Exception as exc:  # noqa: BLE001 - handed to done
            done(None, exc)
        else:
            answered = False

            def answer(result, error) -> None:
                nonlocal answered
                answered = True
                resume(result, error)

            try:
                call(answer)
            except Exception as exc:  # noqa: BLE001 - raised while encoding
                if answered:
                    # Raised after an inline answer resumed the
                    # generator (by ``done``, say): it is past this step.
                    raise
                resume(None, exc)

    resume(None, None)
