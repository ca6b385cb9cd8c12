"""Recovery by rebuilding from the engine: the diffs and the repairs.

The control plane is the authoritative copy of both neighbours' state,
so every failure — a management reconnect, a device reconnect, a
controller restart against devices that already hold entries — is
repaired by *diffing a neighbour against the engine*:

* :func:`mgmt_delta` — a fresh management snapshot against the engine's
  input relations: what changed while the controller was deaf or down;
* :func:`desired_writes` / :func:`compute_fixes` / :func:`full_sync` —
  the engine's output relations against one device's tables, repaired
  by a read-diff full sync that leaves the device stamped with a config
  epoch naming exactly the state it now holds;
* :func:`any_epoch_stale` / :func:`epoch_matches` — the warm-start
  shortcut: a device still reporting its checkpointed epoch provably
  holds the checkpointed state and needs no sync at all.

These are plain functions over a runtime, the generated bindings and
:class:`~repro.core.planes.ManagedDevice` objects; *when* they run (an
engine task, a task on the device's own channel queue) and what is
counted is the controller's business.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.codegen import GeneratedBindings
from repro.core.planes import TRANSPORT_ERRORS, ManagedDevice
from repro.mgmt.monitor import TableUpdates
from repro.p4runtime.api import TableWrite


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


def desired_writes(bindings: GeneratedBindings, runtime) -> List[TableWrite]:
    """The engine's current output relations replayed as inserts — the
    authoritative desired state of every device table.  O(derived
    state); engine thread only."""
    return [
        TableWrite.insert(binding.info.name, binding.entry_for(row))
        for relation, binding in bindings.table_relations.items()
        for row in runtime.dump(relation)
    ]


def compute_fixes(
    io, bindings: GeneratedBindings, desired: List[TableWrite]
) -> List[TableWrite]:
    """Read-diff one device against the desired entry set: deletes for
    stale entries, modifies for wrong actions, inserts for missing
    ones — deletes first."""
    wanted: Dict[str, Dict[tuple, TableWrite]] = {}
    for write in desired:
        wanted.setdefault(write.table, {})[write.entry.match_key()] = write
    fixes: List[TableWrite] = []
    for binding in bindings.table_relations.values():
        table = binding.info.name
        want = wanted.get(table, {})
        for existing in io.read_table(table):
            target = want.pop(existing.entry.match_key(), None)
            if target is None:
                fixes.append(TableWrite.delete(table, existing.entry))
            elif (
                target.entry.action != existing.entry.action
                or target.entry.action_params != existing.entry.action_params
            ):
                fixes.append(TableWrite.modify(table, target.entry))
        fixes.extend(want.values())  # still-missing entries
    fixes.sort(key=lambda w: 0 if w.kind == "DELETE" else 1)
    return fixes


def full_sync(
    device: ManagedDevice,
    bindings: GeneratedBindings,
    desired: List[TableWrite],
    mcast: Dict[int, List[int]],
    epoch: str,
    fence: Optional[int],
    breaker_threshold: int,
) -> Optional[int]:
    """Repair ``device`` to ``desired`` + ``mcast`` and stamp ``epoch``
    on it, so a later warm restart can recognise the state.  Returns
    the number of repairs written, or ``None`` on a transport failure
    (charged to the device's breaker; racing a second failure is
    normal — the next successful reconnect triggers the resync again).
    Blocking: runs as a task on the device's own channel."""
    io = device.io
    io.wait_ready(2.0)
    try:
        fixes = compute_fixes(io, bindings, desired)
        if fixes:
            io.write(fixes, fence=fence)
        for group in sorted(mcast):
            io.set_multicast_group(group, mcast[group])
        io.set_config_epoch(epoch, fence=fence)
    except TRANSPORT_ERRORS as exc:
        device.record_failure(exc, breaker_threshold)
        return None
    device.record_success()
    device.config_epoch = epoch
    return len(fixes)


def any_epoch_stale(
    devices: Iterable[ManagedDevice], epochs: Dict[str, Optional[str]]
) -> bool:
    """Engine-thread probe before a warm start: does any device lack a
    checkpointed epoch, sit unreachable (it will need a resync once
    back), or report a different one?  Only an optimisation —
    :func:`epoch_matches` re-checks as a channel task."""
    for device in devices:
        expected = epochs.get(device.name)
        if expected is None or not device.io.wait_ready(0.0):
            return True
        try:
            if device.io.get_config_epoch() != expected:
                return True
        except TRANSPORT_ERRORS:
            return True
    return False


def epoch_matches(
    device: ManagedDevice, expected: Optional[str], fence: Optional[int]
) -> bool:
    """Channel-task warm-start decision: ``True`` when the device's
    reported config epoch proves its tables already hold the
    checkpointed desired state, so its full sync can be skipped."""
    io = device.io
    io.wait_ready(2.0)
    try:
        reported = io.get_config_epoch()
    except TRANSPORT_ERRORS:
        return False
    if expected is None or reported != expected:
        return False
    device.record_success()
    device.config_epoch = reported
    if fence is not None:
        # The resync is skipped, but the device must still learn this
        # leader's fencing epoch *during* takeover — otherwise the
        # deposed leader's writes (stamped with the old epoch) would
        # keep passing until our first batch happened to arrive.
        try:
            io.set_config_epoch(reported, fence=fence)
        except TRANSPORT_ERRORS:
            pass
    return True
