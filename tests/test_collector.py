"""The collector policy a started controller holds (``core.collector``).

From the first ``start()`` to the last ``stop()`` in the process, young
passes run at ``YOUNG_THRESHOLD`` (never below a larger threshold the
process set) and, once a controller's recovery ends, the heap alive
then is frozen out of later passes.  The last ``stop()`` — also of a
``start()`` that raised — leaves the collector as it was found, and a
stopped controller is garbage like any other object.
"""

import gc
import weakref

import pytest

from repro.core import collector
from repro.core.controller import NerpaController
from repro.core.pipeline import nerpa_build
from repro.errors import RuntimeApiError
from repro.mgmt.database import Database
from repro.p4runtime.api import DeviceService
from tests.test_pipeline import P4, RULES, SCHEMA


@pytest.fixture
def project():
    return nerpa_build(SCHEMA, RULES, P4)


@pytest.fixture(autouse=True)
def sole_holder():
    """Each test starts with the default thresholds and nothing frozen
    (no other test leaves a hold: ``conftest`` fails one that does), and
    the process gets its own state back afterwards."""
    threshold, frozen = gc.get_threshold(), gc.get_freeze_count()
    gc.unfreeze()
    gc.set_threshold(700, 10, 10)
    try:
        yield
    finally:
        gc.unfreeze()
        gc.set_threshold(*threshold)
        if frozen:
            gc.freeze()


def controller(project, sim=None):
    db = Database(project.schema)
    db.transact([
        {"op": "insert", "table": "PortCfg", "row": {"port": 1, "out_port": 2}}
    ])
    return NerpaController(project, db, [sim or project.new_simulator()])


def test_overlapping_controllers_keep_the_policy_until_both_stop(project):
    before = gc.get_threshold()
    first = controller(project).start()
    assert gc.get_threshold() == (collector.YOUNG_THRESHOLD, 10, 10)
    assert gc.get_freeze_count() > 0
    second = controller(project).start()
    first.stop()
    assert gc.get_threshold() == (collector.YOUNG_THRESHOLD, 10, 10)
    assert gc.get_freeze_count() > 0
    first.stop()  # a second stop releases nothing more
    assert gc.get_threshold() == (collector.YOUNG_THRESHOLD, 10, 10)
    second.stop()
    assert gc.get_threshold() == before
    assert gc.get_freeze_count() == 0


def test_a_stopped_controller_is_collectable(project):
    started = controller(project).start()
    ref = weakref.ref(started)
    started.stop()
    del started
    gc.collect()
    assert ref() is None


class _RejectingDevice(DeviceService):
    """Rejects every batch, so the initial sync — and start() — fails."""

    def apply_batch(self, updates, mcast=None, fence=None):
        raise RuntimeApiError("rejected")


def test_a_start_that_raises_leaves_the_collector_as_it_found_it(project):
    before = gc.get_threshold()
    failing = controller(project, _RejectingDevice(project.new_simulator()))
    with pytest.raises(RuntimeApiError):
        failing.start()
    assert gc.get_threshold() == before
    assert gc.get_freeze_count() == 0
    failing.stop()
    assert gc.get_threshold() == before


def test_a_larger_threshold_the_process_set_is_left_alone(project):
    gc.set_threshold(50_000, 20, 5)
    started = controller(project).start()
    try:
        assert gc.get_threshold() == (50_000, 20, 5)
    finally:
        started.stop()
    assert gc.get_threshold() == (50_000, 20, 5)


def test_a_process_that_turned_the_collector_off_keeps_it_off(project):
    gc.set_threshold(0, 10, 10)
    started = controller(project).start()
    try:
        assert gc.get_threshold() == (0, 10, 10)
    finally:
        started.stop()
    assert gc.get_threshold() == (0, 10, 10)
