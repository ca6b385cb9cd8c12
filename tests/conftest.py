"""Test-suite-wide hypothesis configuration.

Two profiles, selected by ``HYPOTHESIS_PROFILE`` (default ``local``):

``ci``
    Derandomized (the fixed seed derives from each test's name) with
    deadlines off and ``print_blob=True``, so a CI failure is
    reproducible from the log alone: rerun the printed
    ``@reproduce_failure`` blob locally, or rerun the whole job — the
    same examples regenerate every time.

``local``
    Random exploration (fresh examples each run) with deadlines off —
    wall-clock deadlines flake under parallel test runs and loaded
    machines, and none of our properties are latency assertions.

See docs/TESTING.md for the differential-oracle methodology and the
failure-reproduction workflow.

Every test also stops the controllers it started: a started controller
holds the process's collector policy (``repro.core.collector``), so one
left running changes the collector under every later test.
"""

import os

import pytest
from hypothesis import settings

from repro.core import collector

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    print_blob=True,
)
settings.register_profile(
    "local",
    deadline=None,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "local"))


@pytest.fixture(autouse=True)
def controllers_stopped():
    """Fail a test that ends with a collector hold outstanding, and give
    the hold back so the next test starts clean."""
    yield
    left = list(collector._holds)
    for token in left:
        collector.release(token)
    assert not left, f"{len(left)} started controller(s) left running"
