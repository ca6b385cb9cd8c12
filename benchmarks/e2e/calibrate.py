"""A yardstick for a box whose CPU speed drifts.

The reference box is a shared 2-vCPU VM.  Its effective CPU speed moves
by 15 % from one minute to the next and by up to 1.7x between
ten-minute stretches (process CPU time moves with it, so it is not
steal time), and ten back-to-back raw runs of one commit spread by
13-40 % on `churn_fleet`: wider than any bound the benchmark may set.
Run-to-run medians cannot remove a drift that is slower than a run.

So the operator thread times :func:`kernel` — a fixed piece of
interpreter work resembling what the stack does (dict and tuple churn,
string building, JSON both ways) — in the idle moment after each wave
has converged, and a measured time is divided by
``median(nearby kernel times) / REFERENCE_S``.  "Nearby" is the
:data:`WINDOW` samples around a commit, the samples of a slice, or the
samples taken around a set-up; a single ~0.45 ms sample is never used
on its own.  The result reads as "time on the reference box in its
quiet state"; ``REFERENCE_S`` only fixes that unit, and any constant
would rank two commits the same way.  The kernel is timed in thread
CPU time, so waiting for the GIL while the stack finishes a commit's
acks does not count, and its own wall and CPU time are taken out of the
throughput and CPU figures.  Every run also prints its factor and its
p50 as measured.

The kernel lives here, not under ``src/``, so a change to the program
cannot change the yardstick.
"""

import json
import time

from benchmarks.e2e.stats import median

#: Thread CPU time of one :func:`kernel` call on the reference box
#: (2 x Xeon 2.1 GHz vCPU, CPython 3.11) in its quiet state.
REFERENCE_S = 0.00045
#: Kernel samples (one per wave) whose median scales one commit.
WINDOW = 15


def kernel():
    """One fixed unit of interpreter work; returns ``(thread CPU
    seconds, wall seconds)`` it took."""
    wall = time.perf_counter()
    cpu = time.thread_time()
    table = {}
    for i in range(2500):
        table[(i % 97, "k")] = str(i)
    json.loads(json.dumps(list(table.values())))
    return time.thread_time() - cpu, time.perf_counter() - wall


def speed_factor(samples):
    """How much slower than the reference the box ran while ``samples``
    (kernel CPU times) were taken; 1.0 with no samples."""
    return median(samples) / REFERENCE_S if samples else 1.0


def rolling_factors(samples):
    """One speed factor per sample: that of the :data:`WINDOW` samples
    centred on it (fewer at either end)."""
    half = WINDOW // 2
    return [
        speed_factor(samples[max(0, i - half):i + half + 1])
        for i in range(len(samples))
    ]


def sample(n):
    """``n`` kernel CPU times, back to back."""
    return [kernel()[0] for _ in range(n)]
