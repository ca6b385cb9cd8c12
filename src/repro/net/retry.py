"""Retry policy: how hard to try before declaring a peer dead.

One :class:`RetryPolicy` value parameterizes every transport decision
an :class:`~repro.net.aio.AioConnection` makes — connect timeout,
per-call timeout, reconnect attempts, and the exponential backoff
curve between them.  Keeping it a frozen dataclass means a
policy can be shared between clients and compared in tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class RetryPolicy:
    """Connect/call retry behavior for a reconnecting connection.

    ``connect_timeout``     seconds allowed for one TCP connect attempt;
    ``call_timeout``        seconds a blocked caller waits for a response
                            (sends never block, so this also bounds a
                            peer that stopped reading);
    ``max_reconnect_attempts``  consecutive failed reconnects before the
                            connection gives up and turns ``broken``
                            (``None`` = retry forever);
    ``base_delay`` / ``max_delay`` / ``multiplier``  the exponential
                            backoff curve between reconnect attempts;
    ``jitter``              fraction of each delay randomized away to
                            avoid thundering-herd reconnects;
    ``heartbeat_interval``  seconds between liveness ``echo`` probes
                            (0 disables the heartbeat).
    """

    connect_timeout: float = 10.0
    call_timeout: float = 30.0
    max_reconnect_attempts: Optional[int] = 8
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1
    heartbeat_interval: float = 0.0

    def delays(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        """Yield backoff delays, jittered, capped at ``max_delay``.

        Yields ``max_reconnect_attempts`` values (infinitely many when
        that is ``None``).
        """
        rng = rng or random
        attempt = 0
        delay = self.base_delay
        while (
            self.max_reconnect_attempts is None
            or attempt < self.max_reconnect_attempts
        ):
            capped = min(delay, self.max_delay)
            if self.jitter:
                capped *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield max(0.0, capped)
            delay *= self.multiplier
            attempt += 1


#: Policy tuned for tests: fast backoff, bounded retries, no heartbeat.
FAST_TEST_POLICY = RetryPolicy(
    connect_timeout=2.0,
    call_timeout=5.0,
    max_reconnect_attempts=40,
    base_delay=0.02,
    max_delay=0.2,
)
