"""One retry policy, one transient-retry loop, one time bound.

Three layers of the campaign stack retry: the runner retries failed
point executions, :class:`~repro.campaign.storage.RetryingDriver`
retries transient storage faults, and
:class:`~repro.campaign.client.CampaignServiceClient` retries
transient wire failures. All of them draw their delays from
:class:`RetryPolicy` — seeded-jitter exponential backoff whose delay
for a ``(key, attempt)`` pair is a pure function of the policy seed,
so retry schedules are reproducible across runs and hosts. The key
names what is retried: the runner passes a point's content hash, the
storage and client layers pass ``"<op>:<key>"``.

>>> policy = RetryPolicy(max_attempts=3, base_delay_s=0.1)
>>> a = policy.backoff_s("deadbeef", 1)
>>> a == policy.backoff_s("deadbeef", 1)  # deterministic
True
>>> policy.backoff_s("deadbeef", 2) >= a  # exponential growth
True
>>> STORAGE_RETRY.max_attempts, STORAGE_RETRY.max_delay_s
(4, 1.0)
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type, TypeVar

from repro.errors import (
    ConfigurationError,
    PersistentStorageError,
    TransientStorageError,
)

log = logging.getLogger("repro.campaign.retry")

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with seeded-jitter exponential backoff.

    The defaults suit point executions (seconds of work each); the
    storage and client layers use :data:`STORAGE_RETRY`.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.1
    max_delay_s: float = 5.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ConfigurationError(
                "need 0 <= base_delay_s <= max_delay_s"
            )
        if not 0 <= self.jitter <= 1:
            raise ConfigurationError("jitter must be within [0, 1]")

    def backoff_s(self, key: str, attempt: int) -> float:
        """Deterministic delay before retrying ``attempt`` (1-based)."""
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0**64
        delay = self.base_delay_s * 2.0 ** (attempt - 1)
        return min(self.max_delay_s, delay) * (1.0 + self.jitter * unit)


#: The storage driver stack's and the service client's policy: many
#: cheap operations, so short delays and one more attempt.
STORAGE_RETRY = RetryPolicy(max_attempts=4, base_delay_s=0.02, max_delay_s=1.0)


def call_with_timeout(
    fn: Callable[[], T],
    timeout_s: Optional[float],
    error_type: Type[Exception],
    what: str,
) -> T:
    """Run ``fn()`` under a wall-clock bound (``None`` → unbounded).

    The call runs in a daemon thread; on timeout the thread is
    abandoned and ``error_type(f"{what} exceeded …s")`` is raised. An
    abandoned call that completes later is harmless to both users:
    point results are only checkpointed from the caller, and every
    driver write is atomic and idempotent.
    """
    if not timeout_s:
        return fn()
    box: Dict[str, object] = {}

    def target() -> None:
        try:
            box["result"] = fn()
        except BaseException as error:  # re-raised in the caller
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise error_type(f"{what} exceeded {timeout_s:g}s")
    if "error" in box:
        raise box["error"]
    return box["result"]


class TransientRetry:
    """The transient-retry loop under one policy, counting its retries.

    :meth:`call` retries :class:`~repro.errors.TransientStorageError`
    up to ``policy.max_attempts``. A ``Retry-After`` hint carried by
    the error floors the delay, capped at ``policy.max_delay_s``.
    Exhaustion escalates to :class:`~repro.errors.PersistentStorageError`;
    every other exception — a missing key, a persistent fault, an open
    circuit, a service's definitive answer — propagates unretried.
    """

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self._lock = threading.Lock()
        self._n_retries = 0

    @property
    def n_retries(self) -> int:
        with self._lock:
            return self._n_retries

    def call(
        self, key: str, fn: Callable[[], T], failure: str
    ) -> Tuple[T, int]:
        """``(fn(), attempts)``; ``failure`` prefixes the escalation
        message (``"<failure> after <n> attempts: <last error>"``)."""
        attempt = 1
        while True:
            try:
                return fn(), attempt
            except TransientStorageError as error:
                if attempt >= self.policy.max_attempts:
                    raise PersistentStorageError(
                        f"{failure} after {attempt} attempts: {error}"
                    ) from error
                backoff = self.policy.backoff_s(key, attempt)
                if error.retry_after_s is not None:
                    # Retrying sooner than the backend asked is
                    # pointless, but never exceed the policy's ceiling.
                    backoff = max(
                        backoff,
                        min(error.retry_after_s, self.policy.max_delay_s),
                    )
                log.debug(
                    "transient fault on %s attempt %d (%s); "
                    "retrying in %.3fs",
                    key,
                    attempt,
                    error,
                    backoff,
                )
                with self._lock:
                    self._n_retries += 1
                time.sleep(backoff)
                attempt += 1


__all__ = [
    "STORAGE_RETRY",
    "RetryPolicy",
    "TransientRetry",
    "call_with_timeout",
]
