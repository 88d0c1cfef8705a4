"""Exception hierarchy for the NetScatter reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

import math
import numbers
import threading


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A modulation / protocol configuration is inconsistent or unsupported."""


def require_integer(name: str, value, low=None) -> int:
    """``value`` as an int (>= ``low``): a bool, a fraction or a
    non-number is a :class:`ConfigurationError` naming ``name``."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if (
        isinstance(value, bool)
        or not whole
        or (low is not None and value < low)
    ):
        bound = "" if low is None else f" >= {low}"
        raise ConfigurationError(
            f"{name} must be an integer{bound}, got {value!r}"
        )
    return int(value)


def require_seconds(name: str, value) -> float:
    """``value`` as a float in (0, ``threading.TIMEOUT_MAX``], the
    longest wait a thread, lock or socket accepts: NaN, inf, zero, a
    negative, a longer span, a bool or a non-number is a
    :class:`ConfigurationError` naming ``name``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (math.isfinite(value) and 0 < value <= threading.TIMEOUT_MAX)
    ):
        raise ConfigurationError(
            f"{name} must be a finite number of seconds > 0 and "
            f"<= {threading.TIMEOUT_MAX:g}, got {value!r}"
        )
    return float(value)


class AllocationError(ReproError):
    """Cyclic-shift allocation failed (e.g. network is at capacity)."""


class AssociationError(ReproError):
    """A device could not be associated with the access point."""


class DecodingError(ReproError):
    """The receiver could not decode a frame (e.g. no preamble found)."""


class SynchronizationError(DecodingError):
    """Packet-start estimation failed."""


class LinkBudgetError(ReproError):
    """A link-budget computation received out-of-domain inputs."""


class HardwareModelError(ReproError):
    """A hardware model (impedance, oscillator, MCU) received invalid input."""


class ProtocolError(ReproError):
    """A protocol message is malformed or arrived in an invalid state."""


class CampaignError(ReproError):
    """Base class for campaign-layer failures (execution, storage, leases)."""


class CampaignExecutionError(CampaignError):
    """One or more campaign points failed permanently (retries exhausted)."""


class CampaignIntegrityError(CampaignError):
    """A stored campaign chunk is corrupt (torn, undecodable, or its
    content hash disagrees with its name); the chunk has been quarantined."""


class LeaseError(CampaignError):
    """A lease operation hit an inconsistent on-disk state."""


class StorageError(CampaignError):
    """Base class for storage-driver failures (posix, memory, remote)."""


class StorageMissingError(StorageError):
    """The requested key does not exist in the storage backend.

    Never retried: absence is a definitive answer, not a fault."""


class TransientStorageError(StorageError):
    """A storage operation failed in a way that may succeed on retry
    (I/O hiccup, timeout, torn write detected mid-operation). The
    retrying driver wrapper absorbs these with bounded backoff.

    ``retry_after_s``, when not ``None``, is a backend-provided hint
    (an HTTP ``Retry-After`` header, say) that retrying sooner is
    pointless; the retrying wrapper stretches its backoff to honour
    it."""

    def __init__(self, *args, retry_after_s=None):
        super().__init__(*args)
        self.retry_after_s = retry_after_s


class PersistentStorageError(StorageError):
    """A storage operation failed permanently (retry budget exhausted,
    or the backend reported a non-recoverable condition). The campaign
    runner degrades to read-only serving when writes reach this."""


class CircuitOpenError(PersistentStorageError):
    """The client-side circuit breaker is open: the remote store has
    failed persistently enough that further calls fail fast instead of
    hammering a dead endpoint. Subclasses PersistentStorageError, so
    the campaign runner's read-only degradation path applies
    unchanged."""


class CampaignServiceError(CampaignError):
    """The campaign service node rejected or could not complete a
    request (malformed spec, unknown campaign, a subscriber dropped for
    falling too far behind the result stream). Wire-level transport
    failures raise :class:`TransientStorageError` /
    :class:`PersistentStorageError` instead, so the client's retry and
    circuit-breaker machinery treats the service exactly like a remote
    store."""


class PointTimeoutError(CampaignError):
    """A campaign point exceeded its per-point execution timeout."""


class FaultInjectedError(CampaignError):
    """A synthetic failure raised by the deterministic fault-injection
    harness (:mod:`repro.campaign.faults`) — never by real physics."""
