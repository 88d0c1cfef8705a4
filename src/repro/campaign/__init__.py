"""Campaign orchestration: declarative, sharded, resumable sweeps.

The campaign layer turns the repo's Monte-Carlo figure sweeps into
declarative, cacheable artifacts:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec` grids expanding
  into content-hashable :class:`CampaignPoint` values (every random
  ingredient an explicit seed);
* :mod:`repro.campaign.store` — :class:`CampaignStore`, a per-point
  JSON chunk store keyed by content hash with a rebuildable
  manifest, chunk-integrity verification, and a quarantine for corrupt
  chunks (reruns skip completed points bit-for-bit);
* :mod:`repro.campaign.runner` — :class:`CampaignRunner`, sharding
  pending points over the network-sweep process-pool plumbing with
  per-point checkpointing, bounded retries with seeded-jitter backoff,
  per-point timeouts, and broken-pool → serial degradation;
* :mod:`repro.campaign.leases` — the point claim/heartbeat/expiry
  protocol letting N concurrent runners partition one store;
* :mod:`repro.campaign.retry` — the one :class:`RetryPolicy`
  (seeded-jitter exponential backoff), transient-retry loop and
  wall-clock time bound that the runner, the storage drivers and the
  service client share;
* :mod:`repro.campaign.storage` — the pluggable
  :class:`StorageDriver` layer every byte of campaign state flows
  through (posix with fsync-on-commit, in-memory, fault-injecting),
  with bounded per-operation retries; the wrapping layers share one
  forwarding base;
* :mod:`repro.campaign.objectstore` — the remote half:
  :class:`HttpDriver` speaking a minimal S3-style REST protocol to
  :class:`ObjectStoreService` (``python -m repro.campaign serve``),
  with server-side network-chaos injection and a client-side
  :class:`CircuitBreakerDriver`; it also holds the HTTP service and
  handler base both services build on;
* :mod:`repro.campaign.faults` — deterministic fault injection: one
  rule grammar (:class:`FaultRule`: an op, a kind, a selector, a
  trigger), one seeded :class:`FaultPlan` loading both v1 JSON forms
  (``--fault-plan`` for the runner, ``--storage-fault-plan`` for the
  fault-injecting driver), and one
  :class:`~repro.campaign.faults.FaultSelector` per consumer — runner,
  driver, object-store and service handlers, each firing only its
  kinds of the op → consumer → kinds table (``FIRES``) — exercising
  every recovery path above in CI;
* :mod:`repro.campaign.service` / :mod:`repro.campaign.client` — the
  HSDS-style service node: :class:`CampaignService`
  (``python -m repro.campaign serve-api``) accepts JSON campaign
  specs over HTTP, answers cached points straight from the store,
  dedupes identical in-flight requests, and streams per-point results
  with bounded backpressure; :class:`CampaignServiceClient` drives it
  with retries and a :class:`CircuitBreaker`;
* :mod:`repro.campaign.presets` — builtin specs matching the Fig.
  17/18 drivers seed for seed;
* ``python -m repro.campaign`` — ``run`` / ``status`` / ``export`` /
  ``serve`` / ``serve-api`` / ``submit``.

See the Campaign layer sections of ``docs/ARCHITECTURE.md``.
"""

from repro.campaign.faults import FaultPlan, FaultRule
from repro.campaign.client import (
    CampaignServiceClient,
    CampaignServiceRun,
)
from repro.campaign.leases import LeaseManager
from repro.campaign.objectstore import (
    CircuitBreaker,
    CircuitBreakerDriver,
    HttpDriver,
    ObjectStoreService,
)
from repro.campaign.service import CampaignService, campaign_id_for
from repro.campaign.storage import (
    FaultyDriver,
    MemoryDriver,
    PosixDriver,
    RetryingDriver,
    StorageDriver,
    build_driver,
    parse_driver_spec,
)
from repro.campaign.presets import (
    PRESETS,
    build_preset,
    fig17_campaign,
    fig18_campaign,
    noise_grid_campaign,
)
from repro.campaign.runner import (
    CampaignPointFailure,
    CampaignPointResult,
    CampaignRun,
    CampaignRunner,
    execute_point,
)
from repro.campaign.retry import STORAGE_RETRY, RetryPolicy
from repro.campaign.spec import CampaignPoint, CampaignSpec, derive_seeds
from repro.campaign.store import CampaignStore

__all__ = [
    "CampaignPoint",
    "CampaignPointFailure",
    "CampaignPointResult",
    "CampaignRun",
    "CampaignRunner",
    "CampaignService",
    "CampaignServiceClient",
    "CampaignServiceRun",
    "CampaignSpec",
    "CampaignStore",
    "CircuitBreaker",
    "CircuitBreakerDriver",
    "FaultPlan",
    "FaultRule",
    "FaultyDriver",
    "HttpDriver",
    "LeaseManager",
    "MemoryDriver",
    "ObjectStoreService",
    "PRESETS",
    "PosixDriver",
    "RetryPolicy",
    "RetryingDriver",
    "StorageDriver",
    "STORAGE_RETRY",
    "build_driver",
    "build_preset",
    "campaign_id_for",
    "parse_driver_spec",
    "derive_seeds",
    "execute_point",
    "fig17_campaign",
    "fig18_campaign",
    "noise_grid_campaign",
]
