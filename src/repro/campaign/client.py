"""Client for the campaign service node (:mod:`repro.campaign.service`).

:class:`CampaignServiceClient` drives the NDJSON submit protocol
end-to-end and degrades through the same machinery as the
storage layer: wire-level failures (refused connections, 5xx/429
responses, torn streams) surface as
:class:`~repro.errors.TransientStorageError` and are retried through
:class:`~repro.campaign.retry.TransientRetry` with seeded-jitter
backoff (``Retry-After`` hints floor the delay), a
:class:`~repro.campaign.objectstore.CircuitBreaker` fails fast once
the endpoint looks dead (:class:`~repro.errors.CircuitOpenError`), and
retry exhaustion raises
:class:`~repro.errors.PersistentStorageError` — so fault plans from
:mod:`repro.campaign.faults` apply to the service layer unchanged.

A mid-stream disconnect is safe to retry: the service deduplicates by
campaign id, so a re-submit either joins the still-running execution
or replays a finished one from the content-hash cache — each attempt's
subscription starts at event zero and receives the full stream, never
a partial suffix.

>>> from repro.campaign.client import parse_service_url
>>> parse_service_url("http://127.0.0.1:8124")
('http', '127.0.0.1:8124')
>>> parse_service_url("https://campaigns.example.org/")
('https', 'campaigns.example.org')
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.campaign.objectstore import (
    CircuitBreaker,
    transient_status_error,
)
from repro.campaign.retry import STORAGE_RETRY, RetryPolicy, TransientRetry
from repro.campaign.service import (
    CAMPAIGN_ID_HEADER,
    CREATED_HEADER,
    _canonical,
)
from repro.campaign.spec import CampaignSpec
from repro.errors import (
    CampaignExecutionError,
    CampaignServiceError,
    ConfigurationError,
    TransientStorageError,
    require_seconds,
)


def parse_service_url(url: str) -> Tuple[str, str]:
    """Validated ``(scheme, netloc)`` of a service base URL."""
    parsed = urlsplit(url)
    if parsed.scheme not in ("http", "https"):
        raise ConfigurationError(
            f"campaign service URL must be http(s)://host:port, "
            f"got {url!r}"
        )
    if not parsed.netloc:
        raise ConfigurationError(
            f"campaign service URL has no host: {url!r}"
        )
    if parsed.path.strip("/"):
        raise ConfigurationError(
            f"campaign service URL takes no path "
            f"(the service is not bucketed), got {url!r}"
        )
    return parsed.scheme, parsed.netloc


@dataclass
class CampaignServiceRun:
    """One successful ``submit`` round trip.

    ``events`` and ``raw_lines`` are aligned index-for-index — the
    parsed event and the exact bytes of its NDJSON line (the
    byte-identity unit of the service's determinism contract).
    """

    campaign_id: str
    created: bool
    events: List[Dict[str, object]] = field(default_factory=list)
    raw_lines: List[bytes] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)
    attempts: int = 1

    @property
    def point_events(self) -> List[Dict[str, object]]:
        return [e for e in self.events if e.get("event") == "point"]

    @property
    def point_lines(self) -> List[bytes]:
        """Raw bytes of the ``point`` lines, in spec order — compare
        across clients/attempts for byte-identical result streams."""
        return [
            self.raw_lines[i]
            for i, e in enumerate(self.events)
            if e.get("event") == "point"
        ]

    @property
    def n_computed(self) -> int:
        return int(self.summary.get("points_computed", 0))

    @property
    def n_cached(self) -> int:
        return int(self.summary.get("points_cached", 0))

    @property
    def n_failed(self) -> int:
        return int(self.summary.get("points_failed", 0))


class CampaignServiceClient:
    """Retrying, circuit-broken client for a :class:`CampaignService`.

    ``retry`` is a :class:`~repro.campaign.retry.RetryPolicy` (default
    :data:`~repro.campaign.retry.STORAGE_RETRY`, as for the storage
    drivers); ``timeout_s`` bounds each socket read — it must exceed
    the longest single-point computation, since the stream goes quiet
    while a point runs.
    """

    def __init__(
        self,
        url: str,
        *,
        retry: Optional[RetryPolicy] = None,
        timeout_s: float = 60.0,
    ) -> None:
        self._scheme, self._netloc = parse_service_url(url)
        self._url = f"{self._scheme}://{self._netloc}"
        self._retry = TransientRetry(
            retry if retry is not None else STORAGE_RETRY
        )
        self._timeout_s = require_seconds("timeout_s", timeout_s)
        self._breaker = CircuitBreaker(self._url)

    @property
    def url(self) -> str:
        return self._url

    @property
    def n_retries(self) -> int:
        return self._retry.n_retries

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #

    def _connect(self):
        cls = (
            HTTPSConnection if self._scheme == "https" else HTTPConnection
        )
        return cls(self._netloc, timeout=self._timeout_s)

    def _call(self, op: str, key: str, fn) -> Tuple[object, int]:
        """``fn()`` under the breaker with bounded retries; returns
        ``(result, attempts)``. Service-level answers (4xx rejections,
        failed campaigns) propagate without counting against the
        endpoint's health."""
        answers = (CampaignServiceError, CampaignExecutionError)
        return self._retry.call(
            f"{op}:{key}",
            lambda: self._breaker.guard(op, key, fn, answers=answers),
            f"{op} against {self._url} failed",
        )

    @staticmethod
    def _check_response(op: str, response) -> None:
        """Map a non-200 status exactly like the storage driver: 5xx
        and 429 are transient (with ``Retry-After`` honoured), other
        errors are definitive service answers."""
        if response.status == 200:
            return
        try:
            body = response.read(512)
        except (HTTPException, OSError, ValueError):
            body = b""
        message = (
            f"{op}: HTTP {response.status} from service: "
            f"{body.decode('utf-8', 'replace').strip()}"
        )
        raise transient_status_error(
            response.status, response.getheader("Retry-After"), message
        ) or CampaignServiceError(message)

    # ------------------------------------------------------------------ #
    # API
    # ------------------------------------------------------------------ #

    def submit(
        self, spec, *, raise_on_failed: bool = True
    ) -> CampaignServiceRun:
        """Submit a campaign and stream it to completion.

        ``spec`` is a :class:`CampaignSpec` or its dict form. Transient
        transport failures re-submit (dedup/cache make that safe — see
        the module docstring). A server-side *execution* failure
        (summary status ``failed``) raises
        :class:`~repro.errors.CampaignExecutionError` when
        ``raise_on_failed`` (the endpoint answered; the breaker does
        not trip). A ``partial`` summary returns normally — inspect
        :attr:`CampaignServiceRun.n_failed`.
        """
        spec_dict = (
            spec.to_dict()
            if isinstance(spec, CampaignSpec)
            else dict(spec)
        )
        body = _canonical({"spec": spec_dict})
        run, attempts = self._call(
            "submit", "", lambda: self._submit_once(body)
        )
        run.attempts = attempts
        if raise_on_failed and run.summary.get("status") == "failed":
            raise CampaignExecutionError(
                f"campaign {run.campaign_id[:12]} failed server-side: "
                f"{run.summary.get('error', '?')}"
            )
        return run

    def _submit_once(self, body: bytes) -> CampaignServiceRun:
        connection = self._connect()
        try:
            try:
                connection.request(
                    "POST",
                    "/campaigns",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
            except (HTTPException, OSError, ValueError) as error:
                raise TransientStorageError(
                    f"submit to {self._url} failed: "
                    f"{type(error).__name__}: {error}"
                ) from error
            self._check_response("submit", response)
            run = CampaignServiceRun(
                campaign_id=response.getheader(CAMPAIGN_ID_HEADER, ""),
                created=response.getheader(CREATED_HEADER) == "1",
            )
            while True:
                try:
                    raw = response.readline()
                except (HTTPException, OSError, ValueError) as error:
                    raise TransientStorageError(
                        f"submit stream broke mid-read: "
                        f"{type(error).__name__}: {error}"
                    ) from error
                if not raw:
                    raise TransientStorageError(
                        "submit stream ended before the done event"
                    )
                try:
                    event = json.loads(raw.decode("utf-8"))
                except ValueError as error:
                    raise TransientStorageError(
                        f"submit stream line torn: {error}"
                    ) from error
                if event.get("event") == "error":
                    # Dropped subscriber — re-subscribe via retry.
                    raise TransientStorageError(
                        f"service dropped this subscriber: "
                        f"{event.get('error', '?')}"
                    )
                run.events.append(event)
                run.raw_lines.append(raw)
                if event.get("event") == "done":
                    run.summary = event
                    return run
        finally:
            connection.close()


__all__ = [
    "CampaignServiceClient",
    "CampaignServiceRun",
    "parse_service_url",
]
