"""Declarative campaign specs: grids of content-addressable sweep points.

A *campaign* is a Monte-Carlo grid over the network simulator's
scenario axes — engine × noise stream × fading × device count (× the
deployment, round count and query length they all share). The spec is
fully declarative: every random ingredient is an explicit integer seed
(derived once, via :func:`repro.utils.rng.child_seed`, in the draw
order of the Fig. 17/18 drivers), so a
:class:`CampaignPoint` is a pure value. Its :meth:`~CampaignPoint.
content_hash` is the SHA-256 of its canonical JSON form, which is what
makes the campaign store (:mod:`repro.campaign.store`) safe to reuse
across figures and across resumed runs: two points collide exactly when
they would compute the same result.

Doctest — the same point always hashes the same, and any axis change
moves the hash:

>>> from repro.campaign.spec import CampaignPoint
>>> point = CampaignPoint(
...     deployment={"kind": "paper", "n_devices": 16, "seed": 7},
...     config={"n_association_shifts": 0},
...     n_devices=8, n_rounds=2, query_bits=32,
...     engine="analytic", noise_mode="payload", fading=False,
...     seed=1234)
>>> point.content_hash() == point.content_hash()
True
>>> from dataclasses import replace
>>> replace(point, seed=1235).content_hash() == point.content_hash()
False
>>> moved = replace(point, noise_mode="full").content_hash()
>>> moved == point.content_hash()
False
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from repro.core.config import NetScatterConfig
from repro.errors import ConfigurationError, require_integer
from repro.phy.noise import NOISE_MODES
from repro.protocol.network import ENGINES
from repro.utils.rng import RngLike, child_seed, make_rng

#: Version stamp hashed into every point: bump it when the meaning of a
#: stored result changes (e.g. a new noise-stream default), so stale
#: cache entries stop matching instead of silently serving old physics.
POINT_SCHEMA = "repro-campaign-point-v2"

#: ``NetScatterConfig`` fields a spec's ``config`` may override.
_CONFIG_FIELDS = frozenset(f.name for f in fields(NetScatterConfig))

#: Deployment kinds the runner knows how to rebuild from a descriptor.
DEPLOYMENT_KINDS = ("paper",)


def _canonical_json(data) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CampaignPoint:
    """One fully-specified experiment point (a pure, hashable value).

    Attributes
    ----------
    deployment:
        Descriptor of the *full* deployment the point draws from —
        ``{"kind": "paper", "n_devices": int, "seed": int}``. Kept as
        a descriptor (not the object) so the point serialises, hashes,
        and rebuilds identically in any worker process. The runner
        builds only the ``n_devices`` prefix the point uses, which is
        bit-identical to that prefix of the full build.
    config:
        ``NetScatterConfig`` keyword overrides shared by the campaign;
        a key that names no field is refused.
    n_devices:
        The subset size this point simulates (the sweep axis).
    seed:
        The point's integer RNG seed. Preset campaigns derive it as
        ``sweep_device_counts`` derives its per-count generator from
        the same base seed; ``tests/test_campaign.py`` compares the
        two surfaces' results.
    """

    deployment: Mapping[str, object]
    config: Mapping[str, object]
    n_devices: int
    n_rounds: int
    query_bits: int
    engine: str
    noise_mode: str
    fading: bool
    seed: int

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.noise_mode not in NOISE_MODES:
            raise ConfigurationError(
                f"noise_mode must be one of {NOISE_MODES}, "
                f"got {self.noise_mode!r}"
            )
        kind = dict(self.deployment).get("kind")
        if kind not in DEPLOYMENT_KINDS:
            raise ConfigurationError(
                f"deployment kind must be one of {DEPLOYMENT_KINDS}, "
                f"got {kind!r}"
            )
        n_devices = require_integer("n_devices", self.n_devices, 1)
        if n_devices > int(dict(self.deployment)["n_devices"]):
            raise ConfigurationError(
                f"n_devices {n_devices} outside the deployment's "
                f"1..{dict(self.deployment)['n_devices']}"
            )
        object.__setattr__(self, "n_devices", n_devices)
        object.__setattr__(
            self, "seed", require_integer("seed", self.seed, 0)
        )
        object.__setattr__(
            self, "n_rounds", require_integer("n_rounds", self.n_rounds, 1)
        )
        object.__setattr__(
            self,
            "query_bits",
            require_integer("query_bits", self.query_bits, 0),
        )
        unknown = sorted(set(dict(self.config)) - _CONFIG_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"config keys {unknown} are not NetScatterConfig fields"
            )
        # Freeze the mappings into plain dicts so asdict/JSON round-trip.
        object.__setattr__(self, "deployment", dict(self.deployment))
        object.__setattr__(self, "config", dict(self.config))

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (the exact content that is hashed)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignPoint":
        return cls(**dict(data))

    def content_hash(self) -> str:
        """SHA-256 of the canonical point content (+ schema version)."""
        payload = {"schema": POINT_SCHEMA, "point": self.to_dict()}
        return hashlib.sha256(
            _canonical_json(payload).encode()
        ).hexdigest()


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative grid of :class:`CampaignPoint`\\ s.

    The grid is the Cartesian product ``engines × noise_modes × fading
    × device_counts`` (in that nesting order, counts innermost). Every
    count owns one pre-derived integer seed shared across the other
    axes, so cross-engine / cross-noise-mode comparisons are *paired*:
    they see the same deployment subset and the same draw stream, and a
    single-axis campaign reproduces the direct driver sweep seed for
    seed. Use the preset builders (:mod:`repro.campaign.presets`) to
    derive ``deployment_seed``/``point_seeds`` from a base RNG with the
    figure drivers' exact draw order.
    """

    name: str
    deployment: Mapping[str, object]
    device_counts: Tuple[int, ...]
    point_seeds: Tuple[int, ...]
    config: Mapping[str, object] = field(default_factory=dict)
    engines: Tuple[str, ...] = ("analytic",)
    noise_modes: Tuple[str, ...] = ("payload",)
    fading: Tuple[bool, ...] = (False,)
    n_rounds: int = 3
    query_bits: int = 32
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "deployment", dict(self.deployment))
        object.__setattr__(self, "config", dict(self.config))
        object.__setattr__(
            self,
            "device_counts",
            tuple(
                require_integer("device_counts", c, 1)
                for c in self.device_counts
            ),
        )
        object.__setattr__(
            self,
            "point_seeds",
            tuple(
                require_integer("point_seeds", s, 0) for s in self.point_seeds
            ),
        )
        object.__setattr__(self, "engines", tuple(self.engines))
        object.__setattr__(self, "noise_modes", tuple(self.noise_modes))
        object.__setattr__(
            self, "fading", tuple(bool(f) for f in self.fading)
        )
        if len(self.point_seeds) != len(self.device_counts):
            raise ConfigurationError(
                f"{len(self.device_counts)} device counts but "
                f"{len(self.point_seeds)} point seeds"
            )
        if not self.device_counts:
            raise ConfigurationError("campaign needs at least one count")
        if not (self.engines and self.noise_modes and self.fading):
            raise ConfigurationError("every grid axis needs >= 1 value")
        # Validate every point eagerly: a bad spec should fail at
        # construction, not halfway through a sharded run.
        for _ in self.points():
            pass

    @property
    def n_points(self) -> int:
        return (
            len(self.engines)
            * len(self.noise_modes)
            * len(self.fading)
            * len(self.device_counts)
        )

    def points(self) -> Iterator[CampaignPoint]:
        """Expand the grid, counts innermost, deterministically ordered."""
        for engine in self.engines:
            for noise_mode in self.noise_modes:
                for fading in self.fading:
                    for count, seed in zip(
                        self.device_counts, self.point_seeds
                    ):
                        yield CampaignPoint(
                            deployment=self.deployment,
                            config=self.config,
                            n_devices=count,
                            n_rounds=self.n_rounds,
                            query_bits=self.query_bits,
                            engine=engine,
                            noise_mode=noise_mode,
                            fading=fading,
                            seed=seed,
                        )

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["schema"] = "repro-campaign-spec-v1"
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        """The spec of a :meth:`to_dict` payload (a spec file, a
        service request); any way it is malformed, an unknown key
        included, is a :class:`~repro.errors.ConfigurationError`."""
        if not isinstance(data, Mapping):
            raise ConfigurationError("a campaign spec must be an object")
        payload = dict(data)
        schema = payload.pop("schema", "repro-campaign-spec-v1")
        if schema != "repro-campaign-spec-v1":
            raise ConfigurationError(
                f"unsupported campaign spec schema {schema!r}"
            )
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(
                f"unknown campaign spec keys {unknown}"
            )
        try:
            return cls(**payload)
        except (TypeError, ValueError, KeyError) as error:
            # A missing field or a value of the wrong type surfaces as
            # a stdlib error from the constructor.
            raise ConfigurationError(
                f"invalid campaign spec: {type(error).__name__}: {error}"
            ) from error


def derive_seeds(
    rng: RngLike, device_counts: Sequence[int]
) -> Tuple[int, Tuple[int, ...]]:
    """``(deployment_seed, point_seeds)`` with the driver draw order.

    One :func:`child_seed` at index 0 for the deployment, then one per
    device count in sweep order: the draws ``fig17/fig18.run`` make
    for their default deployment and ``sweep_device_counts`` makes for
    its points. ``tests/test_campaign.py`` compares a campaign's
    metrics with the driver's under the same base seed.
    """
    generator = make_rng(rng)
    deployment_seed = child_seed(generator, 0)
    point_seeds = tuple(
        child_seed(generator, int(count)) for count in device_counts
    )
    return deployment_seed, point_seeds


__all__ = [
    "POINT_SCHEMA",
    "DEPLOYMENT_KINDS",
    "CampaignPoint",
    "CampaignSpec",
    "derive_seeds",
]
