"""Builtin campaign specs of the paper's figure sweeps.

Each preset derives its deployment/point seeds from the base RNG in the
figure driver's draw order (:func:`repro.campaign.spec.derive_seeds`),
so a preset campaign computes the points the driver computes with
``sweep_device_counts`` (``tests/test_campaign.py`` compares the two).
Because points are content-hashed, figures that share a sweep (Fig. 17
and Fig. 18 run the same PHY points) share store entries instead of
recomputing them.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.campaign.spec import CampaignSpec, derive_seeds
from repro.channel.deployment import PAPER_DEPLOYMENT_DEVICES
from repro.constants import QUERY_BITS_CONFIG1
from repro.errors import ReproError
from repro.protocol.network import DEFAULT_DEVICE_COUNTS, SWEEP_CONFIG
from repro.utils.rng import RngLike

def _paper_deployment_descriptor(seed: int) -> Dict[str, object]:
    # Every preset names the paper's full office; the runner builds
    # only each point's prefix.
    return {
        "kind": "paper",
        "n_devices": PAPER_DEPLOYMENT_DEVICES,
        "seed": int(seed),
    }


def fig17_campaign(
    rng: RngLike = None,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    n_rounds: int = 3,
    engine: str = "auto",
    noise_mode: str = "payload",
    name: str = "fig17",
) -> CampaignSpec:
    """The Fig. 17 PHY-rate sweep as a campaign.

    With the same base seed its points are the NetScatter points
    ``fig17_phy_rate.run`` computes for its default deployment, here
    with a store, a process pool and retries.
    """
    deployment_seed, point_seeds = derive_seeds(rng, device_counts)
    return CampaignSpec(
        name=name,
        description=(
            "Network PHY rate vs concurrent devices "
            "(Fig. 17 NetScatter sweep)"
        ),
        deployment=_paper_deployment_descriptor(deployment_seed),
        config=SWEEP_CONFIG,
        device_counts=tuple(device_counts),
        point_seeds=point_seeds,
        engines=(engine,),
        noise_modes=(noise_mode,),
        fading=(False,),
        n_rounds=n_rounds,
        query_bits=QUERY_BITS_CONFIG1,
    )


def fig18_campaign(
    rng: RngLike = None,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    n_rounds: int = 3,
    engine: str = "auto",
    noise_mode: str = "payload",
) -> CampaignSpec:
    """The Fig. 18 link-layer sweep as a campaign.

    The PHY decode is query-length agnostic and Fig. 18 accounts both
    query configs from the same per-round goodput, so its points are
    *content-identical* to Fig. 17's under the same base seed — a store
    populated by either figure serves the other without recomputing.
    """
    spec = fig17_campaign(
        rng=rng,
        device_counts=device_counts,
        n_rounds=n_rounds,
        engine=engine,
        noise_mode=noise_mode,
        name="fig18",
    )
    return CampaignSpec.from_dict(
        {
            **spec.to_dict(),
            "description": (
                "Link-layer rate vs concurrent devices "
                "(Fig. 18; shares its PHY points with fig17)"
            ),
        }
    )


def noise_grid_campaign(
    rng: RngLike = None,
    device_counts: Sequence[int] = (16, 64, 256),
    n_rounds: int = 3,
    engine: str = "auto",
) -> CampaignSpec:
    """Scenario-diversity grid: noise streams × fading × device count.

    Four scenarios per count — both engine-noise streams (the located
    ``±1``-bin payload stream and the historical full-bin stream) with
    and without AR(1) shadow fading — paired on the same per-count
    seeds, so the axis effects are directly comparable row to row.
    """
    deployment_seed, point_seeds = derive_seeds(rng, device_counts)
    return CampaignSpec(
        name="noise-grid",
        description=(
            "noise_mode x fading scenario grid over the paper "
            "deployment (paired per-count seeds)"
        ),
        deployment=_paper_deployment_descriptor(deployment_seed),
        config=SWEEP_CONFIG,
        device_counts=tuple(device_counts),
        point_seeds=point_seeds,
        engines=(engine,),
        noise_modes=("payload", "full"),
        fading=(False, True),
        n_rounds=n_rounds,
        query_bits=QUERY_BITS_CONFIG1,
    )


#: Preset registry for the CLI (name → builder).
PRESETS: Dict[str, Callable[..., CampaignSpec]] = {
    "fig17": fig17_campaign,
    "fig18": fig18_campaign,
    "noise-grid": noise_grid_campaign,
}


def build_preset(name: str, **kwargs) -> CampaignSpec:
    """Build a preset campaign by name (CLI entry)."""
    if name not in PRESETS:
        raise ReproError(
            f"unknown campaign preset {name!r}; "
            f"choose from {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name](**kwargs)


__all__ = [
    "DEFAULT_DEVICE_COUNTS",
    "SWEEP_CONFIG",
    "PRESETS",
    "build_preset",
    "fig17_campaign",
    "fig18_campaign",
    "noise_grid_campaign",
]
