"""Property-based tests (hypothesis) on the campaign spec/hash layer.

The invariants the service node's dedup and read-through cache stand
on: canonical JSON makes :func:`campaign_id_for` and point content
hashes insensitive to key order; grid-axis permutations move point
*order*, never the *set* of content hashes; any value perturbation
moves the hash; and a grid over distinct axis values never collides.
"""

import json
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.campaign.service import campaign_id_for
from repro.campaign.spec import CampaignPoint, CampaignSpec
from repro.phy.noise import NOISE_MODES
from repro.protocol.network import ENGINES


def _shuffle_keys(value):
    """Recursively reverse every dict's key order (same content)."""
    if isinstance(value, dict):
        return {
            key: _shuffle_keys(value[key])
            for key in reversed(list(value))
        }
    if isinstance(value, list):
        return [_shuffle_keys(item) for item in value]
    return value


def subsets(values):
    """Non-empty ordered subsets of an axis tuple."""
    return (
        st.sets(
            st.sampled_from(values), min_size=1, max_size=len(values)
        )
        .map(sorted)
        .map(tuple)
    )


@st.composite
def specs(draw):
    counts = draw(
        st.lists(
            st.integers(min_value=1, max_value=12),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**31 - 1),
            min_size=len(counts),
            max_size=len(counts),
        )
    )
    return CampaignSpec(
        name=draw(
            st.text(
                alphabet="abcdefghij-", min_size=1, max_size=12
            )
        ),
        deployment={
            "kind": "paper",
            "n_devices": max(counts),
            "seed": draw(st.integers(0, 2**31 - 1)),
        },
        device_counts=tuple(counts),
        point_seeds=tuple(seeds),
        engines=draw(subsets(ENGINES)),
        noise_modes=draw(subsets(NOISE_MODES)),
        fading=draw(subsets((False, True))),
        n_rounds=draw(st.integers(1, 3)),
        query_bits=draw(st.integers(8, 64)),
    )


@st.composite
def points(draw):
    n_devices = draw(st.integers(1, 16))
    return CampaignPoint(
        deployment={
            "kind": "paper",
            "n_devices": n_devices,
            "seed": draw(st.integers(0, 2**31 - 1)),
        },
        config={},
        n_devices=draw(st.integers(1, n_devices)),
        n_rounds=draw(st.integers(1, 4)),
        query_bits=draw(st.integers(8, 64)),
        engine=draw(st.sampled_from(ENGINES)),
        noise_mode=draw(st.sampled_from(NOISE_MODES)),
        fading=draw(st.booleans()),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


class TestSpecRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(specs())
    def test_json_round_trip_is_identity(self, spec):
        wire = json.loads(json.dumps(spec.to_dict()))
        rebuilt = CampaignSpec.from_dict(wire)
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()
        assert [p.content_hash() for p in rebuilt.points()] == [
            p.content_hash() for p in spec.points()
        ]

    @settings(max_examples=40, deadline=None)
    @given(specs())
    def test_campaign_id_ignores_key_order(self, spec):
        forward = spec.to_dict()
        assert campaign_id_for(_shuffle_keys(forward)) == (
            campaign_id_for(forward)
        )


class TestHashInvariance:
    @settings(max_examples=40, deadline=None)
    @given(specs())
    def test_axis_permutation_preserves_the_hash_set(self, spec):
        permuted = replace(
            spec,
            engines=tuple(reversed(spec.engines)),
            noise_modes=tuple(reversed(spec.noise_modes)),
            fading=tuple(reversed(spec.fading)),
            # counts and their seeds permute jointly (paired axes).
            device_counts=tuple(reversed(spec.device_counts)),
            point_seeds=tuple(reversed(spec.point_seeds)),
        )
        original = {p.content_hash() for p in spec.points()}
        assert {
            p.content_hash() for p in permuted.points()
        } == original

    @settings(max_examples=40, deadline=None)
    @given(points())
    def test_point_hash_is_stable_and_key_order_free(self, point):
        assert point.content_hash() == point.content_hash()
        assert (
            CampaignPoint.from_dict(
                _shuffle_keys(point.to_dict())
            ).content_hash()
            == point.content_hash()
        )

    @settings(max_examples=40, deadline=None)
    @given(points(), st.integers(1, 2**16))
    def test_any_value_perturbation_moves_the_hash(
        self, point, delta
    ):
        baseline = point.content_hash()
        assert (
            replace(point, seed=point.seed + delta).content_hash()
            != baseline
        )
        assert (
            replace(
                point, n_rounds=point.n_rounds + delta
            ).content_hash()
            != baseline
        )
        assert (
            replace(
                point, query_bits=point.query_bits + delta
            ).content_hash()
            != baseline
        )
        assert (
            replace(point, fading=not point.fading).content_hash()
            != baseline
        )

    @settings(max_examples=40, deadline=None)
    @given(specs(), st.integers(1, 2**16))
    def test_spec_value_perturbation_moves_the_campaign_id(
        self, spec, delta
    ):
        baseline = campaign_id_for(spec.to_dict())
        shifted = replace(
            spec,
            point_seeds=tuple(s + delta for s in spec.point_seeds),
        )
        assert campaign_id_for(shifted.to_dict()) != baseline


class TestExpansion:
    @settings(max_examples=40, deadline=None)
    @given(specs())
    def test_expansion_never_duplicates_hashes(self, spec):
        hashes = [p.content_hash() for p in spec.points()]
        assert len(hashes) == spec.n_points
        assert len(set(hashes)) == len(hashes)
