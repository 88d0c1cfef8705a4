"""Tests for the RNG plumbing, error hierarchy and paper constants."""

import numpy as np
import pytest

from repro import constants
from repro.errors import (
    AllocationError,
    AssociationError,
    ConfigurationError,
    DecodingError,
    HardwareModelError,
    LinkBudgetError,
    ProtocolError,
    ReproError,
    SynchronizationError,
)
from repro.utils.rng import child_rng, make_rng


class TestRng:
    def test_make_rng_passthrough(self):
        generator = np.random.default_rng(1)
        assert make_rng(generator) is generator

    def test_make_rng_from_seed_deterministic(self):
        a = make_rng(42).integers(0, 1000, 10)
        b = make_rng(42).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_child_streams_differ(self):
        base = make_rng(7)
        children = [child_rng(base, i) for i in range(4)]
        draws = [c.integers(0, 2**31) for c in children]
        assert len(set(draws)) == len(draws)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for error_cls in (
            ConfigurationError,
            AllocationError,
            AssociationError,
            DecodingError,
            SynchronizationError,
            LinkBudgetError,
            HardwareModelError,
            ProtocolError,
        ):
            assert issubclass(error_cls, ReproError)

    def test_sync_error_is_decoding_error(self):
        assert issubclass(SynchronizationError, DecodingError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise AllocationError("full")


class TestPaperConstants:
    def test_ic_power_blocks_sum_to_total(self):
        total = (
            constants.IC_POWER_ENVELOPE_DETECTOR_UW
            + constants.IC_POWER_BASEBAND_UW
            + constants.IC_POWER_CHIRP_GENERATOR_UW
            + constants.IC_POWER_SWITCH_NETWORK_UW
        )
        assert total == pytest.approx(constants.IC_POWER_TOTAL_UW, abs=0.01)

    def test_deployment_capacity_arithmetic(self):
        n_bins = 2**constants.DEFAULT_SPREADING_FACTOR
        assert (
            n_bins // constants.DEFAULT_SKIP
            == constants.MAX_CONCURRENT_DEVICES
        )

    def test_query_length_hierarchy(self):
        assert (
            constants.LORA_BACKSCATTER_QUERY_BITS
            < constants.QUERY_BITS_CONFIG1
            < constants.QUERY_BITS_CONFIG2
        )

    def test_sensitivity_gap_between_links(self):
        """The paper's footnote: the one-way downlink needs only
        -44 dBm vs the -120 dBm-class uplink."""
        assert (
            constants.QUERY_REQUIRED_SENSITIVITY_DBM
            > constants.RECEIVER_SENSITIVITY_SF9_DBM + 70
        )

    def test_power_levels_descending(self):
        levels = constants.POWER_GAIN_LEVELS_DB
        assert list(levels) == sorted(levels, reverse=True)
        assert levels[0] == 0.0

    def test_preamble_structure(self):
        assert constants.PREAMBLE_UPCHIRPS == 6
        assert constants.PREAMBLE_DOWNCHIRPS == 2

    def test_dynamic_range_practice_below_sim(self):
        assert (
            constants.DYNAMIC_RANGE_PRACTICE_DB
            < constants.DYNAMIC_RANGE_SIM_DB
        )
