"""Unit tests for repro.core.config — NetScatter operating points."""

import pytest

from repro.core.config import (
    TABLE1_CONFIGS,
    NetScatterConfig,
)
from repro.errors import ConfigurationError


class TestDeploymentConfig:
    def test_defaults(self):
        config = NetScatterConfig()
        assert config.bandwidth_hz == 500e3
        assert config.spreading_factor == 9
        assert config.skip == 2

    def test_capacity(self):
        """512 bins / SKIP 2 = 256 slots; each association shift costs
        its slot plus two guards."""
        config = NetScatterConfig()
        assert config.n_bins == 512
        assert config.max_devices == 250
        full = NetScatterConfig(n_association_shifts=0)
        assert full.max_devices == 256

    def test_device_bitrate_paper(self):
        assert NetScatterConfig().device_bitrate_bps == pytest.approx(
            976.5625
        )

    def test_aggregate_throughput_near_250kbps(self):
        config = NetScatterConfig(n_association_shifts=0)
        assert config.max_devices * config.device_bitrate_bps == pytest.approx(250e3)

    def test_throughput_gain_over_lora(self):
        """Section 3.1: gain = 2^SF / SF = 56.9 at SF 9."""
        assert NetScatterConfig().throughput_gain_over_lora == pytest.approx(
            512 / 9
        )

    def test_lora_bitrate(self):
        assert NetScatterConfig().lora_bitrate_bps == pytest.approx(
            8789.0625
        )


class TestTolerances:
    def test_timing_tolerance_one_bin(self):
        config = NetScatterConfig()
        assert config.tolerable_timing_mismatch_s == pytest.approx(2e-6)

    def test_frequency_tolerance_one_bin(self):
        config = NetScatterConfig()
        assert config.tolerable_frequency_mismatch_hz == pytest.approx(
            976.5625
        )

    def test_narrower_band_tolerates_more_timing(self):
        wide = NetScatterConfig(bandwidth_hz=500e3, spreading_factor=9)
        narrow = NetScatterConfig(bandwidth_hz=125e3, spreading_factor=7)
        assert (
            narrow.tolerable_timing_mismatch_s
            == 4 * wide.tolerable_timing_mismatch_s
        )


class TestTable1:
    def test_six_rows(self):
        assert len(TABLE1_CONFIGS) == 6

    def test_bitrates_alternate(self):
        rates = [round(c.device_bitrate_bps) for c in TABLE1_CONFIGS]
        assert rates == [977, 1953, 977, 1953, 977, 1953]

    def test_sensitivities_with_sf(self):
        by_key = {
            (c.bandwidth_hz, c.spreading_factor): c.sensitivity_dbm
            for c in TABLE1_CONFIGS
        }
        # Same bitrate rows: deeper spreading at the same BW is more
        # sensitive.
        assert by_key[(500e3, 9)] < by_key[(500e3, 8)]
        assert by_key[(250e3, 8)] < by_key[(250e3, 7)]


class TestValidation:
    def test_invalid_skip(self):
        with pytest.raises(ConfigurationError):
            NetScatterConfig(skip=0)

    def test_invalid_zero_pad(self):
        with pytest.raises(ConfigurationError):
            NetScatterConfig(zero_pad_factor=0)

    def test_invalid_sf_propagates(self):
        with pytest.raises(ConfigurationError):
            NetScatterConfig(spreading_factor=0)

    def test_unknown_sf_snr_limit(self):
        config = NetScatterConfig(spreading_factor=13)
        with pytest.raises(ConfigurationError):
            _ = config.min_snr_db

    def test_describe_mentions_key_facts(self):
        text = NetScatterConfig().describe()
        assert "500" in text and "SF=9" in text
