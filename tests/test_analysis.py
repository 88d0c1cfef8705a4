"""Unit tests for air-time accounting, metrics and reports."""

import pytest

from repro.analysis.airtime import (
    lora_backscatter_poll_airtime_s,
    netscatter_network_latency_s,
    netscatter_round_airtime_s,
)
from repro.analysis.reports import format_table
from repro.constants import QUERY_BITS_CONFIG1, QUERY_BITS_CONFIG2
from repro.errors import ConfigurationError, ReproError


class TestNetScatterAirtime:
    def test_config1_round_breakdown(self, config):
        airtime = netscatter_round_airtime_s(config, QUERY_BITS_CONFIG1)
        assert airtime.query_s == pytest.approx(32 / 160e3)
        assert airtime.preamble_s == pytest.approx(8 * 1.024e-3)
        assert airtime.payload_s == pytest.approx(40 * 1.024e-3)
        # Full round ~49.4 ms: the paper's flat latency line (Fig. 19).
        assert airtime.total_s == pytest.approx(49.35e-3, abs=0.05e-3)

    def test_config2_adds_11ms(self, config):
        cfg1 = netscatter_round_airtime_s(config, QUERY_BITS_CONFIG1)
        cfg2 = netscatter_round_airtime_s(config, QUERY_BITS_CONFIG2)
        assert cfg2.total_s - cfg1.total_s == pytest.approx(
            (1760 - 32) / 160e3
        )

    def test_latency_equals_round(self, config):
        assert netscatter_network_latency_s(
            config, QUERY_BITS_CONFIG1
        ) == pytest.approx(
            netscatter_round_airtime_s(config, QUERY_BITS_CONFIG1).total_s
        )

    def test_invalid_inputs(self, config):
        with pytest.raises(ConfigurationError):
            netscatter_round_airtime_s(config, -1)


class TestLoRaAirtime:
    def test_poll_composition(self, params):
        poll = lora_backscatter_poll_airtime_s(
            8.7e3, payload_bits=40, params=params
        )
        expected = 28 / 160e3 + 8 * 1.024e-3 + 40 / 8.7e3
        assert poll == pytest.approx(expected)

    def test_preamble_required(self):
        with pytest.raises(ConfigurationError):
            lora_backscatter_poll_airtime_s(8.7e3)

    def test_invalid_bitrate(self, params):
        with pytest.raises(ConfigurationError):
            lora_backscatter_poll_airtime_s(0.0, params=params)


class TestReports:
    def test_table_formatting(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
        text = format_table(rows, ["a", "b"], title="demo")
        assert "demo" in text
        assert "2.5" in text

    def test_table_missing_column_rejected(self):
        with pytest.raises(ReproError):
            format_table([{"a": 1}], ["a", "missing"])
