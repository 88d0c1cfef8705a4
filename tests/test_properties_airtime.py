"""Property-based tests on air-time accounting and packet arithmetic."""

from hypothesis import given, strategies as st

from repro.analysis.airtime import (
    lora_backscatter_poll_airtime_s,
    netscatter_round_airtime_s,
)
from repro.core.config import NetScatterConfig
from repro.phy.chirp import ChirpParams
from repro.phy.packet import PacketStructure

CONFIG = NetScatterConfig(n_association_shifts=0)
PARAMS = ChirpParams(bandwidth_hz=500e3, spreading_factor=9)


class TestAirtimeProperties:
    @given(st.integers(min_value=0, max_value=4096))
    def test_round_airtime_linear_in_query_bits(self, query_bits):
        airtime = netscatter_round_airtime_s(CONFIG, query_bits)
        base = netscatter_round_airtime_s(CONFIG, 0)
        assert abs(
            (airtime.total_s - base.total_s) - query_bits / 160e3
        ) < 1e-12

    @given(st.floats(min_value=100.0, max_value=50e3))
    def test_poll_airtime_decreases_with_bitrate(self, bitrate):
        slow = lora_backscatter_poll_airtime_s(
            bitrate, params=PARAMS
        )
        fast = lora_backscatter_poll_airtime_s(
            bitrate * 2.0, params=PARAMS
        )
        assert fast < slow

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=256),
    )
    def test_packet_symbol_arithmetic(self, n_up, n_down, payload):
        structure = PacketStructure(
            n_preamble_upchirps=n_up,
            n_preamble_downchirps=n_down,
            payload_bits=payload,
        )
        assert structure.n_symbols == n_up + n_down + payload
        assert structure.airtime_s(PARAMS) == (
            structure.n_symbols * PARAMS.symbol_duration_s
        )

    @given(st.integers(min_value=1, max_value=16))
    def test_config_capacity_times_bitrate_is_bandwidth_over_skip(
        self, skip
    ):
        """Invariant: max_devices * per-device bitrate == BW / skip for
        any guard spacing (no association shifts)."""
        config = NetScatterConfig(
            skip=skip, n_association_shifts=0
        )
        aggregate = config.max_devices * config.device_bitrate_bps
        expected = config.bandwidth_hz / skip
        # Integer division of slots can shave a fraction of one device.
        assert abs(aggregate - expected) <= config.device_bitrate_bps
