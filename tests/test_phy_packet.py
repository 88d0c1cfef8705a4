"""Unit tests for repro.phy.packet — the link-layer packet structure."""

import pytest

from repro.errors import ProtocolError
from repro.phy.packet import PacketStructure


class TestPacketStructure:
    def test_paper_defaults(self):
        s = PacketStructure()
        assert s.n_preamble_upchirps == 6
        assert s.n_preamble_downchirps == 2
        assert s.payload_bits == 40
        assert s.n_symbols == 48

    def test_airtime_at_deployment_config(self, params):
        s = PacketStructure()
        # 48 symbols * 1.024 ms = 49.152 ms of uplink airtime.
        assert s.airtime_s(params) == pytest.approx(49.152e-3)

    def test_preamble_vs_payload_split(self, params):
        s = PacketStructure()
        assert s.preamble_airtime_s(params) + s.payload_airtime_s(
            params
        ) == pytest.approx(s.airtime_s(params))

    def test_invalid_counts(self):
        with pytest.raises(ProtocolError):
            PacketStructure(n_preamble_upchirps=0)
        with pytest.raises(ProtocolError):
            PacketStructure(n_preamble_downchirps=0)
        with pytest.raises(ProtocolError):
            PacketStructure(payload_bits=-1)

    def test_one_payload_symbol_per_bit(self):
        s = PacketStructure(payload_bits=17)
        assert s.n_payload_symbols == 17
