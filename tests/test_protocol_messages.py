"""Unit tests for the AP query message lengths and association fields."""

import math

import pytest

from repro.constants import DOWNLINK_BITRATE_BPS
from repro.errors import ProtocolError
from repro.protocol.messages import (
    AssociationResponse,
    QueryMessage,
    reassignment_payload_bits,
)


class TestQueryLengths:
    def test_config1_is_32_bits(self):
        """Fig. 18's config 1: a bare query of 32 bits."""
        assert QueryMessage().n_bits == 32

    def test_config2_near_1760_bits(self):
        """Fig. 18's config 2: full reassignment, ~1760 bits for 256
        devices (log2(256!) <= 1700 plus framing, padded to bytes)."""
        bits = QueryMessage(reassignment_order=list(range(256))).n_bits
        assert 1700 <= bits <= 1760

    def test_reassignment_payload_entropy(self):
        assert reassignment_payload_bits(256) == math.ceil(
            math.log2(math.factorial(256))
        )
        assert reassignment_payload_bits(256) <= 1700

    def test_airtime_at_160kbps(self):
        """Config 2's ~11 ms downlink overhead (Section 3.3.3)."""
        query = QueryMessage(reassignment_order=list(range(256)))
        assert query.n_bits / DOWNLINK_BITRATE_BPS == pytest.approx(11e-3, abs=1e-3)

    def test_association_response_adds_16_bits(self):
        bare = QueryMessage().n_bits
        with_assoc = QueryMessage(
            association=AssociationResponse(network_id=5, cyclic_shift=10)
        ).n_bits
        assert with_assoc == bare + 16

    def test_invalid_group_id(self):
        with pytest.raises(ProtocolError):
            QueryMessage(group_id=256)

    def test_response_validation(self):
        with pytest.raises(ProtocolError):
            AssociationResponse(network_id=256, cyclic_shift=0)
        with pytest.raises(ProtocolError):
            AssociationResponse(network_id=0, cyclic_shift=300)

    def test_reassignment_needs_a_device(self):
        with pytest.raises(ProtocolError):
            reassignment_payload_bits(0)
