"""AP query message and association frames (Fig. 11, Section 3.3.3).

The query is ASK-modulated at 160 kbps and contains:

* an 8-bit group ID selecting which device group transmits this round,
* an optional association response: 8-bit network ID + 8-bit cyclic
  shift (plus the requesting device's temporary identity),
* optionally a full-reassignment payload: an identifier for one of the
  256! shift orderings, log2(256!) <= 1700 bits.

Config 1 of the evaluation uses a bare 32-bit query; config 2 carries the
full 1760-bit reassignment each round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.constants import DOWNLINK_BITRATE_BPS
from repro.errors import ProtocolError
from repro.utils.bits import bits_to_int, int_to_bits

GROUP_ID_BITS = 8
NETWORK_ID_BITS = 8
CYCLIC_SHIFT_BITS = 8
HEADER_OVERHEAD_BITS = 24
"""Sync word, length field and CRC-8 framing around the query fields —
sized so a bare query is the paper's 32-bit config-1 message."""


def reassignment_payload_bits(n_devices: int) -> int:
    """Bits needed to name one of ``n_devices!`` shift orderings.

    ``ceil(log2(n!))``; for 256 devices this is 1684 <= 1700, padded to
    the paper's 1760-bit config-2 query (a whole number of bytes together
    with the header fields).
    """
    if n_devices < 1:
        raise ProtocolError("need at least one device")
    bits = math.ceil(
        sum(math.log2(k) for k in range(2, n_devices + 1))
    )
    return int(bits)


def encode_permutation(order: Sequence[int]) -> int:
    """Lehmer-encode a shift ordering into its factorial-number index.

    The AP transmits this single integer to announce a full reassignment;
    devices recover their new rank (and thus shift) by decoding it.
    """
    items = list(order)
    n = len(items)
    if sorted(items) != list(range(n)):
        raise ProtocolError("order must be a permutation of 0..n-1")
    index = 0
    available = list(range(n))
    for value in items:
        rank = available.index(value)
        index = index * len(available) + rank
        available.pop(rank)
    return index


def decode_permutation(index: int, n: int) -> List[int]:
    """Inverse of :func:`encode_permutation`."""
    if n < 1:
        raise ProtocolError("n must be >= 1")
    if index < 0 or index >= math.factorial(n):
        raise ProtocolError("index out of range for n!")
    digits = []
    for k in range(1, n + 1):
        digits.append(index % k)
        index //= k
    digits.reverse()
    available = list(range(n))
    return [available.pop(d) for d in digits]


@dataclass(frozen=True)
class AssociationResponse:
    """Optional query field granting a newcomer its identity and shift."""

    network_id: int
    cyclic_shift: int

    def __post_init__(self) -> None:
        if not 0 <= self.network_id < 2**NETWORK_ID_BITS:
            raise ProtocolError("network_id must fit in 8 bits")
        if not 0 <= self.cyclic_shift < 2**CYCLIC_SHIFT_BITS:
            raise ProtocolError(
                "cyclic shift field must fit in 8 bits (the shift is "
                "transmitted in SKIP-grid units)"
            )

    def to_bits(self) -> List[int]:
        return int_to_bits(self.network_id, NETWORK_ID_BITS) + int_to_bits(
            self.cyclic_shift, CYCLIC_SHIFT_BITS
        )

    @staticmethod
    def from_bits(bits: Sequence[int]) -> "AssociationResponse":
        if len(bits) != NETWORK_ID_BITS + CYCLIC_SHIFT_BITS:
            raise ProtocolError("association response must be 16 bits")
        return AssociationResponse(
            network_id=bits_to_int(bits[:NETWORK_ID_BITS]),
            cyclic_shift=bits_to_int(bits[NETWORK_ID_BITS:]),
        )


@dataclass
class QueryMessage:
    """One AP query (Fig. 11)."""

    group_id: int = 0
    association: Optional[AssociationResponse] = None
    reassignment_order: Optional[List[int]] = field(default=None)

    def __post_init__(self) -> None:
        if not 0 <= self.group_id < 2**GROUP_ID_BITS:
            raise ProtocolError("group_id must fit in 8 bits")

    @property
    def n_bits(self) -> int:
        """On-air length of this query."""
        bits = HEADER_OVERHEAD_BITS + GROUP_ID_BITS
        if self.association is not None:
            bits += NETWORK_ID_BITS + CYCLIC_SHIFT_BITS
        if self.reassignment_order is not None:
            bits += reassignment_payload_bits(len(self.reassignment_order))
        # Pad to whole bytes, as the 1760-bit config-2 length implies.
        return ((bits + 7) // 8) * 8

    @property
    def airtime_s(self) -> float:
        """Downlink duration at the 160 kbps ASK rate."""
        return self.n_bits / DOWNLINK_BITRATE_BPS

    def to_bits(self) -> List[int]:
        """Serialise the variable fields (header framing is abstract)."""
        bits = int_to_bits(self.group_id, GROUP_ID_BITS)
        bits.append(1 if self.association is not None else 0)
        if self.association is not None:
            bits.extend(self.association.to_bits())
        bits.append(1 if self.reassignment_order is not None else 0)
        if self.reassignment_order is not None:
            n = len(self.reassignment_order)
            width = reassignment_payload_bits(n)
            bits.extend(
                int_to_bits(encode_permutation(self.reassignment_order), width)
            )
        return bits


def parse_query_bits(
    bits: Sequence[int], n_reassignment_devices: Optional[int] = None
) -> QueryMessage:
    """Parse the serialised query fields back into a message.

    ``n_reassignment_devices`` must be supplied when a reassignment
    payload is present (devices know their group size).
    """
    bits = list(bits)
    if len(bits) < GROUP_ID_BITS + 2:
        raise ProtocolError("query too short")
    group_id = bits_to_int(bits[:GROUP_ID_BITS])
    cursor = GROUP_ID_BITS
    association = None
    if bits[cursor] == 1:
        cursor += 1
        field_len = NETWORK_ID_BITS + CYCLIC_SHIFT_BITS
        association = AssociationResponse.from_bits(
            bits[cursor : cursor + field_len]
        )
        cursor += field_len
    else:
        cursor += 1
    reassignment = None
    if bits[cursor] == 1:
        cursor += 1
        if n_reassignment_devices is None:
            raise ProtocolError(
                "reassignment present but device count unknown"
            )
        width = reassignment_payload_bits(n_reassignment_devices)
        index = bits_to_int(bits[cursor : cursor + width])
        reassignment = decode_permutation(index, n_reassignment_devices)
    return QueryMessage(
        group_id=group_id,
        association=association,
        reassignment_order=reassignment,
    )


def bare_query_bits() -> int:
    """Config-1 query length (32 bits)."""
    return QueryMessage().n_bits


def full_reassignment_query_bits(n_devices: int = 256) -> int:
    """Config-2 query length (~1760 bits for 256 devices)."""
    order = list(range(n_devices))
    return QueryMessage(reassignment_order=order).n_bits


@dataclass(frozen=True)
class AssociationRequest:
    """Uplink association request sent on a reserved cyclic shift."""

    temporary_id: int
    duty_cycle_code: int = 0

    def to_bits(self) -> List[int]:
        return int_to_bits(self.temporary_id, 16) + int_to_bits(
            self.duty_cycle_code, 8
        )

    @staticmethod
    def from_bits(bits: Sequence[int]) -> "AssociationRequest":
        if len(bits) != 24:
            raise ProtocolError("association request must be 24 bits")
        return AssociationRequest(
            temporary_id=bits_to_int(bits[:16]),
            duty_cycle_code=bits_to_int(bits[16:]),
        )
