"""AP query message and association frames (Fig. 11, Section 3.3.3).

The query is ASK-modulated at 160 kbps and contains:

* an 8-bit group ID selecting which device group transmits this round,
* an optional association response: 8-bit network ID + 8-bit cyclic
  shift (plus the requesting device's temporary identity),
* optionally a full-reassignment payload: an identifier for one of the
  256! shift orderings, log2(256!) <= 1700 bits.

Config 1 of the evaluation uses a bare 32-bit query; config 2 carries the
full 1760-bit reassignment each round. Only the lengths matter to the
evaluation (they set the downlink air time), so the fields are sized,
not serialised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ProtocolError

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
