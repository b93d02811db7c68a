"""Wire format of the probe frame (big-endian, fixed layout).

probe  = [0x01, pair_id:2, epoch:4, round:1, slot_count:1, hash_id:1, seed:4]  (14 bytes)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .slot_hash import HashId

PROBE_KIND = 0x01

_PROBE = struct.Struct(">BHIBBBI")

PROBE_FRAME_LEN = _PROBE.size


@dataclass(frozen=True)
class ProbeFrame:
    """Query announcing the reply schedule; byte-identical across the two
    recorders of a pair in the same round."""

    pair_id: int
    epoch: int
    round: int
    slot_count: int
    hash_id: HashId = HashId.MID_SQUARE
    seed: int = 0

    def encode(self) -> bytes:
        return _PROBE.pack(
            PROBE_KIND,
            self.pair_id,
            self.epoch,
            self.round,
            self.slot_count,
            self.hash_id,
            self.seed,
        )
