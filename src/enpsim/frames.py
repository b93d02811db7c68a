"""Wire format of the probe frame (big-endian, fixed layout).

probe  = [0x01, pair_id:2, epoch:4, round:1, slot_count:1, 0x01, seed:4]  (14 bytes)

The epoch and round fields are wrapping counters: they carry the epoch
modulo 2**32 and the round modulo 2**8.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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
    seed: int = 0

    def encode(self) -> bytes:
        return _PROBE.pack(
            PROBE_KIND,
            self.pair_id,
            self.epoch % (1 << 32),
            self.round % (1 << 8),
            self.slot_count,
            0x01,  # the slot hash: mid-square, the only one
            self.seed,
        )
