"""Reply-slot assignment by mid-square hashing, plus the analytic collision baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HashParams:
    """Slot-hash configuration shared by the recorder and every tag it probes.

    ``seed`` is a 32-bit mixing value XORed into the key before squaring; it
    defaults to 0 and stays fixed so all recorders agree on the same slot for
    the same registration number.  ``reseed_per_round`` is a schedule policy
    consumed by the protocol engine: when on, each round's probe announces a
    fresh seed derived from (seed, epoch, round), decorrelating slot clashes
    between rounds.  The hash itself only ever sees the concrete seed carried
    by a probe.
    """

    seed: int = 0
    slot_count: int = 71
    reseed_per_round: bool = False

    def __post_init__(self) -> None:
        if self.slot_count < 1:
            raise ValueError(f"slot_count must be >= 1, got {self.slot_count}")
        if not 0 <= self.seed < 2**32:
            raise ValueError(f"seed must fit in 32 bits, got {self.seed}")


def round_seed(base_seed: int, epoch: int, round_index: int) -> int:
    """Per-round probe seed when reseeding is on: a 32-bit avalanche mix of
    the base seed with the epoch and round counters."""
    x = (base_seed ^ (epoch * 0x9E3779B9) ^ ((round_index + 1) * 0x85EBCA6B)) & 0xFFFFFFFF
    x = ((x ^ (x >> 16)) * 0x045D9F3B) & 0xFFFFFFFF
    x = ((x ^ (x >> 16)) * 0x045D9F3B) & 0xFFFFFFFF
    return (x ^ (x >> 16)) & 0xFFFFFFFF


def slot_for(vrns: np.ndarray, params: HashParams) -> np.ndarray:
    """Map 64-bit registration numbers to reply slots in [0, slot_count).

    Mid-square hashing: each key is XORed with the zero-extended seed and
    squared exactly, and the middle 64 bits of the 128-bit square (bits
    32..95, bit 0 least significant) are reduced modulo the slot count.  The
    key is split into 32-bit halves ``hi`` and ``lo``; uint64 wraparound then
    gives the middle bits as ``(hi*hi << 32) + (hi*lo << 1) + (lo*lo >> 32)``.
    Elementwise over any shape of uint64 keys; returns intp slots of the
    same shape.  Total and pure: equal inputs always yield equal slots.
    """
    x = np.asarray(vrns, dtype=np.uint64) ^ np.uint64(params.seed)
    hi = x >> np.uint64(32)
    lo = x & np.uint64(0xFFFFFFFF)
    # the wraparound is the intended mod 2**64; numpy warns on it for 0-d input
    with np.errstate(over="ignore"):
        middle = (
            ((hi * hi) << np.uint64(32))
            + ((hi * lo) << np.uint64(1))
            + ((lo * lo) >> np.uint64(32))
        )
    return (middle % np.uint64(params.slot_count)).astype(np.intp)


def expected_collision_fraction(n: int, slot_count: int) -> float:
    """Probability that one of ``n`` tags shares its slot with at least one
    other under uniform hashing into ``slot_count`` slots.

    This is the per-tag birthday bound 1 - ((S-1)/S)**(n-1), used as the
    oracle against which the empirical mid-square collision rate is checked.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if slot_count < 1:
        raise ValueError(f"slot_count must be >= 1, got {slot_count}")
    return 1.0 - ((slot_count - 1) / slot_count) ** (n - 1)
