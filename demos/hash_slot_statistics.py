#!/usr/bin/env python3
"""How registration numbers spread over reply slots.

Walks through the mid-square slot hash: a few concrete assignments, the
bucket histogram over a million random 64-bit registration numbers, and the
empirical per-tag collision rate against the analytic birthday baseline.
"""

import numpy as np

from enpsim import HashParams, expected_collision_fraction, slot_for

params = HashParams(slot_count=71)

print("== concrete slot assignments (S = 71, seed = 0) ==")
examples = [1, 9876543210, 123456789012345, 2**64 - 1]
for vrn, slot in zip(examples, slot_for(np.array(examples, dtype=np.uint64), params).tolist()):
    print(f"  vrn {vrn:>22d} -> slot {slot:2d}")
print("  (tiny keys degenerate: the middle bits of a small square are zero,")
print("   which is why registration numbers are modeled as large integers)\n")

print("== bucket occupancy, 1,000,000 random registration numbers ==")
rng = np.random.default_rng(1)
vrns = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
counts = np.bincount(slot_for(vrns, params), minlength=params.slot_count)
mean = counts.mean()
print(f"  mean {mean:.0f} per bucket, min {counts.min()}, max {counts.max()}, "
      f"max deviation {abs(counts - mean).max() / mean:.2%}")
step = 8
for lo in range(0, params.slot_count, step):
    chunk = counts[lo:lo + step]
    bar = "".join("#" if c > mean else "-" for c in chunk)
    print(f"  slots {lo:2d}-{min(lo + step, params.slot_count) - 1:2d}: {bar} "
          f"(avg {chunk.mean():.0f})")

print("\n== per-tag collision fraction vs analytic 1-((S-1)/S)^(n-1) ==")
print("   n  empirical  analytic")
for n in (5, 10, 20, 40, 50):
    hits = 0
    for _ in range(1500):
        slots = slot_for(rng.integers(0, 2**64, size=n, dtype=np.uint64), params)
        hits += (np.bincount(slots, minlength=params.slot_count)[slots] > 1).sum()
    print(f"  {n:3d}  {hits / (n * 1500):9.4f}  "
          f"{expected_collision_fraction(n, params.slot_count):8.4f}")
print("\nSlot clashes are what the capture effect and the paired recorders mop up.")
