"""Constant-speed vehicle fleet on a closed ring road around the instrumented segment.

The ring keeps the number of vehicles in the experiment constant: vehicles
leaving the far end of the road return along an uninstrumented half.  Road
coordinates put x = 0 at the segment start; the ring coordinate runs
[0, ring_length) with the segment mapped to its middle, so
road_x = ring_x - (ring_length - segment_length)/2.  Vehicles on the return
half keep well-defined (negative or beyond-segment) road coordinates, which
is all the distance queries need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

KMH_TO_MPS = 1.0 / 3.6


@dataclass(frozen=True)
class RoadGeometry:
    """Instrumented segment, its return ring, and the recorder-pair sites.

    Each pair sits at one longitudinal position with its two recorders at the
    two lateral offsets in ``vr_offsets_y`` (defaults put them 2 m beyond
    either edge of a 7 m roadway).
    """

    segment_length_m: float = 200.0
    ring_length_m: float = 400.0
    road_width_m: float = 7.0
    vr_pair_xs: tuple[float, ...] = (20.0, 60.0, 100.0, 140.0, 180.0)
    vr_offsets_y: tuple[float, float] = (-2.0, 9.0)

    def __post_init__(self) -> None:
        if self.segment_length_m <= 0:
            raise ValueError("geometry.segment_length_m must be > 0")
        if self.ring_length_m <= self.segment_length_m:
            raise ValueError("geometry.ring_length_m must exceed geometry.segment_length_m")
        if self.road_width_m <= 0:
            raise ValueError("geometry.road_width_m must be > 0")
        if len(self.vr_offsets_y) != 2:
            raise ValueError("geometry.vr_offsets_y must hold exactly two lateral offsets")
        if not self.vr_pair_xs:
            raise ValueError("geometry.vr_pair_xs must name at least one recorder pair")
        for x in self.vr_pair_xs:
            if not 0 <= x < self.segment_length_m:
                raise ValueError(f"geometry.vr_pair_xs: {x} lies outside [0, segment_length_m)")

    @property
    def n_pairs(self) -> int:
        return len(self.vr_pair_xs)

    @property
    def ring_to_road_offset_m(self) -> float:
        return (self.ring_length_m - self.segment_length_m) / 2.0

    def road_x(self, ring_x):
        """Map ring coordinate(s) to road coordinate(s); works elementwise."""
        return ring_x - self.ring_to_road_offset_m

    def ring_x(self, road_x):
        return road_x + self.ring_to_road_offset_m

    def vr_positions(self, pair_index: int) -> tuple[tuple[float, float], tuple[float, float]]:
        """Road-coordinate positions of the two recorders of one pair."""
        x = self.vr_pair_xs[pair_index]
        ya, yb = self.vr_offsets_y
        return (x, ya), (x, yb)


@dataclass(frozen=True)
class Vehicle:
    """One tagged vehicle: identity, ring position, lane offset, speed."""

    vrn: int
    x: float
    y: float
    speed_mps: float


class Fleet:
    """Column store of the vehicles on the ring.

    Identities never change over a fleet's lifetime; positions evolve via
    :func:`advance`.  Arrays are treated as immutable so fleets can be
    snapshotted by reference.
    """

    __slots__ = ("vrn", "x", "y", "speed_mps", "ring_length_m")

    def __init__(self, vrn, x, y, speed_mps, ring_length_m: float):
        self.vrn = np.asarray(vrn, dtype=np.uint64)
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.speed_mps = np.asarray(speed_mps, dtype=float)
        self.ring_length_m = float(ring_length_m)
        n = len(self.vrn)
        if not (len(self.x) == len(self.y) == len(self.speed_mps) == n):
            raise ValueError("fleet columns must have equal length")
        if n and (self.x.min() < 0 or self.x.max() >= self.ring_length_m):
            raise ValueError("vehicle x outside [0, ring_length)")

    @classmethod
    def from_vehicles(cls, vehicles: Iterable[Vehicle], ring_length_m: float) -> "Fleet":
        vs = list(vehicles)
        return cls(
            [v.vrn for v in vs],
            [v.x for v in vs],
            [v.y for v in vs],
            [v.speed_mps for v in vs],
            ring_length_m,
        )

    def __len__(self) -> int:
        return len(self.vrn)

    def take(self, idx) -> "Fleet":
        """The vehicles at ``idx``, in that order, as a fleet of their own."""
        return Fleet(self.vrn[idx], self.x[idx], self.y[idx], self.speed_mps[idx], self.ring_length_m)


def _draw_distinct_vrns(n: int, rng: np.random.Generator) -> np.ndarray:
    vrns = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    seen = set()
    for i in range(n):
        while int(vrns[i]) in seen:
            vrns[i] = rng.integers(0, 2**64, dtype=np.uint64)
        seen.add(int(vrns[i]))
    return vrns


def spawn_fleet(
    v_n: int,
    v_min_kmh: float,
    v_max_kmh: float,
    geometry: RoadGeometry,
    rng: np.random.Generator,
) -> Fleet:
    """Place ``v_n`` vehicles uniformly on the ring.

    Longitudinal positions are uniform over the ring, lateral offsets uniform
    over the roadway with a 0.5 m margin, speeds uniform over the km/h range
    (converted by /3.6), and registration numbers distinct uniform 64-bit
    draws.  Draw order (x, y, speed, vrn) is fixed for reproducibility.
    """
    if v_n < 0:
        raise ValueError(f"v_n must be >= 0, got {v_n}")
    if v_min_kmh <= 0:
        raise ValueError(f"v_min_kmh must be > 0, got {v_min_kmh}")
    if v_max_kmh < v_min_kmh:
        raise ValueError("v_max_kmh must be >= v_min_kmh")

    xs = rng.uniform(0.0, geometry.ring_length_m, size=v_n)
    ys = rng.uniform(0.5, geometry.road_width_m - 0.5, size=v_n)
    speeds = rng.uniform(v_min_kmh, v_max_kmh, size=v_n) * KMH_TO_MPS
    vrns = _draw_distinct_vrns(v_n, rng)
    return Fleet(vrns, xs, ys, speeds, geometry.ring_length_m)


def spawn_mixed_fleet(
    v_n: int,
    v_min_kmh: float,
    v_max_kmh: float,
    two_wheeler_fraction: float,
    geometry: RoadGeometry,
    rng: np.random.Generator,
) -> Fleet:
    """Spawn with two lateral classes: two-wheelers ride near the road edge,
    four-wheelers toward the middle.  The class split is deterministic
    (round(fraction * v_n) two-wheelers, listed first)."""
    if not 0.0 <= two_wheeler_fraction <= 1.0:
        raise ValueError("two_wheeler_fraction must be in [0, 1]")
    fleet = spawn_fleet(v_n, v_min_kmh, v_max_kmh, geometry, rng)
    n_two = round(two_wheeler_fraction * v_n)
    w = geometry.road_width_m
    ys = fleet.y.copy()
    ys[:n_two] = rng.uniform(0.5, min(2.0, w - 0.5), size=n_two)
    ys[n_two:] = rng.uniform(min(2.0, w - 0.5), w - 0.5, size=v_n - n_two)
    return Fleet(fleet.vrn, fleet.x, ys, fleet.speed_mps, fleet.ring_length_m)


def advance(fleet: Fleet, dt_s: float) -> Fleet:
    """Move every vehicle dt_s seconds along the ring (modulo wraparound).
    A tiny backward step from x = 0 wraps to x + L, which rounds to the ring
    length itself; such a position folds back to 0.0."""
    if dt_s < 0:
        raise ValueError(f"dt_s must be >= 0, got {dt_s}")
    x = positions_at_each(fleet, dt_s)
    x[x == fleet.ring_length_m] = 0.0
    return Fleet(fleet.vrn, x, fleet.y, fleet.speed_mps, fleet.ring_length_m)


def positions_at(fleet: Fleet, dt_s, starts=None) -> np.ndarray:
    """Ring positions dt_s seconds ahead of the fleet snapshot, without
    mutating it.  ``dt_s`` may be a scalar -> (V,) or an array (T,) -> (T, V);
    the arithmetic matches :func:`advance` exactly (which also folds a
    position equal to the ring length, reached only backwards, to 0.0).
    ``starts``, (T, V) snapshots of the same vehicles, one for each offset,
    replace the fleet's own positions."""
    return positions_at_each(fleet, np.asarray(dt_s, dtype=float)[..., None], starts)


def positions_at_each(fleet: Fleet, dt_s: np.ndarray, starts=None) -> np.ndarray:
    """Ring positions with one time offset per vehicle: ``dt_s`` has shape
    (..., V), its last axis aligned with the fleet, and ``starts``, if given,
    broadcasts against it in place of the fleet's own positions.  Element
    for element the same arithmetic as :func:`positions_at`, so both give
    bit-identical positions for the same (vehicle, start, offset)."""
    x = fleet.x if starts is None else starts
    return np.mod(x + fleet.speed_mps * dt_s, fleet.ring_length_m)


def stays_on_ring(fleet: Fleet, dt_first_s: float, dt_last_s: float) -> np.ndarray:
    """(V,) True where a vehicle does not cross the ring seam between the two
    offsets: its unwrapped position stays in [0, ring_length) at both ends,
    and so, being monotone in the offset, everywhere between them."""
    ends = fleet.x + fleet.speed_mps * np.array([[dt_first_s], [dt_last_s]])
    return ((ends >= 0) & (ends < fleet.ring_length_m)).all(axis=0)
