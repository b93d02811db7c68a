"""Ring-road fleet kinematics and geometry queries."""

import numpy as np
import pytest

from enpsim.mobility import (
    Fleet,
    RoadGeometry,
    Vehicle,
    advance,
    positions_at,
    spawn_fleet,
    spawn_mixed_fleet,
)

GEOM = RoadGeometry()


def test_geometry_defaults():
    assert GEOM.n_pairs == 5
    assert GEOM.ring_to_road_offset_m == 100.0
    assert GEOM.road_x(150.0) == 50.0
    assert GEOM.road_x(0.0) == -100.0  # the return half maps beyond the segment
    assert GEOM.vr_positions(0) == ((20.0, -2.0), (20.0, 9.0))


def test_geometry_validation():
    with pytest.raises(ValueError):
        RoadGeometry(ring_length_m=150.0)  # ring must exceed segment
    with pytest.raises(ValueError):
        RoadGeometry(vr_pair_xs=(250.0,))
    with pytest.raises(ValueError):
        RoadGeometry(vr_pair_xs=())
    with pytest.raises(ValueError):
        RoadGeometry(vr_offsets_y=(-2.0,))


class TestSpawn:
    def test_empty_fleet(self):
        fleet = spawn_fleet(0, 30, 90, GEOM, np.random.default_rng(1))
        assert len(fleet) == 0

    def test_speed_bounds_converted(self):
        fleet = spawn_fleet(200, 30, 90, GEOM, np.random.default_rng(2))
        assert fleet.speed_mps.min() >= 30 / 3.6 - 1e-12
        assert fleet.speed_mps.max() <= 90 / 3.6 + 1e-12
        assert fleet.speed_mps.min() >= 8.333
        assert fleet.speed_mps.max() <= 25.0

    def test_distinct_vrns_and_bounds(self):
        fleet = spawn_fleet(50, 30, 90, GEOM, np.random.default_rng(3))
        assert len(fleet) == 50
        assert len({int(v) for v in fleet.vrn}) == 50
        assert fleet.x.min() >= 0 and fleet.x.max() < GEOM.ring_length_m
        assert fleet.y.min() >= 0.5 and fleet.y.max() <= GEOM.road_width_m - 0.5

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            spawn_fleet(5, 0, 90, GEOM, np.random.default_rng(4))
        with pytest.raises(ValueError):
            spawn_fleet(5, 50, 40, GEOM, np.random.default_rng(4))

    def test_mixed_fleet_lateral_classes(self):
        fleet = spawn_mixed_fleet(10, 30, 90, 0.6, GEOM, np.random.default_rng(5))
        assert len(fleet) == 10
        assert (fleet.y[:6] <= 2.0).all()      # two-wheelers near the edge
        assert (fleet.y[6:] >= 2.0).all()


class TestAdvance:
    def test_arithmetic(self):
        fleet = Fleet([1], [0.0], [3.0], [25.0], 400.0)
        moved = advance(fleet, 0.512)
        assert moved.x[0] == pytest.approx(12.8)

    def test_wraparound(self):
        fleet = Fleet([1], [395.0], [3.0], [25.0], 400.0)
        moved = advance(fleet, 0.512)
        assert moved.x[0] == pytest.approx(7.8)

    def test_zero_dt_identity(self):
        fleet = Fleet([1, 2], [10.0, 350.0], [1.0, 2.0], [10.0, 20.0], 400.0)
        moved = advance(fleet, 0.0)
        assert (moved.x == fleet.x).all()

    def test_tiny_backward_step_from_zero_folds_to_zero(self):
        # np.mod(-tiny, L) rounds to L itself, which a fleet rejects
        fleet = Fleet([1], [0.0], [1.0], [-2.4e-250], 2.0)
        assert positions_at(fleet, 1.0).tolist() == [2.0]
        assert advance(fleet, 1.0).x.tolist() == [0.0]

    def test_negative_dt_rejected(self):
        fleet = Fleet([1], [0.0], [1.0], [10.0], 400.0)
        with pytest.raises(ValueError):
            advance(fleet, -0.1)

    def test_composition(self):
        rng = np.random.default_rng(6)
        fleet = spawn_fleet(30, 30, 90, GEOM, rng)
        a, b = 0.333, 1.777
        two_step = advance(advance(fleet, a), b)
        one_step = advance(fleet, a + b)
        assert np.abs(two_step.x - one_step.x).max() < 1e-9

    def test_conserves_everything_but_x(self):
        rng = np.random.default_rng(7)
        fleet = spawn_fleet(20, 30, 90, GEOM, rng)
        moved = advance(fleet, 123.4)
        assert len(moved) == 20
        assert (moved.vrn == fleet.vrn).all()
        assert (moved.y == fleet.y).all()
        assert (moved.speed_mps == fleet.speed_mps).all()


def test_positions_at_matches_advance():
    rng = np.random.default_rng(8)
    fleet = spawn_fleet(15, 30, 90, GEOM, rng)
    dts = np.array([0.0, 0.1, 2.5])
    pos = positions_at(fleet, dts)
    assert pos.shape == (3, 15)
    for i, dt in enumerate(dts):
        assert (pos[i] == advance(fleet, float(dt)).x).all()
    # scalar form
    assert (positions_at(fleet, 0.1) == advance(fleet, 0.1).x).all()
    # a start snapshot of the same vehicles for each offset, in place of the fleet's own
    starts = np.stack([advance(fleet, 3.0).x, fleet.x, advance(fleet, 0.7).x])
    pos = positions_at(fleet, dts, starts)
    for i, dt in enumerate(dts):
        moved = Fleet(fleet.vrn, starts[i], fleet.y, fleet.speed_mps, fleet.ring_length_m)
        assert (pos[i] == positions_at(moved, float(dt))).all()


def test_fleet_roundtrip_and_validation():
    vehicles = [Vehicle(10, 5.0, 1.0, 8.5), Vehicle(11, 390.0, 6.0, 24.0)]
    fleet = Fleet.from_vehicles(vehicles, 400.0)
    assert fleet.vrn.tolist() == [10, 11] and fleet.vrn.dtype == np.uint64
    assert fleet.x.tolist() == [5.0, 390.0] and fleet.y.tolist() == [1.0, 6.0]
    assert fleet.speed_mps.tolist() == [8.5, 24.0] and fleet.ring_length_m == 400.0
    with pytest.raises(ValueError):
        Fleet([1], [400.0], [1.0], [1.0], 400.0)  # x out of ring
    with pytest.raises(ValueError):
        Fleet([1, 2], [0.0], [1.0], [1.0], 400.0)  # ragged columns
