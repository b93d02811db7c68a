"""Ground truth sampling, per-iteration accuracy, and aggregation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enpsim.metrics
from enpsim.config import MAX_SPEED_KMH, parse_config
from enpsim.metrics import (
    IterationStats,
    aggregate,
    ground_truth,
    iteration_accuracy,
    iteration_csv_line,
    summary_csv_line,
)
from enpsim.mobility import KMH_TO_MPS, Fleet, RoadGeometry, Vehicle, positions_at
from enpsim.protocol import TimingParams, build_epoch_schedule
from enpsim.radio import RadioParams, comm_range_m, received_power_dbm

from reference_engine import reference_ground_truth

GEOM = RoadGeometry(vr_pair_xs=(100.0,))
RADIO = RadioParams()
TIMING = TimingParams()
SCHED = build_epoch_schedule(TIMING, 71, 0)


def fleet_of(*vehicles):
    return Fleet.from_vehicles(vehicles, GEOM.ring_length_m)


class TestGroundTruth:
    def test_static_vehicle_nearby_included(self):
        fleet = fleet_of(Vehicle(7, GEOM.ring_x(100.0), 3.0, 0.0))  # ~5 m away
        assert ground_truth(fleet, SCHED, GEOM, RADIO)[0] == {7}

    def test_far_vehicle_excluded(self):
        fleet = fleet_of(Vehicle(8, GEOM.ring_x(-100.0), 3.0, 0.0))  # 200 m away
        assert ground_truth(fleet, SCHED, GEOM, RADIO)[0] == set()

    def test_range_edge_uses_nominal_range(self):
        r = comm_range_m(RADIO)
        inside = fleet_of(Vehicle(1, GEOM.ring_x(100.0 - r + 0.5), -0.0 + 2.0, 0.0))
        outside = fleet_of(Vehicle(2, GEOM.ring_x(100.0 - r - 2.0), 2.0, 0.0))
        # lateral offset shifts true distance; compare against explicit check
        def min_d(f):
            return min(
                math.hypot(GEOM.road_x(f.x[0]) - vx, f.y[0] - vy)
                for vx, vy in GEOM.vr_positions(0)
            )
        assert (min_d(inside) <= r) == (ground_truth(inside, SCHED, GEOM, RADIO)[0] == {1})
        assert (min_d(outside) <= r) == (ground_truth(outside, SCHED, GEOM, RADIO)[0] == {2})

    def test_crossing_trajectory_matches_dense_oracle(self):
        # vehicle crossing into range mid-epoch at 25 m/s, checked against a
        # 10 microsecond dense containment scan
        r = comm_range_m(RADIO)
        for start_offset in (2.0, 5.0, 8.0, 11.0, 12.7):
            x0 = 100.0 - r - start_offset
            fleet = fleet_of(Vehicle(3, GEOM.ring_x(x0), 2.0, 25.0))
            got = 3 in ground_truth(fleet, SCHED, GEOM, RADIO)[0]

            dense_t = np.arange(0, TIMING.glossy_period_us, 10, dtype=np.int64)
            inside_at = {}
            for t in dense_t:
                x = GEOM.road_x((x0 + GEOM.ring_to_road_offset_m + 25.0 * t * 1e-6) % 400.0)
                d = min(math.hypot(x - vx, 2.0 - vy) for vx, vy in GEOM.vr_positions(0))
                inside_at[int(t)] = d <= r
            boundaries = [int(t) for t in SCHED.sample_times_us()]
            expected = any(inside_at[t] for t in boundaries)  # epoch 0: times are dense grid points
            assert got == expected

    def test_empty_fleet(self):
        assert ground_truth(fleet_of(), SCHED, GEOM, RADIO)[0] == set()

    def test_one_set_per_pair_in_pair_order(self):
        geom = RoadGeometry(vr_pair_xs=(20.0, 100.0, 180.0))
        fleet = Fleet.from_vehicles(
            [Vehicle(1, geom.ring_x(20.0), 3.0, 0.0), Vehicle(2, geom.ring_x(180.0), 3.0, 0.0)],
            geom.ring_length_m,
        )
        assert ground_truth(fleet, SCHED, geom, RADIO) == [{1}, set(), {2}]
        assert ground_truth(fleet_of(), SCHED, geom, RADIO) == [set(), set(), set()]


MAX_SPEED_MPS = MAX_SPEED_KMH * KMH_TO_MPS


@st.composite
def gt_cases(draw):
    """A random (fleet, schedule, geometry, radio) for one epoch: 1-5 pairs,
    any segment and ring length, any accepted radio (the floor optionally
    right at tx - pl0 or at a drawn distance), probe and slot lengths drawn
    apart, and vehicles that are static, level with a pair during the epoch,
    crossing the ring seam or anywhere, at any accepted speed either way."""
    segment = draw(st.floats(1.0, 1000.0))
    # huge rings put whole metres between adjacent floats near the pairs
    ring = segment + draw(st.floats(0.01, 2000.0) | st.floats(2000.0, 1e300))
    n_pairs = draw(st.integers(1, 5))
    pair_xs = draw(st.lists(st.floats(0.0, segment, exclude_max=True),
                            min_size=n_pairs, max_size=n_pairs))
    width = draw(st.floats(0.5, 20.0))
    offsets = (draw(st.floats(-10.0, 0.0)), width + draw(st.floats(0.0, 10.0)))
    geom = RoadGeometry(segment, ring, width, tuple(pair_xs), offsets)

    exponent = draw(st.sampled_from([1e-300, 1e-12, 10.0]) | st.floats(1e-300, 10.0))
    tx = draw(st.floats(-100.0, 100.0))
    pl0 = draw(st.floats(0.0, 200.0))
    floor = draw(st.sampled_from(["free", "tx-pl0", "range"]))
    if floor == "free":
        sensitivity = draw(st.floats(-200.0, 0.0))
    elif floor == "tx-pl0":
        sensitivity = tx - pl0
    else:
        sensitivity = tx - pl0 - 10.0 * exponent * np.log10(draw(st.floats(1.0, 500.0)))
    sensitivity = float(min(max(sensitivity, -200.0), 0.0))
    radio = RadioParams(tx_power_dbm=tx, pl0_db=pl0, exponent=exponent,
                        sensitivity_dbm=sensitivity)

    probe_len = draw(st.integers(200, 5000))
    slot_len = draw(st.integers(200, 5000))
    slot_count = draw(st.integers(1, 128))
    sync = draw(st.integers(1, 50_000))
    period = sync + probe_len + slot_count * slot_len + draw(st.integers(0, 550_000))
    timing = TimingParams(period, sync, probe_len, slot_len)
    sched = build_epoch_schedule(timing, slot_count, draw(st.integers(0, 10_000)))

    xs, ys, speeds = [], [], []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["any", "static", "pass", "seam"]))
        speed = 0.0 if kind == "static" else draw(st.floats(-MAX_SPEED_MPS, MAX_SPEED_MPS))
        if kind == "pass":  # level with a pair at some point of [-0.2, 1.2] epochs
            when = draw(st.floats(-0.2, 1.2)) * period * 1e-6
            x = geom.ring_x(draw(st.sampled_from(pair_xs)) - speed * when)
        elif kind == "seam":  # reaches the seam within two epochs
            travel = abs(speed) * draw(st.floats(0.0, 2.0)) * period * 1e-6
            x = ring - travel if speed > 0 else travel
        else:
            x = draw(st.floats(0.0, ring, exclude_max=True))
        xs.append(min(max(x, 0.0), float(np.nextafter(ring, 0.0))))
        ys.append(draw(st.floats(0.0, width)))
        speeds.append(speed)
    fleet = Fleet(np.arange(len(xs), dtype=np.uint64), xs, ys, speeds, ring)
    return fleet, sched, geom, radio


def seam_crossing_case():
    """Pair at road x = 0 on a 201 m ring: the seam is 0.5 m from it.  The
    vehicle starts 200 m away on the far side, crosses the seam 40 ms into
    the epoch and then passes the pair; only the boundaries after the
    crossing see it in range."""
    geom = RoadGeometry(200.0, 201.0, 7.0, (0.0,), (-2.0, 9.0))
    fleet = Fleet([1], [200.0], [3.0], [25.0], 201.0)
    return fleet, build_epoch_schedule(TimingParams(), 71, 0), geom, RadioParams()


def between_boundaries_case():
    """A vehicle whose closest approach falls 0.7 of the way from one slot
    boundary to the next (1 ms slots, 2 ms probes), with the floor set to
    its power at the nearer, later boundary: in range there and nowhere
    else."""
    timing = TimingParams(probe_len_us=2_000, slot_len_us=1_000)
    sched = build_epoch_schedule(timing, 71, 3)
    geom = RoadGeometry(vr_pair_xs=(100.0,))
    t_near = (sched.slot_start_us(1, 40) - sched.epoch_start_us) * 1e-6
    speed = 20.0
    road_x0 = 100.0 - speed * (t_near - 0.3e-3)
    fleet = Fleet([5], [geom.ring_x(road_x0)], [3.5], [speed], geom.ring_length_m)
    road_x = geom.road_x(np.mod(fleet.x + fleet.speed_mps * t_near, fleet.ring_length_m))
    d = np.hypot(road_x - 100.0, fleet.y - (-2.0))[0]
    radio = RadioParams(sensitivity_dbm=float(received_power_dbm(d, RadioParams())))
    return fleet, sched, geom, radio


def oracle_static5_case():
    cfg = parse_config("preset = oracle-static5\n")
    geom = cfg.geometry
    fleet = Fleet.from_vehicles(cfg.fleet.explicit, geom.ring_length_m)
    return fleet, build_epoch_schedule(cfg.timing, cfg.hash.slot_count, 0), geom, cfg.radio


class TestGroundTruthMatchesFullScan:
    @pytest.mark.parametrize("make_case, expected", [
        (seam_crossing_case, [{1}]),
        (between_boundaries_case, [{5}]),
        (oracle_static5_case,
         [{9876543210, 10987654321, 12098765432, 13209876543, 15432098765}]),
    ])
    def test_example_cases(self, make_case, expected):
        assert ground_truth(*make_case()) == expected

    # vehicle 9 at road x with the given speed, vehicle 10 parked at the pair
    @pytest.mark.parametrize("ring, radio, x, speed, scanned", [
        # 20 m from the pair, 3 dB below the floor: one boundary decides both
        (400.0, RadioParams(sensitivity_dbm=-77.0), 80.0, 0.0, []),
        # every link misses the floor by less than the margin: both scanned
        (400.0, RadioParams(exponent=1e-12, pl0_db=40.0, sensitivity_dbm=-40.0), 80.0, 0.0, [2]),
        # vehicle 9 crosses the ring seam (road x = -100) during the epoch
        (400.0, RadioParams(), -100.5, 5.0, [1]),
        (400.0, RadioParams(), -99.5, -5.0, [1]),
        # 8 m between floats near the pair: vehicle 9 never moves off road
        # x = 96, so the boundaries around t* do not bracket a sign change
        (1e17, RadioParams(sensitivity_dbm=-60.0), 96.0, 25.0, [1]),
    ])
    def test_full_scan_only_where_one_boundary_cannot_decide(
        self, monkeypatch, ring, radio, x, speed, scanned
    ):
        calls = []

        def spy(fleet, dts):
            calls.append(len(fleet))
            return positions_at(fleet, dts)

        monkeypatch.setattr(enpsim.metrics, "positions_at", spy)
        geom = RoadGeometry(vr_pair_xs=(100.0,), ring_length_m=ring)
        vehicles = [Vehicle(9, geom.ring_x(x) % ring, 3.0, speed),
                    Vehicle(10, geom.ring_x(100.0), 3.0, 0.0)]
        fleet = Fleet.from_vehicles(vehicles, ring)
        case = (fleet, SCHED, geom, radio)
        assert ground_truth(*case) == reference_ground_truth(*case)
        assert calls == scanned

    @example(case=seam_crossing_case())
    @example(case=between_boundaries_case())
    @example(case=oracle_static5_case())
    @settings(max_examples=300, deadline=None)
    @given(case=gt_cases())
    def test_randomized(self, case):
        assert ground_truth(*case) == reference_ground_truth(*case)


class TestIterationAccuracy:
    def test_full_coverage(self):
        gt = {1, 2, 3}
        st = iteration_accuracy(gt, gt, gt, pair_id=0, epoch=0)
        assert st.acc_union == 1.0 and st.acc_1 == 1.0 and st.acc_2 == 1.0
        assert st.union_count == 3

    def test_partial_union(self):
        st = iteration_accuracy({1, 2}, {2, 3}, {1, 2, 3, 4})
        assert st.acc_union == 0.75

    def test_split_between_recorders(self):
        st = iteration_accuracy({1}, {2}, {1, 2})
        assert st.acc_1 == 0.5 and st.acc_2 == 0.5 and st.acc_union == 1.0

    def test_empty_gt_excluded(self):
        st = iteration_accuracy({1}, set(), set())
        assert not st.included
        assert math.isnan(st.acc_union)

    def test_union_dominance_and_swap_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            pool = list(range(30))
            r1 = set(rng.choice(pool, size=rng.integers(0, 20), replace=False).tolist())
            r2 = set(rng.choice(pool, size=rng.integers(0, 20), replace=False).tolist())
            gt = set(rng.choice(pool, size=rng.integers(1, 25), replace=False).tolist())
            st = iteration_accuracy(r1, r2, gt)
            swapped = iteration_accuracy(r2, r1, gt)
            assert st.acc_union >= max(st.acc_1, st.acc_2)
            assert st.union_count >= max(st.detected_1, st.detected_2)
            assert st.acc_union == swapped.acc_union

    def test_records_subset_gt_bounds_accuracy(self):
        st = iteration_accuracy({1, 9}, {2, 9}, {1, 2, 3})
        assert st.acc_union <= 1.0


def stats(pair_id, epoch, acc, gt=4):
    hit = round(acc * gt)
    return IterationStats(pair_id, epoch, gt, hit, hit, hit, acc, acc, acc)


class TestAggregate:
    def test_single_iteration(self):
        rows = aggregate([stats(0, 0, 1.0)])
        assert rows[0]["mean_acc_union"] == 1.0
        assert rows[0]["std_acc_union"] == 0.0
        assert rows[0]["iterations"] == 1

    def test_two_iterations_mean(self):
        rows = aggregate([stats(0, 0, 1.0), stats(0, 1, 0.5)])
        assert rows[0]["mean_acc_union"] == pytest.approx(0.75)

    def test_excluded_iterations_dropped(self):
        excl = IterationStats(0, 2, 0, 0, 0, 0, float("nan"), float("nan"), float("nan"))
        rows = aggregate([stats(0, 0, 1.0), excl])
        assert rows[0]["iterations"] == 1

    def test_all_excluded_gives_no_rows(self):
        excl = IterationStats(0, 0, 0, 0, 0, 0, float("nan"), float("nan"), float("nan"))
        assert aggregate([excl]) == []

    def test_grouping_by_pair(self):
        rows = aggregate([stats(0, 0, 1.0), stats(1, 0, 0.5), stats(1, 1, 1.0)],
                         ("pair_id",))
        assert [r["pair_id"] for r in rows] == [0, 1]
        assert rows[1]["mean_acc_union"] == pytest.approx(0.75)

    def test_shard_linearity(self):
        rng = np.random.default_rng(41)
        all_stats = [stats(0, e, float(rng.uniform(0, 1))) for e in range(500)]
        whole = aggregate(all_stats)[0]
        parts = all_stats[:123] + all_stats[123:]  # same content, concatenated shards
        again = aggregate(parts)[0]
        assert whole["iterations"] == again["iterations"]
        assert abs(whole["mean_acc_union"] - again["mean_acc_union"]) < 1e-12

    def test_single_pools_both_recorders(self):
        st = IterationStats(0, 0, 4, 4, 2, 4, 1.0, 0.5, 1.0)
        rows = aggregate([st])
        assert rows[0]["mean_acc_single"] == pytest.approx(0.75)


def test_csv_lines_format():
    st = IterationStats(2, 31, 5, 4, 3, 5, 0.8, 0.6, 1.0)
    assert iteration_csv_line(1, st) == "1,2,31,5,4,3,5,0.800000,0.600000,1.000000"
    excl = IterationStats(0, 7, 0, 1, 0, 1, float("nan"), float("nan"), float("nan"))
    assert iteration_csv_line(0, excl) == "0,0,7,0,1,0,1,,,"
    summary = dict(v_n=40, v_s_min=30.0, v_s_max=90.0, s_slots=71, iterations=1000,
                   mean_acc_union=0.9753, std_acc_union=0.01, mean_acc_single=0.91)
    assert summary_csv_line(summary) == "40,30,90,71,1000,0.975300,0.010000,0.910000"
