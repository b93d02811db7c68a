"""Ground truth sampling, per-iteration accuracy, and aggregation."""

import math

import numpy as np
import pytest

from enpsim.metrics import (
    IterationStats,
    aggregate,
    ground_truth,
    iteration_accuracy,
    iteration_csv_line,
    summary_csv_line,
)
from enpsim.mobility import Fleet, RoadGeometry, Vehicle
from enpsim.protocol import TimingParams, build_epoch_schedule
from enpsim.radio import RadioParams, comm_range_m

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
        assert rows[0]["min_acc_union"] == 0.5

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
