"""Ground truth sampling, per-iteration accuracy, and aggregation."""

import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import enpsim.metrics
import enpsim.protocol
from enpsim.config import MAX_SPEED_KMH, parse_config
from enpsim.metrics import (
    accuracies,
    aggregate,
    ground_truth,
    iteration_accuracy,
    iteration_csv_rows,
    summary_by_pair_csv_line,
    summary_csv_line,
    tally,
)
from enpsim.mobility import KMH_TO_MPS, Fleet, RoadGeometry, Vehicle, advance, positions_at
from enpsim.protocol import TimingParams, build_epoch_schedule
from enpsim.radio import RadioParams, comm_range_m, received_power_dbm

from reference_engine import reference_aggregate, reference_ground_truth

GEOM = RoadGeometry(vr_pair_xs=(100.0,))
RADIO = RadioParams()
TIMING = TimingParams()
SCHED = build_epoch_schedule(TIMING, 71, 0)


def fleet_of(*vehicles):
    return Fleet.from_vehicles(vehicles, GEOM.ring_length_m)


def one_epoch(fleet, sched, geom, radio):
    """The (pairs, vehicles) ground truth of one epoch-start snapshot: the
    only row of a stack of one."""
    gt = ground_truth(fleet, fleet.x[None], sched, geom, radio)
    assert gt.shape == (1, geom.n_pairs, len(fleet))
    return gt[0]


class TestGroundTruth:
    def test_static_vehicle_nearby_included(self):
        fleet = fleet_of(Vehicle(7, GEOM.ring_x(100.0), 3.0, 0.0))  # ~5 m away
        assert one_epoch(fleet, SCHED, GEOM, RADIO).tolist() == [[True]]

    def test_far_vehicle_excluded(self):
        fleet = fleet_of(Vehicle(8, GEOM.ring_x(-100.0), 3.0, 0.0))  # 200 m away
        assert one_epoch(fleet, SCHED, GEOM, RADIO).tolist() == [[False]]

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
        assert (min_d(inside) <= r) == one_epoch(inside, SCHED, GEOM, RADIO)[0, 0]
        assert (min_d(outside) <= r) == one_epoch(outside, SCHED, GEOM, RADIO)[0, 0]

    def test_crossing_trajectory_matches_dense_oracle(self):
        # vehicle crossing into range mid-epoch at 25 m/s, checked against a
        # 10 microsecond dense containment scan
        r = comm_range_m(RADIO)
        for start_offset in (2.0, 5.0, 8.0, 11.0, 12.7):
            x0 = 100.0 - r - start_offset
            fleet = fleet_of(Vehicle(3, GEOM.ring_x(x0), 2.0, 25.0))
            got = one_epoch(fleet, SCHED, GEOM, RADIO)[0, 0]

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
        gt = one_epoch(fleet_of(), SCHED, GEOM, RADIO)
        assert gt.shape == (1, 0) and gt.dtype == bool

    def test_one_set_per_pair_in_pair_order(self):
        geom = RoadGeometry(vr_pair_xs=(20.0, 100.0, 180.0))
        fleet = Fleet.from_vehicles(
            [Vehicle(1, geom.ring_x(20.0), 3.0, 0.0), Vehicle(2, geom.ring_x(180.0), 3.0, 0.0)],
            geom.ring_length_m,
        )
        gt = one_epoch(fleet, SCHED, geom, RADIO)
        assert gt.dtype == bool
        assert gt.tolist() == [[True, False], [False, False], [False, True]]
        assert one_epoch(fleet_of(), SCHED, geom, RADIO).shape == (3, 0)


MAX_SPEED_MPS = MAX_SPEED_KMH * KMH_TO_MPS


@st.composite
def gt_cases(draw):
    """A random (snapshots, schedule, geometry, radio): the epoch-start
    snapshots of 1-4 consecutive epochs of one fleet, the first epoch's
    schedule, 1-5 pairs, any segment and ring length, any accepted radio
    (the floor optionally right at tx - pl0 or at a drawn distance), probe
    and slot lengths drawn apart, and vehicles that are parked, level with a
    pair during the first epoch, crossing the ring seam within the stack or
    anywhere, at any accepted speed either way."""
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

    n_epochs = draw(st.integers(1, 4))
    xs, ys, speeds = [], [], []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["any", "static", "pass", "seam"]))
        speed = 0.0 if kind == "static" else draw(st.floats(-MAX_SPEED_MPS, MAX_SPEED_MPS))
        if kind == "pass":  # level with a pair at some point of [-0.2, 1.2] epochs
            when = draw(st.floats(-0.2, 1.2)) * period * 1e-6
            x = geom.ring_x(draw(st.sampled_from(pair_xs)) - speed * when)
        elif kind == "seam":  # reaches the seam within the stack or the epoch after
            travel = abs(speed) * draw(st.floats(0.0, n_epochs + 1.0)) * period * 1e-6
            x = ring - travel if speed > 0 else travel
        else:
            x = draw(st.floats(0.0, ring, exclude_max=True))
        xs.append(min(max(x, 0.0), float(np.nextafter(ring, 0.0))))
        ys.append(draw(st.floats(0.0, width)))
        speeds.append(speed)
    snapshots = [Fleet(np.arange(len(xs), dtype=np.uint64), xs, ys, speeds, ring)]
    while len(snapshots) < n_epochs:
        snapshots.append(advance(snapshots[-1], period * 1e-6))
    return snapshots, sched, geom, radio


def later_epoch(sched, e):
    """The schedule ``e`` epochs after ``sched``."""
    return replace(sched, epoch_index=sched.epoch_index + e,
                   epoch_start_us=sched.epoch_start_us + e * sched.glossy_period_us)


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


def stack_of_one(case):
    fleet, *rest = case
    return ([fleet], *rest)


def assert_same_mask(got, want):
    np.testing.assert_array_equal(got, want, strict=True)


class TestGroundTruthMatchesFullScan:
    @pytest.mark.parametrize("make_case, expected", [
        (seam_crossing_case, [[True]]),
        (between_boundaries_case, [[True]]),
        (oracle_static5_case, [[True] * 5]),
    ])
    def test_example_cases(self, make_case, expected):
        assert_same_mask(one_epoch(*make_case()), np.array(expected))

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
        assert_same_mask(one_epoch(*case), reference_ground_truth(*case))
        assert calls == scanned

    @pytest.mark.parametrize("elements, timing, n_boundaries", [
        (100, TIMING, 216),
        # the real bound on a 10 s epoch of 200 us probes and slots
        (enpsim.protocol.MAX_REPLY_LINKS, TimingParams(10_000_000, 20_000, 200, 200), 693 * 72),
    ])
    def test_full_scan_in_blocks_of_boundaries(self, monkeypatch, elements, timing,
                                               n_boundaries):
        calls = []

        def spy(fleet, dts):
            calls.append((len(dts), len(fleet)))
            return positions_at(fleet, dts)

        monkeypatch.setattr(enpsim.metrics, "positions_at", spy)
        monkeypatch.setattr(enpsim.protocol, "MAX_REPLY_LINKS", elements)
        sched = build_epoch_schedule(timing, 71, 2)
        assert len(sched.sample_times_us()) == n_boundaries
        # 20 slow vehicles that cross the ring seam and never reach the
        # pair: each is scanned at every boundary
        fleet = fleet_of(*(Vehicle(i, 399.5 - 0.1 * i, 3.0, 10.0) for i in range(20)))
        case = (fleet, sched, GEOM, RADIO)
        assert_same_mask(one_epoch(*case), reference_ground_truth(*case))
        step = elements // 20
        sizes = [step] * (n_boundaries // step) + [n_boundaries % step] * bool(n_boundaries % step)
        assert calls == [(size, 20) for size in sizes]

    def test_full_scan_one_boundary_a_block_below_the_budget(self, monkeypatch):
        # a budget smaller than the vehicles scanned still scans every
        # boundary, one a block
        calls = []

        def spy(fleet, dts):
            calls.append((len(dts), len(fleet)))
            return positions_at(fleet, dts)

        monkeypatch.setattr(enpsim.metrics, "positions_at", spy)
        monkeypatch.setattr(enpsim.protocol, "MAX_REPLY_LINKS", 10)
        fleet = fleet_of(*(Vehicle(i, 399.5 - 0.1 * i, 3.0, 10.0) for i in range(20)))
        case = (fleet, SCHED, GEOM, RADIO)
        assert_same_mask(one_epoch(*case), reference_ground_truth(*case))
        assert calls == [(1, 20)] * len(SCHED.sample_times_us())

    # 1.0M and 2.0M positions, in 8 to 61 blocks of the budget
    @pytest.mark.parametrize("elements, n_vehicles", [
        (enpsim.protocol.MAX_REPLY_LINKS, 40),
        (2**16, 20),
        (2**14, 20),
    ])
    def test_full_scan_peaks_by_the_budget(self, monkeypatch, elements, n_vehicles):
        # Beyond the epoch's boundary times (two float arrays), a scan larger
        # than the budget peaks below eight float arrays of the budget (its
        # road x, the two recorders' powers, their maximum): in one block,
        # 20 vehicles peaked at 40.7 MB, 40 at 80.6 MB
        monkeypatch.setattr(enpsim.protocol, "MAX_REPLY_LINKS", elements)
        sched = build_epoch_schedule(TimingParams(10_000_000, 20_000, 200, 200), 71, 2)
        n_boundaries = len(sched.sample_times_us())
        assert n_boundaries * n_vehicles > 4 * elements
        fleet = fleet_of(*(Vehicle(i, 399.5 - 0.1 * i, 3.0, 10.0) for i in range(n_vehicles)))
        tracemalloc.start()
        try:
            gt = ground_truth(fleet, fleet.x[None], sched, GEOM, RADIO)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gt.shape == (1, 1, n_vehicles) and not gt.any()
        assert peak < 8 * 8 * elements + 2 * 8 * n_boundaries

    @example(case=stack_of_one(seam_crossing_case()))
    @example(case=stack_of_one(between_boundaries_case()))
    @example(case=stack_of_one(oracle_static5_case()))
    @settings(max_examples=300, deadline=None)
    @given(case=gt_cases())
    def test_randomized(self, case):
        snapshots, sched, geom, radio = case
        x = np.stack([snapshot.x for snapshot in snapshots])
        got = ground_truth(snapshots[0], x, sched, geom, radio)
        assert got.shape == (len(snapshots), geom.n_pairs, len(snapshots[0]))
        for e, (row, snapshot) in enumerate(zip(got, snapshots)):
            want = reference_ground_truth(snapshot, later_epoch(sched, e), geom, radio)
            assert_same_mask(row, want)


def one_pair(rec_1, rec_2, gt, n=10):
    """The counts and accuracies of one pair over one epoch of one stream,
    from the vehicle indices recorder a and b decoded and those in ground
    truth."""
    decoded = np.zeros((1, 1, 2, n), dtype=bool)
    gt_mask = np.zeros((1, 1, n), dtype=bool)
    decoded[0, 0, 0, list(rec_1)] = decoded[0, 0, 1, list(rec_2)] = True
    gt_mask[0, 0, list(gt)] = True
    [[[counts]]] = iteration_accuracy(decoded, gt_mask, [0, n])
    return counts.tolist(), accuracies(counts).tolist()


def set_scores(rec_1, rec_2, gt):
    """The set definition of one pair-epoch's counts (recorder a, b and
    their union; each within ground truth; ground truth) and accuracies
    |recorded & GT| / |GT|."""
    recorded = (rec_1, rec_2, rec_1 | rec_2)
    counts = [len(rec) for rec in recorded] + [len(rec & gt) for rec in recorded] + [len(gt)]
    acc = [len(rec & gt) / len(gt) if gt else float("nan") for rec in recorded]
    return counts, acc


@st.composite
def stacked_masks(draw):
    """Random (epochs, pairs, 2, tags) decoded and (epochs, pairs, tags)
    ground-truth masks of 1-3 epochs, 1-5 pairs and 0-30 tags, and the
    offsets of 1-5 streams splitting the tags, empty ones included."""
    n_epochs, n_pairs = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    n_tags = draw(st.integers(0, 30))
    cuts = draw(st.lists(st.integers(0, n_tags), max_size=4))
    return (draw(arrays(bool, (n_epochs, n_pairs, 2, n_tags))),
            draw(arrays(bool, (n_epochs, n_pairs, n_tags))),
            [0, *sorted(cuts), n_tags])


class TestIterationAccuracy:
    def test_full_coverage(self):
        gt = {1, 2, 3}
        counts, acc = one_pair(gt, gt, gt)
        assert acc == [1.0, 1.0, 1.0]
        assert counts == [3, 3, 3, 3, 3, 3, 3]

    def test_partial_union(self):
        assert one_pair({1, 2}, {2, 3}, {1, 2, 3, 4})[1][2] == 0.75

    def test_split_between_recorders(self):
        assert one_pair({1}, {2}, {1, 2})[1] == [0.5, 0.5, 1.0]

    def test_empty_gt_excluded(self):
        counts, acc = one_pair({1}, set(), set())
        assert counts[6] == 0 and all(math.isnan(a) for a in acc)
        assert tally(np.array([[counts]])) == {}
        assert aggregate(Counter()) is None

    def test_union_dominance_and_swap_invariance(self):
        rng = np.random.default_rng(31)
        decoded = rng.random((300, 3, 2, 30)) < rng.random((300, 3, 2, 1))
        gt = rng.random((300, 3, 30)) < rng.random((300, 3, 1))
        gt[..., [0, 20]] = True
        offsets = [0, 20, 30]
        counts = iteration_accuracy(decoded, gt, offsets)
        swapped = iteration_accuracy(decoded[:, :, ::-1], gt, offsets)
        assert counts.shape == (2, 300, 3, 7)
        acc, swapped_acc = accuracies(counts), accuracies(swapped)
        assert (acc[..., 2] >= acc[..., :2].max(axis=-1)).all()
        assert (counts[..., 2] >= counts[..., :2].max(axis=-1)).all()
        assert np.array_equal(acc[..., 2], swapped_acc[..., 2])
        assert np.array_equal(acc[..., :2], swapped_acc[..., 1::-1])

    def test_records_subset_gt_bounds_accuracy(self):
        assert one_pair({1, 9}, {2, 9}, {1, 2, 3})[1][2] <= 1.0

    # no tags; a trailing empty stream; empty streams around a full one
    @example(masks=(np.zeros((1, 1, 2, 0), bool), np.zeros((1, 1, 0), bool), [0, 0]))
    @example(masks=(np.ones((1, 2, 2, 3), bool), np.array([[[0, 0, 0], [1, 0, 1]]], bool),
                    [0, 3, 3]))
    @example(masks=(np.ones((2, 1, 2, 3), bool), np.ones((2, 1, 3), bool), [0, 0, 3, 3]))
    @settings(max_examples=300, deadline=None)
    @given(masks=stacked_masks())
    def test_matches_set_definition(self, masks):
        decoded, gt, offsets = masks
        got = iteration_accuracy(decoded, gt, offsets)
        assert got.shape == (len(offsets) - 1,) + gt.shape[:2] + (7,)
        assert got.dtype.kind == "i" and accuracies(got).dtype == np.float64
        for stream, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            want_counts, want_acc, want_rows = [], [], []
            for epoch, (epoch_decoded, epoch_gt) in enumerate(zip(decoded, gt), start=7):
                for pair_id, (rows, gt_row) in enumerate(zip(epoch_decoded, epoch_gt)):
                    rec_1, rec_2, gt_set = (set(np.flatnonzero(m[lo:hi]).tolist())
                                            for m in (*rows, gt_row))
                    counts, acc = set_scores(rec_1, rec_2, gt_set)
                    want_counts.append(counts)
                    want_acc.append(acc)
                    want_rows.append(",".join(
                        [str(v) for v in (stream, pair_id, epoch, counts[6], *counts[:3])]
                        + ["" if math.isnan(a) else f"{a:.6f}" for a in acc]))
            assert got[stream].reshape(-1, 7).tolist() == want_counts
            # equal arrays, NaN where ground truth is empty
            np.testing.assert_array_equal(accuracies(got[stream]).reshape(-1, 3), want_acc)
            assert iteration_csv_rows(stream, 7, got[stream]) == want_rows


def scored(*pairs):
    """The tally of the epochs of one stream, one list per pair, each row
    the in-ground-truth counts of recorder a, recorder b and their union,
    and the ground truth; the recorded counts equal the in-ground-truth
    ones."""
    counts = np.zeros((len(pairs[0]), len(pairs), 7), dtype=np.int32)
    counts[..., 3:] = np.stack(pairs, axis=1)
    counts[..., :3] = counts[..., 3:6]
    return tally(counts), counts


class TestAggregate:
    def test_single_iteration(self):
        scores, _ = scored([(2, 2, 2, 2)])
        assert scores == {(0, 1.0, 1.0, 1.0): 1}
        assert aggregate(scores) == {"iterations": 1, "mean_acc_union": 1.0,
                                     "std_acc_union": 0.0, "mean_acc_single": 1.0}

    def test_two_iterations_mean(self):
        row = aggregate(scored([(1, 1, 1, 1), (1, 1, 1, 2)])[0])
        assert row["mean_acc_union"] == 0.75 and row["std_acc_union"] == 0.25

    def test_excluded_iterations_dropped(self):
        # the epoch of empty ground truth is not counted
        scores, _ = scored([(1, 1, 1, 1), (0, 0, 0, 0), (1, 1, 1, 2)])
        assert sum(scores.values()) == 2
        row = aggregate(scores)
        assert row["iterations"] == 2 and row["mean_acc_union"] == 0.75

    def test_all_excluded_gives_none(self):
        scores, _ = scored([(0, 0, 0, 0), (0, 0, 0, 0)])
        assert scores == {} and aggregate(scores) is None
        assert aggregate(Counter()) is None

    def test_pair_columns(self):
        # a pair pools the entries of its own pair, the first key field
        scores, _ = scored([(1, 1, 1, 1), (1, 1, 1, 2)], [(0, 0, 0, 0), (0, 0, 0, 0)])
        assert {key[0] for key in scores} == {0}
        assert aggregate({k: n for k, n in scores.items() if k[0] == 0})["mean_acc_union"] == 0.75
        assert aggregate({k: n for k, n in scores.items() if k[0] == 1}) is None

    def test_order_free_and_exact(self):
        # math.fsum is correctly rounded, so any order of the rows gives the
        # same bytes, and the mean is the exactly rounded one of every row
        rng = np.random.default_rng(41)
        gt = rng.integers(1, 40, 500)
        rows = np.stack([rng.integers(0, gt + 1), rng.integers(0, gt + 1)], axis=1)
        union = rng.integers(rows.max(axis=1), np.minimum(rows.sum(axis=1), gt) + 1)
        scores, counts = scored(np.column_stack([rows, union, gt]).tolist())
        whole = aggregate(scores)
        assert aggregate(tally(counts[rng.permutation(500)])) == whole
        acc = accuracies(counts).reshape(-1, 3)
        assert whole == reference_aggregate(acc)
        assert whole["mean_acc_union"] == math.fsum(acc[:, 2].tolist()) / 500
        assert whole["mean_acc_single"] == math.fsum(acc[:, :2].ravel().tolist()) / 1000

    def test_single_pools_both_recorders(self):
        row = aggregate(scored([(2, 1, 2, 2)])[0])
        assert row["mean_acc_single"] == 0.75


@st.composite
def count_stacks(draw):
    """A stream's random ``(epochs, pairs, 7)`` counts of 1-60 epochs and
    1-5 pairs that keep :func:`iteration_accuracy`'s invariants: each
    recorder's in-ground-truth count at most the ground truth, the union's
    between the larger of them and their sum (or the ground truth).  Small
    ground truths (empty ones included) repeat values often."""
    n_epochs, n_pairs = draw(st.integers(1, 60)), draw(st.integers(1, 5))
    max_gt = draw(st.sampled_from([0, 1, 2, 3, 10, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gt = rng.integers(0, max_gt + 1, (n_epochs, n_pairs))
    gt[rng.random(gt.shape) < 0.2] = 0
    within = rng.integers(0, gt[..., None] + 1, gt.shape + (2,))
    union = rng.integers(within.max(axis=-1), np.minimum(within.sum(axis=-1), gt) + 1)
    counts = np.zeros((n_epochs, n_pairs, 7), dtype=np.int32)
    counts[..., 3:5], counts[..., 5], counts[..., 6] = within, union, gt
    # recorded tags outside ground truth change no accuracy
    counts[..., :3] = counts[..., 3:6] + rng.integers(0, 3, (n_epochs, n_pairs, 1))
    return counts


# one row; one row of empty ground truth; many rows of one value, in chunks
# (an empty one among them)
@example(counts=np.array([[[1, 1, 1, 1, 1, 1, 2]]], np.int32), cuts=[], data=None)
@example(counts=np.array([[[1, 0, 1, 0, 0, 0, 0]]], np.int32), cuts=[], data=None)
@example(counts=np.tile(np.array([3, 1, 3, 3, 1, 3, 4], np.int32), (50, 3, 1)),
         cuts=[7, 7, 30], data=None)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(counts=count_stacks(), cuts=st.lists(st.integers(0, 60), max_size=5), data=st.data())
def test_merged_tallies_aggregate_as_fsum_over_rows(counts, cuts, data):
    # a stream cut into chunks, their tallies merged in any order, gives the
    # bits of math.fsum over every row's accuracies, per pair and pooled
    bounds = [0, *sorted(min(cut, len(counts)) for cut in cuts), len(counts)]
    chunks = [counts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if data is not None:
        chunks = data.draw(st.permutations(chunks))
    merged = Counter()
    for chunk in chunks:
        merged.update(tally(chunk))
    assert merged == tally(counts)
    acc = accuracies(counts)
    assert aggregate(merged) == reference_aggregate(acc)
    assert (aggregate(merged) is None) == (counts[..., 6] == 0).all()
    for pair in range(counts.shape[1]):
        entries = {key: n for key, n in merged.items() if key[0] == pair}
        assert aggregate(entries) == reference_aggregate(acc[:, pair])


def test_csv_lines_format(monkeypatch):
    # pair 2 of epoch 31: 5 in ground truth, 4 and 3 recorded within it;
    # pair 0 of epoch 32: ground truth empty
    counts = np.zeros((2, 3, 7), dtype=np.int32)
    counts[0, 2] = [4, 3, 5, 4, 3, 5, 5]
    counts[1, 0] = [1, 0, 1, 0, 0, 0, 0]
    rows = iteration_csv_rows(1, 31, counts)
    assert len(rows) == 6
    assert rows[2] == "1,2,31,5,4,3,5,0.800000,0.600000,1.000000"
    assert rows[3] == "1,0,32,0,1,0,1,,,"
    # epochs past float64's exact integers, and blocks of one epoch
    far = 2**62 + 1
    want = [row.replace(",31,", f",{far},").replace(",32,", f",{far + 1},") for row in rows]
    monkeypatch.setattr(enpsim.metrics, "FORMAT_BLOCK_ROWS", 1)
    assert iteration_csv_rows(1, far, counts) == want
    summary = dict(v_n=40, v_s_min=30.0, v_s_max=90.0, s_slots=71, iterations=1000,
                   mean_acc_union=0.9753, std_acc_union=0.01, mean_acc_single=0.91)
    assert summary_csv_line(summary) == "40,30,90,71,1000,0.975300,0.010000,0.910000"
    row = dict(pair_id=3, iterations=200, mean_acc_union=0.9753, std_acc_union=0.01,
               mean_acc_single=0.91)
    assert summary_by_pair_csv_line(row) == "3,200,0.975300,0.010000,0.910000"
