"""Epoch schedule and the per-epoch engine."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enpsim.mobility import Fleet, RoadGeometry, Vehicle, spawn_fleet
from enpsim.protocol import TimingParams, World, build_epoch_schedule, run_epoch
from enpsim.radio import RadioParams
from enpsim.slot_hash import HashParams, mid_square_slot

from reference_engine import engine_records, reference_run_epoch

TIMING = TimingParams()
RADIO = RadioParams()

# Frozen vrn pairs/quintuples (mid-square at seed 0):
# both hash to slot 10 at S=71
SAME_SLOT_VRNS = (4000000000023333331, 4000000000031111108)
# pairwise-distinct slots 58, 6, 24, 42, 2 at S=71
DISTINCT_SLOT_VRNS = (9876543210, 10987654321, 12098765432, 13209876543, 15432098765)


def assert_matches_reference(
    n_pairs, slot_count, reseed, probe_tx_power_dbm, v_n, fleet_seed, epoch_index
):
    """The engine and the scalar reference agree on every record: the same
    vrns per recorder, each first decoded in the same (epoch, round, slot).
    Pairs sit 40 m apart around road x = 100."""
    geom = RoadGeometry(vr_pair_xs=tuple(100.0 + 40.0 * (i - (n_pairs - 1) / 2)
                                         for i in range(n_pairs)))
    radio = RadioParams(probe_tx_power_dbm=probe_tx_power_dbm)
    hash_params = HashParams(slot_count=slot_count, reseed_per_round=reseed)
    fleet = spawn_fleet(v_n, 30, 90, geom, np.random.default_rng(fleet_seed))
    world = World(fleet, geom, radio, hash_params, TIMING)
    result = run_epoch(world, epoch_index)
    got = engine_records(world, result)
    assert got == reference_run_epoch(fleet, geom, radio, hash_params, TIMING, epoch_index)


def single_pair_geometry():
    return RoadGeometry(vr_pair_xs=(100.0,))


def static_fleet(vehicles, geometry):
    return Fleet.from_vehicles(vehicles, geometry.ring_length_m)


class TestSchedule:
    def test_round_count_s71(self):
        sched = build_epoch_schedule(TIMING, 71, 0)
        assert sched.round_len_us == 144_000
        assert sched.round_count == 3

    def test_round_count_s17(self):
        sched = build_epoch_schedule(TIMING, 17, 0)
        assert sched.round_len_us == 36_000
        assert sched.round_count == 13

    def test_slot_start_arithmetic(self):
        sched = build_epoch_schedule(TIMING, 71, 0)
        t0 = sched.round_start_us(1)
        assert sched.slot_start_us(1, 5) == t0 + 2_000 + 5 * 2_000

    def test_rounds_fit_period_after_sync(self):
        sched = build_epoch_schedule(TIMING, 71, 3)
        assert sched.round_start_us(0) == sched.epoch_start_us + 20_000
        last_end = sched.slot_start_us(sched.round_count - 1, 70) + 2_000
        assert last_end <= sched.epoch_start_us + TIMING.glossy_period_us

    def test_epoch_indexing(self):
        sched = build_epoch_schedule(TIMING, 71, 7)
        assert sched.epoch_start_us == 7 * 512_000

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            build_epoch_schedule(TimingParams(slot_len_us=5_000), 120, 0)

    def test_sample_times_cover_all_events(self):
        sched = build_epoch_schedule(TIMING, 17, 5)
        times = sched.sample_times_us()
        assert len(times) == 13 * 18
        assert (np.diff(times) > 0).all()
        expected = []
        for r in range(sched.round_count):
            expected.append(sched.round_start_us(r))
            expected.extend(sched.slot_start_us(r, s) for s in range(sched.slot_count))
        assert times.dtype == np.int64
        np.testing.assert_array_equal(times, np.array(expected, dtype=np.int64))

    def test_timing_validation(self):
        with pytest.raises(ValueError):
            TimingParams(probe_len_us=0)
        with pytest.raises(ValueError):
            TimingParams(sync_window_us=600_000)


class TestRunEpoch:
    # at y = 3.5 the tag is 5.5 m from both recorders (y = -2 and y = 9), so
    # the pair's two probe replicas arrive bit-equal in power: they must
    # combine into one signal, not collide as a tie
    @pytest.mark.parametrize("y", [2.0, 3.5])
    def test_single_static_enp_recorded_by_both(self, y):
        geom = single_pair_geometry()
        fleet = static_fleet([Vehicle(9876543210, geom.ring_x(100.0), y, 0.0)], geom)
        world = World(fleet, geom, RADIO, HashParams(slot_count=71), TIMING)
        result = run_epoch(world, 0)
        a, b = result.pair_record_sets(0)
        assert a == b == {9876543210}
        records = engine_records(world, result)
        assert {records[vr][9876543210][1] for vr in ("vr0a", "vr0b")} == {0}

    # an empty fleet, and one vehicle 200 m from the pair that no probe reaches
    @pytest.mark.parametrize("vehicles", [[], [Vehicle(1, 0.0, 2.0, 0.0)]],
                             ids=["empty-fleet", "no-decodes"])
    def test_epoch_without_decodes_has_empty_record_table(self, vehicles):
        geom = single_pair_geometry()
        world = World(static_fleet(vehicles, geom), geom, RADIO, HashParams(slot_count=71), TIMING)
        result = run_epoch(world, 0)
        assert result.records.shape == (0, 4) and result.records.dtype == np.int64
        assert result.pair_record_sets(0) == (set(), set())

    def test_two_static_enps_distinct_slots(self):
        geom = single_pair_geometry()
        fleet = static_fleet(
            [Vehicle(DISTINCT_SLOT_VRNS[0], geom.ring_x(95.0), 2.0, 0.0),
             Vehicle(DISTINCT_SLOT_VRNS[1], geom.ring_x(105.0), 5.0, 0.0)],
            geom,
        )
        world = World(fleet, geom, RADIO, HashParams(slot_count=71), TIMING)
        result = run_epoch(world, 0)
        a, b = result.pair_record_sets(0)
        assert a == b == set(DISTINCT_SLOT_VRNS[:2])

    def test_dual_vr_union_on_same_slot_clash(self):
        # two vehicles hash to the same slot; lateral asymmetry lets each VR
        # capture the nearer one, so the union covers both
        geom = single_pair_geometry()
        v1, v2 = SAME_SLOT_VRNS
        fleet = static_fleet(
            [Vehicle(v1, geom.ring_x(100.0), 1.0, 0.0),
             Vehicle(v2, geom.ring_x(100.0), 6.0, 0.0)],
            geom,
        )
        world = World(fleet, geom, RADIO, HashParams(slot_count=71), TIMING)
        result = run_epoch(world, 0)
        a, b = result.pair_record_sets(0)
        assert a == {v1}  # vr0a at y=-2 is nearer the y=1 vehicle
        assert b == {v2}
        assert a | b == {v1, v2}

    def test_no_phantom_records_and_slot_discipline(self):
        geom = RoadGeometry()
        rng = np.random.default_rng(12)
        fleet = spawn_fleet(30, 30, 90, geom, rng)
        world = World(fleet, geom, RADIO, HashParams(slot_count=71), TIMING, rng)
        result = run_epoch(world, 4, record_events=True)
        sched = result.schedule
        fleet_vrns = {int(v) for v in fleet.vrn}
        transmitted = set()  # (round, slot, vrn) of actual replies
        replies_per_round = {}
        for line in result.events:
            t, event, node, pair, epoch, rnd, slot, vrn = line.split("\t")
            t = int(t)
            assert int(epoch) == 4
            assert t >= sched.epoch_start_us + sched.sync_window_us  # sync window silent
            if event == "PROBE":
                assert t == sched.round_start_us(int(rnd))
            elif event == "REPLY":
                assert t == sched.slot_start_us(int(rnd), int(slot))
                transmitted.add((int(rnd), int(slot), int(vrn)))
                key = (int(rnd), node)
                assert key not in replies_per_round  # at most one tx per round
                replies_per_round[key] = True
        for records in engine_records(world, result).values():
            for vrn, (epoch, rnd, slot) in records.items():
                assert vrn in fleet_vrns
                assert (rnd, slot, vrn) in transmitted
                assert epoch == 4

    # the six formerly fixed fleets (five pairs, S = 71, fleet seed 100 + epoch)
    @example(5, 71, False, None, 25, 100, 0)
    @example(5, 71, False, None, 25, 101, 1)
    @example(5, 71, False, None, 25, 102, 2)
    @example(5, 71, False, None, 25, 103, 3)
    @example(5, 71, False, None, 25, 104, 4)
    @example(5, 71, False, None, 25, 105, 5)
    @settings(max_examples=100, deadline=None)
    @given(
        n_pairs=st.integers(1, 5),
        slot_count=st.integers(1, 128),
        reseed=st.booleans(),
        probe_tx_power_dbm=st.none() | st.floats(-10.0, 20.0),
        v_n=st.integers(0, 25),
        fleet_seed=st.integers(0, 2**32 - 1),
        epoch_index=st.integers(0, 10_000),
    )
    def test_matches_reference_engine_randomized(
        self, n_pairs, slot_count, reseed, probe_tx_power_dbm, v_n, fleet_seed, epoch_index
    ):
        assert_matches_reference(
            n_pairs, slot_count, reseed, probe_tx_power_dbm, v_n, fleet_seed, epoch_index
        )

    def test_matches_reference_engine_reseed(self):
        assert_matches_reference(1, 17, True, None, 12, 55, 9)

    def test_collision_free_completeness_property(self):
        # static fleets with injective slots, in range of a single pair:
        # every vehicle recorded by both recorders in round 0
        geom = single_pair_geometry()
        hash_params = HashParams(slot_count=71)
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            vehicles, used = [], set()
            while len(vehicles) < n:
                vrn = int(rng.integers(0, 2**64, dtype=np.uint64))
                slot = mid_square_slot(vrn, hash_params)
                if slot in used:
                    continue
                used.add(slot)
                vehicles.append(
                    Vehicle(vrn, geom.ring_x(float(rng.uniform(85, 115))),
                            float(rng.uniform(0.5, 6.5)), 0.0)
                )
            fleet = static_fleet(vehicles, geom)
            world = World(fleet, geom, RADIO, hash_params, TIMING)
            result = run_epoch(world, 0)
            a, b = result.pair_record_sets(0)
            want = {v.vrn for v in vehicles}
            assert a == b == want
            assert all(rnd == 0 for _, rnd, _ in engine_records(world, result)["vr0a"].values())

    def test_shadowed_run_is_seed_deterministic(self):
        geom = RoadGeometry()
        radio = RadioParams(shadowing_sigma_db=3.0)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(2024)
            fleet = spawn_fleet(20, 30, 90, geom, rng)
            world = World(fleet, geom, radio, HashParams(slot_count=71), TIMING, rng)
            result = run_epoch(world, 0)
            runs.append(engine_records(world, result))
        assert runs[0] == runs[1]

    def test_world_advances_fleet_by_one_period(self):
        geom = single_pair_geometry()
        fleet = static_fleet([Vehicle(1, 10.0, 2.0, 10.0)], geom)
        world = World(fleet, geom, RADIO, HashParams(slot_count=71), TIMING)
        run_epoch(world, 0)
        assert world.fleet.x[0] == pytest.approx((10.0 + 10.0 * 0.512) % 400.0)

    def test_zero_sigma_never_consumes_rng(self):
        # with shadowing off a generator may be passed but is never drawn
        # from, and the records equal those of a world without one
        geom = RoadGeometry()
        fleet = spawn_fleet(30, 30, 90, geom, np.random.default_rng(12))
        rng = np.random.default_rng(5)
        state_before = rng.bit_generator.state
        with_rng = run_epoch(World(fleet, geom, RADIO, HashParams(slot_count=71), TIMING, rng), 3)
        without = run_epoch(World(fleet, geom, RADIO, HashParams(slot_count=71), TIMING), 3)
        assert rng.bit_generator.state == state_before
        np.testing.assert_array_equal(with_rng.records, without.records)
        assert len(with_rng.records)

    def test_shadowing_without_rng_rejected(self):
        geom = single_pair_geometry()
        fleet = static_fleet([Vehicle(1, 10.0, 2.0, 0.0)], geom)
        with pytest.raises(ValueError):
            World(fleet, geom, RadioParams(shadowing_sigma_db=2.0),
                  HashParams(slot_count=71), TIMING)
