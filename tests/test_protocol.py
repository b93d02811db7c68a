"""Epoch schedule and the per-epoch engine."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enpsim.protocol as protocol
from enpsim.config import parse_config
from enpsim.events import event_lines
from enpsim.harness import build_fleet
from enpsim.mobility import Fleet, RoadGeometry, Vehicle, advance, positions_at, spawn_fleet
from enpsim.protocol import TimingParams, World, build_epoch_schedule, run_epoch
from enpsim.radio import RadioParams, capture_codes, capture_verdicts
from enpsim.slot_hash import HashParams, slot_for

from reference_engine import engine_records, recorder_id, reference_run_epoch

TIMING = TimingParams()
RADIO = RadioParams()

# Frozen vrn pairs/quintuples (mid-square at seed 0):
# both hash to slot 10 at S=71
SAME_SLOT_VRNS = (4000000000023333331, 4000000000031111108)
# pairwise-distinct slots 58, 6, 24, 42, 2 at S=71
DISTINCT_SLOT_VRNS = (9876543210, 10987654321, 12098765432, 13209876543, 15432098765)


def spaced_pairs(n_pairs):
    """A road with ``n_pairs`` recorder pairs 40 m apart around x = 100."""
    return RoadGeometry(vr_pair_xs=tuple(100.0 + 40.0 * (i - (n_pairs - 1) / 2)
                                         for i in range(n_pairs)))


def assert_matches_reference(
    n_pairs, slot_count, reseed, probe_tx_power_dbm, v_n, fleet_seed, epoch_index, sigma=0.0
):
    """The engine and the scalar reference agree on every record: the same
    vrns per recorder, each first decoded in the same (epoch, round, slot).
    With shadowing on, both draw from generators seeded alike and must
    leave them in the same state.  The engine's decoded mask holds the same
    vrns per recorder."""
    geom = spaced_pairs(n_pairs)
    radio = RadioParams(probe_tx_power_dbm=probe_tx_power_dbm, shadowing_sigma_db=sigma)
    hash_params = HashParams(slot_count=slot_count, reseed_per_round=reseed)
    fleet = spawn_fleet(v_n, 30, 90, geom, np.random.default_rng(fleet_seed))
    engine_rng, reference_rng = (np.random.default_rng(fleet_seed) for _ in range(2))
    world = World(fleet, geom, radio, hash_params, TIMING, engine_rng)
    result = run_epoch(world, epoch_index)
    got = engine_records(world, result)
    want, _ = reference_run_epoch(
        fleet, geom, radio, hash_params, TIMING, epoch_index, reference_rng
    )
    assert got == want
    assert engine_rng.bit_generator.state == reference_rng.bit_generator.state
    # row 2 * pair + side of the decoded mask is that side of that pair
    decoded = result.decoded(n_pairs).reshape(2 * n_pairs, len(fleet))
    assert [set(fleet.vrn[row].tolist()) for row in decoded] == [
        set(want[recorder_id(vr)]) for vr in range(2 * n_pairs)
    ]


def assert_streams_match_reference(n_pairs, slot_count, reseed, streams, epoch_index, sigma):
    """One epoch of several streams, each a (v_n, fleet seed), in one world:
    each stream's records, decoded mask, event lines and final generator
    state equal those of the scalar reference run on that stream alone."""
    geom = spaced_pairs(n_pairs)
    radio = RadioParams(shadowing_sigma_db=sigma)
    hash_params = HashParams(slot_count=slot_count, reseed_per_round=reseed)
    fleets, rngs = stream_fleets(streams, geom), stream_rngs(seed for _, seed in streams)
    world = World(fleets, geom, radio, hash_params, TIMING, rngs, record_events=True)
    result = run_epoch(world, epoch_index)
    decoded = result.decoded(n_pairs).reshape(2 * n_pairs, -1)
    assert decoded.shape[1] == sum(v_n for v_n, _ in streams)
    for b, ((_, seed), fleet) in enumerate(zip(streams, fleets)):
        reference_rng = np.random.default_rng([seed, b])
        want, want_events = reference_run_epoch(
            fleet, geom, radio, hash_params, TIMING, epoch_index, reference_rng
        )
        assert engine_records(world, result, b) == want
        assert event_lines([result])[b] == want_events
        assert rngs[b].bit_generator.state == reference_rng.bit_generator.state
        mask = decoded[:, world.offsets[b]:world.offsets[b + 1]]
        assert [set(fleet.vrn[row].tolist()) for row in mask] == [
            set(want[recorder_id(vr)]) for vr in range(2 * n_pairs)
        ]


LATE_READ_GEOMETRY = RoadGeometry(vr_pair_xs=(80.0, 120.0), ring_length_m=2000.0)

# Four streams on LATE_READ_GEOMETRY: 25 tags, none, four parked on the
# return half ~1 km from the recorders (no probe reaches them), and 7 tags
DRAW_AHEAD_STREAMS = (
    (25, 108), (0, 1),
    Fleet([5, 6, 7, 8], [0.0, 3.0, 1990.0, 1995.0], [1.0, 2.0, 3.0, 4.0], [0.0] * 4, 2000.0),
    (7, 2),
)
DRAW_AHEAD_PASSES = (1, 2, 3)  # the epochs of each pass
ONE_PAIR_GEOMETRY = RoadGeometry(vr_pair_xs=(100.0,), ring_length_m=2000.0)
# the draw-ahead worlds: the four streams, and the first alone on both roads
DRAW_AHEAD_WORLDS = {
    "four-streams": (DRAW_AHEAD_STREAMS, LATE_READ_GEOMETRY),
    "one-stream-two-pairs": (DRAW_AHEAD_STREAMS[:1], LATE_READ_GEOMETRY),
    "one-stream-one-pair": (DRAW_AHEAD_STREAMS[:1], ONE_PAIR_GEOMETRY),
}


def stream_fleets(streams, geometry=LATE_READ_GEOMETRY):
    """The fleet of each stream: a Fleet as given, or a (v_n, fleet seed)
    spawned on ``geometry``."""
    return [s if isinstance(s, Fleet) else
            spawn_fleet(s[0], 30, 90, geometry, np.random.default_rng(s[1])) for s in streams]


def stream_rngs(seeds):
    """Stream b's generator, seeded ``[seeds[b], b]``."""
    return [np.random.default_rng([seed, b]) for b, seed in enumerate(seeds)]


@functools.cache
def scalar_reference(streams, seeds, sigma, reseed=False, geometry=LATE_READ_GEOMETRY):
    """The scalar reference over epochs 0-5 of ``streams`` (see
    :func:`stream_fleets`) on ``geometry`` at five slots, each stream
    alone, from its own fleet, advanced one period an epoch, and generator
    (see :func:`stream_rngs`).  Per epoch: its start positions (all
    streams), each stream's records and event lines, and each stream's
    generator state after it."""
    radio = RadioParams(shadowing_sigma_db=sigma)
    hash_params = HashParams(slot_count=5, reseed_per_round=reseed)
    fleets, rngs = stream_fleets(streams, geometry), stream_rngs(seeds)
    epochs = []
    for e in range(6):
        x = np.concatenate([fleet.x for fleet in fleets])
        outputs = [reference_run_epoch(fleet, geometry, radio, hash_params, TIMING, e, rng)
                   for fleet, rng in zip(fleets, rngs)]
        epochs.append((x, outputs, [rng.bit_generator.state for rng in rngs]))
        fleets = [advance(fleet, TIMING.glossy_period_us * 1e-6) for fleet in fleets]
    return epochs


def assert_epochs_match_reference(world, results, reference):
    """Each epoch's start positions, and each stream's records and event
    lines, equal those of the :func:`scalar_reference` epoch."""
    assert len(results) == len(reference)
    for result, (x, outputs, _) in zip(results, reference):
        np.testing.assert_array_equal(result.fleet_start.x, x)
        for b, (records, events) in enumerate(outputs):
            assert engine_records(world, result, b) == records
            assert event_lines([result])[b] == events


def preset_world(text):
    """A world built from config text, fleet and shadowing seeded alike."""
    cfg = parse_config(text)
    rng = np.random.default_rng(4)
    return World(build_fleet(cfg, rng), cfg.geometry, cfg.radio, cfg.hash, cfg.timing, rng)


def count_capture_calls(monkeypatch):
    """Wrap the engine's capture_verdicts; the returned list gets the power
    array and group starts (None for the probe's one group) of every call."""
    calls = []

    def counted(power, radio, starts=None):
        calls.append((power, starts))
        return capture_verdicts(power, radio, starts)

    monkeypatch.setattr(protocol, "capture_verdicts", counted)
    return calls


def pair_vrns(result):
    """The vrns recorder a and recorder b of a one-pair world decoded, read
    from the epoch's decoded mask."""
    vrn = result.fleet_start.vrn
    return tuple(set(vrn[side].tolist()) for side in result.decoded(1)[0])


def received_probes(results):
    """The rows and tags of the RECEIVED probe verdicts (those with a winning
    pair) in the traces of consecutive epoch results, round r of
    ``results[e]`` being row ``e * rounds + r``."""
    rows, tags = [], []
    for e, result in enumerate(results):
        rnd, tag, pair = result.trace[1]
        rows.append(e * result.schedule.round_count + rnd[pair >= 0])
        tags.append(tag[pair >= 0])
    return np.concatenate(rows), np.concatenate(tags)


def single_pair_geometry():
    return RoadGeometry(vr_pair_xs=(100.0,))


def static_fleet(vehicles, geometry):
    return Fleet.from_vehicles(vehicles, geometry.ring_length_m)


def spied_road_world():
    """A paper-road world recording events, with its generator behind a
    :class:`SpyRng`, and the values a pass draws for given per-round probe
    decode counts: 2P x V probe values and 2P x c reply values a round."""
    cfg = parse_config("preset = paper-road\n")
    rng = np.random.default_rng(4)
    fleet = build_fleet(cfg, rng)
    spy = SpyRng(rng, cfg.radio.shadowing_sigma_db)
    world = World(fleet, cfg.geometry, cfg.radio, cfg.hash, cfg.timing, spy, record_events=True)
    n_vr = 2 * cfg.geometry.n_pairs
    return world, spy, lambda decodes: int((n_vr * len(fleet) + n_vr * decodes).sum())


class SpyRng:
    """A generator that the engine may use through ``normal(0.0, sigma, size)``
    alone; it records every value drawn."""

    def __init__(self, rng, sigma):
        self.rng, self.sigma, self.drawn = rng, sigma, []

    def normal(self, loc, scale, size):
        assert (loc, scale) == (0.0, self.sigma)
        self.drawn.append(self.rng.normal(loc, scale, size=size))
        return self.drawn[-1]

    def __getattr__(self, name):
        raise AssertionError(f"the engine used the generator's {name}")

    def assert_drew_at_once(self, state, n):
        """Since the last call, exactly ``n`` values were drawn, equal to one
        draw of ``n`` from ``state``, and the generator is where it leaves."""
        twin = np.random.default_rng()
        twin.bit_generator.state = state
        drawn, self.drawn = np.concatenate(self.drawn) if self.drawn else np.empty(0), []
        np.testing.assert_array_equal(drawn, twin.normal(0.0, self.sigma, n))
        assert self.rng.bit_generator.state == twin.bit_generator.state


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
        a, b = pair_vrns(result)
        assert a == b == {9876543210}
        records = engine_records(world, result)
        assert {records[vr][9876543210][1] for vr in ("vr0a", "vr0b")} == {0}

    # an empty fleet, and one vehicle 200 m from the pair that no probe reaches
    @pytest.mark.parametrize("vehicles", [[], [Vehicle(1, 0.0, 2.0, 0.0)]],
                             ids=["empty-fleet", "no-decodes"])
    def test_epoch_without_decodes_has_empty_record_table(self, vehicles):
        geom = single_pair_geometry()
        fleet = static_fleet(vehicles, geom)
        hash_params = HashParams(slot_count=71)
        # at 6.5 dB shadowing too, where no round has a replier either
        for radio in (RADIO, RadioParams(shadowing_sigma_db=6.5)):
            engine_rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
            world = World(fleet, geom, radio, hash_params, TIMING, engine_rng, record_events=True)
            result = run_epoch(world, 0)
            assert result.records.shape == (0, 4) and result.records.dtype == np.int64
            decoded = result.decoded(1)
            assert decoded.shape == (1, 2, len(vehicles)) and decoded.dtype == bool
            assert not decoded.any()
            assert not any("\tREPLY\t" in line for line in result.events)
            want, want_events = reference_run_epoch(
                fleet, geom, radio, hash_params, TIMING, 0, reference_rng
            )
            assert engine_records(world, result) == want
            assert result.events == want_events
            assert engine_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_two_static_enps_distinct_slots(self):
        geom = single_pair_geometry()
        fleet = static_fleet(
            [Vehicle(DISTINCT_SLOT_VRNS[0], geom.ring_x(95.0), 2.0, 0.0),
             Vehicle(DISTINCT_SLOT_VRNS[1], geom.ring_x(105.0), 5.0, 0.0)],
            geom,
        )
        world = World(fleet, geom, RADIO, HashParams(slot_count=71), TIMING)
        result = run_epoch(world, 0)
        a, b = pair_vrns(result)
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
        a, b = pair_vrns(result)
        assert a == {v1}  # vr0a at y=-2 is nearer the y=1 vehicle
        assert b == {v2}
        assert a | b == {v1, v2}

    def test_no_phantom_records_and_slot_discipline(self):
        geom = RoadGeometry()
        rng = np.random.default_rng(12)
        fleet = spawn_fleet(30, 30, 90, geom, rng)
        world = World(fleet, geom, RADIO, HashParams(slot_count=71), TIMING, rng,
                      record_events=True)
        result = run_epoch(world, 4)
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
    @example(5, 71, False, None, 25, 100, 0, 0.0)
    @example(5, 71, False, None, 25, 101, 1, 0.0)
    @example(5, 71, False, None, 25, 102, 2, 0.0)
    @example(5, 71, False, None, 25, 103, 3, 0.0)
    @example(5, 71, False, None, 25, 104, 4, 0.0)
    @example(5, 71, False, None, 25, 105, 5, 0.0)
    # the presets' 6.5 dB shadowing: five pairs at 71 slots, one pair at 17 reseeded
    @example(5, 71, False, None, 25, 106, 6, 6.5)
    @example(1, 17, True, None, 10, 107, 7, 6.5)
    # 123 rounds of one slot, every replier of a round in it; an empty fleet
    @example(1, 1, True, None, 25, 108, 8, 6.5)
    @example(5, 17, True, None, 0, 109, 9, 6.5)
    @settings(max_examples=100, deadline=None)
    @given(
        n_pairs=st.integers(1, 5),
        slot_count=st.integers(1, 128),
        reseed=st.booleans(),
        probe_tx_power_dbm=st.none() | st.floats(-10.0, 20.0),
        v_n=st.integers(0, 25),
        fleet_seed=st.integers(0, 2**32 - 1),
        epoch_index=st.integers(0, 10_000),
        sigma=st.just(0.0) | st.floats(0.5, 10.0),
    )
    def test_matches_reference_engine_randomized(
        self, n_pairs, slot_count, reseed, probe_tx_power_dbm, v_n, fleet_seed, epoch_index,
        sigma,
    ):
        assert_matches_reference(
            n_pairs, slot_count, reseed, probe_tx_power_dbm, v_n, fleet_seed, epoch_index, sigma
        )

    @pytest.mark.parametrize("preset", ["paper-road", "paper-fig1b"])
    @pytest.mark.parametrize("n_epochs", [1, 5])
    def test_one_reply_capture_call_per_chunk(self, monkeypatch, preset, n_epochs):
        # every epoch waits for the first read, whose one pass makes one
        # capture call, for all the replies (a probe row takes only its codes)
        world = preset_world(f"preset = {preset}\n")
        calls = count_capture_calls(monkeypatch)
        results = [run_epoch(world, e) for e in range(n_epochs)]
        assert len(calls) == 0
        assert len(results[-1].records)
        assert [starts is not None for _, starts in calls] == [True]
        assert all(len(result.records) for result in results)
        assert [starts is not None for _, starts in calls] == [True]

    @pytest.mark.parametrize("max_links", [1, 50])
    @pytest.mark.parametrize("sigma", [0.0, 6.5])
    def test_reply_runs_match_reference(self, monkeypatch, max_links, sigma):
        # with a small link budget the replies are resolved in probe blocks
        # of one round, one reply capture call each: the records and generator
        # state still match the reference, for a world alone and for each of
        # three streams, and the event text matches that of one reply call
        geom = single_pair_geometry()
        radio = RadioParams(shadowing_sigma_db=sigma)
        hash_params = HashParams(slot_count=1, reseed_per_round=True)
        fleet = spawn_fleet(25, 30, 90, geom, np.random.default_rng(108))
        one_call = World(fleet, geom, radio, hash_params, TIMING, np.random.default_rng(8),
                         record_events=True)
        want_events = run_epoch(one_call, 8).events
        monkeypatch.setattr(protocol, "MAX_REPLY_LINKS", max_links)
        calls = count_capture_calls(monkeypatch)
        runs = World(fleet, geom, radio, hash_params, TIMING, np.random.default_rng(8),
                     record_events=True)
        result = run_epoch(runs, 8)
        assert result.events == want_events  # the read runs the epoch's pass
        assert [starts is not None for _, starts in calls] == [True] * result.schedule.round_count
        assert_matches_reference(1, 1, True, None, 25, 108, 8, sigma)
        assert_matches_reference(5, 17, False, None, 25, 106, 6, sigma)
        assert_streams_match_reference(1, 1, True, [(25, 108), (0, 1), (7, 2)], 8, sigma)

    @pytest.mark.parametrize("late_order", [1, -1], ids=["forward", "reverse"])
    @pytest.mark.parametrize("max_links", [None, 1, 50, "straddle", "epoch", "epoch-and-a-row"])
    @pytest.mark.parametrize("sigma", [0.0, 6.5])
    @pytest.mark.parametrize("reseed", [False, True])
    @pytest.mark.parametrize("streams", [((25, 108),), ((25, 108), (0, 1), (7, 2))],
                             ids=["one-stream", "three-streams"])
    def test_reading_late_equals_reading_each_epoch(self, monkeypatch, max_links, sigma,
                                                    reseed, streams, late_order):
        # six epochs of 41 rounds on a 2 km ring, each result read at once,
        # and again read only at the end, first to last or last to first:
        # the late read runs the 246 (epoch, round) rows of all six in probe
        # blocks, by default one; under a link budget of 1 or 50 a block is
        # one row; under five rounds' probe links, five rows, so one block
        # spans two epochs and an epoch spans several blocks; under one
        # epoch's or one epoch and a row's, 41 or 42 rows.  Every reply
        # capture call keeps the budget, or one row's probe links (which a
        # block of one row may exceed it by), and both reads give the same
        # records, event text and generator states, each epoch those of the
        # scalar reference
        rounds, n_tags = build_epoch_schedule(TIMING, 5, 0).round_count, sum(v for v, _ in streams)
        rows = {"straddle": 5, "epoch": rounds, "epoch-and-a-row": rounds + 1}.get(max_links)
        if max_links is not None:
            monkeypatch.setattr(protocol, "MAX_REPLY_LINKS",
                                max_links if rows is None else rows * 4 * n_tags)
        fleets, seeds = stream_fleets(streams), tuple(seed for _, seed in streams)
        calls = count_capture_calls(monkeypatch)

        def run(read_each):
            rngs = stream_rngs(seeds)
            world = World(fleets, LATE_READ_GEOMETRY, RadioParams(shadowing_sigma_db=sigma),
                          HashParams(slot_count=5, reseed_per_round=reseed), TIMING, rngs,
                          record_events=True)
            results = []
            for e in range(6):
                results.append(run_epoch(world, e))
                if read_each:
                    results[-1].records
            got = [(r.records.tolist(), event_lines([r]))
                   for r in results[::late_order]][::late_order]
            return got, [rng.bit_generator.state for rng in rngs], world, results

        want, want_states, _, _ = run(read_each=True)
        got, got_states, world, results = run(read_each=False)
        assert got == want and got_states == want_states
        budget = max(protocol.MAX_REPLY_LINKS, 4 * n_tags)
        assert max(power.size for power, starts in calls if starts is not None) <= budget
        assert sum(len(records) for records, _ in got) > 6
        reference = scalar_reference(streams, seeds, sigma, reseed)
        assert_epochs_match_reference(world, results, reference)
        assert reference[-1][2] == got_states

    @pytest.mark.parametrize("draw_ahead", [0, None, 2**20])
    @pytest.mark.parametrize("one_row", [False, True], ids=["default-blocks", "one-row-blocks"])
    @pytest.mark.parametrize("streams, geometry", DRAW_AHEAD_WORLDS.values(),
                             ids=DRAW_AHEAD_WORLDS.keys())
    def test_draw_ahead_leaves_generators_where_exact_draws_do(self, monkeypatch, draw_ahead,
                                                               one_row, streams, geometry):
        # passes of one, two and three epochs at 6.5 dB, of the
        # DRAW_AHEAD_STREAMS streams, one empty and one that never decodes a
        # probe, or of the first alone on two pairs or on one (a world of one
        # stream has rows of its own): with blocks of one row or by default,
        # drawing each take alone, by default or a block's whole probe draws
        # at once, the records, event text and each generator's state after
        # every pass are those of the default run and of the scalar reference
        fleets = stream_fleets(streams, geometry)

        def run():
            rngs = stream_rngs([3] * len(streams))
            world = World(fleets, geometry, RadioParams(shadowing_sigma_db=6.5),
                          HashParams(slot_count=5), TIMING, rngs, record_events=True)
            results, states = [], []
            for n_epochs in DRAW_AHEAD_PASSES:
                for _ in range(n_epochs):
                    results.append(run_epoch(world, len(results)))
                results[-1].records  # runs the pass
                states.append([rng.bit_generator.state for rng in rngs])
            return world, results, states

        _, want, want_states = run()
        if one_row:  # one row's probe links
            monkeypatch.setattr(protocol, "MAX_REPLY_LINKS",
                                2 * geometry.n_pairs * sum(map(len, fleets)))
        if draw_ahead is not None:
            monkeypatch.setattr(protocol, "DRAW_AHEAD", draw_ahead)
        world, got, got_states = run()
        assert got_states == want_states
        reference = scalar_reference(streams, (3,) * len(streams), 6.5, geometry=geometry)
        assert got_states == [reference[e][2] for e in np.cumsum(DRAW_AHEAD_PASSES) - 1]
        for result, wanted in zip(got, want, strict=True):
            np.testing.assert_array_equal(result.records, wanted.records)
            assert event_lines([result]) == event_lines([wanted])
        assert_epochs_match_reference(world, got, reference)
        # the parked stream (tags 25-28, of the four streams only) hears no
        # probe, so takes no reply shadowing; the others decode probes and
        # are recorded
        assert not any(np.isin(result.trace[1][1], range(25, 29)).any() for result in got)
        assert len(received_probes(got)[1]) > 30 and sum(len(r.records) for r in got) > 10

    def test_many_repliers_split_reply_calls(self, monkeypatch):
        # 2,495 one-slot rounds of 100 vehicles hold more replier links than
        # MAX_REPLY_LINKS: the replies take one capture call per probe block
        # of 262 rounds (100 vehicles x 10 recorders each), each within the
        # bound
        world = preset_world("preset = paper-fig1b\ntiming.glossy_period_us = 10000000\n"
                             "hash.slot_count = 1\nfleet.v_n = 100\n")
        calls = count_capture_calls(monkeypatch)
        result = run_epoch(world, 0)
        assert len(result.records)  # the read runs the epoch's pass
        links = [power.size for power, starts in calls if starts is not None]
        rounds, block = result.schedule.round_count, protocol.MAX_REPLY_LINKS // (100 * 10)
        assert len(links) == -(-rounds // block) > 1
        assert max(links) <= protocol.MAX_REPLY_LINKS
        assert len(calls) == len(links)  # a probe row takes only its codes

    @pytest.mark.parametrize("streams", [((25, 108),), ((25, 108), (0, 1), (7, 2))],
                             ids=["one-stream", "three-streams"])
    def test_trace_winners_are_each_rows_capture_winners(self, monkeypatch, streams):
        # three pairs 40 m apart at 6.5 dB, three epochs in one pass: the
        # trace, whose winners a pass finds once a block, holds each probe
        # row's codes not silence and, for each, the winning pair a
        # capture_verdicts call on the row's merged powers gives (-1 for a
        # collision)
        rows = []

        def spied(power, radio, out):
            rows.append(capture_verdicts(power, radio))
            return capture_codes(power, radio, out)

        monkeypatch.setattr(protocol, "capture_codes", spied)
        geom = spaced_pairs(3)
        world = World(stream_fleets(streams, geom), geom, RadioParams(shadowing_sigma_db=6.5),
                      HashParams(slot_count=5), TIMING, stream_rngs(s for _, s in streams),
                      record_events=True)
        results = [run_epoch(world, e) for e in range(3)]
        results[-1].records  # runs the pass
        rounds = results[0].schedule.round_count
        codes, winners = map(np.stack, zip(*rows))
        assert codes.shape == winners.shape == (3 * rounds, len(world.fleet))
        for e, result in enumerate(results):
            rnd, tag, pair = result.trace[1]
            row, want_tag = np.nonzero(codes[e * rounds:(e + 1) * rounds])
            np.testing.assert_array_equal(rnd, row)
            np.testing.assert_array_equal(tag, want_tag)
            np.testing.assert_array_equal(pair, winners[e * rounds + rnd, tag])
        assert set(np.concatenate([r.trace[1][2] for r in results]).tolist()) == {-1, 0, 1, 2}

    @pytest.mark.parametrize("record_events", [False, True])
    @pytest.mark.parametrize("reseed", [False, True])
    def test_sparse_long_epoch_holds_no_round_by_tag_floats(self, reseed, record_events):
        # 2,495 one-slot rounds of 2,000 tags on a 100 km ring, a few of them
        # in range of the one pair: an epoch, with events or without, may
        # hold less than one bit per (round, tag) beyond four float arrays
        # of MAX_REPLY_LINKS links (a probe block and its replies), so one
        # float, slot or verdict per (round, tag), 5-40 MB here, cannot fit;
        # a trace of every (round, tag) verdict peaked at 50.5 MB
        geom = RoadGeometry(vr_pair_xs=(100.0,), ring_length_m=100_000.0)
        fleet = spawn_fleet(2000, 30, 90, geom, np.random.default_rng(6))
        hash_params = HashParams(slot_count=1, reseed_per_round=reseed)
        world = World(fleet, geom, RADIO, hash_params, TimingParams(glossy_period_us=10_000_000),
                      record_events=record_events)
        tracemalloc.start()
        try:
            result = run_epoch(world, 0)
            decoded = len(result.records)  # resolves the replies still queued
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = result.schedule.round_count * len(fleet)
        assert cells == 2495 * 2000 and decoded
        assert peak < cells // 8 + 4 * 8 * protocol.MAX_REPLY_LINKS

    def test_dense_epoch_holds_one_probe_block_at_a_time(self, monkeypatch):
        # 2,495 one-slot rounds of 500 tags on a 201 m ring in range of the
        # one pair, more than half replying each round: under a budget of
        # 2**14 links the pass holds one probe block and its repliers at a
        # time and peaks below 32 float arrays of the budget; holding
        # every replier of the pass (711,236 here) took 40 MB
        monkeypatch.setattr(protocol, "MAX_REPLY_LINKS", 2**14)
        world = preset_world("preset = paper-road\ngeometry.segment_length_m = 200\n"
                             "geometry.ring_length_m = 201\nhash.slot_count = 1\n"
                             "timing.glossy_period_us = 10000000\nfleet.v_n = 500\n")
        tracemalloc.start()
        try:
            result = run_epoch(world, 0)
            decoded = len(result.records)  # the read runs the epoch's pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.schedule.round_count == 2495 and decoded
        assert peak < 32 * 8 * protocol.MAX_REPLY_LINKS

    def test_unread_silent_rounds_hold_no_queue_entries(self):
        # four unread epochs of 2,495 one-slot rounds of one tag 50 km from
        # the only pair: each waits on the world as its result alone, with
        # nothing held per round (620 KB an epoch), until the read's pass
        geom = RoadGeometry(vr_pair_xs=(100.0,), ring_length_m=100_000.0)
        fleet = static_fleet([Vehicle(vrn=7, x=0.0, y=3.0, speed_mps=0.0)], geom)
        world = World(fleet, geom, RADIO, HashParams(slot_count=1),
                      TimingParams(glossy_period_us=10_000_000))
        tracemalloc.start()
        try:
            results = [run_epoch(world, e) for e in range(4)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert results[0].schedule.round_count == 2495
        assert held < 4 * 4096
        assert not any(len(result.records) for result in results)

    def test_read_epochs_hold_four_int64_a_first_decode(self):
        # 40 unread paper-fig1b epochs of 400 tags and 69 rounds, then read
        # (102,091 first decodes): their records are C-contiguous (n, 4)
        # slices of one table, so the results, snapshots included, hold at
        # most 36 B a first decode; a fifth (epoch) column held 41.6 B
        world = preset_world("preset = paper-fig1b\ntiming.glossy_period_us = 10000000\n"
                             "fleet.v_n = 400\n")
        tracemalloc.start()
        try:
            results = [run_epoch(world, e) for e in range(40)]
            decodes = sum(len(result.records) for result in results)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert results[0].schedule.round_count == 69 and decodes > 100_000
        assert held <= 36 * decodes
        assert all(r.records.shape[1] == 4 and r.records.flags.c_contiguous for r in results)

    def test_crowded_slot_reply_memory_follows_live_links(self, monkeypatch):
        # 600 static tags in range of one pair over 19 rounds of 255 slots,
        # 300 of them hashed to one slot: a (slots x contenders x recorders)
        # tensor padded to that slot would hold about 3,500 x 300 x 2
        # floats, 17 MB (53 MB peak with its temporaries); the epoch's pass
        # holds arrays of the 22,800 live reply links only, and peaks below
        # 24 float arrays of them
        geom = single_pair_geometry()
        hash_params = HashParams(slot_count=255)
        rng = np.random.default_rng(5)
        vrns = rng.integers(1, 2**62, size=200_000, dtype=np.uint64)
        slots = slot_for(vrns, hash_params)
        vrn = np.concatenate((vrns[slots == 7][:300], vrns[slots != 7][:300]))
        fleet = Fleet(vrn, geom.ring_x(rng.uniform(80.0, 120.0, size=600)),
                      rng.uniform(0.0, 7.0, size=600), np.zeros(600), geom.ring_length_m)
        world = World(fleet, geom, RADIO, hash_params, TimingParams(glossy_period_us=10_000_000))
        result = run_epoch(world, 0)
        links = []  # of each reply capture call

        def counted(power, radio, starts=None):
            if starts is not None:
                links.append(power.size)
            return capture_verdicts(power, radio, starts)

        monkeypatch.setattr(protocol, "capture_verdicts", counted)
        tracemalloc.start()
        try:
            decoded = len(result.records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        links, = links  # every replier's links, in one call
        assert result.schedule.round_count == 19 and links == 19 * 600 * 2
        assert (slot_for(vrn, hash_params) == 7).sum() == 300 and decoded
        assert peak < 24 * 8 * links

    @pytest.mark.parametrize("block_rounds", [1, 2])
    @pytest.mark.parametrize("sigma", [0.0, 6.5])
    @pytest.mark.parametrize("n_pairs, streams", [
        (1, [(25, 108)]),
        (2, [(25, 108)]),
        (1, [(25, 108), (0, 1), (7, 2)]),
        (2, [(12, 3), (20, 4)]),
    ])
    def test_probe_blocks_match_one_block(self, monkeypatch, block_rounds, sigma, n_pairs,
                                          streams):
        # the zero-shadow probe powers of a block of rounds come from one
        # positions call over the epoch-start snapshot of each of its rows;
        # blocks of one or two rounds (a MAX_REPLY_LINKS of that many rounds'
        # links, which splits the replies too) give the records, event text
        # and generator states of one block an epoch, and the reference records
        geom = spaced_pairs(n_pairs)
        radio = RadioParams(shadowing_sigma_db=sigma)
        hash_params = HashParams(slot_count=3, reseed_per_round=True)
        fleets = stream_fleets(streams, geom)

        def epoch():
            rngs = stream_rngs(seed for _, seed in streams)
            world = World(fleets, geom, radio, hash_params, TIMING, rngs, record_events=True)
            result = run_epoch(world, 8)
            result.records  # runs the epoch's pass if it still waits
            return result, [rng.bit_generator.state for rng in rngs]

        want, want_states = epoch()
        assert want.schedule.round_count > 2 * block_rounds
        n_links = 2 * n_pairs * sum(v_n for v_n, _ in streams)
        monkeypatch.setattr(protocol, "MAX_REPLY_LINKS", block_rounds * n_links)
        blocks = []

        def spied(fleet, dt, starts):
            blocks.append(len(dt))
            assert (starts == want.fleet_start.x).all() and len(starts) == len(dt)
            return positions_at(fleet, dt, starts)

        monkeypatch.setattr(protocol, "positions_at", spied)
        got, got_states = epoch()
        rounds = want.schedule.round_count
        assert blocks == [min(block_rounds, rounds - r) for r in range(0, rounds, block_rounds)]
        np.testing.assert_array_equal(got.records, want.records)
        for b in range(len(streams)):
            assert event_lines([got])[b] == event_lines([want])[b]
        assert got_states == want_states
        assert_streams_match_reference(n_pairs, 3, True, streams, 8, sigma)

    # an empty stream between two others; two streams of one fleet (the
    # same VRNs) under different generators
    @example(2, 71, False, [(12, 1), (0, 2), (25, 3)], 5, 6.5)
    @example(1, 17, True, [(10, 4), (10, 4)], 0, 6.5)
    @example(5, 1, True, [(0, 5)], 3, 0.0)
    @settings(max_examples=60, deadline=None)
    @given(
        n_pairs=st.integers(1, 5),
        slot_count=st.integers(1, 128),
        reseed=st.booleans(),
        streams=st.lists(
            st.tuples(st.integers(0, 25), st.integers(0, 3)), min_size=1, max_size=4
        ),
        epoch_index=st.integers(0, 10_000),
        sigma=st.just(0.0) | st.floats(0.5, 10.0),
    )
    def test_streams_match_reference_engine_alone(
        self, n_pairs, slot_count, reseed, streams, epoch_index, sigma
    ):
        assert_streams_match_reference(n_pairs, slot_count, reseed, streams, epoch_index, sigma)

    def test_stream_event_text_matches_a_world_alone(self):
        # each stream's event lines equal those of a world of it alone, tags
        # named by their index in their own stream
        geom = RoadGeometry()
        radio = RadioParams(shadowing_sigma_db=6.5)
        hash_params = HashParams(slot_count=71)
        fleets = [spawn_fleet(n, 30, 90, geom, np.random.default_rng(n)) for n in (30, 0, 12)]
        world = World(fleets, geom, radio, hash_params, TIMING,
                      [np.random.default_rng(b) for b in range(3)], record_events=True)
        result = run_epoch(world, 2)
        for b, fleet in enumerate(fleets):
            alone = World(fleet, geom, radio, hash_params, TIMING, np.random.default_rng(b),
                          record_events=True)
            want = run_epoch(alone, 2).events
            assert event_lines([result])[b] == want

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
                vrn = rng.integers(0, 2**64, dtype=np.uint64)
                slot = int(slot_for(vrn, hash_params))
                if slot in used:
                    continue
                used.add(slot)
                vehicles.append(
                    Vehicle(int(vrn), geom.ring_x(float(rng.uniform(85, 115))),
                            float(rng.uniform(0.5, 6.5)), 0.0)
                )
            fleet = static_fleet(vehicles, geom)
            world = World(fleet, geom, RADIO, hash_params, TIMING)
            result = run_epoch(world, 0)
            a, b = pair_vrns(result)
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

    def test_each_round_draws_its_probes_then_its_replies(self):
        # paper-road, each epoch read at once: each pass draws, through
        # normal alone, 2P x V probe values a round and 2P x c reply values
        # for its c probe decodes, and they equal one draw of their total
        world, spy, n_values = spied_road_world()
        decodes = []
        for e in range(16):  # round 6 of epoch 13 has no decodes
            state = spy.rng.bit_generator.state
            result = run_epoch(world, e)
            result.records
            c = np.bincount(received_probes([result])[0], minlength=result.schedule.round_count)
            spy.assert_drew_at_once(state, n_values(c))
            decodes += c.tolist()
        assert 0 in decodes and max(decodes) > 1

    def test_one_pass_draws_each_round_in_epoch_order(self):
        # 16 unread paper-road epochs draw nothing; once read, they have drawn
        # the values of epochs run one by one, as one draw of their total, and
        # every one has records
        world, spy, n_values = spied_road_world()
        state = spy.rng.bit_generator.state
        results = [run_epoch(world, e) for e in range(16)]
        assert spy.drawn == []
        results[0].records
        rows = received_probes(results)[0]
        spy.assert_drew_at_once(state, n_values(np.bincount(
            rows, minlength=16 * results[0].schedule.round_count)))
        assert all(len(result.records) for result in results)

    def test_shadowing_without_rng_rejected(self):
        geom = single_pair_geometry()
        fleet = static_fleet([Vehicle(1, 10.0, 2.0, 0.0)], geom)
        with pytest.raises(ValueError):
            World(fleet, geom, RadioParams(shadowing_sigma_db=2.0),
                  HashParams(slot_count=71), TIMING)
        with pytest.raises(ValueError):  # one stream of two without a generator
            World([fleet, fleet], geom, RadioParams(shadowing_sigma_db=2.0),
                  HashParams(slot_count=71), TIMING, [np.random.default_rng(1), None])

    def test_fleet_off_the_geometry_ring_rejected(self):
        # a fleet on an 800 m ring, alone or as one stream of two, beside a
        # 400 m geometry: the world would wrap it at 400 m
        geom = single_pair_geometry()
        fleet = static_fleet([Vehicle(1, 10.0, 2.0, 0.0)], geom)
        wide = Fleet.from_vehicles([Vehicle(2, 500.0, 2.0, 0.0)], 2 * geom.ring_length_m)
        with pytest.raises(ValueError, match="ring"):
            World(wide, geom, RADIO, HashParams(slot_count=71), TIMING)
        with pytest.raises(ValueError, match="ring"):
            World([fleet, wide], geom, RADIO, HashParams(slot_count=71), TIMING)

    def test_one_rng_per_stream_required(self):
        geom = single_pair_geometry()
        fleet = static_fleet([Vehicle(1, 10.0, 2.0, 0.0)], geom)
        with pytest.raises(ValueError):
            World([fleet, fleet], geom, RADIO, HashParams(slot_count=71), TIMING,
                  [np.random.default_rng(1)])

    def test_lone_generator_for_a_sequence_of_fleets_rejected(self):
        geom = single_pair_geometry()
        fleet = static_fleet([Vehicle(1, 10.0, 2.0, 0.0)], geom)
        with pytest.raises(ValueError, match="a sequence of fleets a sequence of rngs"):
            World([fleet, fleet], geom, RADIO, HashParams(slot_count=71), TIMING,
                  np.random.default_rng(1))

    def test_world_without_fleets_rejected(self):
        with pytest.raises(ValueError, match="at least one fleet"):
            World([], single_pair_geometry(), RADIO, HashParams(slot_count=71), TIMING)
