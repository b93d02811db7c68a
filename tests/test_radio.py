"""Path loss, range inversion, and capture-effect slot resolution."""

import math

import numpy as np
import pytest

from enpsim.radio import (
    COLLISION_CODE,
    RECEIVED_CODE,
    SILENCE_CODE,
    RadioParams,
    Transmission,
    Verdict,
    capture_verdicts,
    comm_range_m,
    received_power_dbm,
    resolve_slot_reception,
)

DEFAULTS = RadioParams()


def tx_at_distance(d, frame=b"\x02x", kind="reply", power=0.0, t=1000):
    """Transmission placed d meters from a receiver at the origin."""
    return Transmission(frame=frame, kind=kind, source_position=(d, 0.0),
                        tx_power_dbm=power, slot_time=t)


def distance_for_power(p_dbm, params=DEFAULTS):
    return 10 ** ((params.tx_power_dbm - params.pl0_db - p_dbm) / (10 * params.exponent))


class TestReceivedPower:
    def test_reference_distance(self):
        assert received_power_dbm(1.0, DEFAULTS) == pytest.approx(-40.0)

    def test_decade(self):
        assert received_power_dbm(10.0, DEFAULTS) == pytest.approx(-70.0)

    def test_decode_floor_distance(self):
        # analytic inversion: d* = 10**(54/30) = 63.096 m
        assert received_power_dbm(63.1, DEFAULTS) == pytest.approx(-94.0, abs=0.01)

    def test_clamps_below_reference(self):
        assert received_power_dbm(0.2, DEFAULTS) == received_power_dbm(1.0, DEFAULTS)
        # arrays work elementwise and give exactly the scalar results
        d = np.array([[0.2, 1.0, 3.7], [10.0, 63.1, 250.0]])
        shadow = np.array([[0.0, -2.5, 1.0], [4.0, 0.0, -7.25]])
        for kwargs in ({}, {"shadow_draw_db": shadow, "tx_power_dbm": 6.0}):
            got = received_power_dbm(d, DEFAULTS, **kwargs)
            s = kwargs.get("shadow_draw_db", np.zeros_like(d))
            tx = kwargs.get("tx_power_dbm")
            want = [[received_power_dbm(float(x), DEFAULTS, float(sd), tx) for x, sd in zip(*rows)]
                    for rows in zip(d, s)]
            assert got.shape == d.shape and got.tolist() == want

    def test_shadow_and_power_override(self):
        assert received_power_dbm(10.0, DEFAULTS, 5.0) == pytest.approx(-65.0)
        assert received_power_dbm(10.0, DEFAULTS, tx_power_dbm=6.0) == pytest.approx(-64.0)


class TestCommRange:
    def test_defaults(self):
        assert comm_range_m(DEFAULTS) == pytest.approx(63.09573444801933, abs=1e-9)

    def test_collapses_to_reference(self):
        p = RadioParams(sensitivity_dbm=DEFAULTS.tx_power_dbm - DEFAULTS.pl0_db)
        assert comm_range_m(p) == pytest.approx(1.0)

    def test_steeper_exponent_shrinks_range(self):
        p6 = RadioParams(exponent=6.0)
        assert comm_range_m(p6) == pytest.approx(10 ** (54 / 60), abs=1e-9)
        assert comm_range_m(p6) < comm_range_m(DEFAULTS)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = RadioParams(
                tx_power_dbm=rng.uniform(-10, 10),
                pl0_db=rng.uniform(30, 50),
                exponent=rng.uniform(2, 6),
                sensitivity_dbm=rng.uniform(-100, -80),
            )
            back = received_power_dbm(comm_range_m(p), p)
            assert back == pytest.approx(p.sensitivity_dbm, abs=1e-6)


class TestResolveSlotReception:
    def test_empty_is_silence(self):
        out = resolve_slot_reception((0, 0), [], DEFAULTS)
        assert out.verdict is Verdict.SILENCE and out.frame is None

    def test_sole_above_floor_received(self):
        out = resolve_slot_reception((0, 0), [tx_at_distance(distance_for_power(-50))], DEFAULTS)
        assert out.verdict is Verdict.RECEIVED

    def test_capture_margin_received(self):
        strong = tx_at_distance(distance_for_power(-50), frame=b"S")
        weak = tx_at_distance(distance_for_power(-60), frame=b"W")
        out = resolve_slot_reception((0, 0), [weak, strong], DEFAULTS)
        assert out.verdict is Verdict.RECEIVED
        assert out.frame == b"S"

    def test_equal_powers_collide(self):
        a = tx_at_distance(distance_for_power(-55), frame=b"A")
        b = Transmission(b"B", "reply", (-distance_for_power(-55), 0.0), 0.0, 1000)
        assert resolve_slot_reception((0, 0), [a, b], DEFAULTS).verdict is Verdict.COLLISION

    def test_below_floor_silence(self):
        out = resolve_slot_reception((0, 0), [tx_at_distance(distance_for_power(-100))], DEFAULTS)
        assert out.verdict is Verdict.SILENCE

    def test_insufficient_margin_collides(self):
        strong = tx_at_distance(distance_for_power(-50), frame=b"S")
        close = tx_at_distance(distance_for_power(-52), frame=b"C")
        assert resolve_slot_reception((0, 0), [strong, close], DEFAULTS).verdict is Verdict.COLLISION

    def test_identical_frames_merge_non_destructively(self):
        # synchronous replicas (e.g. the two recorders of one pair)
        r1 = tx_at_distance(distance_for_power(-50), frame=b"P")
        r2 = Transmission(b"P", "probe", (0.0, distance_for_power(-60)), 0.0, 1000)
        out = resolve_slot_reception((0, 0), [r1, r2], DEFAULTS)
        assert out.verdict is Verdict.RECEIVED
        assert out.frame == b"P"

    def test_replica_plus_contender(self):
        # replica pair at -50 dBm effective vs a distinct frame at -60: captured
        r1 = tx_at_distance(distance_for_power(-50), frame=b"P")
        r2 = Transmission(b"P", "probe", (0.0, distance_for_power(-55)), 0.0, 1000)
        other = tx_at_distance(distance_for_power(-60), frame=b"Q")
        out = resolve_slot_reception((0, 0), [other, r1, r2], DEFAULTS)
        assert out.verdict is Verdict.RECEIVED and out.frame == b"P"

    def test_mixed_slot_time_rejected(self):
        a = tx_at_distance(10.0, t=1000)
        b = tx_at_distance(12.0, t=2000)
        with pytest.raises(ValueError):
            resolve_slot_reception((0, 0), [a, b], DEFAULTS)

    def test_shadowing_requires_rng(self):
        p = RadioParams(shadowing_sigma_db=3.0)
        with pytest.raises(ValueError):
            resolve_slot_reception((0, 0), [tx_at_distance(10.0)], p)

    def test_zero_sigma_never_consumes_rng(self):
        rng = np.random.default_rng(5)
        state_before = rng.bit_generator.state
        resolve_slot_reception((0, 0), [tx_at_distance(10.0)], DEFAULTS, rng)
        assert rng.bit_generator.state == state_before

    def test_received_frame_is_argmax_sentinel(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = rng.integers(1, 6)
            txs = [tx_at_distance(float(d), frame=bytes([i]))
                   for i, d in enumerate(rng.uniform(2, 60, size=n))]
            out = resolve_slot_reception((0, 0), list(txs), DEFAULTS)
            if out.verdict is Verdict.RECEIVED:
                dists = [math.hypot(*t.source_position) for t in txs]
                assert out.frame == txs[int(np.argmin(dists))].frame


class TestMonotonicityProperties:
    def test_capture_monotonicity_smoke(self):
        # with the strongest signal fixed, adding a weaker interferer never
        # turns Collision into Received/Silence, and can only turn Received
        # into Collision
        rng = np.random.default_rng(21)
        for _ in range(2000):
            n = int(rng.integers(1, 5))
            dists = rng.uniform(1, 80, size=n)
            txs = [tx_at_distance(float(d), frame=bytes([i])) for i, d in enumerate(dists)]
            base = resolve_slot_reception((0, 0), txs, DEFAULTS)
            extra_d = float(rng.uniform(dists.min() * 1.01 + 0.01, 95))
            extra = tx_at_distance(extra_d, frame=b"\xff")
            more = resolve_slot_reception((0, 0), txs + [extra], DEFAULTS)
            if base.verdict is Verdict.COLLISION:
                assert more.verdict is Verdict.COLLISION
            if base.verdict is Verdict.RECEIVED:
                assert more.verdict in (Verdict.RECEIVED, Verdict.COLLISION)

    def test_power_monotonicity_smoke(self):
        # raising the strongest signal never turns Received into Collision
        rng = np.random.default_rng(22)
        for _ in range(2000):
            n = int(rng.integers(2, 5))
            dists = rng.uniform(1.5, 80, size=n)
            txs = [tx_at_distance(float(d), frame=bytes([i])) for i, d in enumerate(dists)]
            base = resolve_slot_reception((0, 0), txs, DEFAULTS)
            if base.verdict is not Verdict.RECEIVED:
                continue
            i = int(np.argmin(dists))
            boosted = txs.copy()
            boosted[i] = Transmission(txs[i].frame, "reply", txs[i].source_position,
                                      txs[i].tx_power_dbm + float(rng.uniform(0, 10)), 1000)
            assert resolve_slot_reception((0, 0), boosted, DEFAULTS).verdict is Verdict.RECEIVED


class TestBatchKernel:
    def test_matches_scalar_on_random_matrices(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            n_tx = int(rng.integers(1, 6))
            n_rx = int(rng.integers(1, 4))
            powers = rng.uniform(-110, -40, size=(n_tx, n_rx))
            codes, winners = capture_verdicts(powers, DEFAULTS)
            for j in range(n_rx):
                txs = [tx_at_distance(distance_for_power(powers[i, j]), frame=bytes([i]))
                       for i in range(n_tx)]
                out = resolve_slot_reception((0, 0), txs, DEFAULTS)
                assert out.verdict == Verdict(int(codes[j]))
                if out.verdict is Verdict.RECEIVED:
                    assert out.frame == bytes([int(winners[j])])

    def test_empty_matrix(self):
        codes, winners = capture_verdicts(np.empty((0, 3)), DEFAULTS)
        assert (codes == Verdict.SILENCE).all() and (winners == -1).all()

    def test_batch_matches_separate_calls(self):
        # coarse integer powers make ties common; n_tx = 0 is a slot of padding only
        rng = np.random.default_rng(34)
        for _ in range(100):
            batch, k_max, n_rx = (int(v) for v in rng.integers(1, 7, size=3))
            n_tx = rng.integers(0, k_max + 1, size=batch)
            n_tx[0] = 0
            stack = np.full((batch, k_max, n_rx), -np.inf)
            for b in range(batch):
                stack[b, :n_tx[b]] = rng.integers(-100, -85, size=(n_tx[b], n_rx))
            codes, winners = capture_verdicts(stack, DEFAULTS)
            assert codes.shape == winners.shape == (batch, n_rx)
            assert codes.dtype == np.int8
            for b in range(batch):
                for matrix in (stack[b], stack[b, :n_tx[b]]):  # padded and unpadded
                    want_codes, want_winners = capture_verdicts(matrix, DEFAULTS)
                    np.testing.assert_array_equal(codes[b], want_codes)
                    np.testing.assert_array_equal(winners[b], want_winners)
            assert (codes[0] == SILENCE_CODE).all() and (winners[0] == -1).all()

    @pytest.mark.parametrize("params", [DEFAULTS, RadioParams(capture_threshold_db=0.0)])
    def test_ties_and_padding_in_one_batch(self, params):
        # with a zero capture margin only the tie rule makes rx 0 of slot 0 a collision
        stack = np.array([
            [[-60.0, -60.0], [-60.0, -90.0], [-np.inf, -np.inf]],   # tie at rx 0
            [[-60.0, -np.inf], [-np.inf, -np.inf], [-np.inf, -np.inf]],  # sole signal
            [[-np.inf, -np.inf]] * 3,                                  # silent slot
        ])
        codes, winners = capture_verdicts(stack, params)
        assert codes.tolist() == [
            [COLLISION_CODE, RECEIVED_CODE],
            [RECEIVED_CODE, SILENCE_CODE],
            [SILENCE_CODE, SILENCE_CODE],
        ]
        assert winners.tolist() == [[-1, 0], [0, -1], [-1, -1]]

    def test_empty_signal_axis_keeps_batch_shape(self):
        codes, winners = capture_verdicts(np.empty((4, 2, 0, 3)), DEFAULTS)
        assert codes.shape == winners.shape == (4, 2, 3)
        assert codes.dtype == np.int8
        assert (codes == SILENCE_CODE).all() and (winners == -1).all()

    def test_codes_are_the_verdict_values(self):
        assert (SILENCE_CODE, RECEIVED_CODE, COLLISION_CODE) == tuple(Verdict)


def test_params_validation():
    with pytest.raises(ValueError):
        RadioParams(exponent=0.0)
    with pytest.raises(ValueError):
        RadioParams(pl0_db=-1.0)
    with pytest.raises(ValueError):
        RadioParams(shadowing_sigma_db=-0.1)
    with pytest.raises(ValueError):
        RadioParams(capture_threshold_db=-1.0)
    for name in ("tx_power_dbm", "probe_tx_power_dbm", "pl0_db", "sensitivity_dbm",
                 "capture_threshold_db", "shadowing_sigma_db"):
        with pytest.raises(ValueError, match=rf"radio\.{name}"):
            RadioParams(**{name: 1e308})
