"""Path loss, range inversion, and capture-effect slot resolution."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enpsim.radio import (
    COLLISION_CODE,
    RECEIVED_CODE,
    SILENCE_CODE,
    RadioParams,
    Verdict,
    capture_codes,
    capture_verdicts,
    comm_range_m,
    received_power_dbm,
)

DEFAULTS = RadioParams()


def distance_for_power(p_dbm, params=DEFAULTS):
    return 10 ** ((params.tx_power_dbm - params.pl0_db - p_dbm) / (10 * params.exponent))


def scalar_capture(powers_dbm, params):
    """The capture rule at one receiver, one signal at a time in plain floats:
    (verdict, winning index or -1).  -inf entries are absent signals."""
    present = [(p, i) for i, p in enumerate(powers_dbm) if p != -math.inf]
    if not present:
        return Verdict.SILENCE, -1
    best, winner = max(present)
    if best < params.sensitivity_dbm:
        return Verdict.SILENCE, -1
    if sum(p == best for p, _ in present) > 1:
        return Verdict.COLLISION, -1
    interference_mw = sum(10 ** (p / 10) for p, i in present if i != winner)
    if interference_mw > 0 and best - 10 * math.log10(interference_mw) < params.capture_threshold_db:
        return Verdict.COLLISION, -1
    return Verdict.RECEIVED, winner


def flat_groups(stack):
    """A -inf padded (groups x contenders x receivers) stack as the flat rule
    takes it: its rows holding a signal (the first row of a group without
    any), in order, and the first row of each group."""
    live = np.isfinite(stack).any(axis=-1)
    live[..., 0] |= ~live.any(axis=-1)
    counts = live.sum(axis=-1).ravel()
    return stack[live], np.cumsum(counts) - counts


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
        for kwargs in ({}, {"tx_power_dbm": 6.0}):
            got = received_power_dbm(d, DEFAULTS, **kwargs)
            want = [[received_power_dbm(float(x), DEFAULTS, **kwargs) for x in row] for row in d]
            assert got.shape == d.shape and got.tolist() == want

    def test_power_override(self):
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


@pytest.mark.parametrize("dists, verdict, winner", [
    pytest.param([distance_for_power(-50)], Verdict.RECEIVED, 0, id="sole-above-floor"),
    pytest.param([distance_for_power(-100)], Verdict.SILENCE, -1, id="sole-below-floor"),
    pytest.param([distance_for_power(-60), distance_for_power(-50)], Verdict.RECEIVED, 1,
                 id="10dB-lead"),
    pytest.param([distance_for_power(-50), distance_for_power(-52)], Verdict.COLLISION, -1,
                 id="2dB-lead"),
    pytest.param([distance_for_power(-55)] * 2, Verdict.COLLISION, -1, id="exact-tie"),
])
def test_capture_rule_cases(dists, verdict, winner):
    # one receiver: a (signals x 1) power matrix
    power = received_power_dbm(np.array(dists), DEFAULTS)[:, None]
    codes, winners = capture_verdicts(power, DEFAULTS)
    assert codes.tolist() == [verdict] and winners.tolist() == [winner]


def test_capture_and_power_monotonicity():
    # Coarse integer powers make ties and near-floor strongest signals common.
    # Rows 0-3 hold 1-4 contenders, -inf padded.  Stack 0 is the contenders
    # alone, stack 1 adds in row 4 an interferer strictly weaker than the
    # strongest, stack 2 boosts the strongest by 0-10 dB.  The flat rule
    # takes each stack's slots as groups of their live rows.
    rng = np.random.default_rng(21)
    n_slots = 2000
    n = rng.integers(1, 5, size=n_slots)
    base = np.where(np.arange(4) < n[:, None], rng.integers(-110, -40, size=(n_slots, 4)), -np.inf)
    strongest = base.argmax(axis=1)
    extra = rng.integers(-120, base.max(axis=1))
    boost = rng.integers(0, 11, size=n_slots)
    stacks = np.full((3, n_slots, 5), -np.inf)
    stacks[:, :, :4] = base
    stacks[1, :, 4] = extra
    stacks[2, np.arange(n_slots), strongest] += boost
    flat, starts = flat_groups(stacks.reshape(-1, 5, 1))
    codes, _ = capture_verdicts(flat, DEFAULTS, starts)
    before, more, boosted = codes.reshape(3, n_slots)
    collided = before == COLLISION_CODE
    received = before == RECEIVED_CODE
    assert collided.any() and received.any()
    # a weaker interferer never undoes a collision, nor silences a decode
    assert (more[collided] == COLLISION_CODE).all()
    assert (more[received] != SILENCE_CODE).all()
    # raising the strongest signal never undoes a decode
    assert (boosted[received] == RECEIVED_CODE).all()


class TestBatchKernel:
    @pytest.mark.parametrize("params", [DEFAULTS, RadioParams(capture_threshold_db=0.0)],
                             ids=["3dB-margin", "zero-margin"])
    def test_matches_scalar_on_random_matrices(self, params):
        # powers on a 0.7 dB grid around the floor, a fifth of them absent:
        # ties are common, but no lead over a single interferer lands exactly
        # on the 3 dB margin, where the summed and the subtracted milliwatts
        # could round apart
        rng = np.random.default_rng(33)
        seen = set()
        for _ in range(300):
            n_tx = int(rng.integers(1, 6))
            n_rx = int(rng.integers(1, 4))
            powers = rng.integers(-145, -115, size=(n_tx, n_rx)) * 0.7  # -101.5 to -81.2 dBm
            powers[rng.random(size=powers.shape) < 0.2] = -np.inf
            codes, winners = capture_verdicts(powers, params)
            for j in range(n_rx):
                want = scalar_capture(powers[:, j].tolist(), params)
                assert (Verdict(int(codes[j])), int(winners[j])) == want
                seen.add(want[0])
        assert seen == set(Verdict)

    def test_empty_matrix(self):
        codes, winners = capture_verdicts(np.empty((0, 3)), DEFAULTS)
        assert (codes == Verdict.SILENCE).all() and (winners == -1).all()

    def test_batch_matches_separate_calls(self):
        # coarse integer powers make ties common; n_tx = 0 is a slot of
        # padding only, one absent signal in the flat form
        rng = np.random.default_rng(34)
        for _ in range(100):
            batch, k_max, n_rx = (int(v) for v in rng.integers(1, 7, size=3))
            n_tx = rng.integers(0, k_max + 1, size=batch)
            n_tx[0] = 0
            stack = np.full((batch, k_max, n_rx), -np.inf)
            for b in range(batch):
                stack[b, :n_tx[b]] = rng.integers(-100, -85, size=(n_tx[b], n_rx))
            flat, starts = flat_groups(stack)
            codes, winners = capture_verdicts(flat, DEFAULTS, starts)
            assert codes.shape == winners.shape == (batch, n_rx)
            assert codes.dtype == np.int8
            ranks = np.where(winners >= 0, winners - starts[:, None], -1)
            for b in range(batch):
                for matrix in (stack[b], stack[b, :n_tx[b]]):  # padded and unpadded
                    want_codes, want_winners = capture_verdicts(matrix, DEFAULTS)
                    np.testing.assert_array_equal(codes[b], want_codes)
                    np.testing.assert_array_equal(ranks[b], want_winners)
            assert (codes[0] == SILENCE_CODE).all() and (winners[0] == -1).all()

    @pytest.mark.parametrize("params", [DEFAULTS, RadioParams(capture_threshold_db=0.0)])
    def test_ties_and_padding_in_one_batch(self, params):
        # with a zero capture margin only the tie rule makes rx 0 of slot 0 a
        # collision; winners are row indexes of the flat array
        flat = np.array([
            [-60.0, -60.0], [-60.0, -90.0],  # slot 0 (rows 0-1): tie at rx 0
            [-60.0, -np.inf],                # slot 1 (row 2): sole signal
            [-np.inf, -np.inf],              # slot 2 (row 3): silent slot
        ])
        codes, winners = capture_verdicts(flat, params, np.array([0, 2, 3]))
        assert codes.tolist() == [
            [COLLISION_CODE, RECEIVED_CODE],
            [RECEIVED_CODE, SILENCE_CODE],
            [SILENCE_CODE, SILENCE_CODE],
        ]
        assert winners.tolist() == [[-1, 0], [2, -1], [-1, -1]]

    def test_empty_signal_axis_keeps_batch_shape(self):
        # zero groups keep the receiver axis
        codes, winners = capture_verdicts(np.empty((0, 3)), DEFAULTS, np.empty(0, dtype=np.intp))
        assert codes.shape == winners.shape == (0, 3)
        assert codes.dtype == np.int8 and winners.dtype == np.intp

    def test_lone_signal_rows(self):
        # one signal row meets no interference: a (1, R) matrix, and groups
        # of one row each, give the general rule's verdicts, here forced by a
        # second row of padding in each group, and the scalar rule's; a lone
        # -inf is SILENCE
        rng = np.random.default_rng(35)
        for shape in [(1, 5), (3, 1, 4), (2, 3, 1, 2)]:
            powers = rng.integers(-100, -85, size=shape).astype(float)
            powers.flat[0] = -np.inf
            flat = powers.reshape(-1, shape[-1])
            starts = None if len(shape) == 2 else np.arange(flat.shape[0])
            codes, winners = capture_verdicts(flat, DEFAULTS, starts)
            padded = np.concatenate((powers, np.full(powers.shape, -np.inf)), axis=-2)
            if starts is None:
                want_codes, want_winners = capture_verdicts(padded, DEFAULTS)
            else:  # the signal of group g is row 2g of the padded groups
                want_codes, want_winners = capture_verdicts(padded.reshape(-1, shape[-1]),
                                                            DEFAULTS, 2 * starts)
                want_winners = np.where(want_winners >= 0, want_winners // 2, -1)
            np.testing.assert_array_equal(codes, want_codes)
            np.testing.assert_array_equal(winners, want_winners)
            assert codes.shape == winners.shape == (flat.shape if starts is not None else shape[-1:])
            assert codes.dtype == np.int8 and winners.dtype == np.intp
            flat_codes, flat_winners = codes.reshape(-1), winners.reshape(-1)
            for j, p in enumerate(flat.reshape(-1).tolist()):
                verdict, w = scalar_capture([p], DEFAULTS)
                want = (verdict, j // shape[-1] if w >= 0 and starts is not None else w)
                assert (Verdict(int(flat_codes[j])), int(flat_winners[j])) == want
            assert flat_codes[0] == SILENCE_CODE and flat_winners[0] == -1

    @pytest.mark.parametrize("params", [DEFAULTS, RadioParams(capture_threshold_db=0.0)],
                             ids=["3dB-margin", "zero-margin"])
    def test_flat_groups_match_one_group_calls(self, params):
        # groups of 1-6 rows, mostly singletons, powers on the 0.7 dB grid
        # (ties common, no lead over one interferer exactly on the margin)
        # and a tenth absent; calls of zero groups included.  One flat call
        # gives each group the verdicts of a call on that group alone and of
        # the scalar rule, its winners as rows of the flat array
        rng = np.random.default_rng(36)
        seen = set()
        for _ in range(200):
            n_groups = int(rng.integers(0, 12))
            n_rx = int(rng.integers(1, 4))
            sizes = np.where(rng.random(n_groups) < 0.6, 1, rng.integers(2, 7, size=n_groups))
            starts = np.cumsum(sizes) - sizes
            powers = rng.integers(-145, -115, size=(int(sizes.sum()), n_rx)) * 0.7
            powers[rng.random(size=powers.shape) < 0.1] = -np.inf
            codes, winners = capture_verdicts(powers, params, starts)
            assert codes.shape == winners.shape == (n_groups, n_rx)
            assert codes.dtype == np.int8 and winners.dtype == np.intp
            for g, (lo, k) in enumerate(zip(starts.tolist(), sizes.tolist())):
                group = powers[lo:lo + k]
                want_codes, want_winners = capture_verdicts(group, params)
                np.testing.assert_array_equal(codes[g], want_codes)
                np.testing.assert_array_equal(winners[g],
                                              np.where(want_winners >= 0, want_winners + lo, -1))
                for j in range(n_rx):
                    verdict, w = scalar_capture(group[:, j].tolist(), params)
                    assert (Verdict(int(codes[g, j])), int(winners[g, j])) == (
                        verdict, w + lo if w >= 0 else -1)
                    seen.add(verdict)
        assert seen == set(Verdict)

    def test_contenders_add_in_row_order(self):
        # with the capture margin set to a group's exact margin at receiver
        # 0, or the next float above it, the verdict hangs on the last bit of
        # the group's milliwatt sum: a flat call must add each group's rows
        # in row order, as a call on the group alone does over two receivers
        # (numpy adds a contiguous run as x0 + (x1 + ...), another order)
        rng = np.random.default_rng(37)
        for _ in range(200):
            group = rng.uniform(-90.0, -60.0, size=(int(rng.integers(3, 7)), 2))
            strongest = group.max(axis=0)
            total_mw = 0.0
            for row_mw in 10.0 ** (group / 10.0):
                total_mw = total_mw + row_mw
            margin = strongest - 10.0 * np.log10(total_mw - 10.0 ** (strongest / 10.0))
            flat = np.vstack(([[-70.0, -70.0]], group))  # behind a group of one row
            for threshold, verdict in ((margin[0], RECEIVED_CODE),
                                       (np.nextafter(margin[0], np.inf), COLLISION_CODE)):
                params = RadioParams(capture_threshold_db=float(threshold))
                codes, _ = capture_verdicts(flat, params, np.array([0, 1]))
                assert codes[:, 0].tolist() == [RECEIVED_CODE, verdict]
                assert capture_verdicts(group, params)[0][0] == verdict

    def test_lone_signal_far_outside_the_config_bounds(self):
        # 10**(4000/10) overflows to inf: the milliwatt sum would give
        # inf - inf = nan interference and a COLLISION, but a lone signal
        # has no interference, so it is RECEIVED, as in the scalar rule
        codes, winners = capture_verdicts(np.array([[4000.0]]), DEFAULTS)
        assert (Verdict(int(codes[0])), int(winners[0])) == scalar_capture([4000.0], DEFAULTS)
        assert codes.tolist() == [RECEIVED_CODE] and winners.tolist() == [0]

    def test_the_floor_itself_decodes(self):
        # a strongest signal exactly at the sensitivity floor decodes, one ulp
        # below it is silence, and a tie at the floor collides: for a lone
        # row, one group and flat groups alike (receivers: at the floor, one
        # ulp below, a tie at the floor; -inf is an absent signal)
        floor = DEFAULTS.sensitivity_dbm
        below = np.nextafter(floor, -np.inf)
        lone = np.array([[floor, below, floor]])
        pair = np.array([[floor, below, floor], [-np.inf, -np.inf, floor]])
        R, S, C = RECEIVED_CODE, SILENCE_CODE, COLLISION_CODE
        for powers, starts, want_codes, want_winners in (
            (lone, None, [R, S, R], [0, -1, 0]),
            (pair, None, [R, S, C], [0, -1, -1]),
            (lone, np.array([0]), [[R, S, R]], [[0, -1, 0]]),
            (np.vstack((lone, pair)), np.array([0, 1]), [[R, S, R], [R, S, C]],
             [[0, -1, 0], [1, -1, -1]]),
            (np.vstack((pair, lone)), np.array([0, 2]), [[R, S, C], [R, S, R]],
             [[0, -1, -1], [2, -1, 2]]),
        ):
            codes, winners = capture_verdicts(powers, DEFAULTS, starts)
            assert codes.tolist() == want_codes and winners.tolist() == want_winners
        for j, verdict in enumerate((Verdict.RECEIVED, Verdict.SILENCE, Verdict.COLLISION)):
            assert scalar_capture(pair[:, j].tolist(), DEFAULTS)[0] == verdict

    def test_codes_are_the_verdict_values(self):
        assert (SILENCE_CODE, RECEIVED_CODE, COLLISION_CODE) == tuple(Verdict)


@st.composite
def one_group(draw):
    """One group's (signals x receivers) powers, 0-5 signals at 1-4
    receivers, on the 0.7 dB grid around the floor (ties common, no lead over
    one interferer exactly on the 3 dB margin), a fifth of them absent."""
    n_tx, n_rx = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    cell = st.integers(-145, -115).map(lambda k: k * 0.7) | st.just(-math.inf)
    return np.array(draw(st.lists(st.lists(cell, min_size=n_rx, max_size=n_rx),
                                  min_size=n_tx, max_size=n_tx)), dtype=float).reshape(n_tx, n_rx)


# a lone signal; a tie for strongest; a row of absent signals; a tie at a
# zero margin, where the tie rule alone collides; the 4000 dBm lone signal
@example(powers=np.array([[-80.5, -120.0, -94.0]]), threshold=3.0)
@example(powers=np.array([[-80.5, -60.0], [-80.5, -70.0], [-99.0, -60.0]]), threshold=3.0)
@example(powers=np.array([[-math.inf, -math.inf], [-85.0, -math.inf]]), threshold=3.0)
@example(powers=np.array([[-70.0, -70.0], [-70.0, -90.0]]), threshold=0.0)
@example(powers=np.array([[4000.0]]), threshold=3.0)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(powers=one_group(), threshold=st.sampled_from([0.0, 3.0]))
def test_codes_entry_matches_capture_verdicts(powers, threshold):
    # the codes entry writes into the row it is given, nothing beside it,
    # the codes capture_verdicts returns for the one group, those of the
    # flat rule for it as a group of a batch, and the scalar rule's
    params = RadioParams(capture_threshold_db=threshold)
    n_rx = powers.shape[1]
    block = np.full((3, n_rx), 7, np.int8)
    codes = capture_codes(powers, params, block[1])
    assert codes.dtype == np.int8 and np.shares_memory(codes, block[1])
    np.testing.assert_array_equal(block[[0, 2]], 7)
    np.testing.assert_array_equal(block[1], capture_verdicts(powers, params)[0])
    if len(powers):
        grouped = capture_verdicts(powers, params, np.array([0]))[0]
        np.testing.assert_array_equal(block[1], grouped[0])
    assert [Verdict(int(c)) for c in block[1]] == [
        scalar_capture(powers[:, j].tolist(), params)[0] for j in range(n_rx)]


def test_params_validation():
    # the accepted dB ranges are config bounds, checked in tests/test_config.py
    with pytest.raises(ValueError, match=r"radio\.exponent"):
        RadioParams(exponent=0.0)
    with pytest.raises(ValueError, match=r"radio\.shadowing_sigma_db"):
        RadioParams(shadowing_sigma_db=-0.1)
