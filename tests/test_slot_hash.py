"""Mid-square slot hashing: golden vectors, distribution properties, oracle."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from enpsim.slot_hash import HashParams, expected_collision_fraction, round_seed, slot_for

from reference_engine import oracle_middle64

# keys where the 32-bit halves carry, wrap or vanish; at seed 0 the three
# terms of 2**64 - 2**40 - 1 sum past 2**64
EDGE_VRNS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 2**40 - 1, 2**64 - 1]

# Golden vectors frozen from the arbitrary-precision oracle:
# 9876543210^2 = 97546105778997104100, middle 64 bits = 22711722594.
GOLDEN = [
    (0, 0, 17, 0),
    (1, 0, 71, 0),  # middle bits of 1 are 0: the small-key degeneracy
    (1, 0, 17, 0),
    (9876543210, 0, 71, 58),
    (9876543210, 0, 17, 0),
    (9876543210, 0xDEADBEEF, 71, 23),
    (123456789012345, 0, 71, 19),
    (2**64 - 1, 0, 71, 63),
]


@pytest.mark.parametrize("vrn,seed,slots,expected", GOLDEN)
def test_golden_vectors(vrn, seed, slots, expected):
    params = HashParams(seed=seed, slot_count=slots)
    assert slot_for(np.array([vrn], dtype=np.uint64), params).tolist() == [expected]
    assert oracle_middle64(vrn, seed) % slots == expected


@given(
    vrns=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(EDGE_VRNS)), max_size=20),
    seed=st.integers(0, 2**32 - 1),
    slots=st.integers(1, 255),
    zero_d=st.booleans(),
)
@example(vrns=EDGE_VRNS, seed=0, slots=255, zero_d=False)
@example(vrns=EDGE_VRNS, seed=2**32 - 1, slots=254, zero_d=False)
@example(vrns=EDGE_VRNS, seed=0, slots=71, zero_d=True)
@example(vrns=[], seed=0, slots=71, zero_d=False)
def test_matches_big_int_reference(vrns, seed, slots, zero_d):
    params = HashParams(seed=seed, slot_count=slots)
    want = [oracle_middle64(v, seed) % slots for v in vrns]
    got = slot_for(np.array(vrns, dtype=np.uint64), params)
    assert got.dtype == np.intp and got.shape == (len(vrns),)
    assert got.tolist() == want
    if zero_d:
        # 0-d keys wrap without numpy's scalar overflow warning (an error here)
        for v, w in zip(vrns, want):
            one = slot_for(np.uint64(v), params)
            assert one.shape == () and int(one) == w


def test_range_and_determinism():
    rng = np.random.default_rng(7)
    for slots in (1, 2, 17, 71, 255):
        params = HashParams(slot_count=slots)
        vrns = rng.integers(0, 2**64, size=500, dtype=np.uint64)
        s = slot_for(vrns, params)
        assert ((0 <= s) & (s < slots)).all()
        np.testing.assert_array_equal(s, slot_for(vrns, params))


def test_seed_sensitivity():
    rng = np.random.default_rng(11)
    a = HashParams(seed=0, slot_count=71)
    b = HashParams(seed=0x9E3779B9, slot_count=71)
    vrns = rng.integers(0, 2**64, size=10_000, dtype=np.uint64)
    changed = (slot_for(vrns, a) != slot_for(vrns, b)).sum()
    assert changed / len(vrns) >= 0.9


def test_uniformity_smoke():
    # light version of the acceptance check (full 1e6 run lives there)
    rng = np.random.default_rng(13)
    params = HashParams(slot_count=71)
    vrns = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
    counts = np.bincount(slot_for(vrns, params), minlength=71)
    mean = counts.mean()
    assert abs(counts - mean).max() <= 0.10 * mean


def test_collision_fraction_examples():
    assert expected_collision_fraction(1, 71) == 0.0
    assert expected_collision_fraction(2, 1) == 1.0
    # frozen analytic value, confirmed by the Monte-Carlo birthday oracle
    assert expected_collision_fraction(40, 71) == pytest.approx(0.4248937, abs=1e-6)


def test_collision_fraction_matches_empirical_smoke():
    rng = np.random.default_rng(17)
    n, slots, trials = 40, 71, 400
    params = HashParams(slot_count=slots)
    hits = 0
    for _ in range(trials):
        assigned = slot_for(rng.integers(0, 2**64, size=n, dtype=np.uint64), params)
        hits += (np.bincount(assigned, minlength=slots)[assigned] > 1).sum()
    assert abs(hits / (n * trials) - expected_collision_fraction(n, slots)) < 0.01


def test_validation_errors():
    with pytest.raises(ValueError):
        HashParams(slot_count=0)
    with pytest.raises(ValueError):
        HashParams(seed=2**32)
    with pytest.raises(ValueError):
        expected_collision_fraction(0, 71)
    with pytest.raises(ValueError):
        expected_collision_fraction(5, 0)


def test_round_seed_is_32bit_and_varies():
    seen = {round_seed(0, e, r) for e in range(50) for r in range(3)}
    assert len(seen) == 150  # no accidental collisions over a realistic window
    assert all(0 <= s < 2**32 for s in seen)
    assert round_seed(0, 3, 1) == round_seed(0, 3, 1)
