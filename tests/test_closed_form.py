"""The engine's capture and pair statistics against closed forms.

The scalar reference engine shares the engine's model, so a modelling error
in both would pass the differential tests.  These tests check statistics of
many seeded epochs against probabilities derived from the model's
definition instead, each within 4 standard errors of its estimate.
"""

import math

import numpy as np

from enpsim.config import parse_config
from enpsim.harness import _lockstep
from enpsim.metrics import tally
from enpsim.mobility import Fleet, RoadGeometry, Vehicle
from enpsim.protocol import TimingParams, World, build_epoch_schedule, run_epoch
from enpsim.radio import RadioParams, received_power_dbm
from enpsim.slot_hash import HashParams, slot_for

# With 200 slots of 2 ms, one query round fits a 512 ms period: a tag that
# decodes the probe replies once an epoch, so each epoch is one independent
# trial of every reply link.
SLOTS = 200
TIMING = TimingParams()


def phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def test_pair_union_miss_is_the_product_of_recorder_misses():
    # One static tag between the recorders of one pair (5 m from a, 6 m
    # from b) whose probes always decode (100 dB above the floor).  Its two
    # reply links sit 1.3 dB above and 1.0 dB below the floor and shadow
    # independently, so an epoch's union misses the tag with the product
    # of the per-recorder miss probabilities.  The per-epoch indicators A
    # (a missed) and B (b missed) are independent, so the delta method
    # gives mean(A B) - mean(A) mean(B) a variance of
    # p_a p_b (1 - p_a) (1 - p_b) / n.
    n = 3000
    assert build_epoch_schedule(TIMING, SLOTS, 0).round_count == 1
    cfg = parse_config(
        "geometry.vr_pair_xs = 100\n"
        f"hash.slot_count = {SLOTS}\n"
        "radio.shadowing_sigma_db = 3\n"
        "radio.sensitivity_dbm = -62.3\n"
        "radio.probe_tx_power_dbm = 100\n"
        "fleet.explicit = 9876543210:200:3:0\n"
        f"run.epochs = {n}\nrun.warmup_epochs = 0\nrun.master_seed = 2024\n"
    )
    [(counts, _)] = _lockstep(cfg, [(cfg, ())])
    scores = tally(counts)  # (pair, acc_1, acc_2, acc_union) -> epochs
    assert sum(scores.values()) == n  # one tag in ground truth every epoch
    miss_a, miss_b, miss_union = (
        sum(count for key, count in scores.items() if key[k] == 0) / n for k in (1, 2, 3))
    # each recorder misses with the probability that shadowing takes its
    # link below the floor
    for miss, distance in ((miss_a, 5.0), (miss_b, 6.0)):
        mean_dbm = received_power_dbm(distance, cfg.radio)
        p = phi((cfg.radio.sensitivity_dbm - mean_dbm) / cfg.radio.shadowing_sigma_db)
        assert abs(miss - p) <= 4 * math.sqrt(p * (1 - p) / n)
    se = math.sqrt(miss_a * miss_b * (1 - miss_a) * (1 - miss_b) / n)
    assert abs(miss_union - miss_a * miss_b) <= 4 * se
    # fully correlated links would miss with the likelier recorder instead
    assert miss_b - miss_union > 4 * se


def test_two_contender_capture_share():
    # Two static tags hashed to one slot, 3 m and 5 m from recorder a,
    # answer in the same slot every epoch, both links at least 30 dB above
    # the floor.  With independent N(0, sigma^2) shadowing the stronger
    # tag's power exceeds the weaker's by N(dmu, 2 sigma^2), so recorder a
    # decodes it with probability Phi((dmu - theta) / (sigma sqrt 2)), and
    # the weaker one with Phi((-dmu - theta) / (sigma sqrt 2)).
    n, sigma, theta = 3000, 4.0, 3.0
    assert build_epoch_schedule(TIMING, SLOTS, 0).round_count == 1
    hp = HashParams(slot_count=SLOTS)
    vrns = np.arange(1, 1000, dtype=np.uint64)
    slots = slot_for(vrns, hp)
    shared = np.flatnonzero(np.bincount(slots) > 1)[0]  # a slot two of the keys hash to
    strong, weak = vrns[slots == shared][:2].tolist()
    geom = RoadGeometry(vr_pair_xs=(100.0,))  # recorder a at road (100, -2)
    ring_x = geom.ring_x(100.0)
    fleet = Fleet.from_vehicles([Vehicle(strong, ring_x, 1.0, 0.0),
                                 Vehicle(weak, ring_x, 3.0, 0.0)], geom.ring_length_m)
    radio = RadioParams(shadowing_sigma_db=sigma, capture_threshold_db=theta,
                        probe_tx_power_dbm=100.0)
    assert received_power_dbm(5.0, radio) - radio.sensitivity_dbm > 30
    world = World(fleet, geom, radio, hp, TIMING, np.random.default_rng(77))
    results = [run_epoch(world, e) for e in range(n)]
    decoded_at_a = np.array([result.decoded(1)[0, 0] for result in results])  # (n, 2)
    dmu = float(received_power_dbm(3.0, radio) - received_power_dbm(5.0, radio))
    for tag, mean_gap in ((0, dmu), (1, -dmu)):
        p = phi((mean_gap - theta) / (sigma * math.sqrt(2.0)))
        share = decoded_at_a[:, tag].mean()
        assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / n), (tag, share, p)
