"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py
-v -s`` to see them live).  The experiment criteria are deterministic: they run
fixed presets with fixed master seeds, so their outcomes are reproducible
bit-for-bit.
"""

import math

import numpy as np
import pytest

from enpsim.config import parse_config
from enpsim.harness import run_experiment, sweep
from enpsim.metrics import accuracies, ground_truth, iteration_accuracy
from enpsim.mobility import Fleet, RoadGeometry, Vehicle, spawn_fleet
from enpsim.protocol import TimingParams, World, build_epoch_schedule, run_epoch
from enpsim.radio import (
    COLLISION_CODE,
    RECEIVED_CODE,
    SILENCE_CODE,
    RadioParams,
    capture_verdicts,
    comm_range_m,
    received_power_dbm,
)
from enpsim.slot_hash import HashParams, expected_collision_fraction, slot_for

from reference_engine import engine_records


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. accuracy-vs-fleet-size sweep: mean union accuracy >= 0.95 for V_N <= 40
#    and a >= 1 percentage point degradation from V_N = 40 to V_N = 60


def test_criterion_1_accuracy_sweep():
    cfg = parse_config(
        "preset = paper-fig1b\n"
        "run.epochs = 1000\n"
        "run.replications = 3\n"
        "run.master_seed = 1\n"
    )
    rows = sweep(cfg, [10, 20, 30, 40, 50, 60])
    acc = {r["v_n"]: r["mean_acc_union"] for r in rows}
    drop = acc[40] - acc[60]
    ok = all(acc[v] >= 0.95 for v in (10, 20, 30, 40)) and drop >= 0.01
    detail = (
        "fleet-size sweep: "
        + " ".join(f"VN{v}={acc[v]:.4f}" for v in (10, 20, 30, 40, 50, 60))
        + f" drop40->60={100 * drop:.2f}pp (need >=0.95 for VN<=40, >=1pp drop; target 0.975)"
    )
    report(1, ok, detail)


# ---------------------------------------------------------------------------
# 2. real-road scenario: 10 vehicles, 17 slots, mean union accuracy >= 0.95


def test_criterion_2_real_road():
    cfg = parse_config(
        "preset = paper-road\n"
        "run.epochs = 1000\n"
        "run.master_seed = 1\n"
    )
    mean = run_experiment(cfg).summary["mean_acc_union"]
    report(2, mean >= 0.95, f"real-road preset mean A_u={mean:.4f} (need >=0.95, target 0.985)")


# ---------------------------------------------------------------------------
# 3. collision-free oracle: static distinct-slot fleet in range of one pair
#    is fully recorded by both recorders in round 0; A_u exactly 1.0


def test_criterion_3_collision_free_oracle():
    cfg = parse_config("preset = oracle-static5\n")
    result = run_experiment(cfg)
    mean_exact = result.summary["mean_acc_union"] == 1.0

    # brute-force enumerator over slots, independent of the engine
    geom, radio, hp = cfg.geometry, cfg.radio, cfg.hash
    fleet = cfg.fleet.explicit
    slots = slot_for(np.array([v.vrn for v in fleet], dtype=np.uint64), hp)
    injective = len(set(slots.tolist())) == len(fleet)
    in_range = all(
        math.hypot(geom.road_x(v.x) - vx, v.y - vy) <= comm_range_m(radio)
        for v in fleet
        for vx, vy in geom.vr_positions(0)
    )

    world = World(Fleet.from_vehicles(fleet, geom.ring_length_m), geom, radio, hp, cfg.timing)
    epoch = run_epoch(world, 0)
    decoded = epoch.decoded(1)
    records = engine_records(world, epoch)
    round0 = all(rnd == 0 for vr in ("vr0a", "vr0b") for _, rnd, _ in records[vr].values())

    # enumerator verdict: everyone, both VRs
    everyone = decoded.shape == (1, 2, len(fleet)) and decoded.all()
    ok = mean_exact and injective and in_range and everyone and round0
    report(3, ok, f"collision-free oracle: A_u==1.0 exactly ({mean_exact}), "
                  f"both recorders hold all {len(fleet)} vehicles in round 0 ({round0})")


# ---------------------------------------------------------------------------
# 4. capture / dual-recorder mechanism on a same-slot clash
#    (vehicles at y=1 and y=6, recorders at y=-2 and y=+9, equal x;
#     hand-computed budget: +-12.78 dB margins, so each VR captures its side)


def test_criterion_4_dual_vr_capture():
    geom = RoadGeometry(vr_pair_xs=(100.0,))
    radio = RadioParams()
    v1, v2 = 4000000000023333331, 4000000000031111108  # both hash to slot 10 at S=71
    hp = HashParams(slot_count=71)
    s1, s2 = slot_for(np.array([v1, v2], dtype=np.uint64), hp)
    assert s1 == s2
    fleet = Fleet.from_vehicles(
        [Vehicle(v1, geom.ring_x(100.0), 1.0, 0.0), Vehicle(v2, geom.ring_x(100.0), 6.0, 0.0)],
        geom.ring_length_m,
    )
    world = World(fleet, geom, radio, hp, TimingParams())
    result = run_epoch(world, 0)
    rec_a, rec_b = (fleet.vrn[side].tolist() for side in result.decoded(1)[0])
    ok = rec_a == [v1] and rec_b == [v2]
    report(4, ok, f"dual-recorder same-slot clash: vr0a={sorted(rec_a)} vr0b={sorted(rec_b)} "
                  "(each exactly one, union both)")


# ---------------------------------------------------------------------------
# 5. hash statistics: uniformity, collision fraction vs analytic, golden vectors


def test_criterion_5_hash_statistics():
    params = HashParams(slot_count=71)
    rng = np.random.default_rng(20240501)
    counts = np.zeros(71, dtype=np.int64)
    for chunk in range(10):
        vrns = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
        counts += np.bincount(slot_for(vrns, params), minlength=71)
    mean = counts.mean()
    uniform_ok = bool(abs(counts - mean).max() <= 0.05 * mean)

    coll_ok = True
    coll_detail = []
    for n, slots, trials in ((10, 17, 4000), (40, 71, 2500), (50, 71, 2500)):
        p = HashParams(slot_count=slots)
        hits = 0
        for _ in range(trials):
            assigned = slot_for(rng.integers(0, 2**64, size=n, dtype=np.uint64), p)
            hits += (np.bincount(assigned, minlength=slots)[assigned] > 1).sum()
        emp = hits / (n * trials)
        ana = expected_collision_fraction(n, slots)
        coll_detail.append(f"(n={n},S={slots}): emp={emp:.4f} ana={ana:.4f}")
        coll_ok &= abs(emp - ana) <= 0.01

    golden = [
        (0, 0, 17, 0),
        (1, 0, 71, 0),
        (9876543210, 0, 71, 58),  # frozen big-integer oracle vector
        (9876543210, 0xDEADBEEF, 71, 23),
        (2**64 - 1, 0, 71, 63),
    ]
    golden_ok = all(
        slot_for(np.array([v], dtype=np.uint64), HashParams(seed=seed, slot_count=s))[0] == want
        for v, seed, s, want in golden
    )

    ok = uniform_ok and coll_ok and golden_ok
    report(5, ok, f"hash stats: uniformity max dev {abs(counts - mean).max() / mean:.3%} "
                  f"(<=5%), collisions within 1pp [{'; '.join(coll_detail)}], "
                  f"golden vectors bit-exact ({golden_ok})")


# ---------------------------------------------------------------------------
# 6. radio invariants: monotonicity over 5e4 random slot scenarios,
#    range round-trip within 1e-6 dB, default range 63.096 +- 0.001 m


def test_criterion_6_radio_invariants():
    params = RadioParams()
    rng = np.random.default_rng(7777)

    # 50,000 slot scenarios at one receiver, resolved in one capture call:
    # 1-4 contenders at 1-80 m in rows 0-3 (absent ones at infinite distance,
    # so -inf power) and, in row 4, one extra interferer strictly farther
    # than the nearest contender.  Stacked three ways: the contenders alone,
    # with the extra, and alone with the strongest boosted by U(0, 12) dB.
    # Each scenario is one group of its present signals' rows.
    n_scen = 50_000
    n = rng.integers(1, 5, size=n_scen)
    present = np.arange(4) < n[:, None]
    dists = np.where(present, rng.uniform(1.0, 80.0, size=(n_scen, 4)), np.inf)
    nearest = dists.argmin(axis=1)
    extra = rng.uniform(dists.min(axis=1) * 1.01 + 0.01, 95.0)
    tx = np.zeros((3, n_scen, 5))
    tx[2, np.arange(n_scen), nearest] = rng.uniform(0.0, 12.0, size=n_scen)
    power = received_power_dbm(np.column_stack([dists, extra]), params, tx_power_dbm=tx)
    power[[0, 2], :, 4] = -np.inf
    present = np.isfinite(power)
    counts = present.sum(axis=-1).ravel()
    codes, _ = capture_verdicts(power[present][:, None], params, np.cumsum(counts) - counts)
    base, more, boosted = codes.reshape(3, n_scen)
    collided = base == COLLISION_CODE
    received = base == RECEIVED_CODE
    # capture monotonicity: a strictly weaker interferer never undoes a
    # collision, nor silences a decode
    capture_ok = bool((more[collided] == COLLISION_CODE).all()
                      and (more[received] != SILENCE_CODE).all())
    # power monotonicity: boosting the strongest signal never undoes a decode
    power_ok = bool((boosted[received] == RECEIVED_CODE).all())

    rt_ok = True
    for _ in range(1000):
        p = RadioParams(
            tx_power_dbm=float(rng.uniform(-10, 10)),
            pl0_db=float(rng.uniform(30, 50)),
            exponent=float(rng.uniform(2, 6)),
            sensitivity_dbm=float(rng.uniform(-100, -80)),
        )
        if abs(received_power_dbm(comm_range_m(p), p) - p.sensitivity_dbm) > 1e-6:
            rt_ok = False

    range_err = abs(comm_range_m(params) - 63.096)
    range_ok = range_err <= 0.001

    ok = capture_ok and power_ok and rt_ok and range_ok
    report(6, ok, f"radio invariants over {n_scen} scenarios ({collided.sum()} collided, "
                  f"{received.sum()} received): capture monotonic ({capture_ok}), power monotonic "
                  f"({power_ok}), round-trip <=1e-6 dB ({rt_ok}), default range "
                  f"{comm_range_m(params):.4f} m (+-0.001 of 63.096: {range_ok})")


# ---------------------------------------------------------------------------
# 7. metrics invariants on shadowing-off runs + schedule arithmetic


def test_criterion_7_metrics_invariants():
    timing = TimingParams()
    rounds_ok = (build_epoch_schedule(timing, 71, 0).round_count == 3
                 and build_epoch_schedule(timing, 17, 0).round_count == 13)

    # shadowing-off run over the full five-pair geometry: containment and
    # union dominance must hold in every iteration (they are also enforced
    # inline by the harness during every acceptance run above)
    geom = RoadGeometry()
    radio = RadioParams()  # sigma = 0
    hp = HashParams(slot_count=71)
    rng = np.random.default_rng(99)
    fleet = spawn_fleet(25, 30.0, 90.0, geom, rng)
    world = World(fleet, geom, radio, hp, timing, rng)
    results = [run_epoch(world, e) for e in range(80)]
    starts = np.stack([result.fleet_start.x for result in results])
    gt = ground_truth(fleet, starts, results[0].schedule, geom, radio)
    decoded = np.stack([result.decoded(geom.n_pairs) for result in results])
    contain_ok = not (decoded.any(axis=2) & ~gt).any()
    [counts] = iteration_accuracy(decoded, gt, world.offsets)
    acc = accuracies(counts)
    # every count, and every accuracy where ground truth is not empty
    dominance_ok = bool((counts[..., 2] >= counts[..., :2].max(axis=-1)).all()
                        and ((acc[..., 2] >= acc[..., :2].max(axis=-1))
                             | (counts[..., 6] == 0)).all())

    ok = rounds_ok and contain_ok and dominance_ok
    report(7, ok, f"metrics invariants: rounds 3@S71/13@S17 ({rounds_ok}), records within "
                  f"ground truth with shadowing off ({contain_ok}), union dominance "
                  f"({dominance_ok}) over 400 iterations")


# ---------------------------------------------------------------------------
# 8. determinism: identical master seed => byte-identical CSV outputs


def test_criterion_8_determinism(tmp_path):
    scenarios = {
        "fig1b-small": (
            "preset = paper-fig1b\nfleet.v_n = 20\nrun.epochs = 60\n"
            "run.replications = 2\nrun.master_seed = 404\n"
        ),
        "oracle": "preset = oracle-static5\nrun.master_seed = 404\n",
    }
    ok = True
    for name, text in scenarios.items():
        cfg = parse_config(text)
        run_experiment(cfg, out_dir=tmp_path / name / "a", events=True)
        run_experiment(cfg, out_dir=tmp_path / name / "b", events=True)
        for f in ("iterations.csv", "summary.csv", "summary_by_pair.csv", "events.log"):
            ok &= (tmp_path / name / "a" / f).read_bytes() == (tmp_path / name / "b" / f).read_bytes()
    report(8, ok, "determinism: repeated runs byte-identical across all CSVs and event logs")
