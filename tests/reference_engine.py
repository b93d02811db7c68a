"""Independent slow-path epoch simulator used to cross-check the engine.

Everything here is recomputed from first principles with scalar arithmetic:
positions from the epoch-start snapshot, link powers from the path-loss
formula, capture by explicit milliwatt summation, probe replicas merged by
taking the stronger of a pair's two links.  Only the slot hash is shared
with the package (its own golden vectors pin it separately).  The
ground-truth oracle at the end is the one exception to the scalar rule (see
its docstring).

Shadowing must be off: the reference is deterministic.
"""

import math

import numpy as np

from enpsim.frames import ProbeFrame
from enpsim.slot_hash import HashParams, round_seed, slot_for


def _power(d_m, radio, tx_dbm=None):
    tx = radio.tx_power_dbm if tx_dbm is None else tx_dbm
    return tx - radio.pl0_db - 10.0 * radio.exponent * math.log10(max(d_m, 1.0))


def _resolve(signals, radio):
    """Capture rule over (key, power_dbm) signals; returns (verdict, key)."""
    if not signals:
        return "silence", None
    best_key, best_p = max(signals, key=lambda kp: kp[1])
    if best_p < radio.sensitivity_dbm:
        return "silence", None
    if sum(1 for _, p in signals if p == best_p) > 1:
        return "collision", None
    interference_mw = sum(10 ** (p / 10.0) for k, p in signals if k != best_key)
    if interference_mw > 0:
        margin = best_p - 10.0 * math.log10(interference_mw)
        if margin < radio.capture_threshold_db:
            return "collision", None
    return "received", best_key


def _road_xy(fleet, i, dt_s, geometry):
    ring = (fleet.x[i] + fleet.speed_mps[i] * dt_s) % fleet.ring_length_m
    return ring - geometry.ring_to_road_offset_m, fleet.y[i]


def reference_run_epoch(fleet, geometry, radio, hash_params, timing, epoch_index):
    """Record sets per recorder id for one epoch, shadowing off."""
    assert radio.shadowing_sigma_db == 0, "reference engine is deterministic only"
    from enpsim.protocol import build_epoch_schedule  # schedule arithmetic is pinned by its own tests

    sched = build_epoch_schedule(timing, hash_params.slot_count, epoch_index)
    n_pairs = geometry.n_pairs
    vrs = []  # (vr_id, pair, (x, y))
    for pair in range(n_pairs):
        for side, pos in enumerate(geometry.vr_positions(pair)):
            vrs.append((f"vr{pair}{'ab'[side]}", pair, pos))
    records = {vr_id: {} for vr_id, _, _ in vrs}

    for r in range(sched.round_count):
        seed = hash_params.seed
        if hash_params.reseed_per_round:
            seed = round_seed(hash_params.seed, epoch_index, r)
        params_r = HashParams(hash_params.hash_id, seed, hash_params.slot_count)
        probes = [ProbeFrame(pair_id=p, epoch=epoch_index, round=r,
                             slot_count=sched.slot_count,
                             hash_id=hash_params.hash_id, seed=seed)
                  for p in range(n_pairs)]
        assert len({probes[p].encode() for p in range(n_pairs)}) == n_pairs

        # probe phase: merge each pair's two links (identical bytes), capture
        t_probe = sched.round_start_us(r)
        dt = (t_probe - sched.epoch_start_us) * 1e-6
        replies_by_slot = {}
        for i in range(len(fleet)):
            x, y = _road_xy(fleet, i, dt, geometry)
            signals = []
            for pair in range(n_pairs):
                (xa, ya), (xb, yb) = geometry.vr_positions(pair)
                pw = max(
                    _power(math.hypot(x - xa, y - ya), radio, radio.probe_tx_power_dbm),
                    _power(math.hypot(x - xb, y - yb), radio, radio.probe_tx_power_dbm),
                )
                signals.append((pair, pw))
            verdict, _pair = _resolve(signals, radio)
            if verdict == "received":
                slot = slot_for(int(fleet.vrn[i]), params_r)
                replies_by_slot.setdefault(slot, []).append(i)

        # reply slots: every recorder resolves independently
        for slot in sorted(replies_by_slot):
            t_slot = sched.slot_start_us(r, slot)
            dt = (t_slot - sched.epoch_start_us) * 1e-6
            senders = replies_by_slot[slot]
            positions = {i: _road_xy(fleet, i, dt, geometry) for i in senders}
            for vr_id, pair, (vx, vy) in vrs:
                signals = [
                    (i, _power(math.hypot(positions[i][0] - vx, positions[i][1] - vy), radio))
                    for i in senders
                ]
                verdict, winner = _resolve(signals, radio)
                if verdict == "received":
                    vrn = int(fleet.vrn[winner])
                    records[vr_id].setdefault(vrn, (epoch_index, r, slot))
    return records


def engine_records(world, result):
    """The engine's record table in the shape of :func:`reference_run_epoch`:
    per recorder id, each decoded vrn's (epoch, round, slot)."""
    records = {vr_id: {} for vr_id in world.vr_ids}
    vrns = result.fleet_start.vrn.tolist()
    for recorder, tag, rnd, slot in result.records.tolist():
        records[world.vr_ids[recorder]][vrns[tag]] = (result.epoch_index, rnd, slot)
    return records


def reference_ground_truth(fleet, schedule, geometry, radio):
    """Ground-truth sets per pair by the full scan: each recorder in turn,
    at every probe and slot start of the epoch, over the whole
    (sample times x vehicles) grid.

    Unlike the epoch above this is numpy arithmetic, element for element in
    the engine's operation order: a vehicle exactly on the sensitivity floor
    must be decided bit for bit as the engine decides it.
    """
    times = []
    for r in range(schedule.round_count):
        times.append(schedule.round_start_us(r))
        times += [schedule.slot_start_us(r, s) for s in range(schedule.slot_count)]
    dts = (np.array(times, dtype=np.int64) - schedule.epoch_start_us) * 1e-6
    ring_x = np.mod(fleet.x + fleet.speed_mps * dts[:, None], fleet.ring_length_m)
    road_x = ring_x - geometry.ring_to_road_offset_m
    out = []
    for pair in range(geometry.n_pairs):
        in_range = np.zeros(len(fleet), dtype=bool)
        for vx, vy in geometry.vr_positions(pair):
            d = np.maximum(np.hypot(road_x - vx, fleet.y - vy), 1.0)
            power = radio.tx_power_dbm - radio.pl0_db - 10.0 * radio.exponent * np.log10(d)
            in_range |= (power >= radio.sensitivity_dbm).any(axis=0)
        out.append({int(v) for v in fleet.vrn[in_range]})
    return out
