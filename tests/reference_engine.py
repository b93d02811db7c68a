"""Independent slow-path epoch simulator used to cross-check the engine.

Everything here is recomputed from first principles with scalar arithmetic:
positions from the epoch-start snapshot, link powers from the path-loss
formula, capture by explicit milliwatt summation, probe replicas merged by
taking the stronger of a pair's two links, and the mid-square slot hash by
arbitrary-precision integer arithmetic.  The ground-truth oracle at the end
is the one exception to the scalar rule (see its docstring).

With shadowing on, the reference draws from the generator it is given in
the engine's documented stream order (see :func:`reference_run_epoch`), so
the same seed must give the same records and leave the same generator state.
"""

import math

import numpy as np

from enpsim.frames import ProbeFrame
from enpsim.slot_hash import round_seed


def oracle_middle64(vrn: int, seed: int) -> int:
    """Bits 32..95 of the exact square of the seeded key, by limb-split long
    multiplication in Python integers and a divmod chain."""
    x = (vrn & ((1 << 64) - 1)) ^ seed
    hi, lo = divmod(x, 1 << 32)
    square = hi * hi * (1 << 64) + 2 * hi * lo * (1 << 32) + lo * lo
    dropped_low, _ = divmod(square, 1 << 32)
    return dropped_low % (1 << 64)


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


def reference_run_epoch(fleet, geometry, radio, hash_params, timing, epoch_index, rng=None):
    """Records per recorder id for one epoch: each decoded vrn's
    (epoch, round, slot).

    With shadowing on, every round of a non-empty fleet draws from ``rng``
    first one (recorders x vehicles) block for the probe phase, then one
    (recorders x contenders) block per occupied reply slot, in slot order;
    recorders are in pair-major order (vr0a, vr0b, vr1a, ...), vehicles
    and contenders in fleet order.
    """
    sigma = radio.shadowing_sigma_db

    def shadow(rows, cols):
        if sigma == 0:
            return [[0.0] * cols for _ in range(rows)]
        return rng.normal(0.0, sigma, size=(rows, cols)).tolist()

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
        probes = [ProbeFrame(pair_id=p, epoch=epoch_index, round=r,
                             slot_count=sched.slot_count, seed=seed)
                  for p in range(n_pairs)]
        assert len({probes[p].encode() for p in range(n_pairs)}) == n_pairs

        # probe phase: merge each pair's two links (identical bytes), capture
        t_probe = sched.round_start_us(r)
        dt = (t_probe - sched.epoch_start_us) * 1e-6
        replies_by_slot = {}
        probe_shadow = shadow(len(vrs), len(fleet)) if len(fleet) else []
        for i in range(len(fleet)):
            x, y = _road_xy(fleet, i, dt, geometry)
            signals = []
            for pair in range(n_pairs):
                (xa, ya), (xb, yb) = geometry.vr_positions(pair)
                pw = max(
                    _power(math.hypot(x - xa, y - ya), radio, radio.probe_tx_power_dbm)
                    + probe_shadow[2 * pair][i],
                    _power(math.hypot(x - xb, y - yb), radio, radio.probe_tx_power_dbm)
                    + probe_shadow[2 * pair + 1][i],
                )
                signals.append((pair, pw))
            verdict, _pair = _resolve(signals, radio)
            if verdict == "received":
                slot = oracle_middle64(int(fleet.vrn[i]), seed) % sched.slot_count
                replies_by_slot.setdefault(slot, []).append(i)

        # reply slots: every recorder resolves independently
        for slot in sorted(replies_by_slot):
            t_slot = sched.slot_start_us(r, slot)
            dt = (t_slot - sched.epoch_start_us) * 1e-6
            senders = replies_by_slot[slot]
            positions = {i: _road_xy(fleet, i, dt, geometry) for i in senders}
            reply_shadow = shadow(len(vrs), len(senders))
            for (vr_id, pair, (vx, vy)), draws in zip(vrs, reply_shadow):
                signals = [
                    (i, _power(math.hypot(positions[i][0] - vx, positions[i][1] - vy), radio)
                     + draw)
                    for i, draw in zip(senders, draws)
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
    """The (pairs, vehicles) ground-truth mask by the full scan: each
    recorder in turn, at every probe and slot start of the epoch, over the
    whole (sample times x vehicles) grid.

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
    in_range = np.zeros((geometry.n_pairs, len(fleet)), dtype=bool)
    for pair in range(geometry.n_pairs):
        for vx, vy in geometry.vr_positions(pair):
            d = np.maximum(np.hypot(road_x - vx, fleet.y - vy), 1.0)
            power = radio.tx_power_dbm - radio.pl0_db - 10.0 * radio.exponent * np.log10(d)
            in_range[pair] |= (power >= radio.sensitivity_dbm).any(axis=0)
    return in_range
