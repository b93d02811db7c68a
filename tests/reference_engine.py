"""Independent slow-path epoch simulator used to cross-check the engine.

Everything here is recomputed from first principles with scalar arithmetic:
positions from the epoch-start snapshot, link powers from the path-loss
formula, capture by explicit milliwatt summation, probe replicas merged by
taking the stronger of a pair's two links, and the mid-square slot hash by
arbitrary-precision integer arithmetic.  The ground-truth oracle is the
one exception to the scalar rule (see its docstring).  The summary oracle
at the end pools every scored row's accuracies, one float each.

With shadowing on, the reference draws from the generator it is given in
the engine's documented stream order (see :func:`reference_run_epoch`), so
the same seed must give the same records and leave the same generator state.
"""

import math

import numpy as np

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
    """Records per recorder id for one epoch, each decoded vrn's
    (epoch, round, slot), and the epoch's event lines.

    The event lines are built here in the order :mod:`enpsim.events`
    documents, so they must equal ``event_lines([result])[b]`` of the
    engine's result of the epoch for this fleet's stream b: per round, a
    PROBE line per recorder, then an RX or COLL line per tag whose probe was
    not silence, then per occupied slot a REPLY line per contender and an RX
    or COLL line per recorder.

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
    events = []

    for r in range(sched.round_count):
        seed = hash_params.seed
        if hash_params.reseed_per_round:
            seed = round_seed(hash_params.seed, epoch_index, r)
        # probe phase: merge each pair's two links (identical bytes), capture
        t_probe = sched.round_start_us(r)
        dt = (t_probe - sched.epoch_start_us) * 1e-6
        probe_tail = f"{epoch_index}\t{r}\t-\t-"
        events += [f"{t_probe}\tPROBE\t{vr_id}\t{pair}\t{probe_tail}" for vr_id, pair, _ in vrs]
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
            verdict, winner = _resolve(signals, radio)
            if verdict == "received":
                events.append(f"{t_probe}\tRX\tenp{i}\t{winner}\t{probe_tail}")
                slot = oracle_middle64(int(fleet.vrn[i]), seed) % sched.slot_count
                replies_by_slot.setdefault(slot, []).append(i)
            elif verdict == "collision":
                events.append(f"{t_probe}\tCOLL\tenp{i}\t-\t{probe_tail}")

        # reply slots: every recorder resolves independently
        for slot in sorted(replies_by_slot):
            t_slot = sched.slot_start_us(r, slot)
            dt = (t_slot - sched.epoch_start_us) * 1e-6
            senders = replies_by_slot[slot]
            positions = {i: _road_xy(fleet, i, dt, geometry) for i in senders}
            reply_shadow = shadow(len(vrs), len(senders))
            tail = f"{epoch_index}\t{r}\t{slot}"
            events += [f"{t_slot}\tREPLY\tenp{i}\t-\t{tail}\t{int(fleet.vrn[i])}" for i in senders]
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
                    events.append(f"{t_slot}\tRX\t{vr_id}\t{pair}\t{tail}\t{vrn}")
                elif verdict == "collision":
                    events.append(f"{t_slot}\tCOLL\t{vr_id}\t{pair}\t{tail}\t-")
    return records, events


def engine_records(world, result, stream=0):
    """One stream's part of the engine's record table in the shape of
    :func:`reference_run_epoch`: per recorder id, each decoded vrn's
    (epoch, round, slot).  Tags are re-based to the stream's own fleet, the
    only place its VRNs are distinct."""
    lo, hi = world.offsets[stream], world.offsets[stream + 1]
    records = {recorder_id(vr): {} for vr in range(2 * world.geometry.n_pairs)}
    vrns = result.fleet_start.vrn[lo:hi].tolist()
    epoch = result.schedule.epoch_index
    for recorder, tag, rnd, slot in result.records.tolist():
        if lo <= tag < hi:
            records[recorder_id(recorder)][vrns[tag - lo]] = (epoch, rnd, slot)
    return records


def recorder_id(recorder):
    """The id of record-table recorder ``2 * pair + side``: vr<pair><a|b>."""
    return f"vr{recorder // 2}{'ab'[recorder % 2]}"


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


def reference_aggregate(accuracy):
    """The pooled statistics of a ``(..., 3)`` array of acc_1, acc_2 and
    acc_union rows, one row per (epoch, pair): rows of empty ground truth
    (NaN) dropped, then the iteration count, the mean and population std-dev
    of acc_union and the mean of acc_1 and acc_2 together, each a
    ``math.fsum`` over the rows' values; None if no row is left."""
    accuracy = np.asarray(accuracy, dtype=float).reshape(-1, 3)
    accuracy = accuracy[~np.isnan(accuracy[:, 2])]
    if not len(accuracy):
        return None
    union, singles = accuracy[:, 2].tolist(), accuracy[:, :2].ravel().tolist()
    mean = math.fsum(union) / len(union)
    return {
        "iterations": len(union),
        "mean_acc_union": mean,
        "std_acc_union": math.sqrt(math.fsum((u - mean) ** 2 for u in union) / len(union)),
        "mean_acc_single": math.fsum(singles) / len(singles),
    }
