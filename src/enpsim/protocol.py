"""The epoch schedule and the per-epoch simulation engine.

An epoch is one sync period: a flooding-sync window (no radio traffic
modeled inside it) followed by back-to-back query rounds.  Each round is one
probe emission plus ``slot_count`` reply slots.  All recorder pairs share the
identical schedule; the two recorders of a pair transmit byte-identical
probes simultaneously, and every tag that decodes a probe answers in the
slot its registration number hashes to.  Reception is resolved independently
at every receiver under the capture rule.

The engine resolves one round at a time: one capture call decides the
probe at every tag, and one more decides every occupied reply slot of the
round at every recorder, over a (slots x contenders x recorders) power
tensor padded with -inf.  Shadowing is drawn once per phase, in the order a
slot-by-slot resolution would draw it, so outputs do not depend on the
batching.  Positions come directly from the epoch-start fleet snapshot at
each schedule event, so ground-truth sampling and decode decisions see
bit-identical geometry.  Each round keeps its decodes as arrays; the epoch
reduces them once to a record table of first decodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Unused by the engine, but the benchmark's layer tracer (bench/spans.py)
# counts probe frames by patching this module's ProbeFrame binding.
from .frames import ProbeFrame  # noqa: F401
from .mobility import Fleet, RoadGeometry, advance, positions_at, positions_at_each
from .radio import (
    COLLISION_CODE,
    RECEIVED_CODE,
    RadioParams,
    capture_verdicts,
    received_power_dbm,
)
from .slot_hash import HashParams, round_seed, slot_for


# Longest accepted sync period (10 s; the paper uses 512 ms).  The schedule
# holds one sample time per probe and slot of the period.
MAX_GLOSSY_PERIOD_US = 10_000_000


@dataclass(frozen=True)
class TimingParams:
    """Schedule constants, all in microseconds."""

    glossy_period_us: int = 512_000
    sync_window_us: int = 20_000
    probe_len_us: int = 2_000
    slot_len_us: int = 2_000

    def __post_init__(self) -> None:
        for name in ("glossy_period_us", "sync_window_us", "probe_len_us", "slot_len_us"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.glossy_period_us > MAX_GLOSSY_PERIOD_US:
            raise ValueError(
                f"timing.glossy_period_us must be <= {MAX_GLOSSY_PERIOD_US}, "
                f"got {self.glossy_period_us}"
            )
        if self.sync_window_us >= self.glossy_period_us:
            raise ValueError("sync_window_us must be smaller than glossy_period_us")


@dataclass(frozen=True)
class EpochSchedule:
    """Absolute event times of one epoch; rounds are packed back-to-back
    after the sync window and the whole schedule fits within the period."""

    epoch_index: int
    epoch_start_us: int
    glossy_period_us: int
    sync_window_us: int
    probe_len_us: int
    slot_len_us: int
    slot_count: int
    round_count: int

    @property
    def round_len_us(self) -> int:
        return self.probe_len_us + self.slot_count * self.slot_len_us

    def round_start_us(self, round_index: int) -> int:
        return self.epoch_start_us + self.sync_window_us + round_index * self.round_len_us

    def slot_start_us(self, round_index: int, slot: int) -> int:
        return self.round_start_us(round_index) + self.probe_len_us + slot * self.slot_len_us

    def sample_times_us(self) -> np.ndarray:
        """Every probe and slot start time of the epoch, ascending."""
        rounds = np.arange(self.round_count, dtype=np.int64)
        round_start = self.round_start_us(0) + rounds * self.round_len_us
        slots = np.arange(self.slot_count, dtype=np.int64)
        offsets = np.concatenate(([0], self.probe_len_us + slots * self.slot_len_us))
        return (round_start[:, None] + offsets).ravel()


def build_epoch_schedule(
    timing: TimingParams, slot_count: int, epoch_index: int
) -> EpochSchedule:
    """Pack as many whole rounds as fit between the sync window and the end
    of the period.  Rejects configurations where not even one round fits."""
    if slot_count < 1:
        raise ValueError(f"slot_count must be >= 1, got {slot_count}")
    round_len = timing.probe_len_us + slot_count * timing.slot_len_us
    round_count = (timing.glossy_period_us - timing.sync_window_us) // round_len
    if round_count < 1:
        raise ValueError(
            "no room for a single round: "
            f"period {timing.glossy_period_us} us, sync {timing.sync_window_us} us, "
            f"round length {round_len} us"
        )
    return EpochSchedule(
        epoch_index=epoch_index,
        epoch_start_us=epoch_index * timing.glossy_period_us,
        glossy_period_us=timing.glossy_period_us,
        sync_window_us=timing.sync_window_us,
        probe_len_us=timing.probe_len_us,
        slot_len_us=timing.slot_len_us,
        slot_count=slot_count,
        round_count=round_count,
    )


class World:
    """Mutable simulation state: the fleet plus recorder and channel context.

    The fleet's composition (identities, speeds) is fixed for the world's
    lifetime; reply slots are therefore hashed once up front."""

    def __init__(
        self,
        fleet: Fleet,
        geometry: RoadGeometry,
        radio: RadioParams,
        hash_params: HashParams,
        timing: TimingParams,
        rng: np.random.Generator | None = None,
    ):
        if radio.shadowing_sigma_db > 0 and rng is None:
            raise ValueError("rng is required when shadowing is on")
        self.fleet = fleet
        self.geometry = geometry
        self.radio = radio
        self.hash_params = hash_params
        self.timing = timing
        self.rng = rng
        self.enp_slots = slot_for(fleet.vrn, hash_params)
        # recorders as (2P,) columns in pair-major order, sides named a/b
        pairs = range(geometry.n_pairs)
        self.vr_ids = tuple(f"vr{p}{side}" for p in pairs for side in "ab")
        self.vr_pair = np.repeat(np.arange(geometry.n_pairs), 2)
        xy = np.array([pos for p in pairs for pos in geometry.vr_positions(p)], dtype=float)
        self.vr_x = xy[:, 0]
        self.vr_y = xy[:, 1]


@dataclass
class EpochResult:
    """Everything one epoch produced: the schedule it ran on, the fleet
    snapshot it started from, and the record table.

    ``records`` is int64 ``(n, 4)``: (recorder, tag, round, slot) of the
    first decode of each (recorder, tag), sorted by recorder then tag.  The
    recorder indexes ``World.vr_ids`` and the tag indexes ``fleet_start``;
    VRNs stay in its uint64 ``vrn`` column, which an int64 one would wrap.
    """

    epoch_index: int
    schedule: EpochSchedule
    fleet_start: Fleet
    records: np.ndarray
    events: list[str] | None = None

    def decoded(self, n_pairs: int) -> np.ndarray:
        """A ``(pairs, 2, vehicles)`` bool mask: True where recorder a (0) or
        b (1) of the pair decoded the tag.  Recorder ``2 * pair + side`` of
        the table is that side of that pair, as in ``World.vr_ids``."""
        mask = np.zeros((2 * n_pairs, len(self.fleet_start)), dtype=bool)
        mask[self.records[:, 0], self.records[:, 1]] = True
        return mask.reshape(n_pairs, 2, -1)


def _first_decodes(decodes: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]], n_enp: int):
    """The record table of per-round (round, recorders, tags, slots)
    decodes given in round order: the first decode of a (recorder, tag) wins."""
    if not decodes:
        return np.empty((0, 4), dtype=np.int64)
    rounds, recorder, tag, slot = zip(*decodes)
    table = np.column_stack((
        np.concatenate(recorder),
        np.concatenate(tag),
        np.repeat(rounds, [len(t) for t in tag]),
        np.concatenate(slot),
    )).astype(np.int64, copy=False)
    _, first = np.unique(table[:, 0] * n_enp + table[:, 1], return_index=True)
    return table[first]


def run_epoch(world: World, epoch_index: int, record_events: bool = False) -> EpochResult:
    """Run one full epoch and advance the world's fleet to its end.

    Per round: the fleet is moved to the probe time and every tag resolves
    probe reception against all pairs' concurrent probes (pair replicas
    merged, cross-pair probes contending).  Then the whole reply phase of
    the round is resolved as one batch: every tag that decoded a probe is
    placed at the start of its own slot, the repliers are grouped by slot
    into a (slots x contenders x recorders) power tensor padded with -inf,
    and one capture call decides every occupied slot at every recorder
    independently.  The shadowing draws keep the order of a slot-by-slot
    resolution (slot, then recorder, then contender), so results do not
    depend on the batching.  Each round's decodes stay arrays until the
    epoch ends and reduces them to the record table.  Event ordering is
    fully determined by the schedule.
    """
    hash_params = world.hash_params
    sched = build_epoch_schedule(world.timing, hash_params.slot_count, epoch_index)
    fleet = world.fleet
    geom = world.geometry
    radio = world.radio
    rng = world.rng
    sigma = radio.shadowing_sigma_db
    n_pairs = geom.n_pairs
    n_enp = len(fleet)
    events: list[str] | None = [] if record_events else None
    vr_ids = world.vr_ids
    n_vr = len(vr_ids)
    vr_pair = world.vr_pair.tolist()
    decodes = []  # (round, recorders, tags, slots) of every decoded reply

    def log(time_us, event, node, pair, rnd, slot, vrn):
        events.append(
            f"{time_us}\t{event}\t{node}\t{pair}\t{epoch_index}\t{rnd}\t{slot}\t{vrn}"
        )

    for r in range(sched.round_count):
        if hash_params.reseed_per_round:
            seed = round_seed(hash_params.seed, epoch_index, r)
            enp_slots = slot_for(fleet.vrn, replace(hash_params, seed=seed))
        else:
            enp_slots = world.enp_slots

        # ---- probe phase: every tag resolves the concurrent probes ----
        t_probe = sched.round_start_us(r)
        dt = (t_probe - sched.epoch_start_us) * 1e-6
        road_x = geom.road_x(positions_at(fleet, dt))

        if events is not None:
            for vr_id, pair in zip(vr_ids, vr_pair):
                log(t_probe, "PROBE", vr_id, pair, r, "-", "-")

        if not n_enp:
            continue
        # received power at every recorder from every tag, (2P, V)
        d = np.hypot(
            road_x[None, :] - world.vr_x[:, None], fleet.y[None, :] - world.vr_y[:, None]
        )
        shadow = rng.normal(0.0, sigma, size=d.shape) if sigma > 0 else 0.0
        link_pw = received_power_dbm(d, radio, shadow, tx_power_dbm=radio.probe_tx_power_dbm)
        # the two recorders of a pair send byte-identical probes:
        # non-destructive replicas, strongest link counts
        group_pw = link_pw.reshape(n_pairs, 2, n_enp).max(axis=1)
        codes, winners = capture_verdicts(group_pw, radio)
        if events is not None:
            for i, code, pair in zip(range(n_enp), codes.tolist(), winners.tolist()):
                if code == RECEIVED_CODE:
                    log(t_probe, "RX", f"enp{i}", pair, r, "-", "-")
                elif code == COLLISION_CODE:
                    log(t_probe, "COLL", f"enp{i}", "-", r, "-", "-")

        # ---- reply phase: tags that decoded a probe answer in their slot ----
        repliers = np.flatnonzero(codes == RECEIVED_CODE)
        if not repliers.size:
            continue
        # group by slot; a stable sort keeps vehicle order inside each slot
        idx = repliers[np.argsort(enp_slots[repliers], kind="stable")]
        slots = enp_slots[idx]
        first = np.flatnonzero(np.concatenate(([True], slots[1:] != slots[:-1])))
        counts = np.diff(np.append(first, idx.size))
        occupied = slots[first]
        group = np.repeat(np.arange(first.size), counts)
        rank = np.arange(idx.size) - first[group]  # position inside its slot

        # every replier at the start of its own slot
        dt = (sched.slot_start_us(r, enp_slots) - sched.epoch_start_us) * 1e-6
        tx_road_x = geom.road_x(positions_at_each(fleet, dt)[idx])
        d = np.hypot(
            tx_road_x[:, None] - world.vr_x[None, :], fleet.y[idx, None] - world.vr_y[None, :]
        )  # (repliers, 2P)
        if sigma > 0:
            # one (2P, k) block per occupied slot, back to back in slot order
            draws = rng.normal(0.0, sigma, size=n_vr * idx.size)
            at = (n_vr * first[group] + rank)[:, None] + np.arange(n_vr) * counts[group][:, None]
            shadow = draws[at]
        else:
            shadow = 0.0
        power = np.full((first.size, counts.max(), n_vr), -np.inf)
        power[group, rank] = received_power_dbm(d, radio, shadow)
        codes, winners = capture_verdicts(power, radio)  # (slots, 2P)

        rx_group, rx_vr = np.nonzero(codes == RECEIVED_CODE)
        rx_tag = idx[first[rx_group] + winners[rx_group, rx_vr]]
        decodes.append((r, rx_vr, rx_tag, occupied[rx_group]))

        if events is not None:
            vrns = fleet.vrn[idx].tolist()
            slot_spans = zip(occupied.tolist(), first.tolist(), counts.tolist())
            for g, (s, lo, k) in enumerate(slot_spans):
                t_slot = sched.slot_start_us(r, s)
                for i, vrn in zip(idx[lo:lo + k].tolist(), vrns[lo:lo + k]):
                    log(t_slot, "REPLY", f"enp{i}", "-", r, s, vrn)
                for j, (code, w) in enumerate(zip(codes[g].tolist(), winners[g].tolist())):
                    if code == RECEIVED_CODE:
                        log(t_slot, "RX", vr_ids[j], vr_pair[j], r, s, vrns[lo + w])
                    elif code == COLLISION_CODE:
                        log(t_slot, "COLL", vr_ids[j], vr_pair[j], r, s, "-")

    world.fleet = advance(fleet, sched.glossy_period_us * 1e-6)
    return EpochResult(
        epoch_index=epoch_index,
        schedule=sched,
        fleet_start=fleet,
        records=_first_decodes(decodes, n_enp),
        events=events,
    )
