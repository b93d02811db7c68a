"""The epoch schedule and the simulation engine.

An epoch is one sync period: a flooding-sync window (no radio traffic
modeled inside it) followed by back-to-back query rounds.  Each round is one
probe emission plus ``slot_count`` reply slots.  All recorder pairs share the
identical schedule; the two recorders of a pair transmit byte-identical
probes simultaneously, and every tag that decodes a probe answers in the
slot its registration number hashes to.  Reception is resolved independently
at every receiver under the capture rule.

:func:`run_epoch` only starts an epoch; one pass runs every epoch waiting
on a world, in blocks of its (epoch, round) rows of at most
``MAX_REPLY_LINKS`` probe links.  Its probe phase runs round by round,
deciding the codes alone of the probe at every tag, because of the
shadowing draw order alone; a trace's winning pairs are found once a block.
The reply phase draws nothing of its own, so one capture call decides every
occupied (epoch, round, stream, slot) of a block at every recorder, over the
flat (repliers x recorders) powers grouped by slot; each epoch takes its
results once, at the end of the pass.  Each stream takes the
shadowing values of a slot-by-slot resolution of it alone, in order (drawn
ahead within a block): outputs depend on neither batching nor other streams.
Positions come from the epoch-start fleet snapshot at each schedule event,
so ground-truth sampling and decode decisions see bit-identical geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .events import event_lines
from .mobility import Fleet, RoadGeometry, advance, positions_at, positions_at_each
from .radio import RECEIVED_CODE, RadioParams, capture_codes, capture_verdicts, received_power_dbm
from .slot_hash import HashParams, round_seed, slot_for

# bench/spans.py wraps this name to count frames built; the engine builds none (ROADMAP item 4)
ProbeFrame = None


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
                raise ValueError(f"timing.{name} must be > 0")
        if self.sync_window_us >= self.glossy_period_us:
            raise ValueError("timing.sync_window_us must be smaller than timing.glossy_period_us")


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

    def round_start_us(self, round_index):
        """Start of a round; elementwise over an integer array of rounds."""
        return self.epoch_start_us + self.sync_window_us + round_index * self.round_len_us

    def slot_start_us(self, round_index, slot):
        """Start of a reply slot; elementwise over integer arrays of rounds
        and slots, broadcast together."""
        return self.round_start_us(round_index) + self.probe_len_us + slot * self.slot_len_us

    def sample_times_us(self) -> np.ndarray:
        """Every probe and slot start time of the epoch, ascending."""
        rounds = np.arange(self.round_count, dtype=np.int64)[:, None]
        slots = np.arange(self.slot_count, dtype=np.int64)
        return np.hstack((self.round_start_us(rounds), self.slot_start_us(rounds, slots))).ravel()


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
    """Mutable simulation state: the fleet and generator of each independent
    stream (one, or a sequence of each), plus the recorder and channel
    context they share.  Stream b holds the tags ``offsets[b]`` to
    ``offsets[b + 1] - 1`` of the concatenated ``fleet`` on the geometry's
    ring, fixed for the world's lifetime; reply slots are hashed once up
    front.  With ``record_events`` each epoch's result keeps its trace."""

    def __init__(
        self,
        fleet: Fleet | Sequence[Fleet],
        geometry: RoadGeometry,
        radio: RadioParams,
        hash_params: HashParams,
        timing: TimingParams,
        rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
        *,
        record_events: bool = False,
    ):
        fleets, rngs = ([fleet], [rng]) if isinstance(fleet, Fleet) else (list(fleet), rng)
        if not fleets or isinstance(rngs, np.random.Generator):
            raise ValueError("a world needs at least one fleet, and a sequence of fleets "
                             "a sequence of rngs")
        rngs = list(rngs or [None] * len(fleets))
        if len(rngs) != len(fleets) or (radio.shadowing_sigma_db > 0 and None in rngs):
            raise ValueError("every fleet needs an rng of its own (None only without shadowing)")
        if any(f.ring_length_m != geometry.ring_length_m for f in fleets):
            raise ValueError("every fleet must be on the geometry's ring")
        columns = zip(*((f.vrn, f.x, f.y, f.speed_mps) for f in fleets))
        self.fleet = Fleet(*map(np.concatenate, columns), geometry.ring_length_m)
        self.offsets = np.cumsum([0] + [len(f) for f in fleets])
        self.geometry = geometry
        self.radio = radio
        self.hash_params = hash_params
        self.timing = timing
        self.rngs = rngs
        self.record_events = record_events
        self.enp_slots = slot_for(self.fleet.vrn, hash_params)
        self.pending = []  # the epochs waiting for a pass (see run_epoch)
        # recorder 2 * pair + side as (2P,) columns, side 0 (a) then 1 (b)
        pairs = range(geometry.n_pairs)
        xy = np.array([pos for p in pairs for pos in geometry.vr_positions(p)], dtype=float)
        self.vr_x = xy[:, 0]
        self.vr_y = xy[:, 1]


class EpochResult:
    """Everything one epoch produced: the schedule it ran on, the fleet
    snapshot it started from, the record table and, in a world recording
    events, the verdict trace :func:`enpsim.events.event_lines` formats.

    ``records`` is int64 ``(n, 4)``: (recorder, tag, round, slot) of the
    first decode of each (recorder, tag), sorted by recorder then tag.
    Recorder ``2 * pair + side`` is that side (a 0, b 1) of that pair and
    the tag indexes ``fleet_start`` (all streams); VRNs stay in its uint64
    ``vrn`` column, which an int64 one would wrap.  ``trace`` is the world's
    stream offsets, the round, tag and winning pair (-1 where none) of each
    probe verdict not silence, and the epoch's reply verdict arrays (see
    :func:`_resolve_replies`); :func:`_run_pass` sets both once.

    The first read of ``records``, ``trace``, ``events`` or ``decoded``
    runs the pass of every epoch still waiting on the world, this one too.
    """

    def __init__(self, schedule: EpochSchedule, fleet_start: Fleet, world: World):
        self.schedule = schedule
        self.fleet_start = fleet_start
        self._world = world  # None once its pass has run
        self._records = None
        self._trace = None

    @property
    def records(self) -> np.ndarray:
        if self._world is not None:
            _run_pass(self._world)
        return self._records

    @property
    def trace(self) -> tuple | None:
        self.records  # runs the epoch's pass if it still waits
        return self._trace

    @property
    def events(self) -> list[str] | None:
        """Every stream's event lines in turn; None without a trace."""
        if self.trace is None:
            return None
        return [line for lines in event_lines([self]) for line in lines]

    def decoded(self, n_pairs: int) -> np.ndarray:
        """A ``(pairs, 2, vehicles)`` bool mask: True where recorder a (0) or
        b (1) of the pair decoded the tag."""
        mask = np.zeros((2 * n_pairs, len(self.fleet_start)), dtype=bool)
        records = self.records
        mask[records[:, 0], records[:, 1]] = True
        return mask.reshape(n_pairs, 2, -1)


# Most links a block of probe powers (row x recorder x tag) holds, unless one
# round alone has more; its reply links (replier x recorder) are fewer: 2 MB
# per float array, a few rounds of the largest fleet (100,000 links a round
# at 10,000 vehicles and 5 pairs).  It also sizes the ground-truth scan's
# blocks, of (boundary, vehicle) positions (metrics.ground_truth).  Within a
# block each stream draws its shadowing ahead, the same values in the same
# order, up to DRAW_AHEAD (16 KB) a call where that holds a take and a row's
# probe values, else each take alone.
MAX_REPLY_LINKS = 2**18
DRAW_AHEAD = 2**11


def run_epoch(world: World, epoch_index: int) -> EpochResult:
    """Start one full epoch of every stream: build its schedule, snapshot
    the fleet and advance it to the epoch's end.  The epoch's probe and
    reply phases wait on the world for :func:`_run_pass`, which runs every
    waiting epoch when a result is first read; reading each result at once
    gives the same outputs."""
    sched = build_epoch_schedule(world.timing, world.hash_params.slot_count, epoch_index)
    result = EpochResult(sched, world.fleet, world)
    world.fleet = advance(world.fleet, sched.glossy_period_us * 1e-6)
    world.pending.append(result)
    return result


def _run_pass(world: World) -> None:
    """The probe and reply phases of every epoch waiting on the world, in
    order, over the pass's (epoch, round) rows in blocks of at most
    ``MAX_REPLY_LINKS`` probe links (row x recorder x tag), at least one row.
    A block may span epochs; one positions call over its rows' epoch-start
    snapshots gives its zero-shadow powers.  Row by row, as the shadowing
    order alone demands (round r + 1's probe values follow round r's reply
    values, as many as its probe decodes), a row adds its probe values and
    writes the codes alone at every tag (pair replicas merged, cross-pair
    probes contending); each stream takes the values a world of it alone
    would (:class:`_Shadowing`), stitched along the tag axis.  A world of
    one stream (every single-replication run) stitches nothing, so its row
    loop slices each take from the window, since call overhead is most of a
    small row's time, and with one pair a tag's lone signal meets no
    interference, so the floor alone decides it.  A probe link yields at
    most one reply link, so one :func:`_resolve_replies` call per block,
    over the pass's rows and the (epochs, tags) start positions stacked
    once, keeps the budget.  Each epoch then takes its record table, from
    every block's first decodes in block order, and its trace, once: of its
    probe verdicts, a block keeps only those not silence, with the pair of
    the strongest of their shadowed links, found after its rows, where
    RECEIVED."""
    results, world.pending = world.pending, []
    for res in results:
        res._world = None
    geom, radio, sigma = world.geometry, world.radio, world.radio.shadowing_sigma_db
    n_vr, n_enp, cuts = world.vr_x.size, len(world.fleet), world.offsets.tolist()
    # no stream draws without shadowing, nor an empty one
    streams = [(_Shadowing(rng, sigma, n_vr * (hi - lo)), lo, hi)
               for rng, lo, hi in zip(world.rngs, cuts, cuts[1:]) if sigma > 0 and hi > lo]
    sched = results[0].schedule  # every epoch probes at the same offsets from its start
    n_rounds, n_rows = sched.round_count, sched.round_count * len(results)
    dt = (sched.round_start_us(np.arange(n_rounds)) - sched.epoch_start_us) * 1e-6
    starts = np.stack([res.fleet_start.x for res in results])  # (epochs, tags)
    block = max(1, MAX_REPLY_LINKS // max(1, n_vr * n_enp))  # rows of zero-shadow powers
    events = world.record_events
    lean, floor = world.offsets.size == 2, radio.sensitivity_dbm  # one stream: lean rows
    one, at = (streams[0][0] if lean and streams else None), 0  # its shadowing and cursor
    blocks, probes = [], []  # each block's first decodes (epochs, table) and verdicts
    for b in range(0, n_rows, block):
        end = min(b + block, n_rows)
        # (rows, 2P, V) distances, then zero-shadow powers, each row from its epoch's start
        epoch, rnd = np.divmod(np.arange(b, end), n_rounds)
        power = geom.road_x(positions_at(world.fleet, dt[rnd], starts[epoch]))[:, None]
        power = power - world.vr_x[:, None]
        np.hypot(power, world.fleet.y - world.vr_y[:, None], out=power)
        received_power_dbm(power, radio, tx_power_dbm=radio.probe_tx_power_dbm, out=power)
        out = np.empty(power.shape[::2], np.int8)
        received = out.view(np.bool_)  # one pair's codes: False/True are SILENCE/RECEIVED
        merged = np.empty((n_vr // 2, n_enp))  # a row's powers, a pair's replicas merged
        draws = []  # the block's reply shadowing
        for r, row_pw in enumerate(power.reshape(end - b, -1) if lean else ()):
            if one:  # one stream: its probe values, the window's next slice
                if at + one.row > one.size:  # a refill's take starts the new window
                    one.at, at = at, 0
                    one.take(one.row, end - b - r - 1)
                row_pw += one.buf[at:at + one.row]
                at += one.row
            if n_vr == 2:  # one pair: a lone signal, decoded where it clears the floor
                np.greater_equal(np.maximum(row_pw[:n_enp], row_pw[n_enp:]), floor, received[r])
            else:  # the pairs' probes contend, as below
                np.maximum(power[r, 0::2], power[r, 1::2], out=merged)
                capture_codes(merged, radio, out[r])
            if one and (k := n_vr * out[r].tobytes().count(RECEIVED_CODE)):  # reply values
                if at + k > one.size:  # a refill's take starts the new window
                    one.at, at = at, 0
                    one.take(k, end - b - r - 1)
                draws.append(one.buf[at:at + k])
                at += k
        for r, link_pw in enumerate(() if lean else power):
            later = end - b - r - 1  # the block's rows after this one
            if streams:  # each stream's probe shadowing, stitched along the tag axis
                shadow = [s.take(s.row, later).reshape(n_vr, -1) for s, lo, hi in streams]
                link_pw += shadow[0] if len(shadow) == 1 else np.hstack(shadow)
            # a pair's byte-identical probes: non-destructive replicas, strongest link counts
            np.maximum(link_pw[0::2], link_pw[1::2], out=merged)
            heard = capture_codes(merged, radio, out[r]).tobytes()
            for s, lo, hi in streams:  # each stream's repliers take their reply shadowing
                k = heard.count(RECEIVED_CODE, lo, hi)
                if k:  # a view of a larger buffer would hold all of it to the block's end
                    drawn = s.take(n_vr * k, later)
                    draws.append(drawn.copy() if drawn.base.size > drawn.size else drawn)
        row, tag = np.divmod(np.flatnonzero(out == RECEIVED_CODE), max(n_enp, 1))
        blocks.append(_resolve_replies(world, results, starts, row + b, tag, _joined(draws)))
        if events:  # the verdicts heard: epoch, round, tag and winning pair (-1 where none)
            row, tag = np.divmod(np.flatnonzero(out != 0), max(n_enp, 1))
            # the pair of the strongest shadowed link, the first where several are
            pair = power[row, :, tag].argmax(axis=1) // 2
            probes.append((*np.divmod(row + b, n_rounds), tag,
                           np.where(out[row, tag] == RECEIVED_CODE, pair, -1)))

    # each epoch's first decodes, sorted by (epoch, recorder, tag), and
    # slots; one block's table holds only first decodes already
    epochs, tables, traces = zip(*blocks)
    epoch, table = _joined(epochs), _joined(tables)
    if len(tables) > 1:
        kept = _firsts((epoch * n_vr + table[:, 0]) * n_enp + table[:, 1])
        epoch, table = epoch[kept], table[kept]
    ends = np.arange(len(results) + 1)
    rows_at = np.searchsorted(epoch, ends).tolist()
    if events:
        slot_epoch, slot_tags, counts, *slot_trace = map(_joined, zip(*traces))
        slots_at = np.searchsorted(slot_epoch, ends).tolist()
        tags_at = np.append(0, np.cumsum(counts))[slots_at].tolist()
        probe_epoch, *probe_trace = map(_joined, zip(*probes))
        probes_at = np.searchsorted(probe_epoch, ends).tolist()
    for e, res in enumerate(results):
        res._records = table[rows_at[e]:rows_at[e + 1]]
        if events:
            g, t = slice(slots_at[e], slots_at[e + 1]), slice(tags_at[e], tags_at[e + 1])
            p = slice(probes_at[e], probes_at[e + 1])
            res._trace = (world.offsets, tuple(a[p] for a in probe_trace),
                          (slot_tags[t], counts[g], *(a[g] for a in slot_trace)))


class _Shadowing:
    """One stream's shadowing values in its generator's order, drawn ahead
    into the window ``buf[at:size]``: ``take(n, later)`` gives the next ``n``
    with ``later`` rows of ``row`` probe values still to come in the probe
    block, refilling the window where it lacks them (the refill's take starts
    the new window) but drawing none the block is not sure to take, so a
    block leaves the generator where per-take draws would."""

    def __init__(self, rng, sigma, row):
        self.normal, self.sigma, self.row = rng.normal, sigma, row
        self.buf, self.at, self.size = np.empty(0), 0, 0

    def take(self, n, later):
        at = self.at + n
        if at > self.size:
            left = self.buf[self.at:]
            ahead = n + self.row <= DRAW_AHEAD  # else the next probe take needs a call anyway
            size = (min(DRAW_AHEAD, n + later * self.row) if ahead else n) - left.size
            new = self.normal(0.0, self.sigma, size)
            self.buf, at = np.concatenate((left, new)) if left.size else new, n
            self.size = self.buf.size
        self.at = at
        return self.buf[at - n:at]


def _joined(arrays):
    """The arrays end to end: the one array itself, or float64 for none."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays) if arrays else np.empty(0)


def _resolve_replies(world, results, starts, row, tag, draws):
    """Resolve the reply slots of one probe block of the pass over
    ``results``, in one capture call: ``row`` and ``tag`` are each replier's
    (epoch, round) row, counting from round 0 of ``results[0]``, and tag,
    ascending, ``starts`` the (epochs, tags) start positions of the pass and
    ``draws`` the repliers' reply shadowing, each row's stream blocks in
    turn.  Only the repliers are hashed (under reseeding, each round's under
    that epoch and round's seed) and placed at the start of their slot from
    their own epoch's start.  Sorted by (epoch, round, stream, slot), each
    occupied slot is a run of rows of one (repliers x recorders) power
    array, which one capture call decides at every recorder.  Each slot
    takes its (recorders x contenders) block of the draws, in slot order,
    so each stream's results equal its slot-by-slot resolution.

    Returns the first decode of each (epoch, recorder, tag), sorted: its
    epoch and, as int64 ``(n, 4)`` rows, its (recorder, tag, round, slot);
    then, in a world recording events, the slots' epochs, the repliers' tags
    grouped by slot and, per occupied slot, its contender count, round,
    slot, (recorders,) verdict codes and winners' ranks in the slot (-1
    where none), or None.  Epochs count from ``results[0]``."""
    fleet, hp, n_vr = world.fleet, world.hash_params, world.vr_x.size
    sched = results[0].schedule  # every epoch has the same slot offsets from its start
    slot = world.enp_slots[tag]
    if hp.reseed_per_round and tag.size:  # each round's repliers under its own seed
        cuts = np.flatnonzero(np.diff(row)) + 1
        heads = np.divmod(row[np.append(0, cuts)], sched.round_count)
        seeds = [round_seed(hp.seed, results[e].schedule.epoch_index, r)
                 for e, r in zip(*(a.tolist() for a in heads))]
        slot = np.concatenate([slot_for(fleet.vrn[t], replace(hp, seed=seed))
                               for t, seed in zip(np.split(tag, cuts), seeds)])
    # group by (epoch, round, stream, slot); a stable sort keeps vehicle order in each slot
    stream = np.searchsorted(world.offsets, tag, side="right") - 1
    key = (row * (world.offsets.size - 1) + stream) * sched.slot_count + slot
    order = np.argsort(key, kind="stable")
    row, tag, slot, key = row[order], tag[order], slot[order], key[order]
    epoch, rnd = np.divmod(row, sched.round_count)
    first = np.flatnonzero(np.diff(key, prepend=-1))
    counts = np.diff(first, append=key.size)

    # every replier at the start of its own slot, from its own epoch's snapshot
    tx = fleet.take(tag)
    dt = (sched.slot_start_us(rnd, slot) - sched.epoch_start_us) * 1e-6
    tx_road_x = world.geometry.road_x(positions_at_each(tx, dt, starts[epoch, tag]))
    # (repliers, 2P) distances, then powers in place: less heap to take anew
    power = np.subtract.outer(tx_road_x, world.vr_x)
    np.hypot(power, np.subtract.outer(tx.y, world.vr_y), out=power)
    received_power_dbm(power, world.radio, out=power)
    if world.radio.shadowing_sigma_db > 0:
        # one (2P, k) block per occupied slot, back to back in key order: row i
        # of a slot of k from first holds column i - first of the block at 2P * first
        first_of, k = np.repeat(first, counts), np.repeat(counts, counts)[:, None]
        at = (np.arange(key.size) + (n_vr - 1) * first_of)[:, None] + k * np.arange(n_vr)
        power += draws[at]
        del at
    codes, winners = capture_verdicts(power, world.radio, first)  # (slots, 2P)
    del power

    # the first decode of each (epoch, recorder, tag)
    rx_group, rx_vr = np.nonzero(codes == RECEIVED_CODE)
    rx = winners[rx_group, rx_vr]  # the decoded repliers' rows
    kept = _firsts((epoch[rx] * n_vr + rx_vr) * len(fleet) + tag[rx])
    rx, rx_vr = rx[kept], rx_vr[kept]
    table = np.column_stack((rx_vr, tag[rx], rnd[rx], slot[rx])).astype(np.int64, copy=False)
    if not world.record_events:
        return epoch[rx], table, None
    ranks = np.where(winners >= 0, winners - first[:, None], -1)
    return epoch[rx], table, [epoch[first], tag, counts, rnd[first], slot[first], codes, ranks]


def _firsts(cells):
    """The index of the first of each distinct value of ``cells`` (ints >= 0), by value."""
    first = np.full(int(cells.max()) + 1 if cells.size else 0, cells.size, dtype=np.intp)
    np.minimum.at(first, cells, np.arange(cells.size))
    return first[first < cells.size]
