"""The epoch schedule and the per-epoch simulation engine.

An epoch is one sync period: a flooding-sync window (no radio traffic
modeled inside it) followed by back-to-back query rounds.  Each round is one
probe emission plus ``slot_count`` reply slots.  All recorder pairs share the
identical schedule; the two recorders of a pair transmit byte-identical
probes simultaneously, and every tag that decodes a probe answers in the
slot its registration number hashes to.  Reception is resolved independently
at every receiver under the capture rule.

The engine resolves the probe phase round by round, one capture call deciding
the probe at every tag, because of the shadowing draw order alone.  The reply
phase draws nothing of its own (its shadowing is drawn in the probe loop), so
each round with repliers waits in the world's reply queue until a result is
read: then one capture call decides every queued occupied (epoch, round,
stream, slot) at every recorder, over the flat (repliers x recorders) powers
grouped by slot; a queue with very many repliers is resolved in runs of
rounds, to bound its memory.  Each stream draws its shadowing in the order a
slot-by-slot resolution of it alone would, so outputs depend neither on the
batching nor on the other streams.
Positions come from the epoch-start fleet snapshot at each schedule event, so
ground-truth sampling and decode decisions see bit-identical geometry.  The
epoch's decodes reduce to one record table; the engine builds no event text.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .events import event_lines

# Unused by the engine, but the benchmark's layer tracer (bench/spans.py)
# counts probe frames by patching this module's ProbeFrame binding.
from .frames import ProbeFrame  # noqa: F401
from .mobility import Fleet, RoadGeometry, advance, positions_at, positions_at_each
from .radio import RECEIVED_CODE, RadioParams, capture_verdicts, received_power_dbm
from .slot_hash import HashParams, round_seed, slot_for


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
    context they share.  Stream b holds the ``sizes[b]`` tags ``offsets[b]``
    to ``offsets[b + 1] - 1`` of the concatenated ``fleet``, whose composition
    is fixed for the world's lifetime; reply slots are hashed once up front."""

    def __init__(
        self,
        fleet: Fleet | Sequence[Fleet],
        geometry: RoadGeometry,
        radio: RadioParams,
        hash_params: HashParams,
        timing: TimingParams,
        rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
    ):
        fleets, rngs = ([fleet], [rng]) if isinstance(fleet, Fleet) else (fleet, rng)
        rngs = list(rngs or [None] * len(fleets))
        if len(rngs) != len(fleets) or (radio.shadowing_sigma_db > 0 and None in rngs):
            raise ValueError("every fleet needs an rng of its own (None only without shadowing)")
        columns = zip(*((f.vrn, f.x, f.y, f.speed_mps) for f in fleets))
        self.fleet = Fleet(*map(np.concatenate, columns), fleets[0].ring_length_m)
        self.sizes = [len(f) for f in fleets]
        self.offsets = np.cumsum([0] + self.sizes)
        self.geometry = geometry
        self.radio = radio
        self.hash_params = hash_params
        self.timing = timing
        self.rngs = rngs
        self.enp_slots = slot_for(self.fleet.vrn, hash_params)
        # reply slots whose resolution waits (see run_epoch): one (result,
        # round, repliers, reply shadowing draws) entry per round with
        # repliers and per epoch's round 0; their (replier, recorder) links
        self.reply_queue, self.reply_links = [], 0
        # recorder 2 * pair + side as (2P,) columns, side 0 (a) then 1 (b)
        pairs = range(geometry.n_pairs)
        xy = np.array([pos for p in pairs for pos in geometry.vr_positions(p)], dtype=float)
        self.vr_x = xy[:, 0]
        self.vr_y = xy[:, 1]


class EpochResult:
    """Everything one epoch produced: the schedule it ran on, the fleet
    snapshot it started from, the record table and, with events recorded,
    the verdict trace :func:`enpsim.events.event_lines` formats.

    ``records`` is int64 ``(n, 4)``: (recorder, tag, round, slot) of the
    first decode of each (recorder, tag), sorted by recorder then tag.
    Recorder ``2 * pair + side`` is that side (a 0, b 1) of that pair and
    the tag indexes ``fleet_start`` (all streams); VRNs stay in its uint64
    ``vrn`` column, which an int64 one would wrap.  ``trace`` is the world's
    stream offsets, the (rounds, V) probe verdict codes and winning pairs
    (-1 where none), and the epoch's reply verdict arrays (see
    :func:`_resolve_replies`).

    The epoch's reply slots may still wait in its world's reply queue when
    :func:`run_epoch` returns; the first read of ``records``, ``trace``,
    ``events`` or ``decoded`` resolves every slot queued so far, the
    epoch's included, as none join once :func:`run_epoch` has returned.
    """

    def __init__(self, schedule: EpochSchedule, fleet_start: Fleet, world: World, probe_trace):
        self.schedule = schedule
        self.fleet_start = fleet_start
        self._world = world  # None once read
        self._probe = probe_trace  # (offsets, probe codes, probe pairs), None without events
        self._records = None
        self._replies = []  # the reply verdicts of each run that resolved some of its slots

    def _add_run(self, table, replies) -> None:
        """Take one reply run's first decodes and verdicts of this epoch."""
        if self._records is None:
            self._records = table
        else:  # earlier runs' rows come first
            self._records = _first_decodes(np.concatenate((self._records, table)),
                                           len(self.fleet_start))
        if self._probe is not None:
            self._replies.append(replies)

    @property
    def records(self) -> np.ndarray:
        if self._world is not None:
            if self._world.reply_queue:
                _resolve_replies(self._world)
            self._world = None
        return self._records

    @property
    def trace(self) -> tuple | None:
        self.records  # resolves the replies still queued
        if self._probe is None:
            return None
        if len(self._replies) > 1:
            self._replies = [tuple(map(np.concatenate, zip(*self._replies)))]
        return (*self._probe, self._replies[0])

    @property
    def events(self) -> list[str] | None:
        """Every stream's event lines in turn; None without a trace."""
        trace = self.trace
        if trace is None:
            return None
        return [line for lines in event_lines([self]) for line in lines]

    def decoded(self, n_pairs: int) -> np.ndarray:
        """A ``(pairs, 2, vehicles)`` bool mask: True where recorder a (0) or
        b (1) of the pair decoded the tag."""
        mask = np.zeros((2 * n_pairs, len(self.fleet_start)), dtype=bool)
        records = self.records
        mask[records[:, 0], records[:, 1]] = True
        return mask.reshape(n_pairs, 2, -1)


# Most links one reply capture call (replier x recorder) or one block of probe
# powers (round x recorder x tag) holds: 2 MB per float array, a few rounds at
# the largest fleet (10,000 vehicles x 5 pairs x 2 recorders is 100,000 links
# a round).  A preset epoch takes one probe block, and the replies of hundreds
# of preset epochs fit one reply call.
MAX_REPLY_LINKS = 2**18
# The reply shadowing a queued round holds without repliers or shadowing.
_NO_DRAWS = np.empty(0)


def run_epoch(world: World, epoch_index: int, record_events: bool = False) -> EpochResult:
    """Run the probe phase of one full epoch of every stream, queue its
    reply slots and advance the fleet to its end.

    The probe phase runs round by round: one capture call decides, at every
    tag, the concurrent probes of all pairs (pair replicas merged, cross-pair
    probes contending).  Only the shadowing draw order keeps it per round:
    round r + 1's probe draws follow round r's reply draws, whose count is
    the number of round r's probe decodes; positions and zero-shadow powers
    come from one call per block of at most ``MAX_REPLY_LINKS`` links.  Each
    stream draws from its own generator as a world of it alone would,
    stitched along the tag axis.  The reply phase draws nothing more, so its
    resolution can wait: each round with repliers, and round 0 (so every
    epoch gets a record table and reply trace), queues its repliers and
    their shadowing, and :func:`_resolve_replies` resolves the whole queue,
    across epochs, in one capture call when its repliers (of all streams)
    reach ``MAX_REPLY_LINKS`` links or when a queued result is first read.
    Reading each result at once gives one reply call an epoch.
    """
    hash_params = world.hash_params
    sched = build_epoch_schedule(world.timing, hash_params.slot_count, epoch_index)
    fleet = world.fleet
    geom = world.geometry
    radio = world.radio
    sigma = radio.shadowing_sigma_db
    n_enp = len(fleet)
    n_vr = world.vr_x.size
    sizes = world.sizes
    rounds = np.arange(sched.round_count)

    # ---- probe phase: every tag resolves the concurrent probes ----
    t_probe = sched.round_start_us(rounds)
    block = max(1, MAX_REPLY_LINKS // max(1, n_vr * n_enp))  # rounds of zero-shadow powers
    probe_codes = np.empty((rounds.size, n_enp), dtype=np.int8) if record_events else None
    probe_pair = np.empty((rounds.size, n_enp), dtype=np.intp) if record_events else None
    result = EpochResult(sched, fleet, world,
                         (world.offsets, probe_codes, probe_pair) if record_events else None)
    for r in rounds.tolist():
        if r % block == 0:  # power at every recorder from every tag, (rounds, 2P, V)
            dt = (t_probe[r:r + block] - sched.epoch_start_us) * 1e-6
            road_x = geom.road_x(positions_at(fleet, dt))[:, None]
            d = np.hypot(road_x - world.vr_x[:, None], fleet.y - world.vr_y[:, None])
            base_pw = received_power_dbm(d, radio, tx_power_dbm=radio.probe_tx_power_dbm)
        link_pw = base_pw[r % block]
        if sigma > 0:
            shadow = [rng.normal(0.0, sigma, size=(n_vr, k)) for rng, k in zip(world.rngs, sizes)]
            link_pw = link_pw + (shadow[0] if len(shadow) == 1 else np.concatenate(shadow, axis=1))
        # the two recorders of a pair send byte-identical probes:
        # non-destructive replicas, strongest link counts
        codes, pair = capture_verdicts(np.maximum(link_pw[0::2], link_pw[1::2]), radio)
        if record_events:
            probe_codes[r], probe_pair[r] = codes, pair
        tags = (codes == RECEIVED_CODE).nonzero()[0]
        if not tags.size and r:  # a silent round other than round 0 queues nothing
            continue
        draws = _NO_DRAWS
        if sigma > 0 and tags.size:  # each stream's repliers draw their reply shadowing
            counts = [tags.size]
            if len(sizes) > 1:
                counts = np.diff(np.searchsorted(tags, world.offsets)).tolist()
            blocks = [rng.normal(0.0, sigma, size=n_vr * k)
                      for rng, k in zip(world.rngs, counts) if k]
            draws = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        world.reply_queue.append((result, r, tags, draws))
        world.reply_links += n_vr * tags.size
        if world.reply_links >= MAX_REPLY_LINKS:
            _resolve_replies(world)

    world.fleet = advance(fleet, sched.glossy_period_us * 1e-6)
    return result


def _resolve_replies(world):
    """Resolve every queued reply slot of the world in one capture call and
    hand each queued epoch its part.

    The queue holds one entry per queued round, those of an epoch adjacent
    and in round order: its epoch's result, the round, its repliers
    (ascending tags) and their reply shadowing, each stream's block in turn.
    Only the repliers are hashed (under reseeding, each round's under that
    epoch and round's seed) and placed at the start of their slot from their
    own epoch's snapshot.  Sorted by (epoch, round, stream, slot),
    each occupied slot is a run of rows of one (repliers x recorders) power
    array, which one capture call decides at every recorder.  Each slot
    takes its (recorders x contenders) block of its draws, in slot order, so
    each stream's results equal its slot-by-slot resolution.  Each epoch
    gets the first decodes of its slots and, with events, the repliers' tags
    grouped by slot and, per occupied slot, its contender count, round, slot,
    and (recorders,) verdict codes and winners' ranks in the slot.
    """
    queue = world.reply_queue
    world.reply_queue, world.reply_links = [], 0
    results, rounds, heard, draws = zip(*queue)
    fleet = world.fleet
    hp = world.hash_params
    n_vr = world.vr_x.size
    sched = results[0].schedule  # every epoch has the same slot offsets from its start
    # each entry's (row's) epoch: an epoch's entries are adjacent, and each
    # epoch after the queue's first opens with its round 0
    row_round = np.array(rounds)
    opens = row_round == 0
    opens[0] = True
    row_epoch = np.cumsum(opens) - 1
    epochs = [results[i] for i in np.flatnonzero(opens).tolist()]
    tag = np.concatenate(heard)
    row = np.repeat(np.arange(len(heard)), [t.size for t in heard])
    slot = world.enp_slots[tag]
    if hp.reseed_per_round:  # each round's repliers hashed under that epoch and round's seed
        hashed = [slot_for(fleet.vrn[t],
                           replace(hp, seed=round_seed(hp.seed, res.schedule.epoch_index, r)))
                  for res, r, t in zip(results, rounds, heard) if t.size]
        slot = np.concatenate(hashed) if hashed else slot
    # group by (epoch, round, stream, slot); a stable sort keeps vehicle order in each slot
    stream = np.searchsorted(world.offsets, tag, side="right") - 1
    key = (row * (world.offsets.size - 1) + stream) * sched.slot_count + slot
    order = np.argsort(key, kind="stable")
    row, tag, slot, key = row[order], tag[order], slot[order], key[order]
    epoch, rnd = row_epoch[row], row_round[row]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    counts = np.diff(first, append=key.size)

    # every replier at the start of its own slot, from its own epoch's snapshot
    x = np.stack([res.fleet_start.x for res in epochs])[epoch, tag]
    tx = Fleet(fleet.vrn[tag], x, fleet.y[tag], fleet.speed_mps[tag], fleet.ring_length_m)
    dt = (sched.slot_start_us(rnd, slot) - sched.epoch_start_us) * 1e-6
    tx_road_x = world.geometry.road_x(positions_at_each(tx, dt))
    d = np.hypot(tx_road_x[:, None] - world.vr_x, tx.y[:, None] - world.vr_y)  # (repliers, 2P)
    shadow = 0.0
    if world.radio.shadowing_sigma_db > 0:
        # one (2P, k) block per occupied slot, back to back in key order: row i
        # of a slot of k from first holds column i - first of the block at 2P * first
        first_of, k = np.repeat(first, counts), np.repeat(counts, counts)[:, None]
        at = (np.arange(key.size) + (n_vr - 1) * first_of)[:, None] + k * np.arange(n_vr)
        shadow = np.concatenate(draws)[at]
    power = received_power_dbm(d, world.radio, shadow)
    codes, winners = capture_verdicts(power, world.radio, first)  # (slots, 2P)

    # the first decode of each (epoch, recorder, tag), split by epoch
    rx_group, rx_vr = np.nonzero(codes == RECEIVED_CODE)
    rx = winners[rx_group, rx_vr]  # the decoded repliers' rows
    _, kept = np.unique((epoch[rx] * n_vr + rx_vr) * len(fleet) + tag[rx], return_index=True)
    rx, rx_vr = rx[kept], rx_vr[kept]
    table = np.column_stack((rx_vr, tag[rx], rnd[rx], slot[rx])).astype(np.int64, copy=False)
    ends = np.arange(len(epochs) + 1)
    rows_at = np.searchsorted(epoch[rx], ends).tolist()
    slots_at = np.searchsorted(epoch[first], ends).tolist()
    tags_at = np.append(first, key.size)[slots_at].tolist()
    if any(res._probe is not None for res in epochs):  # each slot's round, slot and ranks
        slot_trace = rnd[first], slot[first], np.where(winners >= 0, winners - first[:, None], -1)
    for i, res in enumerate(epochs):
        replies = None
        if res._probe is not None:  # the epoch's slots and their repliers
            g, t = slice(slots_at[i], slots_at[i + 1]), slice(tags_at[i], tags_at[i + 1])
            slot_round, slot_no, ranks = (a[g] for a in slot_trace)
            replies = (tag[t], counts[g], slot_round, slot_no, codes[g], ranks)
        res._add_run(table[rows_at[i]:rows_at[i + 1]], replies)


def _first_decodes(table, n_tags):
    """The first row of each (recorder, tag), sorted by recorder then tag."""
    _, kept = np.unique(table[:, 0] * n_tags + table[:, 1], return_index=True)
    return table[kept]
