"""Ground truth, recording accuracy, and experiment aggregation.

Ground truth for a recorder pair holds the vehicles whose zero-shadowing
received power reaches the sensitivity floor at one of its recorders at some
probe or slot boundary of the epoch.  Sampling at exactly the schedule
boundaries with the engine's own link-budget test guarantees that, with
shadowing off, every decoded reply's sender is a ground-truth member.

Scoring takes a stack of epochs at once: :func:`ground_truth` decides every
(epoch, pair, vehicle) of a stack of epoch-start positions in one call, and
:func:`iteration_accuracy` counts the records of every (stream, epoch, pair)
of the stack from the decoded and ground-truth masks in another.  Scores stay
columns from there on: :func:`accuracies` divides them, :func:`tally` and
:func:`aggregate` pool them, and :func:`iteration_csv_rows` formats the rows.

The boundaries are not scanned one by one.  A vehicle that stays clear of
the ring seam moves monotonically, so over the boundaries its longitudinal
offset to a pair is smallest at the boundary nearest its closest approach,
and so is its distance to both recorders of the pair; that one boundary
decides the (pair, vehicle) cell.  Only cells it cannot decide go through
the test at every boundary (see :func:`ground_truth`).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, compress
from typing import Mapping, Sequence

import numpy as np

from . import protocol
from .mobility import Fleet, RoadGeometry, positions_at, positions_at_each, stays_on_ring
from .radio import RadioParams, received_power_dbm


# A miss at the nearest boundary counts as out of range only this far below
# the floor.  Rounding in the distance and power arithmetic is below 1e-9 dB
# for every accepted radio, so no other boundary can come within the margin.
GT_MARGIN_DB = 1e-6


def ground_truth(
    fleet: Fleet,
    x: np.ndarray,
    schedule,
    geometry: RoadGeometry,
    radio: RadioParams,
) -> np.ndarray:
    """An ``(epochs, pairs, vehicles)`` bool mask: True where the vehicle is
    within nominal range of the pair at some schedule boundary of the epoch.

    ``x`` holds the ``(epochs, vehicles)`` ring positions of ``fleet`` at the
    start of each epoch; the fleet gives the lateral offsets, speeds and
    ring.  All epochs share the boundary offsets of ``schedule``, any one of
    them, and each (epoch, vehicle) is decided on its own, so a stack gives
    bit for bit the rows of its epochs scored alone.  A vehicle is in range
    at a boundary when ``received_power_dbm(hypot(dx, dy)) >=
    sensitivity_dbm`` for either recorder, on positions computed exactly as
    the engine computes them, which keeps the containment of decoded
    records exact.

    Each (pair, epoch, vehicle) cell is decided at one boundary: the one of
    the two around the vehicle's closest longitudinal approach t* that is
    nearer to the pair.  A pass there is a pass.  A miss counts only when
    the vehicle does not cross the ring seam during the epoch (so its offset
    to the pair is monotone over the boundaries), the two boundaries really
    bracket the sign change of that offset, and the power is below the floor
    by at least ``GT_MARGIN_DB``; every other boundary is then at least as
    far away.  The vehicles of all remaining cells are tested at every
    boundary, in blocks of at most ``protocol.MAX_REPLY_LINKS`` positions.
    """
    times = schedule.sample_times_us()
    dts = (times - schedule.epoch_start_us) * 1e-6

    # each (epoch, vehicle) as a vehicle of its own
    n_epochs = len(x)
    fleet = Fleet(
        np.tile(fleet.vrn, n_epochs),
        np.ravel(x),
        np.tile(fleet.y, n_epochs),
        np.tile(fleet.speed_mps, n_epochs),
        fleet.ring_length_m,
    )
    vr_x = np.asarray(geometry.vr_pair_xs, dtype=float)[:, None]  # (P, 1)
    speed = fleet.speed_mps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_star = (vr_x - geometry.road_x(fleet.x)) / speed  # (P, E * V)
    t_star = np.where(speed == 0, dts[0], t_star)
    k = np.searchsorted(dts, t_star)  # first boundary at or after t*
    bracket = np.clip(np.stack([k - 1, k]), 0, len(dts) - 1)  # (2, P, E * V)
    dx = geometry.road_x(positions_at_each(fleet, dts[bracket])) - vr_x
    nearest = np.where(np.abs(dx[0]) <= np.abs(dx[1]), dx[0], dx[1])
    power = _pair_power_dbm(nearest, fleet.y, geometry, radio)  # (P, E * V)
    in_range = power >= radio.sensitivity_dbm

    direction = np.sign(speed)
    brackets_approach = ((k == 0) | (direction * dx[0] <= 0)) & (
        (k == len(dts)) | (direction * dx[1] >= 0)
    )
    out_of_range = (
        (power < radio.sensitivity_dbm - GT_MARGIN_DB)
        & brackets_approach
        & stays_on_ring(fleet, dts[0], dts[-1])
    )
    undecided = np.flatnonzero((~in_range & ~out_of_range).any(axis=0))
    if len(undecided):
        # the full test: every boundary, one block of them and one pair at a time
        sub = fleet.take(undecided)
        hit = np.zeros((len(vr_x), len(sub)), dtype=bool)
        step = max(1, protocol.MAX_REPLY_LINKS // len(sub))
        for lo in range(0, len(dts), step):
            road_x = geometry.road_x(positions_at(sub, dts[lo:lo + step]))  # (T', V')
            for pair_id, pair_x in enumerate(vr_x):
                power = _pair_power_dbm(road_x - pair_x, sub.y, geometry, radio)
                hit[pair_id] |= (power >= radio.sensitivity_dbm).any(axis=0)
        in_range[:, undecided] = hit
    return in_range.reshape(len(vr_x), n_epochs, -1).swapaxes(0, 1)


def _pair_power_dbm(dx, y, geometry: RoadGeometry, radio: RadioParams) -> np.ndarray:
    """Zero-shadow received power at the better recorder of a pair, for
    longitudinal offsets ``dx`` (..., V) to the pair of vehicles at lateral
    positions ``y`` (V,)."""
    vr_y = np.asarray(geometry.vr_offsets_y, dtype=float).reshape((2,) + (1,) * np.ndim(dx))
    power = np.hypot(dx, y - vr_y)
    return received_power_dbm(power, radio, out=power).max(axis=0)


def iteration_accuracy(decoded: np.ndarray, gt: np.ndarray, offsets: Sequence[int]) -> np.ndarray:
    """The ``(streams, epochs, pairs, 7)`` recording counts of every (stream,
    epoch, pair), in this order along the last axis: the tags recorder a,
    recorder b and either of them decoded, the same three within ground
    truth, and the ground truth.

    ``decoded`` is the ``(epochs, pairs, 2, tags)`` mask of the tags each
    pair's recorder a and b decoded in each epoch, ``gt`` the ``(epochs,
    pairs, tags)`` ground truth.  Stream b holds tags ``offsets[b]`` to
    ``offsets[b + 1] - 1``.  Raises ``RuntimeError`` where a union count
    falls below either recorder's.
    """
    # rows per pair: recorder a, recorder b and their union, each of those
    # within ground truth, and ground truth itself
    seen = np.concatenate((decoded, decoded.any(axis=2, keepdims=True)), axis=2)
    rows = np.concatenate((seen, seen & gt[:, :, None], gt[:, :, None]), axis=2)
    # per-stream sums along the tag axis as differences of a running sum,
    # which gives an empty stream 0
    running = np.zeros(rows.shape[:-1] + (rows.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(rows, axis=-1, dtype=np.int64, out=running[..., 1:])
    offsets = np.asarray(offsets)
    counts = running[..., offsets[1:]] - running[..., offsets[:-1]]  # (E, P, 7, B)
    if (counts[:, :, 2] < counts[:, :, :2].max(axis=2)).any():
        raise RuntimeError("union dominance violated (engine bug)")
    return np.moveaxis(counts, -1, 0)


def accuracies(counts: np.ndarray) -> np.ndarray:
    """acc_1, acc_2 and acc_union along the last axis: the in-ground-truth
    counts of :func:`iteration_accuracy` as fractions of ground truth, NaN
    where it is empty."""
    with np.errstate(invalid="ignore"):  # 0 / 0
        return counts[..., 3:6] / counts[..., 6:]


def tally(counts: np.ndarray) -> Counter:
    """How often each ``(pair, acc_1, acc_2, acc_union)`` of :func:`accuracies`
    occurs among the rows of non-empty ground truth of one stream's
    ``(epochs, pairs, 7)`` :func:`iteration_accuracy` counts."""
    rows = counts.reshape(-1, 7).T
    gt = rows[6]  # rows of empty ground truth are divided by 1, then left out
    pairs = list(range(counts.shape[1])) * len(counts)
    return Counter(compress(zip(pairs, *(rows[3:6] / np.maximum(gt, 1)).tolist()), gt.tolist()))


def _fsum(more: Sequence[tuple[int, int]], *columns: Sequence[float]) -> float:
    """``math.fsum`` of the columns' values, the ``i``-th of each once and
    again times ``b`` for each ``(i, b)`` of ``more``."""
    return math.fsum(chain(*columns, *[[v[i] * b for i, b in more] for v in columns]))


def aggregate(scores: Mapping[tuple, int]) -> dict | None:
    """Summarize the iterations a :func:`tally` counts, whatever their pairs
    (population std-dev), or None if it counts none.

    Single-recorder accuracies pool acc_1 and acc_2 with equal weight.  Each
    sum is a ``math.fsum``, which is correctly rounded, so it depends only on
    the multiset of values: a tally gives the bits of the rows it counts.
    """
    if not scores:
        return None
    _, acc_1, acc_2, union = zip(*scores)
    n = sum(scores.values())
    # c copies of a value sum as the value and its products with the powers of
    # two that make up c - 1, each exact: the multiset's exact sum
    more = [(i, 1 << j) for i, c in enumerate(scores.values()) if c > 1
            for j in range((c - 1).bit_length()) if (c - 1) >> j & 1]
    mean_u = _fsum(more, union) / n
    return {
        "iterations": n,
        "mean_acc_union": mean_u,
        "std_acc_union": math.sqrt(_fsum(more, [(u - mean_u) ** 2 for u in union]) / n),
        "mean_acc_single": _fsum(more, acc_1, acc_2) / (2 * n),
    }


# ---------------------------------------------------------------------------
# CSV formats

ITERATION_CSV_HEADER = "replication,pair_id,epoch,gt_count,det1,det2,det_union,acc1,acc2,acc_union"
SUMMARY_CSV_HEADER = "v_n,v_s_min,v_s_max,s_slots,iterations,mean_acc_union,std_acc_union,mean_acc_single"
SUMMARY_BY_PAIR_CSV_HEADER = "pair_id,iterations,mean_acc_union,std_acc_union,mean_acc_single"

# One iterations.csv row; empty ground truth's NaN accuracies print as "nan",
# the only letters a row can hold, and are then blanked.
_ITERATION_ROW = "%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f"
# Rows formatted at once: each holds ten objects and their text meanwhile.
FORMAT_BLOCK_ROWS = 2**12


def iteration_csv_rows(replication: int, first_epoch: int, counts: np.ndarray) -> list[str]:
    """The iterations.csv rows of one stream's ``(epochs, pairs, 7)``
    :func:`iteration_accuracy` counts, in (epoch, pair) order, epochs
    numbered from ``first_epoch``: integers, accuracies to six decimals, and
    empty fields for the accuracies of empty ground truth.  One ``%``
    formats a block of rows from an object table of its columns."""
    n_pairs = counts.shape[1]
    step = max(1, FORMAT_BLOCK_ROWS // n_pairs)
    rows = []
    for lo in range(0, len(counts), step):
        block = counts[lo:lo + step]
        table = np.empty(block.shape[:2] + (10,), dtype=object)
        table[..., 0] = replication
        table[..., 1] = np.arange(n_pairs)
        table[..., 2] = np.arange(len(block))[:, None] + (first_epoch + lo)
        table[..., 3] = block[..., 6]
        table[..., 4:7] = block[..., :3]
        table[..., 7:] = accuracies(block)
        text = "\n".join([_ITERATION_ROW] * (table.size // 10)) % tuple(table.ravel().tolist())
        rows += text.replace("nan", "").split("\n")
    return rows


def summary_csv_line(summary: dict) -> str:
    return (f"{summary['v_n']},{summary['v_s_min']:g},{summary['v_s_max']:g},{summary['s_slots']},"
            f"{summary['iterations']},{summary['mean_acc_union']:.6f},"
            f"{summary['std_acc_union']:.6f},{summary['mean_acc_single']:.6f}")


def summary_by_pair_csv_line(row: dict) -> str:
    return (f"{row['pair_id']},{row['iterations']},{row['mean_acc_union']:.6f},"
            f"{row['std_acc_union']:.6f},{row['mean_acc_single']:.6f}")
