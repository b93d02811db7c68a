"""Per-epoch ground truth, recording accuracy, and experiment aggregation.

Ground truth for a recorder pair holds the vehicles whose zero-shadowing
received power reaches the sensitivity floor at one of its recorders at some
probe or slot boundary of the epoch.  Sampling at exactly the schedule
boundaries with the engine's own link-budget test guarantees that, with
shadowing off, every decoded reply's sender is a ground-truth member.

The boundaries are not scanned one by one.  A vehicle that stays clear of
the ring seam moves monotonically, so over the boundaries its longitudinal
offset to a pair is smallest at the boundary nearest its closest approach,
and so is its distance to both recorders of the pair; that one boundary
decides the (pair, vehicle) cell.  Only cells it cannot decide go through
the test at every boundary (see :func:`ground_truth`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .mobility import Fleet, RoadGeometry, positions_at, positions_at_each, stays_on_ring
from .radio import RadioParams, received_power_dbm


@dataclass(frozen=True)
class IterationStats:
    """Accuracy of one recorder pair over one epoch ("iteration").

    ``acc_union`` is the fraction of ground-truth vehicles recorded by at
    least one recorder of the pair.  Iterations with empty ground truth carry
    NaN accuracies and are excluded from aggregates.
    """

    pair_id: int
    epoch: int
    gt_count: int
    detected_1: int
    detected_2: int
    union_count: int
    acc_1: float
    acc_2: float
    acc_union: float

    @property
    def included(self) -> bool:
        return self.gt_count > 0


# A miss at the nearest boundary counts as out of range only this far below
# the floor.  Rounding in the distance and power arithmetic is below 1e-9 dB
# for every accepted radio, so no other boundary can come within the margin.
GT_MARGIN_DB = 1e-6


def ground_truth(
    fleet: Fleet,
    schedule,
    geometry: RoadGeometry,
    radio: RadioParams,
) -> np.ndarray:
    """A ``(pairs, vehicles)`` bool mask: True where the vehicle is within
    nominal range of the pair at some schedule boundary.

    ``fleet`` is the epoch-start snapshot.  A vehicle is in range at a
    boundary when ``received_power_dbm(hypot(dx, dy)) >= sensitivity_dbm``
    for either recorder, on positions computed exactly as the engine
    computes them, which keeps the containment of decoded records exact.

    Each (pair, vehicle) cell is decided at one boundary: the one of the two
    around the vehicle's closest longitudinal approach t* that is nearer to
    the pair.  A pass there is a pass.  A miss counts only when the vehicle
    does not cross the ring seam during the epoch (so its offset to the pair
    is monotone over the boundaries), the two boundaries really bracket the
    sign change of that offset, and the power is below the floor by at least
    ``GT_MARGIN_DB``; every other boundary is then at least as far away.
    The vehicles of all remaining cells are tested at every boundary.
    """
    times = schedule.sample_times_us()
    dts = (times - schedule.epoch_start_us) * 1e-6

    vr_x = np.asarray(geometry.vr_pair_xs, dtype=float)[:, None]  # (P, 1)
    speed = fleet.speed_mps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_star = (vr_x - geometry.road_x(fleet.x)) / speed  # (P, V)
    t_star = np.where(speed == 0, dts[0], t_star)
    k = np.searchsorted(dts, t_star)  # first boundary at or after t*
    bracket = np.clip(np.stack([k - 1, k]), 0, len(dts) - 1)  # (2, P, V)
    dx = geometry.road_x(positions_at_each(fleet, dts[bracket])) - vr_x
    nearest = np.where(np.abs(dx[0]) <= np.abs(dx[1]), dx[0], dx[1])
    power = _pair_power_dbm(nearest, fleet.y, geometry, radio)  # (P, V)
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
        # the full test: every boundary, one pair at a time
        sub = Fleet(
            fleet.vrn[undecided],
            fleet.x[undecided],
            fleet.y[undecided],
            speed[undecided],
            fleet.ring_length_m,
        )
        road_x = geometry.road_x(positions_at(sub, dts))  # (T, V')
        for pair_id, pair_x in enumerate(vr_x):
            power = _pair_power_dbm(road_x - pair_x, sub.y, geometry, radio)
            in_range[pair_id, undecided] = (power >= radio.sensitivity_dbm).any(axis=0)
    return in_range


def _pair_power_dbm(dx, y, geometry: RoadGeometry, radio: RadioParams) -> np.ndarray:
    """Zero-shadow received power at the better recorder of a pair, for
    longitudinal offsets ``dx`` (..., V) to the pair of vehicles at lateral
    positions ``y`` (V,)."""
    vr_y = np.asarray(geometry.vr_offsets_y, dtype=float).reshape((2,) + (1,) * np.ndim(dx))
    return received_power_dbm(np.hypot(dx, y - vr_y), radio).max(axis=0)


def iteration_accuracy(
    decoded: np.ndarray, gt: np.ndarray, *, epoch: int
) -> list[IterationStats]:
    """Per-VR and union accuracies of every pair of one epoch as fractions
    of |GT|, one IterationStats per pair in pair order.

    ``decoded`` is the ``(pairs, 2, vehicles)`` mask of the vehicles each
    pair's recorder a and b decoded, ``gt`` the ``(pairs, vehicles)`` ground
    truth.
    """
    # rows per pair: recorder a, recorder b, the union of the two
    seen = np.concatenate((decoded, decoded.any(axis=1, keepdims=True)), axis=1)
    detected = seen.sum(axis=2)  # (P, 3)
    n_gt = gt.sum(axis=1)
    with np.errstate(invalid="ignore"):  # 0 / 0 = nan: empty ground truth
        acc = (seen & gt[:, None]).sum(axis=2) / n_gt[:, None]
    return [
        IterationStats(pair_id, epoch, n, *counts, *fractions)
        for pair_id, (n, counts, fractions) in enumerate(
            zip(n_gt.tolist(), detected.tolist(), acc.tolist())
        )
    ]


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _std(values: Sequence[float], mean: float) -> float:
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


def aggregate(
    stats: Iterable[IterationStats], group_keys: tuple[str, ...] = ()
) -> list[dict]:
    """Summarize included iterations per group (population std-dev).

    Group keys name IterationStats fields (e.g. ("pair_id",)); with no keys
    everything pools into one row.  Single-recorder accuracies pool acc_1 and
    acc_2 with equal weight.  Groups with no included iteration are simply
    absent, never reported as zero.
    """
    groups: dict[tuple, list[IterationStats]] = {}
    for s in stats:
        if not s.included:
            continue
        key = tuple(getattr(s, k) for k in group_keys)
        groups.setdefault(key, []).append(s)

    rows = []
    for key in sorted(groups):
        members = groups[key]
        union = [s.acc_union for s in members]
        single = [s.acc_1 for s in members] + [s.acc_2 for s in members]
        mean_u = _mean(union)
        mean_s = _mean(single)
        row = dict(zip(group_keys, key))
        row.update(
            iterations=len(members),
            mean_acc_union=mean_u,
            std_acc_union=_std(union, mean_u),
            mean_acc_single=mean_s,
        )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# CSV formats

ITERATION_CSV_HEADER = "replication,pair_id,epoch,gt_count,det1,det2,det_union,acc1,acc2,acc_union"
SUMMARY_CSV_HEADER = "v_n,v_s_min,v_s_max,s_slots,iterations,mean_acc_union,std_acc_union,mean_acc_single"


def _fmt_acc(x: float) -> str:
    return "" if math.isnan(x) else f"{x:.6f}"


def iteration_csv_line(replication: int, s: IterationStats) -> str:
    return ",".join(
        [
            str(replication),
            str(s.pair_id),
            str(s.epoch),
            str(s.gt_count),
            str(s.detected_1),
            str(s.detected_2),
            str(s.union_count),
            _fmt_acc(s.acc_1),
            _fmt_acc(s.acc_2),
            _fmt_acc(s.acc_union),
        ]
    )


def summary_csv_line(summary: dict) -> str:
    return ",".join(
        [
            str(summary["v_n"]),
            f"{summary['v_s_min']:g}",
            f"{summary['v_s_max']:g}",
            str(summary["s_slots"]),
            str(summary["iterations"]),
            f"{summary['mean_acc_union']:.6f}",
            f"{summary['std_acc_union']:.6f}",
            f"{summary['mean_acc_single']:.6f}",
        ]
    )
