"""Per-epoch ground truth, recording accuracy, and experiment aggregation.

Ground truth for a recorder pair is the set of vehicles that come within
nominal (zero-shadowing) decode range of at least one of its recorders at
some probe or slot boundary of the epoch.  Sampling at exactly the schedule
boundaries guarantees that, with shadowing off, every decoded reply's sender
is a ground-truth member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .mobility import Fleet, RoadGeometry, positions_at
from .radio import RadioParams, received_power_dbm


@dataclass(frozen=True)
class RecordEntry:
    """One recorder's first successful decode of a registration number in an
    epoch (unique per vrn per recorder per epoch)."""

    vrn: int
    vr_id: str
    epoch: int
    round: int
    slot: int


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


def ground_truth(
    fleet: Fleet,
    schedule,
    geometry: RoadGeometry,
    radio: RadioParams,
) -> list[set[int]]:
    """Per recorder pair, the vehicles within nominal range of the pair at
    some schedule boundary; one set per pair, in pair order.

    ``fleet`` is the epoch-start snapshot; positions at each boundary follow
    from the constant speeds and are computed once for all pairs.
    Membership is evaluated as zero-shadow received power >= sensitivity,
    which is the same condition as distance <= comm_range_m and keeps the
    containment of decoded records exact.
    """
    if len(fleet) == 0:
        return [set() for _ in range(geometry.n_pairs)]
    times = schedule.sample_times_us()
    dts = (times - schedule.epoch_start_us) * 1e-6
    road_x = geometry.road_x(positions_at(fleet, dts))  # (T, V)

    out = []
    for pair_id in range(geometry.n_pairs):
        in_range = np.zeros(len(fleet), dtype=bool)
        for vr_x, vr_y in geometry.vr_positions(pair_id):
            d = np.hypot(road_x - vr_x, fleet.y[None, :] - vr_y)
            power = received_power_dbm(d, radio)
            in_range |= (power >= radio.sensitivity_dbm).any(axis=0)
        out.append({int(v) for v in fleet.vrn[in_range]})
    return out


def iteration_accuracy(
    records_vr1: set[int],
    records_vr2: set[int],
    gt: set[int],
    *,
    pair_id: int = 0,
    epoch: int = 0,
) -> IterationStats:
    """Per-VR and union accuracies of one pair-epoch as fractions of |GT|."""
    union = records_vr1 | records_vr2
    n_gt = len(gt)
    if n_gt == 0:
        acc_1 = acc_2 = acc_union = float("nan")
    else:
        acc_1 = len(records_vr1 & gt) / n_gt
        acc_2 = len(records_vr2 & gt) / n_gt
        acc_union = len(union & gt) / n_gt
    return IterationStats(
        pair_id=pair_id,
        epoch=epoch,
        gt_count=n_gt,
        detected_1=len(records_vr1),
        detected_2=len(records_vr2),
        union_count=len(union),
        acc_1=acc_1,
        acc_2=acc_2,
        acc_union=acc_union,
    )


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
            min_acc_union=min(union),
            mean_acc_single=mean_s,
            std_acc_single=_std(single, mean_s),
            min_acc_single=min(single),
            mean_gt=_mean([s.gt_count for s in members]),
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
