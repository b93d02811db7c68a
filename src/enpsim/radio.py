"""Log-distance path-loss radio with capture-effect slot resolution.

Received power follows Pr = Pt - PL0 - 10*n*log10(d) (+ optional lognormal
shadowing), with the reference distance fixed at 1 m and distances below it
clamped to avoid the log singularity.  A slot is decoded at a receiver when
the strongest concurrent transmission clears the sensitivity floor and beats
the aggregate interference (summed in milliwatts) by the capture margin.

Transmissions whose frame bytes are identical are synchronous-transmission
replicas of one another (the two recorders of a pair emit byte-identical
probes); they combine non-destructively and contribute the strongest replica
as one signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class RadioParams:
    """Channel and receiver parameters, all in dB/dBm units.

    ``tx_power_dbm`` is the tag (reply) power and the reference for the
    nominal range; ``probe_tx_power_dbm`` lets the mains-powered roadside
    recorders probe louder than the battery tags answer (None = same power).
    """

    tx_power_dbm: float = 0.0
    pl0_db: float = 40.0              # path loss at the 1 m reference distance
    exponent: float = 3.0             # path-loss exponent
    sensitivity_dbm: float = -94.0    # decode floor
    capture_threshold_db: float = 3.0  # required signal-to-interference margin
    shadowing_sigma_db: float = 0.0   # lognormal shadowing std-dev, 0 = off
    probe_tx_power_dbm: float | None = None

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ValueError(f"exponent must be > 0, got {self.exponent}")
        if self.pl0_db < 0:
            raise ValueError(f"pl0_db must be >= 0, got {self.pl0_db}")
        if self.shadowing_sigma_db < 0:
            raise ValueError(
                f"shadowing_sigma_db must be >= 0, got {self.shadowing_sigma_db}"
            )
        if self.capture_threshold_db < 0:
            raise ValueError(
                f"capture_threshold_db must be >= 0, got {self.capture_threshold_db}"
            )


@dataclass(frozen=True)
class Transmission:
    """One radio emission overlapping a slot.

    ``frame`` carries the wire bytes; ``kind`` tags them probe or reply.
    ``slot_time`` is the absolute schedule timestamp (microseconds) shared by
    every transmission resolved together.
    """

    frame: bytes
    kind: str  # "probe" | "reply"
    source_position: tuple[float, float]
    tx_power_dbm: float
    slot_time: int


class Verdict(IntEnum):
    SILENCE = 0
    RECEIVED = 1
    COLLISION = 2


@dataclass(frozen=True)
class ReceptionOutcome:
    """Per-receiver decode verdict; ``frame`` is set only when RECEIVED and is
    always exactly the strongest transmission's frame, never a merge."""

    verdict: Verdict
    frame: bytes | None = None


def received_power_dbm(
    distance_m: float | np.ndarray,
    params: RadioParams,
    shadow_draw_db: float | np.ndarray = 0.0,
    tx_power_dbm: float | None = None,
) -> float | np.ndarray:
    """Received power over a link of ``distance_m`` meters.

    The one place the path-loss formula is written; scalars and arrays both
    work, elementwise.  Distances below the 1 m reference are clamped to
    1 m.  ``shadow_draw_db`` is the caller-supplied shadowing offset for
    each link (zero when shadowing is off), added after the path loss.
    """
    tx = params.tx_power_dbm if tx_power_dbm is None else tx_power_dbm
    d = np.maximum(distance_m, 1.0)
    return tx - params.pl0_db - 10.0 * params.exponent * np.log10(d) + shadow_draw_db


def comm_range_m(params: RadioParams) -> float:
    """Zero-shadowing distance at which received power equals sensitivity."""
    return 10.0 ** (
        (params.tx_power_dbm - params.pl0_db - params.sensitivity_dbm)
        / (10.0 * params.exponent)
    )


def capture_verdicts(
    power_dbm: np.ndarray, params: RadioParams
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized capture rule over a (signals x receivers) power matrix.

    Rows are already-merged signals (one per distinct frame), columns are
    receivers.  Returns verdict codes and the winning row index per receiver
    (-1 where nothing was received).  Shared by the scalar resolver and the
    protocol engine so both paths apply identical decode semantics.
    """
    p = np.atleast_2d(np.asarray(power_dbm, dtype=float))
    n_tx, n_rx = p.shape
    if n_tx == 0:
        return (
            np.full(n_rx, Verdict.SILENCE, dtype=np.int8),
            np.full(n_rx, -1, dtype=np.intp),
        )

    winner = p.argmax(axis=0)
    cols = np.arange(n_rx)
    strongest = p[winner, cols]
    tied = (p == strongest[None, :]).sum(axis=0) > 1

    mw = 10.0 ** (p / 10.0)
    interference_mw = mw.sum(axis=0) - mw[winner, cols]
    with np.errstate(divide="ignore"):
        interference_dbm = 10.0 * np.log10(interference_mw)
    # sole signal => -inf interference => margin always passes
    captured = strongest - interference_dbm >= params.capture_threshold_db

    codes = np.where(
        strongest < params.sensitivity_dbm,
        np.int8(Verdict.SILENCE),
        np.where(
            tied | ~captured, np.int8(Verdict.COLLISION), np.int8(Verdict.RECEIVED)
        ),
    )
    winner = np.where(codes == Verdict.RECEIVED, winner, -1)
    return codes.astype(np.int8), winner


def resolve_slot_reception(
    receiver_position: tuple[float, float],
    transmissions: Sequence[Transmission],
    params: RadioParams,
    rng: np.random.Generator | None = None,
) -> ReceptionOutcome:
    """Resolve one slot at one receiver under the capture-effect rule.

    All transmissions must share the same ``slot_time`` (the schedule aligns
    contenders); the receiver must not itself be transmitting.  One
    independent shadowing draw is taken per link when shadowing is on; with
    sigma = 0 the resolution is deterministic and never touches ``rng``.

    Verdict: SILENCE when nothing is on air or the strongest signal is below
    the sensitivity floor; RECEIVED(strongest frame) when the strongest
    clears the floor and exceeds the summed remaining interference by the
    capture margin (or is alone); COLLISION otherwise.  Ties for strongest
    are collisions: equal powers cannot satisfy a positive margin.
    """
    if not transmissions:
        return ReceptionOutcome(Verdict.SILENCE)
    if len({t.slot_time for t in transmissions}) != 1:
        raise ValueError("transmissions resolved together must share slot_time")

    sigma = params.shadowing_sigma_db
    if sigma > 0 and rng is None:
        raise ValueError("rng is required when shadowing_sigma_db > 0")

    rx, ry = receiver_position
    merged: dict[bytes, float] = {}
    for t in transmissions:
        d = math.hypot(t.source_position[0] - rx, t.source_position[1] - ry)
        shadow = rng.normal(0.0, sigma) if sigma > 0 else 0.0
        power = received_power_dbm(d, params, shadow, tx_power_dbm=t.tx_power_dbm)
        key = bytes(t.frame)
        # identical frames are replicas: non-destructive, strongest one counts
        if key not in merged or power > merged[key]:
            merged[key] = power

    frames = list(merged)
    powers = np.array([[merged[f]] for f in frames])
    codes, winners = capture_verdicts(powers, params)
    verdict = Verdict(int(codes[0]))
    if verdict is Verdict.RECEIVED:
        return ReceptionOutcome(verdict, frames[int(winners[0])])
    return ReceptionOutcome(verdict)
