"""Log-distance path-loss radio with capture-effect slot resolution.

Received power follows Pr = Pt - PL0 - 10*n*log10(d) (+ optional lognormal
shadowing), with the reference distance fixed at 1 m and distances below it
clamped to avoid the log singularity.  A slot is decoded at a receiver when
the strongest concurrent signal clears the sensitivity floor and beats the
aggregate interference (summed in milliwatts) by the capture margin.

The two recorders of a pair send byte-identical probes at once
(synchronous transmission): their replicas combine non-destructively, so a
pair is one signal at a tag, at the stronger of its two link powers.  The
engine takes that maximum before it calls :func:`capture_verdicts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


# Inclusive ranges of the dB/dBm fields of RadioParams.  They hold every
# radio that exists with room to spare, and they keep link powers, and the
# milliwatt sums of capture_verdicts, far from float overflow.
_DB_FIELD_RANGES = {
    "tx_power_dbm": (-100.0, 100.0),
    "probe_tx_power_dbm": (-100.0, 100.0),
    "pl0_db": (0.0, 200.0),
    "sensitivity_dbm": (-200.0, 0.0),
    "capture_threshold_db": (0.0, 100.0),
    "shadowing_sigma_db": (0.0, 50.0),
}


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
        # free space is 2, the most cluttered measured channels about 6
        if not 0 < self.exponent <= 10:
            raise ValueError(f"radio.exponent must lie in (0, 10], got {self.exponent:g}")
        for name, (lo, hi) in _DB_FIELD_RANGES.items():
            value = getattr(self, name)
            if value is not None and not lo <= value <= hi:
                raise ValueError(f"radio.{name} must lie in [{lo:g}, {hi:g}], got {value:g}")


class Verdict(IntEnum):
    SILENCE = 0
    RECEIVED = 1
    COLLISION = 2


# The verdicts as the int8 codes capture_verdicts returns; hot loops compare
# against these rather than against Verdict members.
SILENCE_CODE = np.int8(Verdict.SILENCE)
RECEIVED_CODE = np.int8(Verdict.RECEIVED)
COLLISION_CODE = np.int8(Verdict.COLLISION)


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
    """Vectorized capture rule over a (... x signals x receivers) power array.

    The last two axes are (signals, receivers): rows are signals, columns
    are receivers.  The replicas of one recorder pair are one row, holding
    the stronger of the pair's two links.  Leading axes, if any, stack
    independent slots that are resolved at once.  Rows padded with -inf
    stand for absent signals: they never win and add no interference, and a
    slot of padding only is SILENCE.  Returns int8 verdict codes and the
    winning row index per receiver (-1 where nothing was received), both
    shaped (..., receivers).

    Per receiver: SILENCE when the strongest signal is below the sensitivity
    floor; RECEIVED when it clears the floor, is the only strongest, and
    beats the summed remaining interference by the capture margin; COLLISION
    otherwise (a tie for strongest collides even at a zero margin).  This is
    the one capture rule: the probe and reply phases of the engine both call
    it.
    """
    p = np.atleast_2d(np.asarray(power_dbm, dtype=float))
    n_tx = p.shape[-2]
    out_shape = p.shape[:-2] + p.shape[-1:]
    if n_tx == 0:
        return (
            np.full(out_shape, SILENCE_CODE, dtype=np.int8),
            np.full(out_shape, -1, dtype=np.intp),
        )

    winner = p.argmax(axis=-2)
    strongest = p.max(axis=-2)
    tied = (p == strongest[..., None, :]).sum(axis=-2) > 1

    interference_mw = (10.0 ** (p / 10.0)).sum(axis=-2) - 10.0 ** (strongest / 10.0)
    # sole signal => -inf interference => margin always passes; a slot of
    # padding only gives -inf - -inf = nan, which fails the margin but is
    # SILENCE anyway
    with np.errstate(divide="ignore", invalid="ignore"):
        interference_dbm = 10.0 * np.log10(interference_mw)
        captured = strongest - interference_dbm >= params.capture_threshold_db

    codes = np.where(
        strongest < params.sensitivity_dbm,
        SILENCE_CODE,
        np.where(tied | ~captured, COLLISION_CODE, RECEIVED_CODE),
    )
    winner = np.where(codes == RECEIVED_CODE, winner, -1)
    return codes, winner
