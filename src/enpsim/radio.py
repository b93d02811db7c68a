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
            raise ValueError(f"radio.exponent must be > 0, got {self.exponent:g}")
        if self.shadowing_sigma_db < 0:
            raise ValueError(
                f"radio.shadowing_sigma_db must be >= 0, got {self.shadowing_sigma_db:g}"
            )


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
    tx_power_dbm: float | None = None,
    out: np.ndarray | None = None,
) -> float | np.ndarray:
    """Received power over a link of ``distance_m`` meters.

    The one place the path-loss formula is written; scalars and arrays both
    work, elementwise.  Distances below the 1 m reference are clamped to
    1 m; shadowing is the caller's to add.  ``out``, a float array shaped
    like the result (``distance_m`` itself too), takes every step in place
    of a new array.
    """
    tx = params.tx_power_dbm if tx_power_dbm is None else tx_power_dbm
    d = np.maximum(distance_m, 1.0, out=out)
    loss = np.multiply(10.0 * params.exponent, np.log10(d, out=out), out=out)
    return np.subtract(tx - params.pl0_db, loss, out=out)


def comm_range_m(params: RadioParams) -> float:
    """Zero-shadowing distance at which received power equals sensitivity."""
    return 10.0 ** (
        (params.tx_power_dbm - params.pl0_db - params.sensitivity_dbm)
        / (10.0 * params.exponent)
    )


def capture_verdicts(power_dbm: np.ndarray, params: RadioParams,
                     starts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The one capture rule, of probe and reply alike, over (signals x receivers) powers.

    A recorder pair's replicas are one signal row, at the stronger of its
    two links; -inf is an absent signal.  ``starts``, the strictly ascending
    first row of each group (0 first), splits the rows into groups of
    concurrent signals, each resolved alone; None makes all rows one group.
    Per receiver: SILENCE when the strongest signal is below the sensitivity
    floor; RECEIVED when it clears the floor, is the only strongest, and
    beats the summed remaining interference by the capture margin; COLLISION
    otherwise (a tie for strongest collides even at a zero margin); a group
    of one row meets no interference.  Returns int8 verdict codes and each
    winning row (-1 where none), shaped (groups, receivers), or (receivers,)
    for the one group of None.
    """
    p = np.asarray(power_dbm, dtype=float)
    n_tx, n_rx = p.shape
    if starts is None:  # one group: its codes, and the strongest row where received
        codes = capture_codes(p, params, np.empty(n_rx, np.int8))
        return codes, np.where(codes == RECEIVED_CODE, p.argmax(axis=0) if n_tx else 0, -1)

    counts = np.append(starts[1:], n_tx) - starts
    heard = p[starts] >= params.sensitivity_dbm  # all a group of one row needs
    # a copy: as a view, the codes kept `heard` alive and the heap refaulted each call
    codes, winner = heard.astype(np.int8), np.where(heard, starts[:, None], -1)
    contended = counts > 1
    if contended.any():  # the other groups, on their rows alone
        groups = contended.nonzero()[0]
        rows = np.repeat(contended, counts).nonzero()[0]
        q, k = p[rows], counts[groups]
        at = np.cumsum(k) - k  # each group's first row in q
        strongest = np.maximum.reduceat(q, at, axis=0)
        group = np.repeat(np.arange(groups.size), k)
        is_max = q == strongest[group]
        # per (group, receiver): the strongest's count and its row where that is
        # 1, and the milliwatts summed in row order (reduceat adds them in another)
        n_max, top = (np.add.reduceat(w, at, axis=0, dtype=np.intp)
                      for w in (is_max, is_max * rows[:, None]))
        cell = (group[:, None] * n_rx + np.arange(n_rx)).ravel()
        mw = q / 10.0
        total_mw = np.bincount(cell, np.power(10.0, mw, out=mw).ravel(), groups.size * n_rx)
        codes[groups] = group_codes = _codes(params, strongest, n_max > 1,
                                             total_mw.reshape(-1, n_rx))
        winner[groups] = np.where(group_codes == RECEIVED_CODE, top, -1)
    return codes, winner


def capture_codes(power_dbm: np.ndarray, params: RadioParams, out: np.ndarray) -> np.ndarray:
    """The verdict codes alone of one group of (signals x receivers) float
    powers under :func:`capture_verdicts`' rule, written into ``out``, an
    int8 (receivers,) array, which is returned: the probe phase's call, each
    row of which needs only its decodes."""
    if len(power_dbm) > 1:
        strongest = power_dbm.max(axis=0)
        return _codes(params, strongest, (power_dbm == strongest).sum(axis=0) > 1,
                      (10.0 ** (power_dbm / 10.0)).sum(axis=0), out)
    if len(power_dbm):  # one lone signal: False/True are SILENCE/RECEIVED
        np.greater_equal(power_dbm[0], params.sensitivity_dbm, out.view(np.bool_))
    else:
        out[:] = SILENCE_CODE
    return out


def _codes(params, strongest, tied, total_mw, out=None):
    """The capture rule from each group's reductions at each receiver."""
    # nothing else present => -inf interference => the margin passes; absent
    # signals only give -inf - -inf = nan, which fails it but is SILENCE anyway
    with np.errstate(divide="ignore", invalid="ignore"):
        interference_dbm = 10.0 * np.log10(total_mw - 10.0 ** (strongest / 10.0))
        won = (strongest - interference_dbm >= params.capture_threshold_db) & ~tied
    heard = ~(strongest < params.sensitivity_dbm)
    # SILENCE, RECEIVED, COLLISION are 0, 1, 2: 1 where heard, shifted to 2 where not won
    return np.left_shift(heard.view(np.int8), ~won, out=out)
