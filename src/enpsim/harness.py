"""Experiment harness: seeded replications, warm-up, sweeps, CSV outputs.

All randomness flows from the run's 64-bit master seed through
``numpy.random.SeedSequence`` spawn keys, one independent stream per
(sweep cell, replication).  Given the same configuration and master seed the
outputs are byte-identical across runs: no ambient entropy, no wall clock,
no iteration-order dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import SimConfig, with_fleet_cell
from .metrics import (
    ITERATION_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    IterationStats,
    aggregate,
    ground_truth,
    iteration_accuracy,
    iteration_csv_line,
    summary_csv_line,
)
from .mobility import Fleet, advance, spawn_fleet, spawn_mixed_fleet
from .protocol import World, run_epoch


def rng_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from the master seed and a key path."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=key)))


def build_fleet(config: SimConfig, rng: np.random.Generator) -> Fleet:
    fl = config.fleet
    if fl.explicit:
        return Fleet.from_vehicles(fl.explicit, config.geometry.ring_length_m)
    if fl.two_wheeler_fraction > 0:
        return spawn_mixed_fleet(
            fl.v_n, fl.v_min_kmh, fl.v_max_kmh, fl.two_wheeler_fraction, config.geometry, rng
        )
    return spawn_fleet(fl.v_n, fl.v_min_kmh, fl.v_max_kmh, config.geometry, rng)


@dataclass
class ExperimentResult:
    """Per-iteration stats (tagged with their replication), the pooled
    summary row, per-pair aggregates, and the optional event log."""

    config: SimConfig
    iterations: list[tuple[int, IterationStats]]
    summary: dict
    by_pair: list[dict]
    events: list[str] | None = None


def run_experiment(
    config: SimConfig,
    *,
    out_dir: str | Path | None = None,
    events: bool = False,
    seed_key: tuple[int, ...] = (),
) -> ExperimentResult:
    """Run warm-up plus measured epochs for every replication.

    Warm-up epochs only move the fleet (no radio traffic is scored), letting
    the position distribution forget its initial placement.  Measured epochs
    are scored per recorder pair against per-epoch ground truth; two cheap
    invariants are enforced on every iteration: union coverage dominates
    either recorder alone, and with shadowing off no record falls outside
    ground truth.
    """
    geom = config.geometry
    radio = config.radio
    period_s = config.timing.glossy_period_us * 1e-6
    shadowing_off = radio.shadowing_sigma_db == 0

    rows: list[tuple[int, IterationStats]] = []
    event_log: list[str] | None = [] if events else None

    for rep in range(config.run.replications):
        rng = rng_stream(config.run.master_seed, *seed_key, rep)
        fleet = build_fleet(config, rng)
        if config.run.warmup_epochs:
            fleet = advance(fleet, config.run.warmup_epochs * period_s)
        world = World(fleet, geom, radio, config.hash, config.timing, rng)

        for e in range(config.run.epochs):
            epoch_index = config.run.warmup_epochs + e
            result = run_epoch(world, epoch_index, record_events=events)
            if events:
                event_log.extend(result.events)
            gt = ground_truth(result.fleet_start, result.schedule, geom, radio)
            decoded = result.decoded(geom.n_pairs)
            if shadowing_off and (decoded.any(axis=1) & ~gt).any():
                raise RuntimeError("record outside ground truth with shadowing off (engine bug)")
            for stats in iteration_accuracy(decoded, gt, epoch=epoch_index):
                if stats.union_count < max(stats.detected_1, stats.detected_2):
                    raise RuntimeError("union dominance violated (engine bug)")
                rows.append((rep, stats))

    summary = summarize(config, rows)
    by_pair = aggregate([s for _, s in rows], ("pair_id",))
    result = ExperimentResult(config, rows, summary, by_pair, event_log)
    if out_dir is not None:
        write_experiment_outputs(result, Path(out_dir))
    return result


def summarize(config: SimConfig, rows: Sequence[tuple[int, IterationStats]]) -> dict:
    """Pooled summary across pairs, epochs and replications (one sweep cell)."""
    pooled = aggregate([s for _, s in rows])
    fl = config.fleet
    summary = {
        "v_n": len(fl.explicit) if fl.explicit else fl.v_n,
        "v_s_min": 0.0 if fl.explicit else fl.v_min_kmh,
        "v_s_max": 0.0 if fl.explicit else fl.v_max_kmh,
        "s_slots": config.hash.slot_count,
        "iterations": 0,
        "mean_acc_union": float("nan"),
        "std_acc_union": float("nan"),
        "mean_acc_single": float("nan"),
    }
    if pooled:
        row = pooled[0]
        summary.update(
            iterations=row["iterations"],
            mean_acc_union=row["mean_acc_union"],
            std_acc_union=row["std_acc_union"],
            mean_acc_single=row["mean_acc_single"],
        )
    return summary


def _write_text(path: Path, lines: Sequence[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_experiment_outputs(result: ExperimentResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(
        out_dir / "iterations.csv",
        [ITERATION_CSV_HEADER] + [iteration_csv_line(rep, s) for rep, s in result.iterations],
    )
    _write_text(
        out_dir / "summary.csv",
        [SUMMARY_CSV_HEADER, summary_csv_line(result.summary)],
    )
    _write_text(
        out_dir / "summary_by_pair.csv",
        ["pair_id,iterations,mean_acc_union,std_acc_union,mean_acc_single"]
        + [
            f"{r['pair_id']},{r['iterations']},{r['mean_acc_union']:.6f},"
            f"{r['std_acc_union']:.6f},{r['mean_acc_single']:.6f}"
            for r in result.by_pair
        ],
    )
    if result.events is not None:
        _write_text(out_dir / "events.log", result.events or [""])


def sweep(
    config: SimConfig,
    v_n_list: Sequence[int],
    v_s_ranges: Sequence[tuple[float, float]] | None = None,
    *,
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Run one experiment per (v_n, speed-range) cell and collect summaries.

    Cells derive their seeds from the master seed and the cell index, so
    duplicate v_n entries yield independent rows.  Explicit-fleet configs
    cannot be swept (the cell would not change anything).
    """
    if not v_n_list:
        raise ValueError("v_n_list must be non-empty")
    if config.fleet.explicit:
        raise ValueError("cannot sweep a config with an explicit fleet")
    if v_s_ranges is None:
        v_s_ranges = [(config.fleet.v_min_kmh, config.fleet.v_max_kmh)]
    if not v_s_ranges:
        raise ValueError("v_s_ranges must be non-empty")

    # every cell is checked before the first one runs
    cells = [
        with_fleet_cell(config, v_n, v_min, v_max)
        for v_min, v_max in v_s_ranges
        for v_n in v_n_list
    ]
    summaries = [run_experiment(cfg, seed_key=(i,)).summary for i, cfg in enumerate(cells)]

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(
            out / "sweep.csv",
            [SUMMARY_CSV_HEADER] + [summary_csv_line(s) for s in summaries],
        )
    return summaries
