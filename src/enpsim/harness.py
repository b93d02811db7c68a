"""Experiment harness: seeded replications, warm-up, sweeps, CSV outputs.

All randomness flows from the run's 64-bit master seed through
``numpy.random.SeedSequence`` spawn keys, one independent stream per
(sweep cell, replication), run in lockstep (:func:`_lockstep`).  Given the
same configuration and master seed the outputs are byte-identical across
runs: no ambient entropy, no wall clock, no iteration-order dependence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ConfigError, MAX_FLEET_SIZE, MAX_SCORED_EPOCHS, SimConfig, with_fleet_cell
from .events import event_lines
from .metrics import (
    ITERATION_CSV_HEADER,
    SUMMARY_BY_PAIR_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    aggregate,
    ground_truth,
    iteration_accuracy,
    iteration_csv_rows,
    summary_by_pair_csv_line,
    summary_csv_line,
    tally,
)
from .mobility import Fleet, advance, spawn_fleet, spawn_mixed_fleet
from .protocol import World, decoded_masks, run_epoch


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
    """The iterations.csv rows, one per (replication, epoch, pair) in that
    order; the pooled summary row, per-pair aggregates, and the optional
    event log lines.  No score is kept beside the rows' text."""

    config: SimConfig
    iterations: list[str]
    summary: dict
    by_pair: list[dict]
    events: list[str] | None = None


def run_experiment(
    config: SimConfig,
    *,
    out_dir: str | Path | None = None,
    events: bool = False,
) -> ExperimentResult:
    """Run warm-up plus measured epochs for every replication, replication
    ``rep`` drawing from the stream keyed ``(rep,)``."""
    rows, scores, event_log = [], Counter(), [] if events else None
    for rep, (counts, lines) in enumerate(_lockstep(config, [(config, ())], events)):
        rows += iteration_csv_rows(rep, config.run.warmup_epochs, counts)
        scores.update(tally(counts))
        if events:
            event_log += lines
    by_pair = []
    for pair_id in sorted({key[0] for key in scores}):
        pair = {key: n for key, n in scores.items() if key[0] == pair_id}
        by_pair.append({"pair_id": pair_id, **aggregate(pair)})
    summary = summarize(config, scores)
    result = ExperimentResult(config, rows, summary, by_pair, event_log)
    if out_dir is not None:
        write_experiment_outputs(result, Path(out_dir))
    return result


# Most (epoch, tag) pairs a scoring chunk holds, unless one epoch alone has
# more: each chunk costs a fixed overhead, and its ground truth holds a few
# (pairs, epochs x tags) float arrays.
MAX_SCORING_PAIRS = 2**14
# Most stream-epochs (streams x epochs, at least one epoch) one event_lines call
# formats: its fixed cost is spread over them, but its temporaries grow with them
# and fragment the memory the kept lines live in (one call for a 300-epoch
# road-events chunk raised peak RSS from 51.3 to 55.3 MB; runs of 16 are as fast).
MAX_EVENT_EPOCHS = 16


def _lockstep(config: SimConfig, cells, events: bool = False):
    """Yield the ``(epochs, pairs, 7)`` ``iteration_accuracy`` counts and
    the event lines of each stream, in order: each replication of each (cell
    config, seed key) in ``cells``, a fleet of the cell drawn from the
    generator keyed ``(*seed_key, rep)``.
    Consecutive streams run as one lockstep group, one ``run_epoch`` per
    epoch, of at most ``MAX_FLEET_SIZE`` tags (an empty fleet counts one)
    and ``MAX_SCORED_EPOCHS`` scored epochs; the grouping changes no output.
    Warm-up epochs only move the fleets.  The measured epochs are scored in
    chunks of at most ``MAX_SCORING_PAIRS`` (epoch, tag) pairs or one
    epoch, with events or without: a chunk's results are read once its last
    epoch has run, so its epochs take one probe-and-reply pass, and one
    ``ground_truth`` and one ``iteration_accuracy`` call score all its
    streams, epochs and pairs;
    one ``event_lines`` call formats every stream's lines of a run of epochs,
    at most ``MAX_EVENT_EPOCHS`` stream-epochs or one epoch.  Scoring checks
    that union coverage dominates either recorder alone and, with shadowing
    off, that no record falls outside ground truth."""
    geom, radio, epochs = config.geometry, config.radio, config.run.epochs
    warmup_s = config.run.warmup_epochs * config.timing.glossy_period_us * 1e-6

    def run(group):
        fleets, rngs = zip(*group)
        fleets = [advance(fleet, warmup_s) for fleet in fleets] if warmup_s else fleets
        world = World(fleets, geom, radio, config.hash, config.timing, rngs, record_events=events)
        counts = np.empty((len(group), epochs, geom.n_pairs, 7), dtype=np.int32)
        logs = [[] if events else None for _ in group]
        chunk_epochs = max(1, MAX_SCORING_PAIRS // max(len(world.fleet), 1))
        results = []
        for e in range(epochs):
            results.append(run_epoch(world, config.run.warmup_epochs + e))
            if len(results) < chunk_epochs and e < epochs - 1:
                continue
            # the first read runs the pass of the chunk's epochs still waiting
            decoded = decoded_masks(results, geom.n_pairs)
            if events:
                run_epochs = max(1, MAX_EVENT_EPOCHS // len(group))
                for i in range(0, len(results), run_epochs):
                    for log, lines in zip(logs, event_lines(results[i:i + run_epochs])):
                        log += lines
            sched = results[-1].schedule
            starts = np.stack([result.fleet_start.x for result in results])
            gt = ground_truth(world.fleet, starts, sched, geom, radio)
            if radio.shadowing_sigma_db == 0 and (decoded.any(axis=2) & ~gt).any():
                raise RuntimeError("record outside ground truth with shadowing off (engine bug)")
            counts[:, e + 1 - len(results):e + 1] = iteration_accuracy(decoded, gt, world.offsets)
            results = []
        return zip(counts, logs)

    group, tags = [], 0
    for cell, seed_key in cells:
        for rep in range(config.run.replications):
            rng = rng_stream(config.run.master_seed, *seed_key, rep)
            fleet = build_fleet(cell, rng)
            size = max(len(fleet), 1)
            full = (len(group) + 1) * epochs > MAX_SCORED_EPOCHS
            if group and (tags + size > MAX_FLEET_SIZE or full):
                yield from run(group)
                group, tags = [], 0
            group.append((fleet, rng))
            tags += size
    yield from run(group)


def summarize(config: SimConfig, scores: Counter) -> dict:
    """Pooled summary of a :func:`~enpsim.metrics.tally` of acc_1, acc_2 and
    acc_union, across pairs, epochs and replications (one sweep cell)."""
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
    summary.update(aggregate(scores) or {})
    return summary


# Lines written per block: only one block at a time is joined and encoded.
WRITE_BLOCK_LINES = 2**10


def _write_text(path: Path, lines: Sequence[str], header: str | None = None) -> None:
    """Write the header, if any, and every line, each with a newline after
    it (no header and no lines: one newline)."""
    with path.open("w", encoding="utf-8") as out:
        if header is not None:
            out.write(header + "\n")
        elif not lines:
            out.write("\n")
        for i in range(0, len(lines), WRITE_BLOCK_LINES):
            out.write("\n".join(lines[i:i + WRITE_BLOCK_LINES]) + "\n")


def write_experiment_outputs(result: ExperimentResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "iterations.csv", result.iterations, ITERATION_CSV_HEADER)
    _write_text(out_dir / "summary.csv", [summary_csv_line(result.summary)], SUMMARY_CSV_HEADER)
    _write_text(out_dir / "summary_by_pair.csv",
                [summary_by_pair_csv_line(r) for r in result.by_pair], SUMMARY_BY_PAIR_CSV_HEADER)
    if result.events is not None:
        _write_text(out_dir / "events.log", result.events)


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
        raise ConfigError("fleet.explicit: cannot sweep a config with an explicit fleet")
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
    streams = _lockstep(config, [(cell, (i,)) for i, cell in enumerate(cells)])
    summaries = []
    for cell in cells:
        scores = Counter()
        for counts, _ in islice(streams, config.run.replications):
            scores.update(tally(counts))
        summaries.append(summarize(cell, scores))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "sweep.csv", [summary_csv_line(s) for s in summaries], SUMMARY_CSV_HEADER)
    return summaries
