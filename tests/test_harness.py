"""Experiment harness: determinism, outputs, sweeps, and the CLI."""

import gc
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import enpsim.harness as harness
import enpsim.protocol as protocol
from enpsim.cli import main
from enpsim.config import ConfigError, parse_config, with_fleet_cell
from enpsim.events import event_lines
from enpsim.harness import run_experiment, sweep
from enpsim.metrics import ITERATION_CSV_HEADER, accuracies
from enpsim.mobility import advance
from enpsim.protocol import World, run_epoch

from reference_engine import reference_aggregate

SMALL = """
preset = paper-fig1b
fleet.v_n = 15
run.epochs = 40
run.warmup_epochs = 5
run.replications = 2
run.master_seed = 7
"""


def test_run_experiment_shapes_and_columns(tmp_path):
    cfg = parse_config(SMALL)
    result = run_experiment(cfg, out_dir=tmp_path)
    assert len(result.iterations) == 2 * 40 * 5  # reps x epochs x pairs
    # the summaries pool every row of non-empty ground truth, of every pair
    scored = [row for row in result.iterations if row.split(",")[3] != "0"]
    assert result.summary["iterations"] == len(scored) > 0
    assert [(r["pair_id"], r["iterations"]) for r in result.by_pair] == [
        (pair, sum(row.split(",")[1] == str(pair) for row in scored)) for pair in range(5)]
    lines = (tmp_path / "iterations.csv").read_text().splitlines()
    assert lines == [ITERATION_CSV_HEADER] + result.iterations
    assert (tmp_path / "summary.csv").exists()
    by_pair = (tmp_path / "summary_by_pair.csv").read_text().splitlines()
    assert len(by_pair) == 1 + 5


def test_byte_identical_reruns(tmp_path):
    cfg = parse_config(SMALL)
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("iterations.csv", "summary.csv", "summary_by_pair.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_changes_results(tmp_path):
    cfg = parse_config(SMALL)
    other = parse_config(SMALL.replace("master_seed = 7", "master_seed = 8"))
    a = run_experiment(cfg, out_dir=tmp_path / "a")
    b = run_experiment(other, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "iterations.csv").read_bytes() != \
        (tmp_path / "b" / "iterations.csv").read_bytes()
    assert a.summary["mean_acc_union"] != b.summary["mean_acc_union"]


def stream_accuracies(cfg, cells):
    """The ``(streams x epochs, pairs, 3)`` accuracies of every stream of
    ``harness._lockstep(cfg, cells)``, in order."""
    return np.concatenate([accuracies(counts) for counts, _ in harness._lockstep(cfg, cells)])


def test_summary_self_consistent_with_iterations():
    cfg = parse_config(SMALL)
    result = run_experiment(cfg)
    acc = stream_accuracies(cfg, [(cfg, ())])
    # the rows print the accuracies the summaries pool, row for row
    assert [row.split(",")[7:] for row in result.iterations] == [
        ["" if math.isnan(a) else f"{a:.6f}" for a in row] for row in acc.reshape(-1, 3).tolist()]
    keys = ("iterations", "mean_acc_union", "std_acc_union", "mean_acc_single")
    assert {k: result.summary[k] for k in keys} == reference_aggregate(acc)
    assert [r["pair_id"] for r in result.by_pair] == [0, 1, 2, 3, 4]
    for r in result.by_pair:
        assert {k: r[k] for k in keys} == reference_aggregate(acc[:, r["pair_id"]])


def test_replications_differ():
    cfg = parse_config(SMALL)
    result = run_experiment(cfg)
    per_rep = {}
    for row in result.iterations:
        rep, *_, acc_union = row.split(",")
        if acc_union:
            per_rep.setdefault(rep, []).append(acc_union)
    assert len(per_rep) == 2
    assert per_rep["0"] != per_rep["1"]


def test_warmup_changes_first_epoch():
    base = parse_config(SMALL)
    no_warm = parse_config(SMALL.replace("warmup_epochs = 5", "warmup_epochs = 0"))
    a = run_experiment(base)
    b = run_experiment(no_warm)
    assert [row.split(",")[2] for row in a.iterations[:5]] == ["5"] * 5
    assert [row.split(",")[3] for row in a.iterations] != [row.split(",")[3] for row in b.iterations]


def test_events_log(tmp_path):
    cfg = parse_config(SMALL.replace("run.epochs = 40", "run.epochs = 2"))
    result = run_experiment(cfg, out_dir=tmp_path, events=True)
    log = (tmp_path / "events.log").read_text().splitlines()
    assert result.events and len(log) == len(result.events)
    kinds = {line.split("\t")[1] for line in log}
    assert kinds <= {"PROBE", "REPLY", "RX", "COLL"}
    assert "PROBE" in kinds
    assert all(len(line.split("\t")) == 8 for line in log)


def test_oracle_preset_perfect_union():
    cfg = parse_config("preset = oracle-static5\n")
    result = run_experiment(cfg)
    assert result.summary["mean_acc_union"] == 1.0
    assert result.summary["std_acc_union"] == 0.0


class TestSweep:
    def test_rows_per_cell(self, tmp_path):
        cfg = parse_config(SMALL.replace("run.epochs = 40", "run.epochs = 5"))
        rows = sweep(cfg, [5, 10], [(30.0, 60.0), (60.0, 90.0)], out_dir=tmp_path)
        assert [(r["v_n"], r["v_s_min"], r["v_s_max"]) for r in rows] == [
            (5, 30.0, 60.0), (10, 30.0, 60.0), (5, 60.0, 90.0), (10, 60.0, 90.0)]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_duplicate_cells_use_distinct_seeds(self):
        cfg = parse_config(SMALL.replace("run.epochs = 40", "run.epochs = 5"))
        rows = sweep(cfg, [8, 8])
        assert rows[0]["mean_acc_union"] != rows[1]["mean_acc_union"]

    def test_default_speed_range_comes_from_config(self):
        cfg = parse_config(SMALL.replace("run.epochs = 40", "run.epochs = 3"))
        rows = sweep(cfg, [5])
        assert (rows[0]["v_s_min"], rows[0]["v_s_max"]) == (30.0, 90.0)

    def test_rejects_bad_inputs(self):
        cfg = parse_config(SMALL)
        with pytest.raises(ValueError):
            sweep(cfg, [])
        with pytest.raises(ConfigError, match="fleet.explicit"):
            sweep(parse_config("preset = oracle-static5\n"), [5])


class TestLockstep:
    """Replications and sweep cells run as streams of lockstep groups, one
    run_epoch call per group epoch, scored in chunks of epochs; neither the
    grouping nor the chunking ever changes an output."""

    SWEEP = "preset = paper-fig1b\nrun.epochs = 4\nrun.warmup_epochs = 2\nrun.replications = 2\n"
    SWEEP_VN = [0, 7, 25, 12]
    ROAD = "preset = paper-road\nrun.epochs = 10\nrun.replications = 3\n"

    def run_both(self, out, monkeypatch):
        """The output files of a sweep and of a run of replications with
        events, the stream sizes of every world each of them stepped, and
        how many scoring chunks each of them scored."""
        worlds = {"sweep": set(), "road": set()}
        chunks = {"sweep": 0, "road": 0}
        run_epoch, ground_truth = harness.run_epoch, harness.ground_truth

        def spy(world, *args, **kwargs):
            worlds[phase].add(tuple(np.diff(world.offsets).tolist()))
            return run_epoch(world, *args, **kwargs)

        def count(*args):
            chunks[phase] += 1
            return ground_truth(*args)

        monkeypatch.setattr(harness, "run_epoch", spy)
        monkeypatch.setattr(harness, "ground_truth", count)
        phase = "sweep"
        sweep(parse_config(self.SWEEP), self.SWEEP_VN, out_dir=out)
        phase = "road"
        run_experiment(parse_config(self.ROAD), out_dir=out / "road", events=True)
        monkeypatch.setattr(harness, "run_epoch", run_epoch)
        monkeypatch.setattr(harness, "ground_truth", ground_truth)
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*.*")}
        assert len(files) == 5
        return files, worlds, chunks

    @pytest.mark.parametrize("replications", [1, 3])
    @pytest.mark.parametrize("sigma", [0.0, 6.5])
    def test_sweep_equals_per_cell_runs(self, replications, sigma):
        cfg = parse_config(f"{self.SWEEP}run.replications = {replications}\n"
                           f"radio.shadowing_sigma_db = {sigma}\n")
        ranges = [(30.0, 60.0), (60.0, 90.0)]
        cells = [with_fleet_cell(cfg, v_n, *vs) for vs in ranges for v_n in self.SWEEP_VN]
        want = []  # each cell alone, drawing from the generators keyed (cell index, rep)
        for i, cell in enumerate(cells):
            pooled = reference_aggregate(stream_accuracies(cell, [(cell, (i,))]))
            want.append({**harness.summarize(cell, Counter()), **(pooled or {})})
        # repr: an empty fleet's cell has NaN accuracies
        assert repr(sweep(cfg, self.SWEEP_VN, ranges)) == repr(want)

    # the default caps put every stream of a call in one group, scored in
    # one chunk; the sweep's groups hold 4 epochs of 88 tags in all (its
    # v_n = 0 streams hold none), the road run's 10 epochs of 30
    @pytest.mark.parametrize("caps, sweep_groups, road_groups, chunks", [
        ({}, {(0, 0, 7, 7, 25, 25, 12, 12)}, {(10, 10, 10)}, (1, 1)),
        ({"MAX_FLEET_SIZE": 1}, {(0,), (7,), (25,), (12,)}, {(10,)}, (8, 3)),
        ({"MAX_FLEET_SIZE": 40}, {(0, 0, 7, 7), (25,), (25, 12), (12,)}, {(10, 10, 10)},
         (4, 1)),
        ({"MAX_SCORED_EPOCHS": 8}, {(0, 0), (7, 7), (25, 25), (12, 12)}, {(10,)}, (4, 3)),
        # one epoch a chunk
        ({"MAX_SCORING_PAIRS": 1}, {(0, 0, 7, 7, 25, 25, 12, 12)}, {(10, 10, 10)}, (4, 10)),
        # chunks of 3 sweep epochs (3 + 1) and of 8 road epochs (8 + 2)
        ({"MAX_SCORING_PAIRS": 3 * 88}, {(0, 0, 7, 7, 25, 25, 12, 12)}, {(10, 10, 10)},
         (2, 2)),
        # the engine's link budget: probe blocks of at most two road epochs'
        # (round, tag) links (13 rounds of 30 tags); scoring chunks stay whole
        ({"MAX_REPLY_LINKS": 2 * 13 * 30}, {(0, 0, 7, 7, 25, 25, 12, 12)}, {(10, 10, 10)},
         (1, 1)),
        # the link budget with the harness caps: a pass ends where a chunk
        # ends (8 + 2 road epochs), in probe blocks of two road epochs' links,
        # then of one
        ({"MAX_SCORING_PAIRS": 3 * 88, "MAX_REPLY_LINKS": 2 * 13 * 30},
         {(0, 0, 7, 7, 25, 25, 12, 12)}, {(10, 10, 10)}, (2, 2)),
        ({"MAX_SCORING_PAIRS": 3 * 88, "MAX_REPLY_LINKS": 13 * 30, "MAX_FLEET_SIZE": 40},
         {(0, 0, 7, 7), (25,), (25, 12), (12,)}, {(10, 10, 10)}, (4, 2)),
    ], ids=[f"caps{i}-sweep_groups{i}-road_groups{i}" for i in range(9)])
    def test_group_caps_change_no_output(self, tmp_path, monkeypatch, caps, sweep_groups,
                                         road_groups, chunks):
        want, _, _ = self.run_both(tmp_path / "default", monkeypatch)
        for name, value in caps.items():  # the link budget is the engine's
            monkeypatch.setattr(protocol if name == "MAX_REPLY_LINKS" else harness, name, value)
        got, worlds, scored = self.run_both(tmp_path / "capped", monkeypatch)
        assert got == want
        assert worlds == {"sweep": sweep_groups, "road": road_groups}
        assert scored == dict(zip(("sweep", "road"), chunks))
        for phase, epochs in (("sweep", 4), ("road", 10)):
            for sizes in worlds[phase]:
                # only a stream alone may exceed a cap
                assert len(sizes) == 1 or (
                    sum(max(n, 1) for n in sizes) <= harness.MAX_FLEET_SIZE
                    and len(sizes) * epochs <= harness.MAX_SCORED_EPOCHS
                )


@pytest.mark.parametrize("events", [False, True])
def test_event_chunks_hold_bounded_probe_verdicts(events):
    # twelve 277-round epochs of 200 tags, 664,800 (round, tag) probe
    # verdicts, score as one chunk with events or without.  Beyond what the
    # run keeps, it peaks below four float arrays of MAX_REPLY_LINKS links
    # (a probe block, a ground-truth scan block): the trace keeps only the
    # 5,053 verdicts heard (all of them took 6.0 MB), and the scan computes
    # its powers in place (a new array a step peaked 8.7 MB a scan block)
    cfg = parse_config("preset = paper-road\ntiming.glossy_period_us = 10000000\n"
                       "fleet.v_n = 200\ngeometry.ring_length_m = 20000\nrun.epochs = 12\n"
                       "run.warmup_epochs = 0\nrun.master_seed = 3\n")
    tracemalloc.start()
    try:
        result = run_experiment(cfg, events=events)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.iterations) == 12
    assert not events or len(result.events) > 12 * 277
    assert peak - kept < 4 * 8 * protocol.MAX_REPLY_LINKS


def test_scored_rows_keep_only_their_text(tmp_path):
    # A scored (epoch, pair) keeps its iterations.csv row (about 94 B of text
    # at v_n = 40 and an 8 B list slot) and nothing else: the summaries pool
    # a tally of the distinct accuracy rows.  Three float64 accuracies a row
    # kept 24 B more, a frozen per-row object tagged with its replication
    # 273 B.  Writing 20,000 rows of an empty fleet peaks at 2.4 B a row, one
    # block of joined rows at a time; building a second list of lines for
    # the file peaked at 84 B (CPython 3.11, NumPy 2)
    def kept(epochs):
        cfg = parse_config(f"preset = paper-fig1b\nrun.epochs = {epochs}\nrun.warmup_epochs = 0\n")
        tracemalloc.start()
        try:
            result = run_experiment(cfg)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        text = sys.getsizeof(result.iterations) + sum(map(sys.getsizeof, result.iterations))
        return held, text, len(result.iterations)

    kept(2)  # first-call caches
    (short, short_text, short_rows), (long, long_text, long_rows) = kept(50), kept(250)
    assert long_rows - short_rows == 200 * 5
    assert (long - short - (long_text - short_text)) / (long_rows - short_rows) <= 2

    result = run_experiment(parse_config("preset = paper-fig1b\nfleet.v_n = 0\nrun.epochs = 4000\n"))
    assert len(result.iterations) == 20_000
    tracemalloc.start()
    try:
        harness.write_experiment_outputs(result, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 20_000


@pytest.mark.parametrize("cap, value", [("MAX_SCORING_PAIRS", 1), ("MAX_EVENT_EPOCHS", 1),
                                        ("MAX_EVENT_EPOCHS", 6)])
def test_event_runs_change_no_event_text(monkeypatch, cap, value):
    # by default the 25 epochs are one scoring chunk, and each event_lines
    # call formats 8 epochs of both streams; one epoch a chunk, or one or
    # three epochs a call, give the same lines
    cfg = parse_config("preset = paper-road\nrun.epochs = 25\nrun.warmup_epochs = 3\n"
                       "run.replications = 2\nrun.master_seed = 5\n")
    want = run_experiment(cfg, events=True).events
    monkeypatch.setattr(harness, cap, value)
    assert run_experiment(cfg, events=True).events == want


def test_lockstep_event_text_equals_each_stream_formatted_alone():
    # five replications run as one lockstep group, whose event text is
    # formatted for all five streams at once in runs of 3 epochs; each
    # replication run in a world of its own, one epoch a call, gives the
    # same lines in turn
    cfg = parse_config("preset = paper-road\nrun.epochs = 20\nrun.warmup_epochs = 2\n"
                       "run.replications = 5\nrun.master_seed = 5\n")
    warmup_s = cfg.run.warmup_epochs * cfg.timing.glossy_period_us * 1e-6
    want = []
    for rep in range(5):
        rng = harness.rng_stream(5, rep)
        world = World(advance(harness.build_fleet(cfg, rng), warmup_s), cfg.geometry,
                      cfg.radio, cfg.hash, cfg.timing, rng, record_events=True)
        for e in range(20):
            want += event_lines([run_epoch(world, 2 + e)])[0]
    assert run_experiment(cfg, events=True).events == want


def test_event_text_of_a_chunk_is_formatted_in_bounded_runs():
    # 300 paper-road epochs are one scoring chunk.  Beyond what the run
    # returns (45,477 event lines, the counts), it peaked at 2.7 MB with
    # MAX_EVENT_EPOCHS = 16, no more than with one event_lines call an epoch,
    # and at 8.5 MB with one call for all 300 epochs (CPython 3.11, NumPy 2)
    cfg = parse_config("preset = paper-road\nrun.epochs = 300\nrun.master_seed = 11\n")
    tracemalloc.start()
    try:
        (counts, lines), = harness._lockstep(cfg, [(cfg, ())], events=True)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(counts) == 300 and len(lines) > 40_000
    assert peak - kept < 4_000_000


def test_event_text_of_many_streams_is_formatted_in_bounded_runs():
    # 20 replications of 16 paper-road epochs are one lockstep group and one
    # scoring chunk.  Beyond what the run returns, one event_lines call for
    # all 20 streams' 16 epochs peaked at 8.4 MB; runs of MAX_EVENT_EPOCHS
    # stream-epochs (one epoch of the 20 streams a call) peak at 2.5 MB, as
    # one call per stream of 16 epochs did (CPython 3.11, NumPy 2)
    cfg = parse_config("preset = paper-road\nrun.epochs = 16\nrun.replications = 20\n"
                       "run.master_seed = 11\n")
    tracemalloc.start()
    try:
        streams = list(harness._lockstep(cfg, [(cfg, ())], events=True))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(streams) == 20 and sum(len(lines) for _, lines in streams) > 50_000
    assert peak - kept < 4_000_000


def test_write_text_holds_one_block_at_a_time(tmp_path):
    # 2.2 MB of event lines: the writer joins and encodes one block of
    # WRITE_BLOCK_LINES at a time and peaked at 98 KB; joining the whole
    # file held two copies of its text and its bytes, 4.5 MB
    lines = [f"{t}\tRX\tvr0a\t0\t{t % 300}\t{t % 13}\t4\t12650906850082307721"
             for t in range(50_000)]
    path = tmp_path / "events.log"
    tracemalloc.start()
    try:
        harness._write_text(path, lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2_000_000 and peak < size / 10
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    for empty in ([], [""]):
        harness._write_text(path, empty)
        assert path.read_bytes() == b"\n"
    harness._write_text(path, [], "a,b")
    assert path.read_bytes() == b"a,b\n"
    harness._write_text(path, lines[:3], "a,b")
    assert path.read_bytes() == ("\n".join(["a,b"] + lines[:3]) + "\n").encode()


class TestCli:
    def write_config(self, tmp_path, text=SMALL):
        path = tmp_path / "sim.conf"
        path.write_text(text)
        return str(path)

    def test_run_command(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SMALL.replace("run.epochs = 40", "run.epochs = 3"))
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--events"])
        assert code == 0
        assert (tmp_path / "out" / "iterations.csv").exists()
        assert (tmp_path / "out" / "events.log").exists()
        assert "mean_acc_union" in capsys.readouterr().out

    def test_run_seed_override(self, tmp_path):
        cfg = self.write_config(tmp_path, SMALL.replace("run.epochs = 40", "run.epochs = 3"))
        main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "123"])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "123"])
        main(["run", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "124"])
        read = lambda d: (tmp_path / d / "iterations.csv").read_bytes()
        assert read("a") == read("b") != read("c")

    def test_sweep_command(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SMALL.replace("run.epochs = 40", "run.epochs = 3"))
        code = main(["sweep", "--config", cfg, "--vn", "5,10", "--out", str(tmp_path / "sw")])
        assert code == 0
        assert (tmp_path / "sw" / "sweep.csv").exists()
        assert capsys.readouterr().out.count("v_n=") == 2

    def test_presets_command(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "paper-fig1b" in out and "paper-road" in out and "oracle-static5" in out
        assert "hash.slot_count = 71" in out

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "fleet.v_n = nonsense\n")
        assert main(["run", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "radio.exponent = nan",
        "radio.sensitivity_dbm = nan",
        "radio.tx_power_dbm = inf",
        "radio.capture_threshold_db = inf",
        "fleet.v_min_kmh = nan",
        "fleet.explicit = -1:200:2:0",
        f"fleet.explicit = {2**64}:200:2:0",
        "radio.probe_tx_power_dbm = 1e308",
        "radio.pl0_db = 1e308",
        "radio.tx_power_dbm = -1e308",
        "radio.sensitivity_dbm = 1e308",
        "radio.capture_threshold_db = 1e308",
        "radio.shadowing_sigma_db = 1e308",
        "radio.exponent = 1e308",
        "fleet.v_n = 100000000000",
        "timing.glossy_period_us = 100000000000",
        "fleet.v_max_kmh = 1e300",
        "fleet.explicit = 1:200:2:1e300",
        "geometry.ring_length_m = 1e17",
        "geometry.road_width_m = 1e300",
        "geometry.vr_offsets_y = -1e300, 1e300",
        # 4,990,000 rounds of 2 us after the 20 ms sync window of a 10 s period
        "timing.probe_len_us = 1\ntiming.slot_len_us = 1\nhash.slot_count = 1\n"
        "timing.glossy_period_us = 10000000",
        # absolute schedule times past the int64 range of microseconds
        "run.warmup_epochs = 18014398509481\nrun.epochs = 3",
        "geometry.segment_length_m = 0",
        "geometry.ring_length_m = 150",
        "geometry.road_width_m = 0",
        "geometry.vr_pair_xs = 250",
        "timing.glossy_period_us = 0",
        "timing.sync_window_us = 0",
        "timing.probe_len_us = 0",
        "timing.slot_len_us = 0",
        "timing.sync_window_us = 600000",
        "hash.slot_count = 0",
        "hash.seed = -1",
        "hash.seed = 4294967296",
        "timing.probe_len_us = 600000",
    ])
    def test_out_of_range_value_exit_2_names_key(self, tmp_path, capsys, line):
        cfg = self.write_config(tmp_path, f"preset = oracle-static5\n{line}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and line.split(" = ")[0] in err

    def test_sweep_of_explicit_fleet_exit_2_names_key(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "preset = oracle-static5\n")
        assert main(["sweep", "--config", cfg, "--vn", "5", "--out", str(tmp_path / "sw")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "fleet.explicit" in err
        assert not (tmp_path / "sw").exists()

    def test_sweep_cell_out_of_range_exit_2_names_key(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        argv = ["sweep", "--config", cfg, "--vn", "100000000000", "--out", str(tmp_path / "sw")]
        assert main(argv) == 2
        assert "fleet.v_n" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["run", "--seed", "-1"], "run.master_seed"),
        (["run", "--seed", str(2**64)], "run.master_seed"),
        (["sweep", "--vn", "5", "--vs", "nan-90"], "fleet.v_min_kmh"),
        (["sweep", "--vn", "5", "--vs", "30-nan"], "fleet.v_max_kmh"),
        (["sweep", "--vn", ""], "--vn"),
    ], ids=["seed=-1", "seed=2**64", "vs=nan-90", "vs=30-nan", "vn=empty"])
    def test_out_of_range_flag_exit_2_names_key(self, tmp_path, capsys, argv, key):
        cfg = self.write_config(tmp_path)
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert not (tmp_path / "out").exists()

    def test_unscored_run_warns_and_keeps_outputs(self, tmp_path, capsys):
        text = "preset = paper-fig1b\nfleet.v_n = 0\nrun.epochs = 3\n"
        cfg = self.write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "cli")]) == 0
        captured = capsys.readouterr()
        assert "iterations=0" in captured.out and "mean_acc_union=nan" in captured.out
        assert captured.err.startswith("warning: run: ") and "nan" in captured.err
        run_experiment(parse_config(text), out_dir=tmp_path / "lib")
        for name in ("iterations.csv", "summary.csv", "summary_by_pair.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

    def test_unscored_sweep_cell_warns(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "preset = paper-fig1b\nrun.epochs = 3\n")
        assert main(["sweep", "--config", cfg, "--vn", "0,10", "--out", str(tmp_path / "sw")]) == 0
        err = capsys.readouterr().err
        assert err.count("warning") == 1 and "warning: v_n=0 v_s=30-90: " in err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.conf")]) == 2

    def test_runtime_error_exit_1(self, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path, SMALL.replace("run.epochs = 40", "run.epochs = 1"))
        import enpsim.cli as cli_mod
        monkeypatch.setattr(cli_mod, "run_experiment",
                            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        assert main(["run", "--config", cfg]) == 1
