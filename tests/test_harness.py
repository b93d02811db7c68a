"""Experiment harness: determinism, outputs, sweeps, and the CLI."""

import math
from pathlib import Path

import pytest

from enpsim.cli import main
from enpsim.config import parse_config
from enpsim.harness import run_experiment, sweep
from enpsim.metrics import ITERATION_CSV_HEADER

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
    lines = (tmp_path / "iterations.csv").read_text().splitlines()
    assert lines[0] == ITERATION_CSV_HEADER
    assert len(lines) == 1 + len(result.iterations)
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


def test_summary_self_consistent_with_iterations():
    cfg = parse_config(SMALL)
    result = run_experiment(cfg)
    accs = [s.acc_union for _, s in result.iterations if s.included]
    singles = [s.acc_1 for _, s in result.iterations if s.included] + \
              [s.acc_2 for _, s in result.iterations if s.included]
    assert result.summary["iterations"] == len(accs)
    assert result.summary["mean_acc_union"] == pytest.approx(math.fsum(accs) / len(accs), abs=1e-12)
    assert result.summary["mean_acc_single"] == pytest.approx(
        math.fsum(singles) / len(singles), abs=1e-12)


def test_replications_differ():
    cfg = parse_config(SMALL)
    result = run_experiment(cfg)
    per_rep = {}
    for rep, s in result.iterations:
        if s.included:
            per_rep.setdefault(rep, []).append(s.acc_union)
    assert len(per_rep) == 2
    assert per_rep[0] != per_rep[1]


def test_warmup_changes_first_epoch():
    base = parse_config(SMALL)
    no_warm = parse_config(SMALL.replace("warmup_epochs = 5", "warmup_epochs = 0"))
    a = run_experiment(base)
    b = run_experiment(no_warm)
    assert [s.gt_count for _, s in a.iterations] != [s.gt_count for _, s in b.iterations]


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
        with pytest.raises(ValueError):
            sweep(parse_config("preset = oracle-static5\n"), [5])


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
    ])
    def test_out_of_range_value_exit_2_names_key(self, tmp_path, capsys, line):
        cfg = self.write_config(tmp_path, f"preset = oracle-static5\n{line}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and line.split(" = ")[0] in err

    def test_sweep_cell_out_of_range_exit_2_names_key(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        argv = ["sweep", "--config", cfg, "--vn", "100000000000", "--out", str(tmp_path / "sw")]
        assert main(argv) == 2
        assert "fleet.v_n" in capsys.readouterr().err

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
