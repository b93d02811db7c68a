"""Config text parsing, presets, and validation messages."""

import numpy as np
import pytest

from enpsim.config import PRESETS, ConfigError, parse_config, with_fleet_cell, with_master_seed
from enpsim.protocol import build_epoch_schedule
from enpsim.harness import run_experiment
from enpsim.slot_hash import slot_for


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.geometry.vr_pair_xs == (20.0, 60.0, 100.0, 140.0, 180.0)
        assert cfg.geometry.segment_length_m == 200.0
        assert cfg.hash.slot_count == 71
        assert cfg.timing.glossy_period_us == 512_000
        assert cfg.timing.sync_window_us == 20_000
        assert cfg.fleet.v_n == 40
        assert (cfg.fleet.v_min_kmh, cfg.fleet.v_max_kmh) == (30.0, 90.0)
        assert cfg.radio.tx_power_dbm == 0.0
        assert cfg.radio.shadowing_sigma_db == 0.0
        assert cfg.run.warmup_epochs == 20

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\nfleet.v_n = 7\n")
        assert cfg.fleet.v_n == 7


class TestParsing:
    def test_later_lines_override(self):
        cfg = parse_config("fleet.v_n = 5\nfleet.v_n = 9\n")
        assert cfg.fleet.v_n == 9

    def test_preset_then_override(self):
        cfg = parse_config("preset = paper-fig1b\nfleet.v_n = 50\n")
        assert cfg.fleet.v_n == 50
        assert cfg.hash.slot_count == 71

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*fleet\.bogus"):
            parse_config("fleet.v_n = 5\nfleet.bogus = 1\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match=r"fleet\.v_n"):
            parse_config("fleet.v_n = fast\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("fleet.v_n 5\n")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config("preset = nosuch\n")

    def test_zero_speed_rejected_names_field(self):
        with pytest.raises(ConfigError, match=r"fleet\.v_min_kmh"):
            parse_config("fleet.v_min_kmh = 0\n")

    def test_speed_order_rejected(self):
        with pytest.raises(ConfigError, match=r"v_max_kmh"):
            parse_config("fleet.v_min_kmh = 80\nfleet.v_max_kmh = 40\n")

    def test_speed_and_period_bounds_are_inclusive(self):
        cfg = parse_config(
            "fleet.v_max_kmh = 500\ntiming.glossy_period_us = 10000000\n"
            "fleet.explicit = 1:10:2:138.8\n"
        )
        assert cfg.fleet.v_max_kmh == 500 and cfg.timing.glossy_period_us == 10_000_000
        with pytest.raises(ConfigError, match=r"fleet\.v_max_kmh"):
            parse_config("fleet.v_max_kmh = 500.001\n")
        with pytest.raises(ConfigError, match=r"timing\.glossy_period_us"):
            parse_config("timing.glossy_period_us = 10000001\n")
        with pytest.raises(ConfigError, match=r"fleet\.explicit"):
            parse_config("fleet.explicit = 1:10:2:139\n")

    def test_geometry_bounds_are_inclusive(self):
        cfg = parse_config(
            "geometry.ring_length_m = 100000\ngeometry.road_width_m = 100\n"
            "geometry.vr_offsets_y = -1000, 1000\n"
        )
        assert cfg.geometry.ring_length_m == 100_000 and cfg.geometry.road_width_m == 100
        assert cfg.geometry.vr_offsets_y == (-1000, 1000)
        with pytest.raises(ConfigError, match=r"geometry\.ring_length_m"):
            parse_config("geometry.ring_length_m = 100000.001\n")
        with pytest.raises(ConfigError, match=r"geometry\.road_width_m"):
            parse_config("geometry.road_width_m = 100.001\n")
        for offsets in ("-1000.001, 9", "-2, 1000.001"):
            with pytest.raises(ConfigError, match=r"geometry\.vr_offsets_y"):
                parse_config(f"geometry.vr_offsets_y = {offsets}\n")

    def test_round_count_zero_rejected(self):
        with pytest.raises(ConfigError, match="round"):
            parse_config("hash.slot_count = 120\ntiming.slot_len_us = 5000\n")

    def test_rounds_per_epoch_bound_is_inclusive(self):
        # 1 s of rounds after the sync window, each a 50 us probe and one 50 us slot
        text = (
            "timing.sync_window_us = 10000\ntiming.probe_len_us = 50\n"
            "timing.slot_len_us = 50\nhash.slot_count = 1\n"
        )
        cfg = parse_config(text + "timing.glossy_period_us = 1010000\n")
        assert build_epoch_schedule(cfg.timing, cfg.hash.slot_count, 0).round_count == 10_000
        with pytest.raises(ConfigError, match=r"timing\.glossy_period_us.*10001 rounds"):
            parse_config(text + "timing.glossy_period_us = 1010100\n")

    def test_run_length_bound_is_inclusive(self):
        # the last schedule time of the run must fit in int64 microseconds
        last = (2**63 - 1) // 512_000
        text = "preset = paper-road\nrun.epochs = 1\n"
        cfg = parse_config(text + f"run.warmup_epochs = {last - 1}\n")
        assert run_experiment(cfg).summary["iterations"] == 1
        keys = r"run\.warmup_epochs, run\.epochs and timing\.glossy_period_us"
        with pytest.raises(ConfigError, match=keys):
            parse_config(text + f"run.warmup_epochs = {last}\n")

    def test_slot_count_frame_field_limit(self):
        with pytest.raises(ConfigError, match="slot_count"):
            parse_config("hash.slot_count = 300\ntiming.glossy_period_us = 2000000\n")

    def test_reseed_flag(self):
        assert parse_config("hash.reseed_per_round = true\n").hash.reseed_per_round
        assert not parse_config("hash.reseed_per_round = off\n").hash.reseed_per_round
        with pytest.raises(ConfigError):
            parse_config("hash.reseed_per_round = maybe\n")

    def test_explicit_fleet_parse_and_validation(self):
        cfg = parse_config("fleet.explicit = 11:10:2:0; 12:390:6:8.5\n")
        assert len(cfg.fleet.explicit) == 2
        assert cfg.fleet.explicit[0].vrn == 11
        assert cfg.fleet.explicit[1].speed_mps == 8.5
        with pytest.raises(ConfigError, match="explicit"):
            parse_config("fleet.explicit = 11:9999:2:0\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("fleet.explicit = 11:10:2:0;11:20:2:0\n")


class TestPresets:
    def test_fig1b_pins_published_fields(self):
        cfg = parse_config("preset = paper-fig1b\n")
        assert cfg.geometry.vr_pair_xs == (20.0, 60.0, 100.0, 140.0, 180.0)
        assert cfg.geometry.segment_length_m == 200.0
        assert cfg.hash.slot_count == 71
        assert cfg.timing.glossy_period_us == 512_000
        assert cfg.timing.sync_window_us == 20_000
        assert (cfg.fleet.v_min_kmh, cfg.fleet.v_max_kmh) == (30.0, 90.0)
        assert cfg.fleet.v_n == 40

    def test_road_preset(self):
        cfg = parse_config("preset = paper-road\n")
        assert cfg.geometry.vr_pair_xs == (100.0,)
        assert cfg.hash.slot_count == 17
        assert cfg.fleet.v_n == 10
        assert cfg.fleet.two_wheeler_fraction == 0.6

    def test_oracle_preset_static_distinct_slots(self):
        cfg = parse_config("preset = oracle-static5\n")
        fleet = cfg.fleet.explicit
        assert len(fleet) == 5
        assert all(v.speed_mps == 0.0 for v in fleet)
        slots = slot_for(np.array([v.vrn for v in fleet], dtype=np.uint64), cfg.hash)
        assert len(set(slots.tolist())) == 5
        assert cfg.radio.shadowing_sigma_db == 0.0
        # all five parked within range of both recorders of the single pair
        import math
        for v in fleet:
            for vx, vy in cfg.geometry.vr_positions(0):
                d = math.hypot(cfg.geometry.road_x(v.x) - vx, v.y - vy)
                assert d <= 63.0957

    def test_all_presets_parse(self):
        for name in PRESETS:
            parse_config(f"preset = {name}\n")


def test_config_helpers():
    cfg = parse_config("")
    assert with_master_seed(cfg, 99).run.master_seed == 99
    cell = with_fleet_cell(cfg, 10, 50.0, 70.0)
    assert (cell.fleet.v_n, cell.fleet.v_min_kmh, cell.fleet.v_max_kmh) == (10, 50.0, 70.0)
