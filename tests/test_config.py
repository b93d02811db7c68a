"""Config text parsing, presets, and validation messages."""

import contextlib
import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enpsim.cli import main
from enpsim.config import (
    _SCHEMA,
    _int,
    MAX_FLEET_SIZE,
    MAX_PAIRS,
    MAX_SCORED_EPOCHS,
    MAX_SPEED_KMH,
    PRESETS,
    ConfigError,
    parse_config,
    with_fleet_cell,
    with_master_seed,
)
from enpsim.protocol import build_epoch_schedule
from enpsim.harness import run_experiment
from enpsim.mobility import KMH_TO_MPS
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

    def test_scored_epochs_bound_is_inclusive(self):
        # parsed only: a million scored epochs would take minutes to run
        cfg = parse_config("run.replications = 1000\nrun.epochs = 1000\n")
        assert cfg.run.epochs * cfg.run.replications == MAX_SCORED_EPOCHS
        with pytest.raises(ConfigError, match=r"run\.epochs and run\.replications give 1001000"):
            parse_config("run.replications = 1000\nrun.epochs = 1001\n")
        with pytest.raises(ConfigError, match=r"run\.epochs and run\.replications"):
            parse_config("run.replications = 1000000000000\nrun.epochs = 1000000000\n")
        # a sweep cell and --seed are checked alike
        over = replace(cfg, run=replace(cfg.run, epochs=1001))
        with pytest.raises(ConfigError, match=r"run\.epochs"):
            with_master_seed(over, 7)
        with pytest.raises(ConfigError, match=r"run\.epochs"):
            with_fleet_cell(over, 10, 50.0, 70.0)

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


# ---------------------------------------------------------------------------
# every bound of the _SCHEMA table, through the CLI

BASE = "preset = paper-road\nrun.epochs = 1\nrun.warmup_epochs = 0\n"
BASE_CONFIG = parse_config(BASE)
MAX_SPEED_MPS = MAX_SPEED_KMH * KMH_TO_MPS


def default_of(key):
    section, _, name = key.partition(".")
    return getattr(getattr(BASE_CONFIG, section), name)


def text_of(value) -> str:
    """A value as config text; floats round-trip exactly."""
    if isinstance(value, (tuple, list)):
        return ", ".join(text_of(v) for v in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


def past(bound, step):
    """The nearest value beyond ``bound`` in the direction of ``step`` (+-1)."""
    return bound + step if isinstance(bound, int) else float(np.nextafter(bound, step * math.inf))


def line(key, value, side=0):
    """``key = value``; a list key keeps its default but for its first
    (side 0) or last (side -1) value."""
    default = default_of(key)
    if isinstance(default, tuple):
        value = (value,) + default[1:] if side == 0 else default[:-1] + (value,)
    return f"{key} = {text_of(value)}\n"


def explicit(n, speed=0.0):
    return "fleet.explicit = " + ";".join(f"{i}:{i % 400}:3:{speed!r}" for i in range(n)) + "\n"


def pair_xs(n):
    """``n`` recorder pairs, 1 m apart from x = 0."""
    return "geometry.vr_pair_xs = " + ",".join(str(x) for x in range(n)) + "\n"


def run_cli(out_dir, text):
    """``enp-sim run`` on ``BASE + text`` with every warning an error:
    (exit code, stderr, summary.csv row or None)."""
    conf = out_dir / "sim.conf"
    conf.write_text(BASE + text)
    summary = out_dir / "summary.csv"
    summary.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(conf), "--out", str(out_dir)])
    row = summary.read_text().splitlines()[1].split(",") if summary.exists() else None
    return code, err.getvalue(), row


def assert_run_or_named_rejection(code, err, row, key=None):
    """Exit 2 naming ``key`` (any table key if None), or exit 0 with finite
    accuracies, or with none scored and the stderr warning."""
    if code == 2:
        assert err.startswith("config error: ")
        assert (key in err) if key else any(k in err for k in _SCHEMA), err
        return
    assert code == 0 and key is None, err
    iterations, accuracies = int(row[4]), [float(a) for a in row[5:]]
    if iterations:
        assert all(math.isfinite(a) for a in accuracies), row
    else:
        assert all(math.isnan(a) for a in accuracies) and err.startswith("warning: run: ")


def bound_cases():
    """Each finite bound of the table with its nearest value outside, NaN
    for a float key, then the bounds that relate keys: (config lines, the
    key a rejection must name or None for a run)."""
    context = {("hash.slot_count", 255): "timing.glossy_period_us = 1000000\n"}
    for key, (parser, lo, hi) in _SCHEMA.items():
        if lo is None:
            continue
        for side, bound, step in ((0, lo, -1), (-1, hi, 1)):
            if math.isfinite(bound):
                pre = context.get((key, bound), "")
                yield pytest.param(pre + line(key, bound, side), None, id=f"{key}={bound}")
                outside = past(bound, step)
                yield pytest.param(pre + line(key, outside, side), key, id=f"{key}={outside}")
        if parser is not _int:
            yield pytest.param(line(key, math.nan), key, id=f"{key}=nan")
    # 10,000 query rounds an epoch, each a 50 us probe and one 50 us slot
    # after a 10 ms sync window; no fleet, so nothing is scored
    rounds = (
        "timing.sync_window_us = 10000\ntiming.probe_len_us = 50\ntiming.slot_len_us = 50\n"
        "hash.slot_count = 1\nfleet.v_n = 0\ntiming.glossy_period_us = "
    )
    yield pytest.param(rounds + "1010000\n", None, id="rounds=10000")
    yield pytest.param(rounds + "1010100\n", "timing.glossy_period_us", id="rounds=10001")
    # the last schedule time of the run must fit in int64 microseconds
    last = (2**63 - 1) // 512_000
    yield pytest.param(f"run.warmup_epochs = {last - 1}\n", None, id="run_us=int64")
    yield pytest.param(f"run.warmup_epochs = {last}\n", "run.warmup_epochs", id="run_us>int64")
    # at most a million scored epochs; the bound itself is only parsed (see
    # test_scored_epochs_bound_is_inclusive)
    yield pytest.param(f"run.epochs = {MAX_SCORED_EPOCHS + 1}\n", "run.epochs",
                       id="scored_epochs>max")
    yield pytest.param(pair_xs(MAX_PAIRS), None, id="pairs=100")
    yield pytest.param(pair_xs(MAX_PAIRS + 1), "geometry.vr_pair_xs", id="pairs=101")
    yield pytest.param(explicit(MAX_FLEET_SIZE), None, id="explicit=10000")
    yield pytest.param(explicit(MAX_FLEET_SIZE + 1), "fleet.explicit", id="explicit=10001")
    yield pytest.param(explicit(1, MAX_SPEED_MPS), None, id="explicit_speed=max")
    yield pytest.param(explicit(1, past(MAX_SPEED_MPS, 1)), "fleet.explicit",
                       id="explicit_speed>max")


def scalar_values(key):
    """Values of one key around its bounds: its default, each finite bound
    and the nearest value past it, one drawn between the default and each
    such bound, NaN for a float key, and where a dataclass or another key
    bounds a side, 0, -1, 2**32 - 1, 2**32 and one drawn up to twice the
    default."""
    parser, lo, hi = _SCHEMA[key]
    default = default_of(key)
    d = (default[0] if isinstance(default, tuple) else default) or 0
    number, between = (int, st.integers) if parser is _int else (float, st.floats)
    fixed, drawn = [d, math.nan] if number is float else [d], []
    for bound, step in ((lo, -1), (hi, 1)):
        if bound is None or math.isinf(bound):
            fixed += [0, -1, 2**32 - 1, 2**32]
            drawn.append(between(0, 2 * abs(d)))
        else:
            fixed += [bound, past(bound, step)]
            drawn.append(between(*sorted((d, bound))))
    return st.one_of(st.sampled_from([number(v) for v in fixed]), *drawn)


def value_texts(key):
    """Config text of one key's value, drawn around its bounds."""
    if key == "hash.reseed_per_round":
        return st.sampled_from(["true", "off", "maybe"])
    if key == "fleet.explicit":
        vehicle = st.tuples(
            st.sampled_from([0, 1, 2**64 - 1, 2**64, -1]),
            st.sampled_from([0.0, 100.0, 399.5, 400.0, -1.0]),
            st.sampled_from([0.0, 3.0, 7.0, 7.5, -0.5]),
            st.sampled_from([0.0, 10.0, MAX_SPEED_MPS, past(MAX_SPEED_MPS, 1), -1.0]),
        )
        return st.lists(vehicle, max_size=3).map(
            lambda vs: ";".join(":".join(text_of(f) for f in v) for v in vs))
    if key in ("geometry.vr_offsets_y", "geometry.vr_pair_xs"):
        return st.lists(scalar_values(key), min_size=1, max_size=3).map(text_of)
    return scalar_values(key).map(text_of)


class TestBounds:
    @pytest.mark.parametrize("text, rejected_key", bound_cases())
    def test_on_bound_runs_past_bound_exits_2(self, tmp_path, text, rejected_key):
        assert_run_or_named_rejection(*run_cli(tmp_path, text), rejected_key)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_config_runs_or_exits_2_naming_a_key(self, tmp_path_factory, data):
        keys = data.draw(st.lists(st.sampled_from(list(_SCHEMA)), max_size=4, unique=True))
        text = "".join(f"{key} = {data.draw(value_texts(key), label=key)}\n" for key in keys)
        try:
            cfg = parse_config(BASE + text)
        except ConfigError:
            cfg = None
        if cfg is not None:  # keep each run to a few tens of ms
            rounds = build_epoch_schedule(cfg.timing, cfg.hash.slot_count, 0).round_count
            vehicles = len(cfg.fleet.explicit) or cfg.fleet.v_n
            work = cfg.run.epochs * cfg.run.replications * rounds * (vehicles + 20)
            assume(work * cfg.geometry.n_pairs <= 300_000)
        code, err, row = run_cli(tmp_path_factory.mktemp("fuzz"), text)
        assert_run_or_named_rejection(code, err, row)
