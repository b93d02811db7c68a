"""Experiment configuration: plain-text format, presets, and validation.

A config file is a sequence of ``section.key = value`` lines; blank lines and
``#`` comments are ignored, later lines override earlier ones, and unknown
keys are errors.  A ``preset = NAME`` line loads a named scenario at that
point, after which further lines override its values.  An empty file yields
the all-defaults configuration (the five-pair 200 m road with 71 slots and a
40-vehicle fleet).

Every field is validated before any epoch runs; violations raise
:class:`ConfigError` naming the offending line or field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .mobility import KMH_TO_MPS, RoadGeometry, Vehicle
from .protocol import TimingParams, build_epoch_schedule
from .radio import RadioParams
from .slot_hash import HashParams


class ConfigError(Exception):
    """Invalid configuration text or field values."""


# Largest accepted fleet, and the most tags one lockstep group of streams
# holds.  An epoch of it holds (recorders x vehicles) float arrays, 0.8 MB
# each at the paper's 10 recorders, and is scored alone, with (pairs x
# vehicles) ones; a 40-epoch paper-fig1b run of it peaks at about 60 MB.
MAX_FLEET_SIZE = 10_000
# Most recorder pairs.  The presets place 5 and 1.  Every probe block and
# ground-truth chunk holds arrays over the pairs: a 409-epoch paper-fig1b run
# (one scoring chunk) peaks at 59 MB of resident memory with 5 pairs and
# 280 MB with 100.
MAX_PAIRS = 100
# Fastest accepted vehicle, well above any road vehicle; it also bounds how
# far a vehicle moves within one (at most 10 s) epoch.
MAX_SPEED_KMH = 500.0
# Most query rounds per epoch.  The presets run 3 and 13; a 10 s period with
# one slot of 2 ms gives 2,495.  Each round costs a fixed overhead, so a
# period of microsecond-long rounds (millions of them) would never finish.
MAX_ROUNDS_PER_EPOCH = 10_000
# Most scored epochs of a run, epochs x replications.  The default run scores
# 1,000 and criterion 1 runs 3,000 a cell; each one keeps a CSV row per pair
# (its text, about 100 B), so a run of 10**21 would never finish.
MAX_SCORED_EPOCHS = 1_000_000
# Schedule times are absolute int64 microseconds since the first warm-up
# epoch, so the whole run must end within 2**63 - 1 us.
MAX_RUN_US = 2**63 - 1


@dataclass(frozen=True)
class FleetConfig:
    """Random fleet parameters, or an explicit vehicle list overriding them.

    ``two_wheeler_fraction`` > 0 splits the fleet into lateral classes
    (two-wheelers near the road edge).  ``explicit`` vehicles, when present,
    are used verbatim and may be static.
    """

    v_n: int = 40
    v_min_kmh: float = 30.0
    v_max_kmh: float = 90.0
    two_wheeler_fraction: float = 0.0
    explicit: tuple[Vehicle, ...] = ()

    def __post_init__(self) -> None:
        if self.v_max_kmh < self.v_min_kmh:
            raise ValueError("fleet.v_max_kmh must be >= fleet.v_min_kmh")


@dataclass(frozen=True)
class RunConfig:
    epochs: int = 1000
    warmup_epochs: int = 20
    master_seed: int = 1
    replications: int = 1


@dataclass(frozen=True)
class SimConfig:
    """The full parameter set of one experiment."""

    geometry: RoadGeometry = field(default_factory=RoadGeometry)
    radio: RadioParams = field(default_factory=RadioParams)
    hash: HashParams = field(default_factory=HashParams)
    timing: TimingParams = field(default_factory=TimingParams)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    run: RunConfig = field(default_factory=RunConfig)


# ---------------------------------------------------------------------------
# value parsers

def _float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {s.strip()!r}")
    return v


def _int(s: str) -> int:
    return int(s, 0)


def _float_list(s: str) -> tuple[float, ...]:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_float(p) for p in parts)


def _bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _vehicles(s: str) -> tuple[Vehicle, ...]:
    """Parse 'vrn:ring_x:y:speed_mps' records separated by semicolons."""
    s = s.strip()
    if not s:
        return ()
    out = []
    for rec in s.split(";"):
        parts = [p.strip() for p in rec.split(":")]
        if len(parts) != 4:
            raise ValueError(f"vehicle record {rec!r} is not vrn:x:y:speed")
        vrn = int(parts[0])
        if not 0 <= vrn < 2**64:
            raise ValueError(f"vehicle record {rec!r}: vrn must be in [0, 2**64)")
        out.append(
            Vehicle(vrn=vrn, x=_float(parts[1]), y=_float(parts[2]), speed_mps=_float(parts[3]))
        )
    return tuple(out)


_INF = math.inf

# Every key with its parser and the inclusive range [lo, hi] of its values
# (each value of a list).  This is the one place a range is written, except
# what a section's dataclass checks itself: positive lengths and periods, at
# least one slot, recorder pairs inside the segment, ring > segment,
# sync < period, exponent > 0, sigma >= 0, v_max >= v_min and the 32-bit hash
# seed.  Those sides are left at +-inf here, and a key with no side of its
# own at None.  The bounds hold every real road, radio and schedule with room
# to spare; their reasons:
# - far beyond the geometry caps, float positions near the pairs coarsen (on
#   a 1e17 m ring they sit on an 8 m grid, and a vehicle at 25 m/s never moves
#   within an epoch); a random fleet keeps 0.5 m from either road edge;
# - the dB/dBm ranges keep link powers, and the milliwatt sums of
#   radio.capture_verdicts, far from float overflow; a path-loss exponent is
#   2 in free space and about 6 on the most cluttered measured channels;
# - the probe frame carries the slot count in one byte (README, Wire formats);
# - the schedule holds one sample time per probe and slot of the period (the
#   paper uses 512 ms).
_SCHEMA = {
    "geometry.segment_length_m": (_float, None, None),
    "geometry.ring_length_m": (_float, -_INF, 100_000.0),
    "geometry.road_width_m": (_float, 1.0, 100.0),
    "geometry.vr_pair_xs": (_float_list, None, None),
    "geometry.vr_offsets_y": (_float_list, -1_000.0, 1_000.0),
    "radio.tx_power_dbm": (_float, -100.0, 100.0),
    "radio.pl0_db": (_float, 0.0, 200.0),
    "radio.exponent": (_float, -_INF, 10.0),
    "radio.sensitivity_dbm": (_float, -200.0, 0.0),
    "radio.capture_threshold_db": (_float, 0.0, 100.0),
    "radio.shadowing_sigma_db": (_float, -_INF, 50.0),
    "radio.probe_tx_power_dbm": (_float, -100.0, 100.0),
    "hash.seed": (_int, None, None),
    "hash.slot_count": (_int, -_INF, 255),
    "hash.reseed_per_round": (_bool, None, None),
    "timing.glossy_period_us": (_int, -_INF, 10_000_000),
    "timing.sync_window_us": (_int, None, None),
    "timing.probe_len_us": (_int, None, None),
    "timing.slot_len_us": (_int, None, None),
    "fleet.v_n": (_int, 0, MAX_FLEET_SIZE),
    "fleet.v_min_kmh": (_float, math.ulp(0.0), _INF),  # the least float above 0
    "fleet.v_max_kmh": (_float, -_INF, MAX_SPEED_KMH),
    "fleet.two_wheeler_fraction": (_float, 0.0, 1.0),
    "fleet.explicit": (_vehicles, None, None),
    "run.epochs": (_int, 1, _INF),
    "run.warmup_epochs": (_int, 0, _INF),
    "run.master_seed": (_int, 0, 2**64 - 1),
    "run.replications": (_int, 1, _INF),
}

_SECTION_TYPES = {
    "geometry": RoadGeometry,
    "radio": RadioParams,
    "hash": HashParams,
    "timing": TimingParams,
    "fleet": FleetConfig,
    "run": RunConfig,
}


@dataclass(frozen=True)
class Preset:
    description: str
    overrides: dict[str, str]


# Frozen oracle fleet: five static vehicles parked around the single pair at
# road x = 100 (ring x = 200), registration numbers chosen so their reply
# slots at S = 71 are pairwise distinct (58, 6, 24, 42, 2).
_ORACLE_FLEET = (
    "9876543210:200:2:0;"
    "10987654321:205:3:0;"
    "12098765432:210:4:0;"
    "13209876543:190:5:0;"
    "15432098765:195:1.5:0"
)

# Calibrated substitute for the emulator's unpublished multipath radio: a
# steeper suburban-road exponent plus strong per-link shadow fading.  The
# RadioParams defaults stay at the nominal 63.1 m textbook baseline; the road
# presets opt into this environment.
_ROAD_RADIO = {
    "radio.exponent": "3.3",
    "radio.shadowing_sigma_db": "6.5",
}

PRESETS: dict[str, Preset] = {
    "paper-fig1b": Preset(
        description=(
            "five recorder pairs over a 200 m road, 71 slots, 512 ms period, "
            "fleet of 40 at 30-90 km/h"
        ),
        overrides={
            "geometry.vr_pair_xs": "20,60,100,140,180",
            "geometry.segment_length_m": "200",
            "hash.slot_count": "71",
            "timing.glossy_period_us": "512000",
            "timing.sync_window_us": "20000",
            "fleet.v_n": "40",
            "fleet.v_min_kmh": "30",
            "fleet.v_max_kmh": "90",
            **_ROAD_RADIO,
        },
    ),
    "paper-road": Preset(
        description=(
            "single recorder pair, 17 slots, 10 vehicles with mixed "
            "two-wheeler/four-wheeler lateral offsets"
        ),
        overrides={
            "geometry.vr_pair_xs": "100",
            "hash.slot_count": "17",
            "fleet.v_n": "10",
            "fleet.two_wheeler_fraction": "0.6",
            **_ROAD_RADIO,
        },
    ),
    "oracle-static5": Preset(
        description=(
            "collision-free oracle: five static vehicles with distinct slots "
            "in range of a single pair; union accuracy must be exactly 1"
        ),
        overrides={
            "geometry.vr_pair_xs": "100",
            "hash.slot_count": "71",
            "radio.shadowing_sigma_db": "0",
            "fleet.explicit": _ORACLE_FLEET,
            "run.epochs": "20",
            "run.warmup_epochs": "0",
        },
    ),
}


def parse_config(text: str) -> SimConfig:
    """Parse and validate configuration text into a :class:`SimConfig`."""
    values: dict[str, object] = {}

    def apply(key: str, raw: str, where: str) -> None:
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            values[key] = _SCHEMA[key][0](raw)
        except ValueError as e:
            raise ConfigError(f"{where}: {key}: {e}") from None

    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if key == "preset":
            if value not in PRESETS:
                known = ", ".join(sorted(PRESETS))
                raise ConfigError(f"line {lineno}: unknown preset {value!r} (known: {known})")
            for k, v in PRESETS[value].overrides.items():
                apply(k, v, f"line {lineno} (preset {value})")
            continue
        apply(key, value, f"line {lineno}")

    return _assemble(values)


def _assemble(values: dict[str, object]) -> SimConfig:
    sections: dict[str, dict[str, object]] = {name: {} for name in _SECTION_TYPES}
    for key, val in values.items():
        section, _, fname = key.partition(".")
        sections[section][fname] = val
    try:
        config = SimConfig(**{name: cls(**sections[name]) for name, cls in _SECTION_TYPES.items()})
    except ValueError as e:
        raise ConfigError(str(e)) from None
    _cross_validate(config)
    return config


def _cross_validate(config: SimConfig) -> None:
    for key, (_, lo, hi) in _SCHEMA.items():
        if lo is None:
            continue
        section, _, fname = key.partition(".")
        value = getattr(getattr(config, section), fname)
        for v in value if isinstance(value, tuple) else (value,):
            # written so that a NaN fails too
            if v is not None and not lo <= v <= hi:
                raise ConfigError(f"{key} must lie in [{lo}, {hi}], got {v}")
    round_keys = (
        "timing.glossy_period_us, timing.sync_window_us, timing.probe_len_us, "
        "timing.slot_len_us and hash.slot_count"
    )
    try:
        sched = build_epoch_schedule(config.timing, config.hash.slot_count, 0)
    except ValueError as e:
        raise ConfigError(f"{round_keys}: {e}") from None
    if sched.round_count > MAX_ROUNDS_PER_EPOCH:
        raise ConfigError(
            f"{round_keys} give {sched.round_count} rounds an epoch; "
            f"at most {MAX_ROUNDS_PER_EPOCH} are accepted"
        )
    scored = config.run.epochs * config.run.replications
    if scored > MAX_SCORED_EPOCHS:
        raise ConfigError(
            f"run.epochs and run.replications give {scored} scored epochs; "
            f"at most {MAX_SCORED_EPOCHS} are accepted"
        )
    run_us = (config.run.warmup_epochs + config.run.epochs) * config.timing.glossy_period_us
    if run_us > MAX_RUN_US:
        raise ConfigError(
            "run.warmup_epochs, run.epochs and timing.glossy_period_us give a run of "
            f"{run_us} us; at most {MAX_RUN_US} (the int64 range) is accepted"
        )
    if len(config.geometry.vr_pair_xs) > MAX_PAIRS:
        raise ConfigError(f"geometry.vr_pair_xs must list at most {MAX_PAIRS} recorder pairs")
    if len(config.fleet.explicit) > MAX_FLEET_SIZE:
        raise ConfigError(f"fleet.explicit must list at most {MAX_FLEET_SIZE} vehicles")
    geom = config.geometry
    for i, v in enumerate(config.fleet.explicit):
        if not 0 <= v.x < geom.ring_length_m:
            raise ConfigError(f"fleet.explicit: vehicle {i} x={v.x} outside [0, ring_length)")
        if not 0 <= v.y <= geom.road_width_m:
            raise ConfigError(f"fleet.explicit: vehicle {i} y={v.y} outside the roadway")
        if not 0 <= v.speed_mps <= MAX_SPEED_KMH * KMH_TO_MPS:
            raise ConfigError(
                f"fleet.explicit: vehicle {i} speed {v.speed_mps:g} m/s outside "
                f"[0, {MAX_SPEED_KMH:g}] km/h"
            )
    vrns = [v.vrn for v in config.fleet.explicit]
    if len(set(vrns)) != len(vrns):
        raise ConfigError("fleet.explicit: duplicate vrn")


def _replace_checked(config: SimConfig, section: str, **changes) -> SimConfig:
    """``config`` with some fields of one section replaced, checked like parsed text."""
    try:
        config = replace(config, **{section: replace(getattr(config, section), **changes)})
    except ValueError as e:
        raise ConfigError(str(e)) from None
    _cross_validate(config)
    return config


def with_master_seed(config: SimConfig, master_seed: int) -> SimConfig:
    return _replace_checked(config, "run", master_seed=master_seed)


def with_fleet_cell(config: SimConfig, v_n: int, v_min_kmh: float, v_max_kmh: float) -> SimConfig:
    return _replace_checked(
        config, "fleet", v_n=v_n, v_min_kmh=v_min_kmh, v_max_kmh=v_max_kmh
    )


def describe_presets() -> str:
    """Human-readable preset listing for the CLI."""
    blocks = []
    for name in sorted(PRESETS):
        p = PRESETS[name]
        lines = [f"{name}: {p.description}"]
        lines += [f"  {k} = {v}" for k, v in p.overrides.items()]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
