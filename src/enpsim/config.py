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
from .slot_hash import HashId, HashParams


class ConfigError(Exception):
    """Invalid configuration text or field values."""


MAX_FLEET_SIZE = 10_000
# Fastest accepted vehicle, well above any road vehicle; it also bounds how
# far a vehicle moves within one (at most 10 s) epoch.
MAX_SPEED_KMH = 500.0
# Longest ring, widest road and farthest recorder offset accepted.  They hold
# every real road with room to spare; far beyond them float positions near the
# pairs coarsen (on a 1e17 m ring they sit on an 8 m grid, and a vehicle at
# 25 m/s never moves within an epoch).
MAX_RING_LENGTH_M = 100_000.0
MAX_ROAD_WIDTH_M = 100.0
MAX_VR_OFFSET_M = 1_000.0
# Most query rounds per epoch.  The presets run 3 and 13; a 10 s period with
# one slot of 2 ms gives 2,495.  Each round costs a fixed overhead, so a
# period of microsecond-long rounds (millions of them) would never finish.
MAX_ROUNDS_PER_EPOCH = 10_000


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
        # an epoch holds (sample times x vehicles) float arrays; at the paper
        # schedule's 216 sample times that is 17 MB each at the cap
        if not 0 <= self.v_n <= MAX_FLEET_SIZE:
            raise ValueError(f"fleet.v_n must be in [0, {MAX_FLEET_SIZE}], got {self.v_n}")
        if self.v_min_kmh <= 0:
            raise ValueError("fleet.v_min_kmh must be > 0")
        if self.v_max_kmh < self.v_min_kmh:
            raise ValueError("fleet.v_max_kmh must be >= fleet.v_min_kmh")
        if self.v_max_kmh > MAX_SPEED_KMH:
            raise ValueError(
                f"fleet.v_max_kmh must be <= {MAX_SPEED_KMH:g}, got {self.v_max_kmh:g}"
            )
        if not 0.0 <= self.two_wheeler_fraction <= 1.0:
            raise ValueError("fleet.two_wheeler_fraction must be in [0, 1]")


@dataclass(frozen=True)
class RunConfig:
    epochs: int = 1000
    warmup_epochs: int = 20
    master_seed: int = 1
    replications: int = 1

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("run.epochs must be >= 1")
        if self.warmup_epochs < 0:
            raise ValueError("run.warmup_epochs must be >= 0")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("run.master_seed must fit in 64 bits")
        if self.replications < 1:
            raise ValueError("run.replications must be >= 1")


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


def _float_pair(s: str) -> tuple[float, float]:
    vals = _float_list(s)
    if len(vals) != 2:
        raise ValueError(f"expected exactly two values, got {len(vals)}")
    return vals  # type: ignore[return-value]


def _bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _hash_id(s: str) -> HashId:
    try:
        return HashId[s.strip().upper()]
    except KeyError:
        names = ", ".join(h.name.lower() for h in HashId)
        raise ValueError(f"unknown hash family {s!r} (known: {names})") from None


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


_SCHEMA = {
    "geometry.segment_length_m": _float,
    "geometry.ring_length_m": _float,
    "geometry.road_width_m": _float,
    "geometry.vr_pair_xs": _float_list,
    "geometry.vr_offsets_y": _float_pair,
    "radio.tx_power_dbm": _float,
    "radio.pl0_db": _float,
    "radio.exponent": _float,
    "radio.sensitivity_dbm": _float,
    "radio.capture_threshold_db": _float,
    "radio.shadowing_sigma_db": _float,
    "radio.probe_tx_power_dbm": _float,
    "hash.hash_id": _hash_id,
    "hash.seed": _int,
    "hash.slot_count": _int,
    "hash.reseed_per_round": _bool,
    "timing.glossy_period_us": _int,
    "timing.sync_window_us": _int,
    "timing.probe_len_us": _int,
    "timing.slot_len_us": _int,
    "fleet.v_n": _int,
    "fleet.v_min_kmh": _float,
    "fleet.v_max_kmh": _float,
    "fleet.two_wheeler_fraction": _float,
    "fleet.explicit": _vehicles,
    "run.epochs": _int,
    "run.warmup_epochs": _int,
    "run.master_seed": _int,
    "run.replications": _int,
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
            values[key] = _SCHEMA[key](raw)
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

    built: dict[str, object] = {}
    for name, cls in _SECTION_TYPES.items():
        try:
            built[name] = cls(**sections[name])
        except ValueError as e:
            raise ConfigError(str(e) if str(e).startswith(name) else f"{name}: {e}") from None

    config = SimConfig(**built)  # type: ignore[arg-type]
    _cross_validate(config)
    return config


def _cross_validate(config: SimConfig) -> None:
    try:
        sched = build_epoch_schedule(config.timing, config.hash.slot_count, 0)
    except ValueError as e:
        raise ConfigError(f"timing/hash.slot_count: {e}") from None
    if sched.round_count > MAX_ROUNDS_PER_EPOCH:
        raise ConfigError(
            "timing.glossy_period_us, timing.sync_window_us, timing.probe_len_us, "
            f"timing.slot_len_us and hash.slot_count give {sched.round_count} rounds "
            f"an epoch; at most {MAX_ROUNDS_PER_EPOCH} are accepted"
        )
    if config.hash.slot_count > 255:
        raise ConfigError("hash.slot_count must fit the 8-bit frame field (<= 255)")
    geom = config.geometry
    for name, limit in (("ring_length_m", MAX_RING_LENGTH_M), ("road_width_m", MAX_ROAD_WIDTH_M)):
        value = getattr(geom, name)
        if value > limit:
            raise ConfigError(f"geometry.{name} must be <= {limit:g} m, got {value:g}")
    if max(abs(y) for y in geom.vr_offsets_y) > MAX_VR_OFFSET_M:
        raise ConfigError(
            f"geometry.vr_offsets_y must lie in [{-MAX_VR_OFFSET_M:g}, {MAX_VR_OFFSET_M:g}] m, "
            f"got {geom.vr_offsets_y}"
        )
    for i, v in enumerate(config.fleet.explicit):
        if not 0 <= v.x < geom.ring_length_m:
            raise ConfigError(f"fleet.explicit: vehicle {i} x={v.x} outside [0, ring_length)")
        if not 0 <= v.y <= geom.road_width_m:
            raise ConfigError(f"fleet.explicit: vehicle {i} y={v.y} outside the roadway")
        if v.speed_mps < 0:
            raise ConfigError(f"fleet.explicit: vehicle {i} has negative speed")
        if abs(v.speed_mps) > MAX_SPEED_KMH * KMH_TO_MPS:
            raise ConfigError(
                f"fleet.explicit: vehicle {i} speed {v.speed_mps:g} m/s exceeds "
                f"{MAX_SPEED_KMH:g} km/h"
            )
    vrns = [v.vrn for v in config.fleet.explicit]
    if len(set(vrns)) != len(vrns):
        raise ConfigError("fleet.explicit: duplicate vrn")


def with_master_seed(config: SimConfig, master_seed: int) -> SimConfig:
    return replace(config, run=replace(config.run, master_seed=master_seed))


def with_fleet_cell(config: SimConfig, v_n: int, v_min_kmh: float, v_max_kmh: float) -> SimConfig:
    try:
        fl = replace(config.fleet, v_n=v_n, v_min_kmh=v_min_kmh, v_max_kmh=v_max_kmh)
    except ValueError as e:
        raise ConfigError(f"sweep cell: {e}") from None
    return replace(config, fleet=fl)


def describe_presets() -> str:
    """Human-readable preset listing for the CLI."""
    blocks = []
    for name in sorted(PRESETS):
        p = PRESETS[name]
        lines = [f"{name}: {p.description}"]
        lines += [f"  {k} = {v}" for k, v in p.overrides.items()]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
