"""enpsim: deterministic simulator of TDMA probe/reply vehicle identification.

Roadside recorder pairs periodically probe passing vehicles' radio tags; each
tag hashes its registration number to a reply slot and answers, and the
capture effect plus the paired recorders resolve most slot clashes.  The
package provides the radio, mobility, protocol, and metrics building blocks
together with a seeded experiment harness and the ``enp-sim`` CLI.
"""

from .config import ConfigError, FleetConfig, PRESETS, RunConfig, SimConfig, parse_config
from .harness import ExperimentResult, build_fleet, rng_stream, run_experiment, sweep
from .frames import ProbeFrame
from .metrics import (
    IterationStats,
    aggregate,
    ground_truth,
    iteration_accuracy,
)
from .mobility import (
    Fleet,
    RoadGeometry,
    Vehicle,
    advance,
    positions_at,
    spawn_fleet,
    spawn_mixed_fleet,
)
from .protocol import (
    EpochResult,
    EpochSchedule,
    TimingParams,
    World,
    build_epoch_schedule,
    run_epoch,
)
from .radio import (
    RadioParams,
    Verdict,
    capture_verdicts,
    comm_range_m,
    received_power_dbm,
)
from .slot_hash import HashParams, expected_collision_fraction, slot_for

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EpochResult",
    "EpochSchedule",
    "ExperimentResult",
    "Fleet",
    "FleetConfig",
    "HashParams",
    "IterationStats",
    "PRESETS",
    "ProbeFrame",
    "RadioParams",
    "RoadGeometry",
    "RunConfig",
    "SimConfig",
    "TimingParams",
    "Vehicle",
    "Verdict",
    "World",
    "advance",
    "aggregate",
    "build_epoch_schedule",
    "build_fleet",
    "capture_verdicts",
    "comm_range_m",
    "expected_collision_fraction",
    "ground_truth",
    "iteration_accuracy",
    "parse_config",
    "positions_at",
    "received_power_dbm",
    "rng_stream",
    "run_epoch",
    "run_experiment",
    "slot_for",
    "spawn_fleet",
    "spawn_mixed_fleet",
    "sweep",
]
