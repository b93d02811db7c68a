"""enpsim benchmark: ms per epoch, set-up time, peak memory and a layer trace.

    python3 bench/run.py --workload fig1b-sweep --seed 3 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  Every workload call
goes through a public entry point (``enpsim.cli.main``,
``enpsim.harness.run_experiment`` or ``enpsim.harness.sweep``), writes its
outputs into ``.bench_work/`` and has them checked by SHA-256:

* the first call of every run uses ``PIN_SEED`` and must reproduce the
  digests pinned below, taken from the code this benchmark was written for;
* every later call at the run's ``--seed`` must reproduce the digests of
  the first call at that seed, traced calls included.

``--trace 0`` times calls back to back (closed loop, one process, one
thread) and reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced call and reports the per-layer metrics of
``spans.install_layers``.  The last stdout line is the result; the line
before it is a report with provenance, digests and every sample.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PIN_SEED = 1
SETUP_REPEATS = 9
# Host speed drifts by tens of percent on a shared machine.  Timings are
# divided by a reference loop run between steps and reported at the speed
# where that loop takes REF_NOMINAL_MS.
REF_NOMINAL_MS = 20.0

sys.path.insert(0, str(SRC))
try:
    import enpsim
    import enpsim.cli as cli
    import enpsim.config as config
    import enpsim.harness as harness
except ImportError as exc:
    sys.exit(f"cannot import enpsim from {SRC}: {exc}")
if not Path(enpsim.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"enpsim was imported from {enpsim.__file__}, not from {SRC}")

import spans  # noqa: E402  (needs enpsim on the path)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # config text; the seed becomes run.master_seed
    entry: str  # "sweep", "run_experiment" or "cli"
    epochs: int  # epochs simulated per call, every cell and replication counted
    pinned: dict[str, str]  # output file -> SHA-256 at PIN_SEED
    vn: tuple[int, ...] = ()


SWEEP_VN = (10, 20, 30, 40, 50, 60)

WORKLOADS = {
    # The paper's Fig. 1b sweep: sparse to medium fleets, where fixed
    # per-epoch costs dominate and sweep cells could run in parallel.
    "fig1b-sweep": Workload(
        name="fig1b-sweep",
        config="preset = paper-fig1b\nfleet.v_n = 10\nrun.epochs = 5\n",
        entry="sweep",
        epochs=5 * len(SWEEP_VN),
        vn=SWEEP_VN,
        pinned={
            "sweep.csv": "69da8abbbb800faaa633a326cffabe02d9c04e3ce996a1e9601263cafc662cba",
        },
    ),
    # One dense cell: every slot occupied, (216 x 200) ground-truth arrays;
    # a batched kernel shows most here, sweep parallelism cannot.
    "fig1b-dense": Workload(
        name="fig1b-dense",
        config="preset = paper-fig1b\nfleet.v_n = 200\nrun.epochs = 5\n",
        entry="run_experiment",
        epochs=5,
        pinned={
            "iterations.csv": "4090232dc65c3916255730503ff2cfe09a57594ec039377f439ad5e9df3f14d2",
            "summary.csv": "0f627035d2650ac155d270a2a4fe4f68f4fd4028d9fbabb1be8e7eac25e2b76f",
            "summary_by_pair.csv": "cbab625d7efad0223c6d5b9780a89adffd5f4ef5ec9be6efb30fd273005a08c1",
        },
    ),
    # The small road through the CLI with the event log on: many tiny
    # capture resolutions and event text written beside the simulation.
    "road-events": Workload(
        name="road-events",
        config="preset = paper-road\nrun.epochs = 300\n",
        entry="cli",
        epochs=300,
        pinned={
            "events.log": "c9837c898419b039a0a6e1d39aaa27fe6465b53e3c16dfa355c747a06d651de3",
            "iterations.csv": "e45b773aea8aa6bbdd286316e31a3f0a505d5754c1335484a44a227b700f38b1",
            "summary.csv": "ea2947195bc60f29bc0245fa568bb3fc7dd9c19d555a61a1c103787f73037737",
            "summary_by_pair.csv": "49cf238032e212e73c0e5a973cf7607d59ab515a426066624b63ad6e5ab7c3bb",
        },
    ),
}

CELL_METRICS = [f"harness.sweep.cell_ms_per_epoch.vn{v}" for v in SWEEP_VN]

END_TO_END_UNITS = {
    "ms_per_epoch": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# span name -> reported kinds; "s" and "self_s" are seconds per workload call
SPAN_KINDS = {
    "cli.main": ("s",),
    "config.parse_config": ("s",),
    "protocol.run_epoch": ("calls", "s", "self_s"),
    "protocol.World": ("s",),
    "radio.capture_verdicts": ("calls", "s"),
    "metrics.ground_truth": ("calls", "s", "self_s"),
    "metrics.iteration_accuracy": ("s",),
    "metrics.aggregate": ("s",),
    "mobility.positions_at": ("calls", "s"),
    "mobility.advance": ("calls", "s"),
    "mobility.build_fleet": ("s",),
    "harness.write_experiment_outputs": ("s",),
}
COUNTS = [
    "radio.signals",
    "radio.resolutions",
    "radio.received",
    "radio.collisions",
    "rng.normal.calls",
    "rng.normal.draws",
    "slot_hash.slot_for.calls",
    "frames.ProbeFrame.built",
    "protocol.events",
    "harness.output_bytes",
]
_UNIT_OF_KIND = {"calls": "count", "s": "s", "self_s": "s"}

PER_LAYER_UNITS = {
    **{f"{name}.{kind}": _UNIT_OF_KIND[kind] for name, kinds in SPAN_KINDS.items() for kind in kinds},
    **{name: "count" for name in COUNTS},
    "harness.output_bytes": "bytes",
    "radio.received_ratio": "ratio",
    "radio.collision_ratio": "ratio",
    **{name: "ms" for name in CELL_METRICS},
    "harness.sweep.cells_in_flight": "count",
    "trace.overhead_ratio": "ratio",
    "host.ref_loop_ms": "ms",
}


# ---------------------------------------------------------------------------
# one workload call


def call_workload(wl: Workload, seed: int, work: Path) -> float:
    """Run one call of the workload into ``work/out``; returns wall seconds."""
    out = work / "out"
    t0 = time.perf_counter()
    if wl.entry == "cli":
        argv = ["run", "--config", str(work / "workload.conf"), "--seed", str(seed),
                "--out", str(out), "--events"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"enp-sim run exited with {rc}")
    else:
        cfg = config.parse_config(f"{wl.config}run.master_seed = {seed}\n")
        if wl.entry == "sweep":
            harness.sweep(cfg, wl.vn, out_dir=out)
        else:
            harness.run_experiment(cfg, out_dir=out)
    return time.perf_counter() - t0


def digest_outputs(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


class Session:
    """Workload calls of one run, each checked against the digests expected
    for its seed; counts attempts and failures."""

    def __init__(self, wl: Workload, work: Path):
        self.wl = wl
        self.work = work
        self.expected: dict[int, dict[str, str]] = {PIN_SEED: wl.pinned}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.output_bytes = 0
        (work / "workload.conf").write_text(wl.config, encoding="utf-8")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def call(self, seed: int) -> float | None:
        """Wall seconds of one checked call, or None if it failed."""
        self.attempted += 1
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        try:
            wall = call_workload(self.wl, seed, self.work)
        except Exception as exc:  # noqa: BLE001 - a failed call is a result
            self.fail(f"seed {seed}: {type(exc).__name__}: {exc}")
            return None
        digests = digest_outputs(out)
        expected = self.expected.setdefault(seed, digests)
        if digests != expected:
            source = "pinned" if seed == PIN_SEED else "first-call"
            self.fail(f"seed {seed}: outputs differ from the {source} digests: {digests}")
            return None
        self.output_bytes = sum(p.stat().st_size for p in out.iterdir())
        return wall


# ---------------------------------------------------------------------------
# host drift, set-up time, provenance


_REF_PY_N = 25_000
_REF_WIDE = np.linspace(1.0, 2.0, 216 * 200).reshape(216, 200)
_REF_SMALL = np.linspace(-90.0, -60.0, 60).reshape(6, 10)
_REF_COLS = np.arange(10)


def ref_loop_ms() -> float:
    """A fixed loop of the three kinds of work the engine does: plain Python
    (string formatting, list and dict updates), whole-array numpy over a
    ground-truth-sized matrix, and many numpy calls on capture-sized
    matrices.  Its time moves with the host, never with the code under test."""
    t0 = time.perf_counter()
    lines, seen = [], {}
    for i in range(_REF_PY_N):
        lines.append(f"{i}\tRX\tvr{i % 5}\t{i % 7}")
        seen.setdefault(i % 97, i)
    for _ in range(6):
        d = np.hypot(_REF_WIDE - 3.0, _REF_WIDE * 0.5)
        (10.0 * np.log10(np.maximum(d, 1.0)) >= 1.0).any(axis=0)
    p = _REF_SMALL
    for _ in range(400):
        w = p.argmax(axis=0)
        mw = 10.0 ** (p / 10.0)
        mw.sum(axis=0) - mw[w, _REF_COLS]
    return (time.perf_counter() - t0) * 1e3


class Sampler:
    """Runs steps between timings of the reference loop: each sample holds a
    step's result and the loop's time just before and just after it."""

    def __init__(self):
        self.refs = [ref_loop_ms()]

    def __call__(self, step) -> dict:
        value = step()
        self.refs.append(ref_loop_ms())
        return {"value": value, "ref_before_ms": self.refs[-2], "ref_after_ms": self.refs[-1]}


def host_scaled(samples: list[dict]) -> list[float]:
    """Each sample's value at the nominal host speed: divided by the mean of
    the reference loops around it, times REF_NOMINAL_MS."""
    return [
        s["value"] * 2 * REF_NOMINAL_MS / (s["ref_before_ms"] + s["ref_after_ms"])
        for s in samples
        if s["value"] is not None
    ]


# numpy, the one runtime dependency, is imported before the clock starts:
# its import is two thirds of the total and swings by up to 2x with the
# host's file cache.  numpy submodules that enpsim pulls in still count.
_SETUP_CHILD = """\
import sys, time
import numpy
t0 = time.perf_counter()
import enpsim
from enpsim.harness import build_fleet, rng_stream
cfg = enpsim.parse_config(sys.stdin.read())
rng = rng_stream(cfg.run.master_seed)
enpsim.World(build_fleet(cfg, rng), cfg.geometry, cfg.radio, cfg.hash, cfg.timing, rng)
print(time.perf_counter() - t0)
"""


def setup_seconds(config_text: str) -> float:
    """Cold ``import enpsim`` + ``parse_config`` + first ``World``, timed in a
    fresh interpreter that has imported only numpy."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    child = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD], input=config_text, capture_output=True,
        text=True, env=env, cwd=ROOT, timeout=60, check=True,
    )
    return float(child.stdout.strip().splitlines()[-1])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, enum.Enum):
        return value.name.lower()
    if is_dataclass(value):
        return ":".join(_fmt(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, tuple):
        sep = ";" if value and is_dataclass(value[0]) else ","
        return sep.join(_fmt(v) for v in value)
    return str(value)


def resolved_config(cfg) -> str:
    """Every field of a SimConfig as ``section.key = value`` lines."""
    lines = []
    for section in fields(cfg):
        part = getattr(cfg, section.name)
        for f in fields(part):
            value = getattr(part, f.name)
            if value is None:
                lines.append(f"# {section.name}.{f.name} unset")
            else:
                lines.append(f"{section.name}.{f.name} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(wl: Workload, seed: int) -> dict:
    cfg = config.parse_config(f"{wl.config}run.master_seed = {seed}\n")
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "seed": seed,
        "pin_seed": PIN_SEED,
        "entry": wl.entry,
        "sweep_vn": list(wl.vn),
        "config": resolved_config(cfg),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def _room_for(samples: list[dict], start: float, seconds: float, cost=lambda v: v) -> bool:
    """Whether a typical step, started now, still ends within ``seconds``."""
    costs = [cost(s["value"]) for s in samples if s["value"] is not None]
    typical = statistics.median(costs) if costs else 0.0
    return time.perf_counter() - start + typical <= seconds


def timed_run(session: Session, seed: int, seconds: float, report: dict) -> dict:
    """Back-to-back calls for ``seconds``, with the set-up samples spread
    evenly over the same span so that both see the same host."""
    wl = session.wl
    config_text = f"{wl.config}run.master_seed = {seed}\n"
    sample = Sampler()
    calls, setup = [], []
    start = time.perf_counter()
    while not calls or _room_for(calls, start, seconds):
        calls.append(sample(lambda: session.call(seed)))
        if len(setup) < SETUP_REPEATS * (time.perf_counter() - start) / seconds:
            setup.append(sample(lambda: setup_seconds(config_text)))
    while len(setup) < SETUP_REPEATS:
        setup.append(sample(lambda: setup_seconds(config_text)))
    report.update(calls=calls, setup=setup)
    scaled = host_scaled(calls)
    return {
        "ms_per_epoch": statistics.median(scaled) * 1e3 / wl.epochs if scaled else 0.0,
        "setup_s": statistics.median(host_scaled(setup)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (session.attempted - session.failed) / session.attempted,
    }


def _traced_call(session: Session, seed: int) -> tuple[float | None, dict]:
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        wall = session.call(seed)
    finally:
        tracer.uninstall()
    values = {}
    for name, kinds in SPAN_KINDS.items():
        calls, total, self_s = tracer.spans.get(name, (0, 0.0, 0.0))
        by_kind = {"calls": calls, "s": total, "self_s": self_s}
        values.update({f"{name}.{kind}": by_kind[kind] for kind in kinds})
    values.update({name: tracer.counts[name] for name in COUNTS})
    values["harness.output_bytes"] = session.output_bytes
    return wall, values


def traced_run(session: Session, seed: int, seconds: float, report: dict) -> dict:
    """Alternate untraced and traced calls; per-layer values are medians over
    traced calls, and every count must repeat exactly from call to call."""
    wl = session.wl
    cells = spans.Tracer()
    traced = []

    def pair() -> tuple[float, float] | None:
        spans.install_cells(cells)
        try:
            untraced_wall = session.call(seed)
        finally:
            cells.uninstall()
        traced_wall, values = _traced_call(session, seed)
        if untraced_wall is None or traced_wall is None:
            return None
        traced.append(values)
        return untraced_wall, traced_wall

    sample = Sampler()
    samples = []
    start = time.perf_counter()
    while not samples or _room_for(samples, start, seconds, cost=sum):
        samples.append(sample(pair))
    pairs = [s["value"] for s in samples if s["value"] is not None]
    if not traced:
        return {name: 0.0 for name in PER_LAYER_UNITS}

    counted = COUNTS + [f"{n}.calls" for n, kinds in SPAN_KINDS.items() if "calls" in kinds]
    unsteady = [name for name in counted if len({v[name] for v in traced}) != 1]
    if unsteady:
        session.fail(f"counts differ between traced calls of one seed: {unsteady}")
    metrics = {name: statistics.median(v[name] for v in traced) for name in traced[0]}
    metrics.update({name: traced[0][name] for name in counted})
    metrics["radio.received_ratio"] = _ratio(metrics["radio.received"], metrics["radio.resolutions"])
    metrics["radio.collision_ratio"] = _ratio(metrics["radio.collisions"], metrics["radio.resolutions"])
    for name, vn in zip(CELL_METRICS, SWEEP_VN):
        cell = cells.cells.get(vn) if wl.entry == "sweep" else None
        metrics[name] = statistics.median(cell) if cell else 0.0
    metrics["harness.sweep.cells_in_flight"] = cells.max_cells_in_flight
    metrics["trace.overhead_ratio"] = statistics.median(t / u for u, t in pairs)
    metrics["host.ref_loop_ms"] = statistics.median(sample.refs)
    report.update(pairs=samples, traced_calls=traced)
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    wl = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    report = {"provenance": provenance(wl, args.seed)}
    try:
        session = Session(wl, work)
        session.call(PIN_SEED)  # pinned-digest check; also warms caches
        if args.trace:
            values = traced_run(session, args.seed, args.seconds, report)
            units = PER_LAYER_UNITS
        else:
            values = timed_run(session, args.seed, args.seconds, report)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report.update(digests=session.expected.get(args.seed), errors=session.errors)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
