"""Per-layer tracing from outside the program.

The tracer replaces module-level names that enpsim modules look up at call
time (``enpsim.harness.ground_truth``, ``enpsim.protocol.capture_verdicts``,
...) with wrappers that time each call and count its work.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts every original name back.

Spans are aggregated in memory per name: calls, total seconds and self
seconds, where a span's self time is its duration minus the time covered by
the wrapped calls it made.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable

import numpy as np

from enpsim.radio import Verdict


class Tracer:
    """Span and counter store shared by every wrapper it creates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.cells: dict[int, list[float]] = {}  # v_n -> ms per epoch of each cell
        self.cells_in_flight = 0
        self.max_cells_in_flight = 0
        self._child_time: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def span(self, name: str, fn, on_return=None):
        """Wrap ``fn`` so each call records one span under ``name``.

        ``on_return(args, kwargs, result)`` runs after the span closes, so
        counting work is charged to the caller, not to the span."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        clock = self.clock

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = child_time.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - children
                if child_time:
                    child_time[-1] += dt
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call adds one to ``counts[name]``, untimed."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def cell(self, fn):
        """Wrap ``run_experiment``: one sweep cell per call, timed in ms per
        simulated epoch and keyed by fleet size."""
        clock = self.clock

        def wrapper(config, *args, **kwargs):
            self.cells_in_flight += 1
            self.max_cells_in_flight = max(self.max_cells_in_flight, self.cells_in_flight)
            t0 = clock()
            try:
                return fn(config, *args, **kwargs)
            finally:
                dt = clock() - t0
                self.cells_in_flight -= 1
                epochs = config.run.epochs * config.run.replications
                self.cells.setdefault(config.fleet.v_n, []).append(dt * 1e3 / epochs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that count a layer's work from its return value ----------

    def count_verdicts(self, args, _kwargs, result) -> None:
        power = np.asarray(args[0])
        codes, _winners = result
        c = self.counts
        c["radio.signals"] += int(np.isfinite(power).sum())
        c["radio.resolutions"] += int(codes.size)
        c["radio.received"] += int((codes == Verdict.RECEIVED).sum())
        c["radio.collisions"] += int((codes == Verdict.COLLISION).sum())

    def count_events(self, _args, _kwargs, result) -> None:
        if result.events is not None:
            self.counts["protocol.events"] += len(result.events)

    # -- patching -------------------------------------------------------

    def patch(self, module: str, attr: str, wrapper_for: Callable) -> None:
        """Replace ``module.attr`` by ``wrapper_for(original)``."""
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, wrapper_for(original))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


class CountingRng:
    """Proxy over a ``numpy.random.Generator`` that counts ``normal`` calls
    and the values they draw; every other method is forwarded untouched, so
    the stream is the same as the wrapped generator's."""

    def __init__(self, rng: np.random.Generator, counts: Counter):
        self._rng = rng
        self._counts = counts

    def normal(self, *args, **kwargs):
        out = self._rng.normal(*args, **kwargs)
        self._counts["rng.normal.calls"] += 1
        self._counts["rng.normal.draws"] += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def install_cells(tracer: Tracer) -> None:
    """Only the per-cell wrapper: a few calls per workload call, so the run
    stays effectively untraced."""
    for module in ("enpsim.harness", "enpsim.cli"):
        tracer.patch(module, "run_experiment", tracer.cell)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the engine crosses (see the README for the
    metric each one feeds)."""
    span, counter = tracer.span, tracer.counter
    p = tracer.patch
    install_cells(tracer)
    p("enpsim.cli", "main", lambda f: span("cli.main", f))
    for module in ("enpsim.config", "enpsim.cli"):
        p(module, "parse_config", lambda f: span("config.parse_config", f))
    p("enpsim.harness", "write_experiment_outputs",
      lambda f: span("harness.write_experiment_outputs", f))
    p("enpsim.harness", "rng_stream",
      lambda f: lambda *key: CountingRng(f(*key), tracer.counts))
    p("enpsim.harness", "build_fleet", lambda f: span("mobility.build_fleet", f))
    p("enpsim.harness", "World", lambda f: span("protocol.World", f))
    p("enpsim.harness", "run_epoch",
      lambda f: span("protocol.run_epoch", f, tracer.count_events))
    p("enpsim.harness", "ground_truth", lambda f: span("metrics.ground_truth", f))
    p("enpsim.harness", "iteration_accuracy", lambda f: span("metrics.iteration_accuracy", f))
    p("enpsim.harness", "aggregate", lambda f: span("metrics.aggregate", f))
    for module in ("enpsim.harness", "enpsim.protocol"):
        p(module, "advance", lambda f: span("mobility.advance", f))
    # ground_truth samples positions through its own module's binding
    for module in ("enpsim.protocol", "enpsim.metrics"):
        p(module, "positions_at", lambda f: span("mobility.positions_at", f))
    p("enpsim.protocol", "capture_verdicts",
      lambda f: span("radio.capture_verdicts", f, tracer.count_verdicts))
    p("enpsim.protocol", "slot_for", lambda f: counter("slot_hash.slot_for.calls", f))
    p("enpsim.protocol", "ProbeFrame", lambda f: counter("frames.ProbeFrame.built", f))
