"""Self-tests of the benchmark's own code.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import run  # puts the checkout's src/ on sys.path
import spans

import enpsim.cli as cli
import enpsim.config as config
import enpsim.harness as harness
import enpsim.metrics as metrics
import enpsim.protocol as protocol
from enpsim import parse_config

BENCH = Path(__file__).resolve().parent
PATCHED = (cli, config, harness, metrics, protocol)


def test_span_passes_arguments_and_result_through():
    tracer = spans.Tracer()
    seen = []

    def fn(*args, **kwargs):
        seen.append((args, kwargs))
        return object()

    wrapped = tracer.span("layer.fn", fn)
    sentinel = [1, 2]
    result = wrapped(sentinel, 3, key="v")
    assert seen == [((sentinel, 3), {"key": "v"})]
    assert seen[0][0][0] is sentinel
    assert wrapped.__wrapped__ is fn
    assert result is not None and tracer.spans["layer.fn"][0] == 1

    counted = tracer.counter("layer.count", fn)
    counted(4, key="w")
    assert seen[-1] == ((4,), {"key": "w"}) and tracer.counts["layer.count"] == 1


def test_span_records_and_reraises_errors():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span("layer.boom", boom)()
    assert tracer.spans["layer.boom"][0] == 1
    assert tracer._child_time == []


def test_self_time_is_span_minus_child_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 5.5, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.span("inner", lambda: None)

    def outer_body():
        inner()  # 1.0 .. 4.0
        inner()  # 5.0 .. 5.5

    tracer.span("outer", outer_body)()  # 0.0 .. 10.0
    assert tracer.spans["inner"] == [2, 3.5, 3.5]
    assert tracer.spans["outer"] == [1, 10.0, 6.5]


def test_counting_rng_forwards_identical_streams():
    plain = harness.rng_stream(7, 1)
    counts = Counter()
    proxy = spans.CountingRng(harness.rng_stream(7, 1), counts)
    np.testing.assert_array_equal(plain.normal(0.0, 2.0, size=(3, 4)), proxy.normal(0.0, 2.0, size=(3, 4)))
    np.testing.assert_array_equal(plain.uniform(0.0, 5.0, size=6), proxy.uniform(0.0, 5.0, size=6))
    np.testing.assert_array_equal(
        plain.integers(0, 2**64, size=5, dtype=np.uint64),
        proxy.integers(0, 2**64, size=5, dtype=np.uint64),
    )
    assert plain.normal() == proxy.normal()
    assert counts == {"rng.normal.calls": 2, "rng.normal.draws": 13}


def test_install_layers_restores_every_name():
    def names():
        return {(m.__name__, n): getattr(m, n) for m in PATCHED for n in dir(m)}

    before = names()
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    assert harness.ground_truth is not before[("enpsim.harness", "ground_truth")]
    tracer.uninstall()
    assert names() == before


def test_traced_experiment_matches_untraced():
    cfg = parse_config("preset = paper-road\nrun.epochs = 20\n")
    plain = harness.run_experiment(cfg, events=True)
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        traced = harness.run_experiment(cfg, events=True)
    finally:
        tracer.uninstall()
    assert traced.iterations == plain.iterations
    assert traced.events == plain.events
    assert tracer.spans["protocol.run_epoch"][0] == 20
    assert tracer.counts["protocol.events"] == len(plain.events)
    assert tracer.counts["rng.normal.draws"] > 0
    assert tracer.counts["radio.resolutions"] >= tracer.counts["radio.received"] > 0


def test_resolved_config_round_trips():
    cfg = parse_config("preset = paper-road\nrun.master_seed = 9\n")
    assert parse_config(run.resolved_config(cfg)) == cfg


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_every_metric_with_its_unit(trace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "road-events",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True, cwd=BENCH.parent,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    report = json.loads(out.stdout.splitlines()[-2])["report"]
    assert report["provenance"]["seed"] == 3 and report["digests"]
