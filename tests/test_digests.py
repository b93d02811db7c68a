"""Pinned output digests: any engine rewrite must keep outputs byte-identical.

Each case runs ``enp-sim run`` on a small config and compares the SHA-256 of
``iterations.csv`` (and ``events.log`` where the run writes it) with digests
taken from the per-slot engine before the reply phase was batched per round.
The cases cover shadowed multi-pair fleets (a dense one puts many
contenders in one slot), the event log, and per-round reseeding of the slot
hash.  A run case of three replications and a sweep case of three cells
of two replications each (an empty fleet among them) pin the multi-stream
paths; their digests were taken from the engine that ran one replication
of one cell at a time.  On a 260 m ring the seam lies 50 m from the outer
pairs, inside their range, so vehicles that cross it during an epoch enter
ground truth (117 such memberships in 50 epochs); their digest was taken
from the full boundary-by-boundary ground-truth scan.

To re-pin after a deliberate change of outputs, run this file as a script:
``PYTHONPATH=src python tests/test_digests.py`` prints the current digests,
run cases first and sweep cases after them.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from enpsim.cli import main

CASES = {
    "fig1b-shadowed-vn40": (
        "preset = paper-fig1b\nfleet.v_n = 40\nrun.epochs = 50\n",
        False,
    ),
    "fig1b-dense-vn200": (
        "preset = paper-fig1b\nfleet.v_n = 200\nrun.epochs = 20\n",
        False,
    ),
    "road-events": (
        "preset = paper-road\nrun.epochs = 300\n",
        True,
    ),
    "fig1b-reseed-events": (
        "preset = paper-fig1b\nhash.reseed_per_round = true\nrun.epochs = 50\n",
        True,
    ),
    "fig1b-seam-ring260": (
        "preset = paper-fig1b\ngeometry.ring_length_m = 260\nradio.exponent = 3.0\n"
        "run.epochs = 50\n",
        False,
    ),
    "road-events-reps3": (
        "preset = paper-road\nrun.epochs = 100\nrun.replications = 3\n",
        True,
    ),
}

# ``enp-sim sweep`` cases: config text and the --vn list; σ = 6.5 dB as preset
SWEEP_CASES = {
    "fig1b-sweep-reps2": (
        "preset = paper-fig1b\nrun.epochs = 40\nrun.replications = 2\n",
        "0,10,40",
    ),
}

DIGESTS = {
    "fig1b-dense-vn200": {
        "iterations.csv": "62981b2602332540a3e29ab6c5f333560bd517c2d1ad11d19fe24ff6a77a51c9",
    },
    "fig1b-reseed-events": {
        "iterations.csv": "4686f007d33235bfe4c22b986747fc92a9dc44fdcbf2cd9d6c374543007b0a25",
        "events.log": "fc35e86c7f75c165d76ec19fc7197d9910752ee643e2c7f157ab226a4dab1e04",
    },
    "fig1b-seam-ring260": {
        "iterations.csv": "9baffedbb4bc1473bb47a4ba1568ea76629dead78842bdb1fd198d40ca0552c0",
    },
    "fig1b-shadowed-vn40": {
        "iterations.csv": "c3e775adc03eabebf9c8117f3825e35db43c17595e850422ea09e66a1edb03cd",
    },
    "road-events": {
        "iterations.csv": "e45b773aea8aa6bbdd286316e31a3f0a505d5754c1335484a44a227b700f38b1",
        "events.log": "c9837c898419b039a0a6e1d39aaa27fe6465b53e3c16dfa355c747a06d651de3",
    },
    "road-events-reps3": {
        "iterations.csv": "f7cb418c129b4388e5f4377b984d1c27864057cd2468e79e9a8df33fd290dd87",
        "events.log": "0b97d9971091a0ad2bd47b5ef281791d73e2d94b61590d431130af5ccae1ff3a",
    },
    "fig1b-sweep-reps2": {
        "sweep.csv": "6840c8ce7d43f9ed889294c3e09a42d8098d1a8d4f847e1e0eeb2e85aadb516f",
    },
}


def _digests(argv: list[str], config_text: str, names: list[str], tmp: Path) -> dict[str, str]:
    cfg = tmp / "run.conf"
    cfg.write_text(config_text, encoding="utf-8")
    out = tmp / "out"
    if main(argv + ["--config", str(cfg), "--out", str(out)]) != 0:
        raise RuntimeError(f"enp-sim {argv[0]} failed on {config_text!r}")
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


def run_digests(config_text: str, events: bool, tmp: Path) -> dict[str, str]:
    argv = ["run"] + (["--events"] if events else [])
    names = ["iterations.csv"] + (["events.log"] if events else [])
    return _digests(argv, config_text, names, tmp)


def sweep_digests(config_text: str, vn: str, tmp: Path) -> dict[str, str]:
    return _digests(["sweep", "--vn", vn], config_text, ["sweep.csv"], tmp)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pinned_digests(tmp_path, case):
    config_text, events = CASES[case]
    assert run_digests(config_text, events, tmp_path) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_outputs_match_pinned_digests(tmp_path, case):
    assert sweep_digests(*SWEEP_CASES[case], tmp_path) == DIGESTS[case]


if __name__ == "__main__":
    for cases, digests in ((CASES, run_digests), (SWEEP_CASES, sweep_digests)):
        for name in sorted(cases):
            with tempfile.TemporaryDirectory() as d:
                print(f"    {name!r}: {digests(*cases[name], Path(d))!r},")
