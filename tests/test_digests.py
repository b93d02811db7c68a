"""Pinned output digests: any engine rewrite must keep outputs byte-identical.

Each case runs ``enp-sim run`` on a small config and compares the SHA-256 of
``iterations.csv`` (and ``events.log`` where the run writes it) with digests
taken from the per-slot engine before the reply phase was batched per round.
The cases cover shadowed multi-pair fleets (a dense one puts many
contenders in one slot), the event log, and per-round reseeding of the slot
hash.

To re-pin after a deliberate change of outputs, run this file as a script:
``PYTHONPATH=src python tests/test_digests.py`` prints the current digests.
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
}

DIGESTS = {
    "fig1b-dense-vn200": {
        "iterations.csv": "62981b2602332540a3e29ab6c5f333560bd517c2d1ad11d19fe24ff6a77a51c9",
    },
    "fig1b-reseed-events": {
        "iterations.csv": "4686f007d33235bfe4c22b986747fc92a9dc44fdcbf2cd9d6c374543007b0a25",
        "events.log": "fc35e86c7f75c165d76ec19fc7197d9910752ee643e2c7f157ab226a4dab1e04",
    },
    "fig1b-shadowed-vn40": {
        "iterations.csv": "c3e775adc03eabebf9c8117f3825e35db43c17595e850422ea09e66a1edb03cd",
    },
    "road-events": {
        "iterations.csv": "e45b773aea8aa6bbdd286316e31a3f0a505d5754c1335484a44a227b700f38b1",
        "events.log": "c9837c898419b039a0a6e1d39aaa27fe6465b53e3c16dfa355c747a06d651de3",
    },
}


def run_digests(config_text: str, events: bool, tmp: Path) -> dict[str, str]:
    cfg = tmp / "run.conf"
    cfg.write_text(config_text, encoding="utf-8")
    out = tmp / "out"
    argv = ["run", "--config", str(cfg), "--out", str(out)] + (["--events"] if events else [])
    if main(argv) != 0:
        raise RuntimeError(f"enp-sim run failed on {config_text!r}")
    names = ["iterations.csv"] + (["events.log"] if events else [])
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pinned_digests(tmp_path, case):
    config_text, events = CASES[case]
    assert run_digests(config_text, events, tmp_path) == DIGESTS[case]


if __name__ == "__main__":
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            print(f"    {name!r}: {run_digests(*CASES[name], Path(d))!r},")
