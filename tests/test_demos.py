"""Every demo script runs to completion against the package in ``src``, and
the single-epoch walkthrough prints exactly its pinned text."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# the walkthrough's scene is static and its radio unshadowed, so its whole
# output is fixed: schedule, round-0 event log and records in vrn order
PINNED_STDOUT = {"single_epoch_walkthrough.py": """\
the scene: one recorder pair at road x=100 (lateral -2 m and +9 m)
  vrn  4000000000023333331  road (100.0, 1.0)  slot 10
  vrn  4000000000031111108  road (100.0, 6.0)  slot 10
  vrn           9876543210  road ( 90.0, 3.0)  slot 58
  (the first two share slot 10: a hash clash on purpose)

schedule: sync window 20 ms, then 3 rounds of 1 probe + 71 slots (144 ms each)

event log, round 0 only (time_us  event  node  pair  epoch  round  slot  vrn):
  20000  PROBE  vr0a  0  0  0  -  -
  20000  PROBE  vr0b  0  0  0  -  -
  20000  RX  enp0  0  0  0  -  -
  20000  RX  enp1  0  0  0  -  -
  20000  RX  enp2  0  0  0  -  -
  42000  REPLY  enp0  -  0  0  10  4000000000023333331
  42000  REPLY  enp1  -  0  0  10  4000000000031111108
  42000  RX  vr0a  0  0  0  10  4000000000023333331
  42000  RX  vr0b  0  0  0  10  4000000000031111108
  138000  REPLY  enp2  -  0  0  58  9876543210
  138000  RX  vr0a  0  0  0  58  9876543210
  138000  RX  vr0b  0  0  0  58  9876543210

records after the epoch:
  vr0a: 9876543210 (round 0, slot 58), 4000000000023333331 (round 0, slot 10)
  vr0b: 9876543210 (round 0, slot 58), 4000000000031111108 (round 0, slot 10)

union of the pair: 3 of 3 vehicles -- the clash cost neither, because each recorder captured its nearer contender.
"""}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    if demo.name in PINNED_STDOUT:
        assert out.stdout == PINNED_STDOUT[demo.name]
