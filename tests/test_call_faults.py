"""tools/call_faults.py: time and minor faults per call of a benchmark workload."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reports_one_workload_of_a_tree():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "call_faults.py"), str(ROOT),
                          "--workload", "fig1b-sweep", "--calls", "2", "--warmup", "0"],
                         check=True, capture_output=True, text=True, timeout=300).stdout
    report = json.loads(out.strip().splitlines()[-1])
    assert report["workload"] == "fig1b-sweep" and report["calls"] == 2
    assert len(report["ms"]) == len(report["minflt"]) == 2
    assert report["ms_per_call"] > 0 and report["minflt_per_call"] >= 0


def test_rejects_an_unknown_workload():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "call_faults.py"), str(ROOT),
                          "--workload", "no-such-workload"], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 2 and "unknown workload" in run.stderr
