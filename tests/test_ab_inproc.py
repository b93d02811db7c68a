"""tools/ab_inproc.py: alternating in-process A/B calls of a benchmark workload."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab_inproc", ROOT / "tools" / "ab_inproc.py")
ab_inproc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_inproc)


def test_report_of_fixed_samples():
    samples = {"parent": {"ms": [10.0, 20.0, 30.0, 40.0], "minflt": [1, 2, 3, 4]},
               "change": {"ms": [5.0, 25.0, 20.0, 30.0], "minflt": [0, 0, 9, 1]}}
    got = ab_inproc.report(samples, epochs=10)
    assert got["ms_per_epoch"] == {
        "parent_median": 2.5,
        "change_median": 2.25,
        "parent_quartiles": [1.75, 3.25],
        "change_quartiles": [1.625, 2.625],
        "parent_iqr": 1.5,
        "change_over_parent": 0.9,
        "change_better_pairs": 3,
        "pairs": 4,
        "parent_runs": [1.0, 2.0, 3.0, 4.0],
        "change_runs": [0.5, 2.5, 2.0, 3.0],
    }
    faults = got["minflt_per_call"]
    assert (faults["parent_median"], faults["change_median"]) == (2.5, 0.5)
    assert faults["change_better_pairs"] == 3 and faults["pairs"] == 4


def run_tool(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab_inproc.py"), *args],
                          capture_output=True, text=True, timeout=300)


def test_a_tree_against_itself_reads_level():
    # both sides load this tree's package, each under a name of its own
    run = run_tool(str(ROOT), str(ROOT), "--workload", "fig1b-sweep", "--rounds", "21",
                   "--warmup", "1")
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert (report["workload"], report["rounds"]) == ("fig1b-sweep", 21)
    ms = report["ms_per_epoch"]
    assert ms["pairs"] == 21 and ms["parent_median"] > 0
    assert abs(ms["change_median"] - ms["parent_median"]) <= ms["parent_iqr"]
    assert len(report["minflt_per_call"]["change_runs"]) == 21


def test_rejects_an_unknown_workload():
    run = run_tool(str(ROOT), str(ROOT), "--workload", "no-such-workload")
    assert run.returncode == 2 and "unknown workload" in run.stderr
