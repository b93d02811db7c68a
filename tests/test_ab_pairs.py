"""tools/ab_pairs.py: the summary of alternating benchmark pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def test_summary_of_fixed_samples():
    got = ab_pairs.summarize([1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 2.0, 3.0], "lower")
    assert got == {
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
    # the same pairs where higher is better; ties count for neither side
    assert ab_pairs.summarize([1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 2.0, 3.0],
                              "higher")["change_better_pairs"] == 1
    assert ab_pairs.summarize([1.0, 1.0], [1.0, 1.0], "higher")["change_better_pairs"] == 0


def test_summary_reproduces_a_recorded_benchmark_file():
    recorded = json.loads((ROOT / "BENCH_18.json").read_text())["workloads"]
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for workload in recorded.values():
        for name, want in workload.items():
            if name in better:
                got = ab_pairs.summarize(want["parent_runs"], want["change_runs"], better[name])
                assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("parent, change, better", [
    ([1.0, 2.0], [1.0], "lower"),
    ([], [], "lower"),
    ([1.0], [2.0], "faster"),
])
def test_summary_rejects_unpaired_or_unknown_input(parent, change, better):
    with pytest.raises(ValueError):
        ab_pairs.summarize(parent, change, better)
