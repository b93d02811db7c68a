"""tools/ab_pairs.py: the summary and verdicts of alternating benchmark pairs."""

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


@pytest.mark.parametrize("change, better, met", [
    # 9 of 10 pairs won; medians 104.5 and 94.5, 10 apart, over a parent IQR of 4.5
    ([90, 91, 92, 93, 94, 95, 96, 97, 98, 110], "lower", True),
    # 8 of 10 won: too few, though the gap is as wide
    ([90, 91, 92, 93, 94, 95, 96, 97, 110, 111], "lower", False),
    # all 10 won, by 1 or by exactly the parent's IQR: inside its spread
    ([99, 100, 101, 102, 103, 104, 105, 106, 107, 108], "lower", False),
    ([95.5, 96.5, 97.5, 98.5, 99.5, 100.5, 101.5, 102.5, 103.5, 104.5], "lower", False),
    # where higher is better, the first case lost and its mirror won
    ([90, 91, 92, 93, 94, 95, 96, 97, 98, 110], "higher", False),
    ([110, 111, 112, 113, 114, 115, 116, 117, 118, 100], "higher", True),
])
def test_claim_verdict_of_fixed_samples(change, better, met):
    # a gain is claimed when the change wins at least 9 of 10 pairs and its
    # median is better than the parent's by more than the parent's IQR
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    summary = ab_pairs.summarize(parent, change, better)
    assert summary["parent_iqr"] == 4.5
    assert ab_pairs.claim_met(summary, better) is met


PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # median 104.5, IQR 4.5


@pytest.mark.parametrize("parent, change, better, bound, want", [
    # a 25 % bound allows a median up to 130.625 (104.5 x 1.25)
    (PARENT, [127, 128, 129, 130, 131, 132, 133, 134, 135, 136], "lower", 0.25, "worse"),
    (PARENT, [125, 126, 127, 128, 129, 130, 131, 132, 133, 134], "lower", 0.25, "level"),
    (PARENT, PARENT, "lower", 0.25, "level"),
    # the claim rule met: 9 of 10 pairs, medians 10 apart over the IQR
    (PARENT, [90, 91, 92, 93, 94, 95, 96, 97, 98, 110], "lower", 0.25, "better"),
    # a 5 % bound allows 5.225, and the parent's IQR of 4.5 is inside it
    (PARENT, [107, 108, 109, 110, 111, 112, 113, 114, 115, 116], "lower", 0.05, "worse"),
    # the parent's IQR (4.5) exceeds a 4 % bound (4.18): unresolved even
    # when the medians are equal, unless every change run beats every parent run
    (PARENT, PARENT, "lower", 0.04, "unresolved"),
    (PARENT, [90, 91, 92, 93, 94, 95, 96, 97, 98, 99], "lower", 0.04, "better"),
    (PARENT, [90, 91, 92, 93, 94, 95, 96, 97, 98, 100], "lower", 0.04, "unresolved"),
    # where higher is better, a share of successful calls
    ([1.0] * 10, [1.0] * 10, "higher", 0.05, "level"),
    ([1.0] * 10, [0.96] * 10, "higher", 0.05, "level"),
    ([1.0] * 10, [0.94] * 10, "higher", 0.05, "worse"),
    (PARENT, [110, 111, 112, 113, 114, 115, 116, 117, 118, 119], "higher", 0.04, "better"),
    (PARENT, [99, 100, 101, 102, 103, 104, 105, 106, 107, 108], "higher", 0.04, "unresolved"),
])
def test_no_regression_verdict_of_fixed_samples(parent, change, better, bound, want):
    assert ab_pairs.verdict(ab_pairs.summarize(parent, change, better), better, bound) == want


@pytest.mark.parametrize("verdicts, want", [
    (["level", "level"], "level"),
    (["better", "level"], "level"),
    (["better", "better"], "better"),
    (["better", "unresolved"], "unresolved"),
    (["unresolved", "worse"], "worse"),
    (["level", "worse"], "worse"),
])
def test_verdict_over_sets(verdicts, want):
    assert ab_pairs.overall(verdicts) == want
