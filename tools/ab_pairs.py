"""Alternating A/B pairs of the benchmark between two commits.

    python3 tools/ab_pairs.py PARENT CHANGE --workload road-events --seed 11 \
        --seconds 8 --pairs 10 --sets 2 > pairs.json

Each side runs ``bench/run.py --trace 0`` from a clean ``git archive`` of its
commit, one run at a time; odd pairs run the change first, even pairs the
parent.  Each set exports both trees afresh, into a directory of its own, and
runs its pairs of every workload there: a sign that holds in one set of trees
only is not evidence for the code.  Both sides run the same benchmark code
only when ``bench/`` is equal at the two commits.  The output is one JSON
object per workload: its ``sets``, each in the shape of the ``workloads``
entries of the ``BENCH_<n>.json`` files (per end-to-end metric of
``BENCHMARK.json``, each side's median, quartiles (numpy linear percentiles)
and runs, the parent's interquartile range, the change over the parent, and
the pairs the change won, ties counting for neither side) plus each metric's
``claim_met`` and no-regression ``verdict`` (see :func:`claim_met` and
:func:`verdict`); ``claim_met``, per metric, whether every set met it; and
``verdict``, per metric, the sets' verdicts combined (see :func:`overall`).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def summarize(parent_runs, change_runs, better: str) -> dict:
    """One metric's pairs: ``parent_runs[i]`` and ``change_runs[i]`` ran as
    pair i; ``better`` is "lower" or "higher"."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need as many change runs as parent runs, and at least one")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    parent, change = np.asarray(parent_runs, dtype=float), np.asarray(change_runs, dtype=float)
    gain = parent - change if better == "lower" else change - parent
    parent_q, change_q = (np.percentile(runs, [25, 75]).tolist() for runs in (parent, change))
    parent_median, change_median = float(np.median(parent)), float(np.median(change))
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartiles": parent_q,
        "change_quartiles": change_q,
        "parent_iqr": parent_q[1] - parent_q[0],
        "change_over_parent": change_median / parent_median if parent_median else None,
        "change_better_pairs": int((gain > 0).sum()),
        "pairs": len(parent),
        "parent_runs": parent.tolist(),
        "change_runs": change.tolist(),
    }


def _gain(summary: dict, better: str) -> float:
    """How much better the change's median is than the parent's."""
    gap = summary["parent_median"] - summary["change_median"]
    return gap if better == "lower" else -gap


def claim_met(summary: dict, better: str) -> bool:
    """Whether one set's pairs (a :func:`summarize` result) support a claimed
    gain: the change won at least nine tenths of the pairs, and its median is
    better than the parent's by more than the parent's interquartile range."""
    wins = summary["change_better_pairs"]
    return 10 * wins >= 9 * summary["pairs"] and _gain(summary, better) > summary["parent_iqr"]


def verdict(summary: dict, better: str, bound: float) -> str:
    """One set's no-regression verdict on one metric (a :func:`summarize`
    result), ``bound`` being the metric's bound in ``BENCHMARK.json`` read
    as a fraction of the parent's median: "worse" when the change's median
    is worse than the parent's by more than that; else "unresolved" when the
    parent's interquartile range exceeds it and not every change run beats
    every parent run; else "better" when :func:`claim_met`, or "level"."""
    allowed = bound * abs(summary["parent_median"])
    if _gain(summary, better) < -allowed:
        return "worse"
    parent, change = summary["parent_runs"], summary["change_runs"]
    beats_all = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    if summary["parent_iqr"] > allowed and not beats_all:
        return "unresolved"
    return "better" if claim_met(summary, better) else "level"


def overall(verdicts) -> str:
    """The verdict of several sets on one metric: "worse" if any set is
    worse, else "unresolved" if any is, else "better" if all are, else
    "level"."""
    for worst in ("worse", "unresolved"):
        if worst in verdicts:
            return worst
    return "better" if all(v == "better" for v in verdicts) else "level"


def export(rev: str, into: Path) -> Path:
    """A clean tree of ``rev`` under ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run in ``tree``: its result line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_pairs(trees: dict, workload: str, args, label: str) -> dict:
    """Each side's result lines of ``args.pairs`` alternating pairs."""
    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        for side in ("change", "parent") if pair % 2 else ("parent", "change"):
            runs[side].append(bench_once(trees[side], workload, args.seed, args.seconds))
            print(f"{workload} {label} pair {pair} {side}: "
                  f"{runs[side][-1]['metrics']['ms_per_epoch']['value']:.4f} ms", file=sys.stderr)
    return runs


def set_report(runs: dict, metrics: list) -> dict:
    """One set's summary per end-to-end metric, each metric's claim and
    no-regression verdicts and whether every run was correct."""
    report = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                                   [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                                   m["better"])
              for m in metrics}
    report["claim_met"] = {m["name"]: claim_met(report[m["name"]], m["better"]) for m in metrics}
    report["verdict"] = {m["name"]: verdict(report[m["name"]], m["better"], m["bound"])
                         for m in metrics}
    report["all_correct"] = all(r["correct"] for side in runs.values() for r in side)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent commit")
    parser.add_argument("change", help="the changed commit")
    parser.add_argument("--workload", action="append", required=True,
                        help="a bench/run.py workload; repeat for several")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1,
                        help="sets of pairs, each from freshly exported trees")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.sets < 1:
        parser.error("--pairs and --sets must be >= 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    report = {workload: {"sets": []} for workload in args.workload}
    for n in range(1, args.sets + 1):
        with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
            trees = {side: export(rev, Path(tmp) / side)
                     for side, rev in (("parent", args.parent), ("change", args.change))}
            for workload in args.workload:
                runs = run_pairs(trees, workload, args, f"set {n}")
                report[workload]["sets"].append(set_report(runs, metrics))
    for workload in report.values():
        workload["claim_met"] = {m["name"]: all(one["claim_met"][m["name"]]
                                                for one in workload["sets"]) for m in metrics}
        workload["verdict"] = {m["name"]: overall([one["verdict"][m["name"]]
                                                   for one in workload["sets"]]) for m in metrics}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
