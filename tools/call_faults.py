"""Median in-process time and minor page faults per call of one benchmark workload.

    python3 tools/call_faults.py TREE --workload fig1b-sweep --calls 20

Loads ``TREE/bench/run.py`` (which imports the package from ``TREE/src``)
and calls its workload entry point ``--calls`` times in this one process,
after ``--warmup`` uncounted calls, each into a temporary directory.  Prints
one JSON line: the median wall milliseconds per call and the median minor
faults (``ru_minflt`` of this process) per call, with every call's values.
Faults show how much memory a call takes from the kernel anew; comparing the
trees of two commits shows whether a change makes a workload refault its heap.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load_bench(tree: Path):
    """The ``bench/run.py`` module of ``tree``, its package imported from ``tree/src``."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", tree / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def measure(bench, workload: str, seed: int, calls: int, warmup: int) -> dict:
    """Time and count the minor faults of ``calls`` calls of ``workload``."""
    wl = bench.WORKLOADS[workload]
    ms, faults = [], []
    with tempfile.TemporaryDirectory(prefix="call-faults-") as tmp:
        work = Path(tmp)
        (work / "workload.conf").write_text(wl.config, encoding="utf-8")
        for i in range(warmup + calls):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            bench.call_workload(wl, seed, work)
            elapsed = time.perf_counter() - t0
            if i >= warmup:
                ms.append(elapsed * 1e3)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return {
        "workload": workload,
        "seed": seed,
        "calls": calls,
        "ms_per_call": statistics.median(ms),
        "minflt_per_call": statistics.median(faults),
        "ms": ms,
        "minflt": faults,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="a source checkout holding bench/ and src/")
    parser.add_argument("--workload", required=True, help="a bench/run.py workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--warmup", type=int, default=2)
    args = parser.parse_args(argv)
    if args.calls < 1 or args.warmup < 0:
        parser.error("--calls must be >= 1 and --warmup >= 0")
    bench = load_bench(args.tree.resolve())
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    report = measure(bench, args.workload, args.seed, args.calls, args.warmup)
    print(json.dumps({"tree": str(args.tree), **report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
