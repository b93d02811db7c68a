"""Alternating in-process A/B calls of one benchmark workload between two trees.

    git archive PARENT | tar -x -C /tmp/parent
    git archive CHANGE | tar -x -C /tmp/change
    python3 tools/ab_inproc.py /tmp/parent /tmp/change --workload fig1b-dense --rounds 20

Loads the package of each source tree into this one process under a name of
its own (``enpsim_parent`` and ``enpsim_change``), so both sides share the
interpreter, the heap and the host's state.  Each round calls the workload
once on each side, the change first in odd rounds and the parent first in
even ones, after ``--warmup`` uncounted rounds.  The workloads and the call
itself come from the change tree's ``bench/run.py`` (``WORKLOADS`` and
``call_workload``), so this tool and ``tools/ab_pairs.py`` measure the same
calls.  Prints one JSON object: ``tools/ab_pairs.py``'s summary of the wall
milliseconds per epoch (unscaled by the bench's reference loop) and of the
minor faults (``ru_minflt`` of this process) per call.  An A/A run, one
tree on both sides, reports that tree's time and faults per call: faults show
how much memory a call takes from the kernel anew.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import resource
import sys
import tempfile
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_pairs import summarize  # noqa: E402

SIDES = ("parent", "change")


def load_bench(tree: Path):
    """The ``bench/run.py`` module of ``tree``, its package imported from ``tree/src``."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", tree / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_package(tree: Path, name: str):
    """The ``enpsim`` package of ``tree/src``, imported as ``name``, with the
    submodules the benchmark calls."""
    init = tree / "src" / "enpsim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # its relative imports look it up
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def bind_call(bench, package):
    """``bench.call_workload`` with ``cli``, ``config`` and ``harness`` taken
    from ``package``: the bench's own call code, run on that package."""
    scope = {**vars(bench), "cli": package.cli, "config": package.config,
             "harness": package.harness}
    return types.FunctionType(bench.call_workload.__code__, scope)


def measure(calls: dict, wl, seed: int, rounds: int, warmup: int) -> dict:
    """Each side's wall milliseconds and minor faults of ``rounds`` calls."""
    samples = {side: {"ms": [], "minflt": []} for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab-inproc-") as tmp:
        work = {side: Path(tmp) / side for side in SIDES}
        for path in work.values():
            path.mkdir()
            (path / "workload.conf").write_text(wl.config, encoding="utf-8")
        for i in range(warmup + rounds):
            for side in SIDES[::-1] if i % 2 == 0 else SIDES:  # round 1 runs the change first
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                calls[side](wl, seed, work[side])
                elapsed = time.perf_counter() - t0
                if i >= warmup:
                    samples[side]["ms"].append(elapsed * 1e3)
                    samples[side]["minflt"].append(
                        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return samples


def report(samples: dict, epochs: int) -> dict:
    """The summary of each side's samples: milliseconds per epoch and minor
    faults per call, lower better."""
    return {
        "ms_per_epoch": summarize([ms / epochs for ms in samples["parent"]["ms"]],
                                  [ms / epochs for ms in samples["change"]["ms"]], "lower"),
        "minflt_per_call": summarize(samples["parent"]["minflt"], samples["change"]["minflt"],
                                     "lower"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's source tree")
    parser.add_argument("change", type=Path, help="the change's source tree")
    parser.add_argument("--workload", required=True, help="a bench/run.py workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--warmup", type=int, default=2)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.warmup < 0:
        parser.error("--rounds must be >= 1 and --warmup >= 0")
    bench = load_bench(args.change.resolve())
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    wl = bench.WORKLOADS[args.workload]
    calls = {side: bind_call(bench, load_package(getattr(args, side).resolve(), f"enpsim_{side}"))
             for side in SIDES}
    samples = measure(calls, wl, args.seed, args.rounds, args.warmup)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
                      **report(samples, wl.epochs)}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
