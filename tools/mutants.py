"""Mutation check of the Tier-1 suite: every mutant must fail a test.

    python3 tools/mutants.py > mutants.json

Each mutant is one exact ``(file, old, new)`` edit of the engine or of the
scoring, planted on purpose: a batching, draw-order, capture, trace,
mobility, hashing or summary fault that an outcome check must catch.  The
working tree is never edited.  Each run copies it (without ``.git`` and
caches) into a temporary directory, applies at most one mutant there and
runs the Tier-1 command,
``python -m pytest -q --continue-on-collection-errors`` with ``src`` on
``PYTHONPATH``.  The unmutated copy runs first, and a mutant is killed when
it fails a test that passes there.  ``tests/test_mutants.py`` is left out of
every run: it checks that each ``old`` text occurs once in the unmutated
source, so every mutant fails it by design.

The output is one JSON object: the unmutated run's failures, each mutant's
name, file, failed tests and whether it was killed, and the survivors.  The
exit status is 1 if a mutant survives, 2 if a run could not be read.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL = "src/enpsim/protocol.py"
RADIO = "src/enpsim/radio.py"
METRICS = "src/enpsim/metrics.py"
HARNESS = "src/enpsim/harness.py"
MOBILITY = "src/enpsim/mobility.py"
SLOT_HASH = "src/enpsim/slot_hash.py"
RESOLVE_CALL = ("        blocks.append(_resolve_replies(world, results, starts, row + b, tag, "
                "_joined(draws)))\n")
PROBE_TAKE = ("                shadow = [s.take(s.row, later).reshape(n_vr, -1) "
              "for s, lo, hi in streams]\n")
LEAN_REPLY = "                draws.append(one.buf[at:at + k])\n"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str


MUTANTS = [
    Mutant("block rows without their offset", PROTOCOL, RESOLVE_CALL,
           RESOLVE_CALL.replace("row + b", "row")),
    Mutant("replies placed from the previous epoch's starts", PROTOCOL,
           "starts[epoch, tag]", "starts[np.maximum(epoch - 1, 0), tag]"),
    Mutant("end-of-pass merge reversed", PROTOCOL,
           "epoch, table = _joined(epochs), _joined(tables)",
           "epoch, table = _joined(epochs[::-1]), _joined(tables[::-1])"),
    Mutant("RECEIVED-only probe verdicts in the trace", PROTOCOL,
           "row, tag = np.divmod(np.flatnonzero(out != 0), max(n_enp, 1))",
           "row, tag = np.divmod(np.flatnonzero(out == RECEIVED_CODE), max(n_enp, 1))"),
    Mutant("probe verdicts sliced by the slot cuts", PROTOCOL,
           "p = slice(probes_at[e], probes_at[e + 1])",
           "p = slice(slots_at[e], slots_at[e + 1])"),
    Mutant("winning pair dropped", PROTOCOL,
           "np.where(out[row, tag] == RECEIVED_CODE, pair, -1)))", "np.full(row.size, -1)))"),
    Mutant("probe winners from recorder a only", PROTOCOL,
           "pair = power[row, :, tag].argmax(axis=1) // 2",
           "pair = power[row, 0::2, tag].argmax(axis=1)"),
    Mutant("COLLISION codes counted as probe decodes", PROTOCOL,
           "k = heard.count(RECEIVED_CODE, lo, hi)", "k = hi - lo - heard.count(0, lo, hi)"),
    # the one-stream rows' twin: a COLLISION's byte is not 0 either
    Mutant("COLLISION codes counted as one-stream probe decodes", PROTOCOL,
           "(k := n_vr * out[r].tobytes().count(RECEIVED_CODE))",
           "(k := n_vr * (n_enp - out[r].tobytes().count(0)))"),
    Mutant("one-pair row decided at recorder a alone", PROTOCOL,
           "np.maximum(row_pw[:n_enp], row_pw[n_enp:])", "row_pw[:n_enp]"),
    Mutant("codes-only entry without the tie rule", RADIO,
           "(power_dbm == strongest).sum(axis=0) > 1", "np.zeros(strongest.shape, bool)"),
    Mutant("one value drawn beyond a block's sure need", PROTOCOL,
           "n + later * self.row", "n + later * self.row + 1"),
    Mutant("block positions from rows without the offset", PROTOCOL,
           "np.arange(b, end)", "np.arange(end - b)"),
    Mutant("link budget ignored", PROTOCOL,
           "block = max(1, MAX_REPLY_LINKS // max(1, n_vr * n_enp))", "block = n_rows"),
    # round 0's reply values drawn after round 1's probe values, in every block
    Mutant("round 0's reply draws swapped with round 1's probe draws", PROTOCOL, PROBE_TAKE,
           PROBE_TAKE.replace("shadow = [", "shadow = ahead if r == 1 else [")
           + "                if r == 0 and later:\n"
           + PROBE_TAKE.replace("shadow = [", "    ahead = [").replace("later)", "later - 1)")),
    # the one-stream rows' twin: where the window holds round 0's reply
    # values and round 1's probe values, the probe values come first
    Mutant("round 0's reply draws swapped with round 1's probe draws in one-stream rows",
           PROTOCOL, LEAN_REPLY,
           "                if r == 0 and at + k + one.row <= one.size:\n"
           "                    one.buf[at:at + k + one.row] = "
           "np.roll(one.buf[at:at + k + one.row], k)\n" + LEAN_REPLY),
    # the repliers of the last epoch a block's rows lie in left unresolved
    # (all of them for a block within one epoch); their reply values come
    # last in the block's draws, so the others' stay aligned
    Mutant("block resolved without its last epoch", PROTOCOL, RESOLVE_CALL,
           "        kept = (row + b) // n_rounds < (end - 1) // n_rounds\n"
           + RESOLVE_CALL.replace("row + b, tag,", "row[kept] + b, tag[kept],")),
    # the ground-truth scan in one block, whatever the budget
    Mutant("scan budget ignored", METRICS,
           "step = max(1, protocol.MAX_REPLY_LINKS // len(sub))", "step = len(dts)"),
    # mobility and hashing
    Mutant("advance without its wrap fold", MOBILITY,
           "    x[x == fleet.ring_length_m] = 0.0\n", ""),
    # the last end alone is no fault: a vehicle starts on the ring and the
    # first offset lies between 0 and the last
    Mutant("stays_on_ring checking one end only", MOBILITY,
           "np.array([[dt_first_s], [dt_last_s]])", "np.array([[dt_first_s]])"),
    Mutant("round seed without its + 1", SLOT_HASH,
           "((round_index + 1) * 0x85EBCA6B)", "(round_index * 0x85EBCA6B)"),
    # the summaries
    Mutant("empty ground truth tallied", METRICS,
           "), gt.tolist()))", "), (gt >= 0).tolist()))"),
    Mutant("acc_1 pooled twice in mean_acc_single", METRICS,
           "_fsum(more, acc_1, acc_2)", "_fsum(more, acc_1, acc_1)"),
    Mutant("variance divided by n - 1", METRICS,
           "for u in union]) / n)", "for u in union]) / (n - 1))"),
    Mutant("the second copy of a value summed once", METRICS,
           "enumerate(scores.values()) if c > 1", "enumerate(scores.values()) if c > 2"),
    Mutant("a run's tally of its last replication only", HARNESS,
           "        scores.update(tally(counts))\n        if events:",
           "        scores = tally(counts)\n        if events:"),
]


def copy_tree(into: Path, mutant: Mutant | None) -> Path:
    """A copy of the working tree under ``into``, with ``mutant`` applied."""
    shutil.copytree(ROOT, into, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work", ".bench_build"))
    if mutant is not None:
        path = into / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: its old text does not occur once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
    return into


def failed_tests(tree: Path) -> list[str]:
    """The ids of the Tier-1 tests that fail or error in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE",
                          "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"],
                         cwd=tree, env=env, capture_output=True, text=True)
    failed = sorted({line.split(" ", 1)[1].split(" - ", 1)[0]
                     for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))})
    if run.returncode not in (0, 1) or (run.returncode == 1) != bool(failed):
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout[-4000:]}{run.stderr}")
    return failed


def main() -> int:
    report = {"unmutated_failures": None, "mutants": []}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        try:
            base = set(failed_tests(copy_tree(Path(tmp) / "unmutated", None)))
            report["unmutated_failures"] = sorted(base)
            for n, mutant in enumerate(MUTANTS):
                failed = failed_tests(copy_tree(Path(tmp) / f"mutant{n}", mutant))
                killed = bool(set(failed) - base)
                report["mutants"].append({"name": mutant.name, "file": mutant.file,
                                          "killed": killed, "failed": failed})
                print(f"{mutant.name}: {len(failed)} failed", file=sys.stderr)
        except (RuntimeError, ValueError) as err:
            print(err, file=sys.stderr)
            return 2
    report["survivors"] = [m["name"] for m in report["mutants"] if not m["killed"]]
    print(json.dumps(report, indent=2))
    return 1 if report["survivors"] else 0


if __name__ == "__main__":
    sys.exit(main())
