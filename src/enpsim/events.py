"""Event text: one stream's ``events.log`` lines from an epoch's trace.

Per round: a PROBE line per recorder, an RX or COLL line per tag whose probe
was not silence, then per occupied slot a REPLY line per contender and an RX
or COLL line per recorder that heard it; tags and slots ascending.
"""

import numpy as np


def event_lines(result, stream: int) -> list[str]:
    """Stream ``stream``'s event lines of an epoch run with events recorded."""
    offsets, probe_codes, probe_pair, replies = result.trace
    lo, hi = offsets[stream], offsets[stream + 1]
    sched = result.schedule
    epoch = sched.epoch_index
    tag, counts, slot_round, slot, codes, winners = map(np.concatenate, zip(*replies))
    recorders = [f"vr{vr // 2}{'ab'[vr % 2]}\t{vr // 2}" for vr in range(codes.shape[1])]
    t_probe = sched.round_start_us(np.arange(sched.round_count)).tolist()
    lines = [[f"{t}\tPROBE\t{vr}\t{epoch}\t{r}\t-\t-" for vr in recorders]
             for r, t in enumerate(t_probe)]
    pr, pi = np.nonzero(probe_codes[:, lo:hi])
    for r, i, w in zip(pr.tolist(), pi.tolist(), probe_pair[pr, lo + pi].tolist()):
        verdict = f"RX\tenp{i}\t{w}" if w >= 0 else f"COLL\tenp{i}\t-"
        lines[r].append(f"{t_probe[r]}\t{verdict}\t{epoch}\t{r}\t-\t-")
    first = np.cumsum(counts) - counts
    mine = np.flatnonzero((tag[first] >= lo) & (tag[first] < hi))  # this stream's slots
    starts, ends = first.tolist(), (first + counts).tolist()
    vrns = result.fleet_start.vrn[lo:hi].tolist()
    local = (tag - lo).tolist()
    slot_t = sched.slot_start_us(slot_round[mine], slot[mine]).tolist()
    for g, r, s, t in zip(mine.tolist(), slot_round[mine].tolist(), slot[mine].tolist(), slot_t):
        contenders = local[starts[g]:ends[g]]
        tail = f"\t{epoch}\t{r}\t{s}\t"
        lines[r] += [f"{t}\tREPLY\tenp{i}\t-{tail}{vrns[i]}" for i in contenders]
        for vr, code, w in zip(recorders, codes[g].tolist(), winners[g].tolist()):
            if w >= 0:
                lines[r].append(f"{t}\tRX\t{vr}{tail}{vrns[contenders[w]]}")
            elif code:
                lines[r].append(f"{t}\tCOLL\t{vr}{tail}-")
    return [line for block in lines for line in block]
