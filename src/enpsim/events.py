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
    tag, counts, slot_round, slot, codes, winners = replies
    recorders = [f"vr{vr // 2}{'ab'[vr % 2]}\t{vr // 2}" for vr in range(codes.shape[1])]
    t_probe = sched.round_start_us(np.arange(sched.round_count)).tolist()
    lines = [[f"{t}\tPROBE\t{vr}\t{epoch}\t{r}\t-\t-" for vr in recorders]
             for r, t in enumerate(t_probe)]
    pr, pi = np.nonzero(probe_codes[:, lo:hi])
    for r, i, w in zip(pr.tolist(), pi.tolist(), probe_pair[pr, lo + pi].tolist()):
        verdict = f"RX\tenp{i}\t{w}" if w >= 0 else f"COLL\tenp{i}\t-"
        lines[r].append(f"{t_probe[r]}\t{verdict}\t{epoch}\t{r}\t-\t-")
    # this stream's slots, and their contenders in slot order (a slot's
    # contenders are all of one stream)
    first_tag = tag[np.cumsum(counts) - counts]
    mine = np.flatnonzero((first_tag >= lo) & (first_tag < hi))
    local = (tag[(tag >= lo) & (tag < hi)] - lo).tolist()
    ends = np.cumsum(counts[mine]).tolist()
    vrns = result.fleet_start.vrn[lo:hi].tolist()
    slot_round, slot = slot_round[mine], slot[mine]
    slot_t = sched.slot_start_us(slot_round, slot).tolist()
    start = 0
    for end, r, s, t, code_row, win_row in zip(ends, slot_round.tolist(), slot.tolist(), slot_t,
                                               codes[mine].tolist(), winners[mine].tolist()):
        contenders, start = local[start:end], end
        tail = f"\t{epoch}\t{r}\t{s}\t"
        lines[r] += [f"{t}\tREPLY\tenp{i}\t-{tail}{vrns[i]}" for i in contenders]
        for vr, code, w in zip(recorders, code_row, win_row):
            if w >= 0:
                lines[r].append(f"{t}\tRX\t{vr}{tail}{vrns[contenders[w]]}")
            elif code:
                lines[r].append(f"{t}\tCOLL\t{vr}{tail}-")
    return [line for block in lines for line in block]
