"""Event text: one stream's ``events.log`` lines from a run of epochs' traces.

Per epoch, then per round: a PROBE line per recorder, an RX or COLL line per
tag whose probe was not silence, then per occupied slot a REPLY line per
contender and an RX or COLL line per recorder that heard it; tags and slots
ascending.  :func:`event_lines` formats a run of epochs in one call: each
time, tag name and VRN becomes text once, each line kind is one
comprehension over the run's arrays, and one stable sort orders the lines.
"""

import numpy as np


def event_lines(results, stream: int) -> list[str]:
    """Stream ``stream``'s event lines of ``results``, in turn: epoch results
    of one world, run with events recorded."""
    traces = [result.trace for result in results]
    lo, hi = traces[0][0][stream:stream + 2]
    sched = results[0].schedule  # every epoch's times from its start are the same
    n_rounds = sched.round_count
    tag, counts, slot_round, slot, codes, winners = map(np.concatenate,
                                                        zip(*(t[3] for t in traces)))
    recorders = [f"vr{vr // 2}{'ab'[vr % 2]}\t{vr // 2}" for vr in range(codes.shape[1])]
    starts = np.array([r.schedule.epoch_start_us for r in results]) - sched.epoch_start_us

    # block e * n_rounds + r is round r of results[e]: its text before the
    # line kind and after the tag or recorder, and its probe verdicts
    t_probe = (starts[:, None] + sched.round_start_us(np.arange(n_rounds))).ravel()
    heads = [f"{t}\t" for t in t_probe.tolist()]
    tails = [f"\t{r.schedule.epoch_index}\t{i}\t" for r in results for i in range(n_rounds)]
    ends = [f"{tail}-\t-" for tail in tails]
    pb, pi = np.nonzero(np.concatenate([t[1][:, lo:hi] for t in traces]))
    probe_pair = np.concatenate([t[2][:, lo:hi] for t in traces])[pb, pi]

    # this stream's slots, and their contenders in slot order (a slot's
    # contenders are all of one stream)
    slot_epoch = np.repeat(np.arange(len(results)), [len(t[3][1]) for t in traces])
    first_tag = tag[np.cumsum(counts) - counts]
    mine = np.flatnonzero((first_tag >= lo) & (first_tag < hi))
    local = tag[(tag >= lo) & (tag < hi)] - lo
    counts, slot_round, slot = counts[mine], slot_round[mine], slot[mine]
    codes, winners, slot_epoch = codes[mine], winners[mine], slot_epoch[mine]
    block = slot_epoch * n_rounds + slot_round
    slot_t = starts[slot_epoch] + sched.slot_start_us(slot_round, slot)
    slot_heads = [f"{t}\t" for t in slot_t.tolist()]
    slot_tails = [f"{tails[b]}{s}\t" for b, s in zip(block.tolist(), slot.tolist())]
    rg, rv = np.nonzero((winners >= 0) | (codes != 0))  # the (slot, recorder)s heard
    won = winners[rg, rv]  # the winner's rank in the slot, -1 for none
    winner = local[np.cumsum(counts)[rg] - counts[rg] + np.maximum(won, 0)]  # or any contender

    # the tags the lines name, numbered in order
    named = np.zeros(hi - lo, dtype=bool)
    named[pi] = named[local] = True
    at = np.cumsum(named) - 1
    named = np.flatnonzero(named)
    names = [f"enp{i}" for i in named.tolist()]
    vrns = [f"{v}" for v in results[0].fleet_start.vrn[lo + named].tolist()]

    probe = [f"{head}PROBE\t{vr}{end}" for head, end in zip(heads, ends) for vr in recorders]
    heard = [f"{heads[b]}RX\t{names[i]}\t{w}{ends[b]}" if w >= 0 else
             f"{heads[b]}COLL\t{names[i]}\t-{ends[b]}"
             for b, i, w in zip(pb.tolist(), at[pi].tolist(), probe_pair.tolist())]
    contender_slot = np.repeat(np.arange(mine.size), counts)
    reply = [f"{slot_heads[g]}REPLY\t{names[i]}\t-{slot_tails[g]}{vrns[i]}"
             for g, i in zip(contender_slot.tolist(), at[local].tolist())]
    verdicts = [f"{slot_heads[g]}RX\t{recorders[v]}{slot_tails[g]}{vrns[i]}" if w >= 0 else
                f"{slot_heads[g]}COLL\t{recorders[v]}{slot_tails[g]}-"
                for g, v, w, i in zip(rg.tolist(), rv.tolist(), won.tolist(), at[winner].tolist())]

    # segments in line order, a block's probe lines then one per slot of it:
    # block b's is b plus the slots before it, slot g's is its block's plus
    # 1 plus g; the sort is stable, so each kind keeps its order in them
    block_segment = np.arange(len(tails)) + np.searchsorted(block, np.arange(len(tails)))
    slot_segment = block + 1 + np.arange(block.size)
    segment = np.concatenate((np.repeat(block_segment, len(recorders)), block_segment[pb],
                              np.repeat(slot_segment, counts), slot_segment[rg]))
    lines = probe + heard + reply + verdicts
    return [lines[i] for i in np.argsort(segment, kind="stable").tolist()]
