"""Event text: each stream's ``events.log`` lines from a run of epochs' traces.

Per epoch, then per round: a PROBE line per recorder, an RX or COLL line per
tag whose probe was not silence, then per occupied slot a REPLY line per
contender and an RX or COLL line per recorder that heard it; tags and slots
ascending.  :func:`event_lines` formats a run of epochs of every stream in one
call, over the run's trace arrays, one slice of each pass they ran in
(``EpochResult.joined``), each verdict with its epoch in the run.  Each
time, epoch, round, slot and pair number, VRN and tag's RX, COLL and REPLY
text becomes text once a call, a slot's tail is its round's plus its slot
number's, each line kind is one comprehension over the run's arrays, and one
stable sort orders the lines, stream by stream.
"""

import numpy as np


def event_lines(results) -> list[list[str]]:
    """Each stream's event lines of ``results``, in turn: epoch results of one
    world, run with events recorded."""
    joined = results[0].joined  # EpochResult.joined, without importing the engine
    offsets = results[0].offsets
    sched = results[0].schedule  # every epoch's times from its start are the same
    n_rounds = sched.round_count
    n_blocks = len(results) * n_rounds
    probe_epoch, probe_round, pi, probe_pair = joined(results, "probes")
    slot_epoch, counts, slot_round, slot, codes, winners = joined(results, "slots")
    tag = joined(results, "repliers")[1]
    recorders = [f"vr{vr // 2}{'ab'[vr % 2]}\t{vr // 2}" for vr in range(codes.shape[1])]
    starts = np.array([r.schedule.epoch_start_us for r in results]) - sched.epoch_start_us

    # block e * n_rounds + r is round r of results[e]: its text before the
    # line kind and after the tag or recorder, and its probe verdicts
    t_probe = (starts[:, None] + sched.round_start_us(np.arange(n_rounds))).ravel()
    heads = [f"{t}\t" for t in t_probe.tolist()]
    rounds = [f"\t{i}\t" for i in range(n_rounds)]
    epochs = [f"\t{res.schedule.epoch_index}" for res in results]
    tails = [e + r for e in epochs for r in rounds]
    ends = [f"{tail}-\t-" for tail in tails]
    pb = probe_epoch * n_rounds + probe_round

    # the slots, and their contenders in slot order; a slot's tail is its
    # block's and its slot number's
    block = slot_epoch * n_rounds + slot_round
    slot_t = starts[slot_epoch] + sched.slot_start_us(slot_round, slot)
    slot_heads = [f"{t}\t" for t in slot_t.tolist()]
    slot_text = [f"{s}\t" for s in range(sched.slot_count)]
    slot_tails = [tails[b] + slot_text[s] for b, s in zip(block.tolist(), slot.tolist())]
    rg, rv = np.nonzero(codes != 0)  # the (slot, recorder)s heard
    won = winners[rg, rv]  # the winner's rank in the slot, -1 for none
    first = np.cumsum(counts) - counts
    winner = tag[first[rg] + np.maximum(won, 0)]  # or any contender

    # the tags the lines name, numbered in order, by their index in their
    # stream, and each one's text of every line kind that names it
    named = np.zeros(offsets[-1], dtype=bool)
    named[pi] = named[tag] = True
    at = np.cumsum(named) - 1
    named = np.flatnonzero(named)
    local = named - offsets[np.searchsorted(offsets, named, side="right") - 1]
    rx = [f"RX\tenp{i}\t" for i in local.tolist()]
    coll = [f"COLL\tenp{i}\t-" for i in local.tolist()]
    replies = [f"REPLY\tenp{i}\t-" for i in local.tolist()]
    vrns = [f"{v}" for v in results[0].fleet_start.vrn[named].tolist()]

    probe = [f"{head}PROBE\t{vr}{end}" for head, end in zip(heads, ends) for vr in recorders]
    pairs = [f"{p}" for p in range(len(recorders) // 2)]
    heard = [f"{heads[b]}{rx[i]}{pairs[w]}{ends[b]}" if w >= 0 else
             f"{heads[b]}{coll[i]}{ends[b]}"
             for b, i, w in zip(pb.tolist(), at[pi].tolist(), probe_pair.tolist())]
    contender_slot = np.repeat(np.arange(block.size), counts)
    reply = [f"{slot_heads[g]}{replies[i]}{slot_tails[g]}{vrns[i]}"
             for g, i in zip(contender_slot.tolist(), at[tag].tolist())]
    verdicts = [f"{slot_heads[g]}RX\t{recorders[v]}{slot_tails[g]}{vrns[i]}" if w >= 0 else
                f"{slot_heads[g]}COLL\t{recorders[v]}{slot_tails[g]}-"
                for g, v, w, i in zip(rg.tolist(), rv.tolist(), won.tolist(), at[winner].tolist())]

    # lines sort stream by stream, (stream, block) by (stream, block): its
    # probe lines (key 0), then each slot of it in order (key 1 + slot); a
    # slot's contenders are all of one stream, and the sort is stable, so
    # each kind keeps its order in them
    n_streams = offsets.size - 1
    probe_block = (np.searchsorted(offsets, pi, side="right") - 1) * n_blocks + pb
    slot_block = (np.searchsorted(offsets, tag[first], side="right") - 1) * n_blocks + block
    slot_key = np.arange(1, block.size + 1)
    stream_block = np.concatenate((np.repeat(np.arange(n_streams * n_blocks), len(recorders)),
                                   probe_block, np.repeat(slot_block, counts), slot_block[rg]))
    key = np.concatenate((np.zeros(len(probe) * n_streams + pb.size, dtype=np.intp),
                          np.repeat(slot_key, counts), slot_key[rg]))
    line_order = np.lexsort((key, stream_block))
    cuts = np.searchsorted(stream_block[line_order], np.arange(n_streams + 1) * n_blocks).tolist()
    lines, line_order = probe * n_streams + heard + reply + verdicts, line_order.tolist()
    return [[lines[i] for i in line_order[lo:hi]] for lo, hi in zip(cuts, cuts[1:])]
