"""Event text: a run of epochs formats as each of its epochs does alone."""

import pytest

import enpsim.protocol as protocol
from enpsim.config import parse_config
from enpsim.events import event_lines
from enpsim.harness import build_fleet, rng_stream
from enpsim.protocol import World, run_epoch

ROAD = "preset = paper-road\n"

# config text, and the fleet size of each stream (None: the config's)
CASES = {
    "paper-road": (ROAD, [None]),
    "reseed": (ROAD + "hash.reseed_per_round = true\n", [None]),
    "sigma-0": (ROAD + "radio.shadowing_sigma_db = 0\n", [None]),
    "fig1b-5-pairs": ("preset = paper-fig1b\n", [40]),
    "3-streams-one-empty": (ROAD, [10, 0, 7]),
    # one vehicle on a 400 m ring: in range of the pair in some epochs only
    "no-repliers": (ROAD, [1]),
}


def epoch_results(text, v_ns, epochs=40, first_epoch=7, seed=11):
    """``epochs`` epochs, from ``first_epoch`` on, of one world of a stream
    per fleet size, each fleet and its shadowing from its own generator."""
    cfgs = [parse_config(text + (f"fleet.v_n = {v_n}\n" if v_n is not None else ""))
            for v_n in v_ns]
    rngs = [rng_stream(seed, b) for b in range(len(v_ns))]
    cfg = cfgs[0]
    world = World([build_fleet(c, rng) for c, rng in zip(cfgs, rngs)], cfg.geometry,
                  cfg.radio, cfg.hash, cfg.timing, rngs, record_events=True)
    return [run_epoch(world, first_epoch + e) for e in range(epochs)]


@pytest.mark.parametrize("max_links", [None, 50])
@pytest.mark.parametrize("case", sorted(CASES))
def test_runs_of_epochs_format_as_single_epochs(monkeypatch, case, max_links):
    # with a MAX_REPLY_LINKS of 50 the epochs' one pass resolves their
    # replies in probe blocks of one round, each epoch's in several blocks
    if max_links is not None:
        monkeypatch.setattr(protocol, "MAX_REPLY_LINKS", max_links)
    text, v_ns = CASES[case]
    results = epoch_results(text, v_ns)
    for b in range(len(v_ns)):
        each = [event_lines([result])[b] for result in results]
        want = [line for lines in each for line in lines]
        assert event_lines(results)[b] == want
        for size in (3, 16):
            runs = [event_lines(results[i:i + size])[b] for i in range(0, len(results), size)]
            assert [line for lines in runs for line in lines] == want
        if v_ns[b] == 0:
            assert want and all("\tPROBE\t" in line for line in want)
    if case == "no-repliers":
        replied = [any("\tREPLY\t" in line for line in lines) for lines in each]
        assert any(replied) and not all(replied)
    if case == "fig1b-5-pairs":
        assert {line.split("\t")[2] for line in want} >= {"vr4b"}
