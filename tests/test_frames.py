"""Probe wire format: golden byte layout and field ranges."""

import pytest

from enpsim.frames import PROBE_FRAME_LEN, PROBE_KIND, ProbeFrame


def test_probe_layout_golden():
    frame = ProbeFrame(pair_id=0x0102, epoch=0x0A0B0C0D, round=7,
                       slot_count=71, seed=0xDEADBEEF)
    data = frame.encode()
    assert len(data) == PROBE_FRAME_LEN == 14
    assert data == bytes.fromhex("01" "0102" "0a0b0c0d" "07" "47" "01" "deadbeef")
    assert data[0] == PROBE_KIND


def test_pair_probes_byte_identical():
    a = ProbeFrame(pair_id=2, epoch=40, round=0, slot_count=71)
    b = ProbeFrame(pair_id=2, epoch=40, round=0, slot_count=71)
    assert a.encode() == b.encode()
    other_pair = ProbeFrame(pair_id=3, epoch=40, round=0, slot_count=71)
    assert a.encode() != other_pair.encode()


def test_field_range_enforced_by_packing():
    with pytest.raises(Exception):
        ProbeFrame(pair_id=2**16, epoch=0, round=0, slot_count=71).encode()


@pytest.mark.parametrize("epoch, round_", [(2**32, 0), (0, 256), (3 * 2**32 + 5, 256 + 7)])
def test_epoch_and_round_are_wrapping_counters(epoch, round_):
    # a run may outlast 2**32 epochs, and an epoch may hold up to 10,000 rounds
    frame = ProbeFrame(pair_id=1, epoch=epoch, round=round_, slot_count=17).encode()
    wrapped = ProbeFrame(pair_id=1, epoch=epoch % 2**32, round=round_ % 256, slot_count=17)
    assert frame == wrapped.encode()
