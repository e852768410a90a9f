"""Unit tests for the ReplayQ structure and Section 4.3.1 geometry."""

import pytest

from repro.common.errors import ConfigError
from repro.core.replayq import ReplayQ, ReplayQGeometry
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, UnitType
from repro.isa.operands import Reg
from repro.sim.events import IssueEvent


def make_event(opcode=Opcode.IADD, warp_id=0, dest=None):
    from repro.isa.opcodes import op_info
    info = op_info(opcode)
    inst = Instruction(
        opcode=opcode,
        dst=Reg(dest) if dest is not None and info.writes_reg else (
            Reg(0) if info.writes_reg else None),
        srcs=tuple(Reg(i + 1) for i in range(info.num_srcs)),
    )
    return IssueEvent(
        cycle=0, sm_id=0, warp_id=warp_id, pc=0, instruction=inst,
        logical_mask=0xFFFFFFFF, hw_mask=0xFFFFFFFF, warp_width=32,
        unit=info.unit, active_count=32, is_full=True,
        coverable=info.coverable, dest_reg=inst.dest_register(),
    )


class TestGeometry:
    """Paper Section 4.3.1: 514-516 B per entry, ~5 KB for 10 entries."""

    def test_source_bytes(self):
        assert ReplayQGeometry().source_bytes == 384

    def test_result_bytes(self):
        assert ReplayQGeometry().result_bytes_total == 128

    def test_entry_byte_range(self):
        geometry = ReplayQGeometry()
        assert geometry.entry_bytes_min == 514
        assert geometry.entry_bytes_max == 516

    def test_ten_entries_about_5kb(self):
        total = ReplayQGeometry().total_bytes_max
        assert 5000 <= total <= 5300

    def test_four_percent_of_register_file(self):
        fraction = ReplayQGeometry().fraction_of_register_file(128 * 1024)
        assert 0.035 <= fraction <= 0.045


class TestQueue:
    def test_capacity_zero_always_full(self):
        q = ReplayQ(0)
        assert q.is_full and q.is_empty

    def test_enqueue_dequeue_fifo(self):
        q = ReplayQ(4)
        events = [make_event(warp_id=i) for i in range(3)]
        for event in events:
            q.enqueue(event)
        assert len(q) == 3
        assert q.dequeue_of_type(UnitType.SP) is events[0]
        assert q.dequeue_of_type(UnitType.SP) is events[1]

    def test_enqueue_full_rejected(self):
        q = ReplayQ(1)
        q.enqueue(make_event())
        with pytest.raises(ConfigError):
            q.enqueue(make_event())

    def test_dequeue_different_type(self):
        q = ReplayQ(4)
        q.enqueue(make_event(Opcode.IADD))
        q.enqueue(make_event(Opcode.LD_GLOBAL))
        entry = q.dequeue_different_type(UnitType.SP)
        assert entry.unit is UnitType.LDST
        assert len(q) == 1

    def test_dequeue_different_type_none_available(self):
        q = ReplayQ(4)
        q.enqueue(make_event(Opcode.IADD))
        assert q.dequeue_different_type(UnitType.SP) is None
        assert len(q) == 1

    def test_dequeue_of_type(self):
        q = ReplayQ(4)
        q.enqueue(make_event(Opcode.LD_GLOBAL))
        q.enqueue(make_event(Opcode.SIN))
        assert q.dequeue_of_type(UnitType.SFU).unit is UnitType.SFU
        assert q.dequeue_of_type(UnitType.SFU) is None

    def test_remove_specific_entry(self):
        """Removal is by identity: an equal event is another entry."""
        q = ReplayQ(4)
        event, twin = make_event(), make_event()
        assert event == twin
        q.enqueue(twin)
        q.enqueue(event)
        assert q.remove(event)
        assert not q.remove(event)
        assert list(q) == [twin] and next(iter(q)) is twin

    def test_drain_empties(self):
        q = ReplayQ(4)
        q.enqueue(make_event())
        q.enqueue(make_event())
        drained = q.drain()
        assert len(drained) == 2
        assert q.is_empty

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ReplayQ(-1)
