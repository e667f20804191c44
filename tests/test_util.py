"""Tests for the virtual clock and timer utilities."""

import pytest

from repro.util.clock import VirtualClock
from repro.util.timer import TimerRegistry


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().time == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).time == 5.0

    def test_advance(self):
        c = VirtualClock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.time == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_advance_to_forward_only(self):
        c = VirtualClock(10.0)
        c.advance_to(5.0)
        assert c.time == 10.0
        c.advance_to(12.0)
        assert c.time == 12.0


class TestTimerRegistry:
    def test_accumulates_deltas(self):
        t = TimerRegistry(VirtualClock())
        t.add("work", 2.0)
        t.add("work", 3.0)
        assert t.total("work") == 5.0
        assert t.counts["work"] == 2

    def test_unknown_is_zero(self):
        t = TimerRegistry(VirtualClock())
        assert t.total("nothing") == 0.0

    def test_categories_are_independent(self):
        t = TimerRegistry(VirtualClock())
        t.add("outer", 3.0)
        t.add("inner", 2.0)
        t.add("inner", 0.0)  # an empty interval still counts as one
        assert (t.total("outer"), t.total("inner")) == (3.0, 2.0)
        assert t.counts == {"outer": 1, "inner": 2}
