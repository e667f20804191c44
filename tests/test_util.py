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
        clock = VirtualClock()
        t = TimerRegistry(clock)
        with t.time("work"):
            clock.advance(2.0)
        with t.time("work"):
            clock.advance(3.0)
        assert t.total("work") == 5.0
        assert t.counts["work"] == 2

    def test_unknown_is_zero(self):
        t = TimerRegistry(VirtualClock())
        assert t.total("nothing") == 0.0

    def test_nested_categories(self):
        clock = VirtualClock()
        t = TimerRegistry(clock)
        with t.time("outer"):
            clock.advance(1.0)
            with t.time("inner"):
                clock.advance(2.0)
        assert t.total("outer") == 3.0
        assert t.total("inner") == 2.0

    def test_reset(self):
        clock = VirtualClock()
        t = TimerRegistry(clock)
        with t.time("a"):
            clock.advance(1.0)
        t.reset()
        assert t.total("a") == 0.0

    def test_exception_still_recorded(self):
        clock = VirtualClock()
        t = TimerRegistry(clock)
        with pytest.raises(RuntimeError):
            with t.time("fail"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        assert t.total("fail") == 1.0
