"""Tests for the virtual clock."""

import pytest

from repro.util.clock import VirtualClock


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
