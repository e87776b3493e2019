"""Tests for the relative energy models."""

from repro.timing.regfile_delay import RegisterFileDelayModel
from repro.timing.wakeup_delay import WakeupDelayModel


class TestBroadcastEnergy:
    model = WakeupDelayModel()

    def test_sequential_bus_cheaper(self):
        base = self.model.broadcast_energy(64, 2.0)
        fast = self.model.broadcast_energy(64, 1.0)
        assert fast < base

    def test_scales_with_entries(self):
        assert self.model.broadcast_energy(128, 2.0) > self.model.broadcast_energy(64, 2.0)

    def test_two_fast_broadcasts_still_cheaper_than_one_conventional(self):
        """Even paying the slow re-broadcast for every instruction, the two
        half-length buses switch less charge than one full bus only when
        comparator load dominates; at minimum they are comparable."""
        conventional = self.model.broadcast_energy(64, 2.0)
        fast_plus_slow = 2 * self.model.broadcast_energy(64, 1.0)
        assert fast_plus_slow < conventional * 1.35


class TestReadEnergy:
    model = RegisterFileDelayModel()

    def test_fewer_ports_cheaper(self):
        assert self.model.read_energy(160, 16) < self.model.read_energy(160, 24)

    def test_scales_with_entries(self):
        assert self.model.read_energy(320, 16) > self.model.read_energy(160, 16)

    def test_positive(self):
        assert self.model.read_energy(32, 2) > 0.0
