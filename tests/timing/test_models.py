"""Tests for the analytic circuit timing models (paper anchor numbers)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.timing.regfile_delay import RegisterFileDelayModel
from repro.timing.technology import TECH_0_18_UM, TechnologyNode
from repro.timing.wakeup_delay import WakeupDelayModel


#: A slower node than the paper's, for scaling checks.
TECH_0_25_UM = TechnologyNode("0.25um", 0.25)


class TestTechnology:
    def test_reference_scale(self):
        assert TECH_0_18_UM.delay_scale == pytest.approx(1.0)

    def test_scaling_direction(self):
        assert TECH_0_25_UM.delay_scale > 1.0 > TechnologyNode("0.13um", 0.13).delay_scale

    def test_bad_feature_size(self):
        with pytest.raises(ConfigurationError):
            TechnologyNode("bad", 0.0)


class TestWakeupAnchors:
    """Section 3.3: 466 ps -> 374 ps, a 24.6 % speedup."""

    model = WakeupDelayModel()

    def test_conventional_466ps(self):
        assert self.model.conventional_delay(64, 4) == pytest.approx(466.0, abs=0.5)

    def test_sequential_374ps(self):
        assert self.model.sequential_wakeup_delay(64, 4) == pytest.approx(374.0, abs=0.5)

    def test_speedup_24_6_percent(self):
        # The paper calls (466-374)/374 = 24.6% a "speedup over a
        # conventional scheduler"; as a fractional delay drop it is 19.7%.
        base = self.model.conventional_delay(64, 4)
        fast = self.model.sequential_wakeup_delay(64, 4)
        assert (base - fast) / fast == pytest.approx(0.246, abs=0.005)


class TestWakeupShape:
    model = WakeupDelayModel()

    def test_monotone_in_entries(self):
        delays = [self.model.wakeup_delay(n, 2.0) for n in (16, 32, 64, 128)]
        assert delays == sorted(delays)
        # Quadratic wire term: growth accelerates.
        assert delays[3] - delays[2] > delays[1] - delays[0]

    def test_monotone_in_comparators(self):
        assert self.model.wakeup_delay(64, 2.0) > self.model.wakeup_delay(64, 1.0)

    def test_wider_machine_slower(self):
        assert self.model.wakeup_delay(64, 2.0, width=8) > self.model.wakeup_delay(64, 2.0, width=4)

    def test_technology_scaling(self):
        slow = WakeupDelayModel(TECH_0_25_UM)
        assert slow.conventional_delay(64) > self.model.conventional_delay(64)

    @pytest.mark.parametrize("bad", [(0, 2.0), (64, 0.0)])
    def test_invalid_parameters(self, bad):
        with pytest.raises(ConfigurationError):
            self.model.wakeup_delay(*bad)

    @settings(max_examples=30, deadline=None)
    @given(entries=st.integers(8, 512))
    def test_sequential_always_faster(self, entries):
        assert self.model.sequential_wakeup_delay(entries) < self.model.conventional_delay(entries)


class TestRegisterFileAnchors:
    """Section 4: 1.71 ns -> 1.36 ns (−20.5 %) at 24 -> 16 ports."""

    model = RegisterFileDelayModel()

    def test_24_port_access_time(self):
        assert self.model.access_time(160, 24) == pytest.approx(1.71, abs=0.005)

    def test_16_port_access_time(self):
        assert self.model.access_time(160, 16) == pytest.approx(1.36, abs=0.005)

    def test_20_5_percent_drop(self):
        full = self.model.access_time(160, 24)
        reduced = self.model.access_time(160, 16)
        assert (full - reduced) / full == pytest.approx(0.205, abs=0.005)

    def test_paper_anchor_helper(self):
        full, reduced = self.model.paper_anchor()
        assert full == pytest.approx(1.71, abs=0.005)
        assert reduced == pytest.approx(1.36, abs=0.005)


class TestRegisterFileShape:
    model = RegisterFileDelayModel()

    def test_monotone_in_ports(self):
        times = [self.model.access_time(160, p) for p in (8, 16, 24, 32)]
        assert times == sorted(times)

    def test_monotone_in_entries(self):
        assert self.model.access_time(320, 16) > self.model.access_time(160, 16)

    def test_area_quadratic_in_ports(self):
        """Doubling ports should roughly quadruple area at high port counts."""
        small = self.model.relative_area(160, 16)
        large = self.model.relative_area(160, 32)
        assert 3.0 < large / small < 4.5

    def test_technology_scaling(self):
        slow = RegisterFileDelayModel(TECH_0_25_UM)
        assert slow.access_time(160, 16) > self.model.access_time(160, 16)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            self.model.access_time(0, 16)
        with pytest.raises(ConfigurationError):
            self.model.relative_area(160, 0)

    @settings(max_examples=30, deadline=None)
    @given(entries=st.integers(16, 1024), ports=st.integers(2, 64))
    def test_positive_and_finite(self, entries, ports):
        time = self.model.access_time(entries, ports)
        assert 0.0 < time < 100.0
