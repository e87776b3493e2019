"""Tests for the sensitivity-sweep helpers."""

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweeps import width_sweep, window_size_sweep


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(insts=800, warmup=1200, benchmarks=("gzip",))


class TestWindowSweep:
    def test_rows_and_monotonicity(self, runner):
        result = window_size_sweep(runner, "gzip", sizes=(16, 64))
        assert [row[0] for row in result.rows] == [16, 64]
        # A bigger window can only expose more ILP.
        assert result.rows[1][1] >= result.rows[0][1] * 0.9
        for row in result.rows:
            assert 0.8 <= row[3] <= 1.1


class TestWidthSweep:
    def test_widths_scale_ipc(self, runner):
        result = width_sweep(runner, "gzip", widths=(2, 8))
        narrow, wide = result.rows
        assert wide[1] >= narrow[1]
        for row in result.rows:
            assert 0.8 <= row[2] <= 1.1
