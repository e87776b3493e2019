"""Public API surface checks: exports exist, docstrings everywhere."""

import importlib
import inspect

import pytest

import repro

_PUBLIC_MODULES = [
    "repro",
    "repro.isa",
    "repro.memory",
    "repro.frontend",
    "repro.core",
    "repro.pipeline",
    "repro.workloads",
    "repro.timing",
    "repro.analysis",
    "repro.verify",
    "repro.cli",
]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_quickstart_flow(self):
        """The README quickstart must work as written."""
        from repro import FOUR_WIDE, SchedulerModel, simulate
        from repro.workloads import SyntheticWorkload, get_profile

        workload = SyntheticWorkload(get_profile("gcc"), seed=1)
        base = simulate(workload, FOUR_WIDE, max_insts=300, warmup=200)
        seq = simulate(
            workload,
            FOUR_WIDE.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP),
            max_insts=300,
            warmup=200,
        )
        assert base.ipc > 0 and seq.ipc > 0


class TestDocstrings:
    @pytest.mark.parametrize("module_name", _PUBLIC_MODULES)
    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name", _PUBLIC_MODULES)
    def test_public_classes_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            item = getattr(module, name)
            if inspect.isclass(item) or inspect.isfunction(item):
                assert item.__doc__, f"{module_name}.{name} lacks a docstring"


class TestSubpackageExports:
    def test_workloads_exports(self):
        from repro.workloads import (  # noqa: F401
            EmulatorFeed,
            SPEC_BENCHMARKS,
            SyntheticWorkload,
        )

        assert len(SPEC_BENCHMARKS) == 12

    def test_core_exports(self):
        from repro.core import (  # noqa: F401
            IQEntry,
            LastArrivalPredictor,
            Scoreboard,
            SequentialWakeup,
            TagElimination,
        )

    def test_timing_exports(self):
        from repro.timing import RegisterFileDelayModel, WakeupDelayModel  # noqa: F401

    def test_analysis_exports(self):
        from repro.analysis import ExperimentRunner, experiments, render  # noqa: F401

        assert "fig14" in experiments.ALL_EXPERIMENTS
