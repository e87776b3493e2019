"""Shrinker: ddmin mechanics plus the end-to-end bug-catching acceptance.

The acceptance test is the one the whole subsystem exists for: inject a
real scheduler bug (a wakeup comparator stuck at ready), let the fuzzer
find it, and require the shrunk repro to be small enough for a human to
debug (<= 12 instructions).
"""

import pytest

from repro.core.last_arrival import OperandSide
from repro.core.wakeup import WakeupLogic
from repro.isa.assembler import assemble
from repro.verify import config_matrix, read_repro, run_fuzz, shrink_source


class TestShrinkSource:
    def test_minimizes_to_failure_inducing_lines(self):
        # Oracle: fails iff both marker lines survive.
        source = "\n".join(
            [f"filler {index}" for index in range(20)] + ["keep-a"]
            + [f"pad {index}" for index in range(17)] + ["keep-b"]
        )

        def still_fails(candidate):
            return "keep-a" in candidate and "keep-b" in candidate

        shrunk = shrink_source(source, still_fails)
        assert shrunk.splitlines() == ["keep-a", "keep-b"]

    def test_single_line_failure(self):
        source = "\n".join(["x"] * 30 + ["bad"] + ["y"] * 30)
        shrunk = shrink_source(source, lambda c: "bad" in c)
        assert shrunk.splitlines() == ["bad"]

    def test_non_failing_input_raises(self):
        with pytest.raises(ValueError):
            shrink_source("a\nb\nc", lambda candidate: False)

    def test_respects_max_tests_budget(self):
        calls = 0

        def still_fails(candidate):
            nonlocal calls
            calls += 1
            return "bad" in candidate

        shrink_source("\n".join(["x"] * 50 + ["bad"]), still_fails, max_tests=10)
        assert calls <= 11  # baseline check + at most max_tests candidates


class TestInjectedWakeupBug:
    """Acceptance: the fuzzer finds, classifies and shrinks a real bug."""

    def test_stuck_comparator_caught_and_shrunk(self, monkeypatch, tmp_path):
        # The bug: the right-side wakeup comparator is stuck at ready, so
        # any instruction whose *right* operand is still in flight can
        # issue early.  Values still commit correctly (the timing model
        # never computes them) — only the invariant checker can see this.
        def stuck_right(self, entry):
            if not entry.mem_dep_ready:
                return False
            for operand in entry.operands:
                if operand.side is OperandSide.RIGHT:
                    continue
                if not operand.ready:
                    return False
            return True

        monkeypatch.setattr(WakeupLogic, "entry_ready", stuck_right)

        report = run_fuzz(
            programs=10,
            seed=0,
            configs=config_matrix(["base+nonsel"]),
            corpus_dir=tmp_path,
            max_failures=1,
        )

        assert not report.ok, "injected wakeup bug was not caught"
        failure = report.failures[0]
        assert failure.kind == "issue-before-ready"
        assert failure.shrunk_source is not None
        assert len(assemble(failure.shrunk_source)) <= 12

        # The failure is written as a replayable repro file.
        assert failure.repro_path is not None and failure.repro_path.exists()
        case = read_repro(failure.repro_path)
        assert case.kind == "issue-before-ready"
        assert case.config == "base+nonsel"
        assert case.seed == failure.seed
        assert case.source == failure.shrunk_source
