"""Invariant checkers: each one must catch its targeted pipeline mutation.

The mutation tests break one structural promise of the pipeline with a
monkeypatch (a lying wakeup predicate, an uncounted issue slot, ...) and
assert that ``check_source`` classifies the resulting failure under the
right invariant ``kind``.  All of these are timing-only bugs: the committed
value stream stays correct, so lockstep alone would miss every one.
"""

import pytest

from repro.core.iq import EntryState, IQEntry
from repro.core.select import Selector
from repro.core.wakeup import WakeupLogic
from repro.isa.assembler import assemble
from repro.isa.opcodes import OpClass
from repro.pipeline.fu import FunctionalUnits
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.processor import Processor
from repro.pipeline.regfile import RegisterFilePolicy
from repro.verify import InvariantViolation, check_source, config_matrix
from repro.workloads.feed import EmulatorFeed
from repro.workloads.trace import DynOp

BASE, BASE_SEL = config_matrix(["base"])
SEQ_RF = config_matrix(["seq-regfile+nonsel"])[0]

#: A long-latency producer (non-pipelined DIV) with eight consumers that
#: all wake on its broadcast, spread across three FU pools so the issue
#: width — not any single pool — is the binding limit.
WIDE_WAKE = """
    LDI r1, 4096
    LDI r14, 7
    DIV r5, r14, r14
    ADD r4, r5, #1
    ADD r6, r5, #2
    ADD r7, r5, #3
    ADD r8, r5, #4
    LDQ r9, 0(r5)
    LDQ r10, 8(r5)
    MUL r11, r5, r5
    MUL r12, r5, r5
    HALT
"""

#: Three loads waking together on one broadcast (mem_ports is 2).
THREE_LOADS = """
    LDI r14, 7
    DIV r5, r14, r14
    LDQ r6, 0(r5)
    LDQ r7, 8(r5)
    LDQ r8, 16(r5)
    HALT
"""

#: A two-source SUB whose right operand hangs off a DIV.
PENDING_RIGHT = """
    LDI r14, 7
    LDI r4, 1
    DIV r5, r14, r14
    SUB r6, r4, r5
    HALT
"""

#: Three two-source ADDs, ready at insert (operands produced long before,
#: NOP padding keeps the broadcasts clear of the inserts), issuing in one
#: cycle: 6 register reads against the sequential machine's 4 ports.
READ_BURST = (
    "    LDI r4, 1\n"
    "    LDI r5, 2\n"
    "    LDI r6, 3\n"
    "    LDI r7, 4\n"
    + "    NOP\n" * 12
    + "    ADD r8, r4, r5\n"
    "    ADD r9, r6, r7\n"
    "    ADD r10, r4, r6\n"
    "    HALT\n"
)

#: A cold-miss load with a dependent chain issued in its hit-speculation
#: shadow.
MISS_SHADOW = """
    LDI r1, 4096
    LDQ r4, 0(r1)
    ADD r5, r4, #1
    ADD r6, r5, #1
    HALT
"""


def assert_clean(source):
    """Unmutated sanity check: the program passes everywhere."""
    for config in config_matrix():
        failure = check_source(source, config)
        assert failure is None, failure.message


class TestMutationsCaught:
    """Each targeted pipeline bug maps to its invariant kind."""

    def test_programs_pass_unmutated(self):
        for source in (WIDE_WAKE, THREE_LOADS, PENDING_RIGHT, READ_BURST,
                       MISS_SHADOW):
            assert_clean(source)

    def test_issue_width(self, monkeypatch):
        # A selector that hands out slots without counting them: every
        # wake-cycle candidate issues at once.
        monkeypatch.setattr(Selector, "take_slot",
                            lambda self, bubble_next=False: 0)
        failure = check_source(WIDE_WAKE, BASE)
        assert failure is not None and failure.kind == "issue-width"

    def test_fu_port(self, monkeypatch):
        # Functional units that never report a port conflict: three loads
        # issue against two memory ports.
        monkeypatch.setattr(FunctionalUnits, "can_issue",
                            lambda self, op_class, now: True)
        failure = check_source(THREE_LOADS, BASE)
        assert failure is not None and failure.kind == "fu-port"

    def test_rf_port(self, monkeypatch):
        # Sequential register file that never sequentializes: two-source
        # instructions take both reads up front and blow the port budget.
        monkeypatch.setattr(RegisterFilePolicy, "decide_sequential_access",
                            lambda self, entry, now: False)
        failure = check_source(READ_BURST, SEQ_RF)
        assert failure is not None and failure.kind == "rf-port"

    def test_issue_before_ready(self, monkeypatch):
        # Wakeup logic whose second comparator is stuck ready (the bug
        # class sequential wakeup is most exposed to).
        def broken(self, entry):
            if not entry.mem_dep_ready:
                return False
            return not entry.operands or entry.operands[0].ready

        monkeypatch.setattr(WakeupLogic, "entry_ready", broken)
        failure = check_source(PENDING_RIGHT, BASE)
        assert failure is not None and failure.kind == "issue-before-ready"

    def test_replay_window(self, monkeypatch):
        # A squash that forgets to pull speculatively-issued dependents
        # back into the scheduler after a load miss.
        monkeypatch.setattr(Processor, "_squash", lambda self, entry: None)
        failure = check_source(MISS_SHADOW, BASE)
        assert failure is not None and failure.kind == "replay-window"

    def test_lsq_order(self, monkeypatch):
        # An LSQ that files each new memory instruction at the front:
        # the first load to commit is not the queue's head.
        monkeypatch.setattr(LoadStoreQueue, "insert",
                            lambda self, entry: self._entries.appendleft(entry))
        failure = check_source(THREE_LOADS, BASE)
        assert failure is not None and failure.kind == "lsq-order"

    def test_mutation_does_not_outlive_monkeypatch(self):
        # The monkeypatches above are class-level; everything must be
        # clean again here regardless of test order.
        assert check_source(MISS_SHADOW, BASE) is None


class TestCommitChecks:
    """Commit-side invariants, driven directly on handcrafted entries."""

    def _checker(self):
        program = assemble("LDI r4, 1\nHALT")
        processor = Processor(EmulatorFeed(program), BASE, check=True)
        return processor.checker.invariants

    def _entry(self, seq, state=EntryState.COMPLETED):
        op = DynOp(seq=seq, pc=seq, opcode="ADD", op_class=OpClass.INT_ALU)
        entry = IQEntry(op, tag=seq, operands=[], insert_cycle=0)
        entry.state = state
        return entry

    def test_in_order_contiguous_commits_pass(self):
        checker = self._checker()
        for seq in range(8):
            checker.on_commit(self._entry(seq), now=seq // 4)
        assert checker.commits_checked == 8

    def test_commit_width(self):
        checker = self._checker()
        for seq in range(4):
            checker.on_commit(self._entry(seq), now=7)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_commit(self._entry(4), now=7)
        assert excinfo.value.kind == "commit-width"

    def test_commit_state(self):
        checker = self._checker()
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_commit(self._entry(0, state=EntryState.ISSUED), now=1)
        assert excinfo.value.kind == "commit-state"

    def test_commit_order(self):
        checker = self._checker()
        checker.on_commit(self._entry(0), now=1)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_commit(self._entry(2), now=1)
        assert excinfo.value.kind == "commit-order"

    def test_violation_carries_kind_and_cycle(self):
        error = InvariantViolation("fu-port", 42, "too many loads")
        assert error.kind == "fu-port"
        assert error.cycle == 42
        assert "cycle 42" in str(error) and "[fu-port]" in str(error)
