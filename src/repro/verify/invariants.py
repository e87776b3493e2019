"""In-pipeline invariant checkers (enabled with ``Processor(check=True)``).

The lockstep checker (:mod:`repro.verify.lockstep`) catches anything that
corrupts the committed value stream, but many scheduler bugs are *timing
only*: an instruction issuing before its operands are ready still commits
the right value, because the timing pipeline never computes values.  These
checkers therefore assert the structural promises of the model itself, from
the outside, with independent bookkeeping:

* **issue-width** / **commit-width** — never more than ``width`` issues or
  commits in one cycle;
* **fu-port** — per-pool issue bandwidth mirrors
  :class:`~repro.pipeline.fu.FunctionalUnits`, including non-pipelined
  divider occupancy;
* **rf-port** — register-file reads per cycle never exceed
  ``config.total_read_ports``, with sequential accesses charging one read
  in the issue cycle and one in the next (Section 4.3);
* **issue-before-ready** — no instruction issues with a pending operand.
  The one legal exception is tag elimination's *speculative* first issue
  (Section 3.1): pending operands are allowed only on the eliminated
  (non-fast) side before any replay, and when ``verify_at_issue`` accepted
  the issue they must be operands whose ready-at-insert bit stands in for
  the scoreboard;
* **stale-operand** — a verified issue never consumes an operand whose
  producing broadcast has been invalidated;
* **commit-state** / **commit-order** — only COMPLETED entries commit, in
  contiguous program (sequence) order;
* **lsq-order** — a committing load or store is the head of the
  load/store queue (commit retires the LSQ by popping its head);
* **replay-window** — after a windowed (non-selective) kill, nothing
  issued inside the window is still in flight, and a squash-root kill
  leaves its root squashed.

Every violation raises :class:`InvariantViolation` immediately, carrying a
stable ``kind`` string the fuzzer uses to classify and shrink failures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.iq import EntryState, IQEntry
from repro.errors import VerificationError
from repro.pipeline.config import RegFileModel, SchedulerModel
from repro.pipeline.fu import is_non_pipelined, pool_index

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.pipeline.processor import Processor, _Kill

#: Display names of the mirrored functional-unit pools.
_POOL_NAMES = ("int_alu", "fp_alu", "int_mult", "fp_mult", "mem_ports")


class InvariantViolation(VerificationError):
    """One broken pipeline invariant.

    Attributes:
        kind: stable machine-readable category (e.g. ``"issue-before-ready"``).
        cycle: simulation cycle at which the violation was detected.
    """

    def __init__(self, kind: str, cycle: int, message: str):
        super().__init__(f"[{kind}] cycle {cycle}: {message}")
        self.kind = kind
        self.cycle = cycle


class InvariantChecker:
    """Independent per-cycle accounting mirroring the pipeline's promises.

    The checker keeps its own issue/port/commit counters — it deliberately
    does not read the pipeline's (a bug in those is what it exists to
    catch).  Hook methods are called by :class:`~repro.pipeline.processor.
    Processor` at issue, kill-processing and commit; nothing runs on cycles
    without those events.
    """

    def __init__(self, processor: "Processor"):
        self.processor = processor
        config = processor.config
        fu_pool = config.fu
        self._pool_counts = (
            fu_pool.int_alu,
            fu_pool.fp_alu,
            fu_pool.int_mult,
            fu_pool.fp_mult,
            fu_pool.mem_ports,
        )
        self._lat = config.lat
        self._width = config.width
        self._read_ports = config.total_read_ports
        self._sequential_rf = config.regfile is RegFileModel.SEQUENTIAL
        self._tag_elim = config.scheduler is SchedulerModel.TAG_ELIM
        # -- per-cycle issue-side state --------------------------------
        self._issue_cycle = -1
        self._issued = 0
        self._pool_issued = [0] * 5
        self._pool_busy: list[list[int]] = [[] for _ in range(5)]
        self._rf_reads = 0
        self._rf_carry = 0  # sequential second reads charged to cycle+1
        # -- per-cycle commit-side state -------------------------------
        self._commit_cycle = -1
        self._commits = 0
        self._next_seq = 0
        #: commits validated so far (tests read it to see the checker ran)
        self.commits_checked = 0

    # ------------------------------------------------------------------
    def _sync_issue_cycle(self, now: int) -> None:
        if now == self._issue_cycle:
            return
        # A sequential access's second read lands in the very next cycle;
        # if that cycle had no issues the port was trivially free.
        self._rf_reads = self._rf_carry if now == self._issue_cycle + 1 else 0
        self._rf_carry = 0
        self._issued = 0
        pool_issued = self._pool_issued
        pool_busy = self._pool_busy
        for index in range(5):
            pool_issued[index] = 0
            busy = pool_busy[index]
            if busy:
                pool_busy[index] = [cycle for cycle in busy if cycle > now]
        self._issue_cycle = now

    def on_issue(
        self, entry: IQEntry, now: int, seq_access: bool, verify_ok: bool
    ) -> None:
        """Validate one issue decision (called from ``Processor._issue``)."""
        self._sync_issue_cycle(now)
        op = entry.op

        if self._issued >= self._width:
            raise InvariantViolation(
                "issue-width", now,
                f"{self._issued + 1} issues in one cycle exceeds width "
                f"{self._width} ({op!r})",
            )
        self._issued += 1

        pool = pool_index(op.op_class)
        in_use = self._pool_issued[pool] + len(self._pool_busy[pool])
        if in_use >= self._pool_counts[pool]:
            raise InvariantViolation(
                "fu-port", now,
                f"pool {_POOL_NAMES[pool]} over capacity "
                f"{self._pool_counts[pool]} ({op!r})",
            )
        self._pool_issued[pool] += 1
        if is_non_pipelined(op.op_class):
            self._pool_busy[pool].append(now + self._lat.for_class(op.op_class))

        self._check_read_ports(entry, now, seq_access)
        self._check_readiness(entry, now, verify_ok)

    def _check_read_ports(self, entry: IQEntry, now: int, seq_access: bool) -> None:
        if seq_access and not self._sequential_rf:
            raise InvariantViolation(
                "rf-port", now,
                f"sequential register access under {self.processor.config.regfile} "
                f"({entry.op!r})",
            )
        if seq_access:
            # Figure 11a: first read now, second read (own slot bubbled)
            # in the next cycle.
            self._rf_reads += 1
            self._rf_carry += 1
        else:
            for operand in entry.operands:
                if not operand.woke_now(now):
                    self._rf_reads += 1
        if self._rf_reads > self._read_ports:
            raise InvariantViolation(
                "rf-port", now,
                f"{self._rf_reads} register reads exceed "
                f"{self._read_ports} ports ({entry.op!r})",
            )

    def _check_readiness(self, entry: IQEntry, now: int, verify_ok: bool) -> None:
        if not entry.mem_dep_ready:
            raise InvariantViolation(
                "issue-before-ready", now,
                f"issued with unresolved memory dependence ({entry!r})",
            )
        pending = [operand for operand in entry.operands if not operand.ready]
        if pending:
            # Tag elimination legally issues before the eliminated operand
            # is known ready — but only on the entry's speculative first
            # life, and only for the comparator-less (non-fast) side.
            speculative = (
                self._tag_elim and entry.is_two_source and entry.replays == 0
            )
            if not speculative:
                raise InvariantViolation(
                    "issue-before-ready", now,
                    f"issued with {len(pending)} pending operand(s) ({entry!r})",
                )
            for operand in pending:
                if operand.side is entry.fast_side:
                    raise InvariantViolation(
                        "issue-before-ready", now,
                        f"connected-side operand pending at issue ({entry!r})",
                    )
                if verify_ok and not operand.ready_at_insert:
                    raise InvariantViolation(
                        "issue-before-ready", now,
                        "verify_at_issue accepted an issue whose eliminated "
                        f"operand is pending and was not ready at insert "
                        f"({entry!r})",
                    )
        if verify_ok:
            is_valid = self.processor.scoreboard.is_valid
            for operand in entry.operands:
                if operand.ready and operand.tag is not None and not is_valid(operand.tag):
                    raise InvariantViolation(
                        "stale-operand", now,
                        f"operand ready on invalidated tag {operand.tag} "
                        f"({entry!r})",
                    )

    # ------------------------------------------------------------------
    def on_kill(self, kill: "_Kill") -> None:
        """Validate replay-window cleanup (after ``_process_kill`` ran)."""
        now = self.processor.now
        root = kill.root
        if kill.squash_root and root.state is EntryState.ISSUED:
            raise InvariantViolation(
                "replay-window", now,
                f"squash-root kill left its root issued ({root!r})",
            )
        if kill.window is None:
            return
        start, end = kill.window
        issued = EntryState.ISSUED
        for entry in self.processor.rob:
            if entry is root:
                continue
            if entry.state is issued and start <= entry.issue_cycle <= end:
                raise InvariantViolation(
                    "replay-window", now,
                    f"entry issued in replay window [{start}, {end}] "
                    f"survived the kill ({entry!r})",
                )

    # ------------------------------------------------------------------
    def on_commit(self, entry: IQEntry, now: int) -> None:
        """Validate one commit (called from ``Processor._commit``)."""
        if now != self._commit_cycle:
            self._commit_cycle = now
            self._commits = 0
        self.commits_checked += 1
        if self._commits >= self._width:
            raise InvariantViolation(
                "commit-width", now,
                f"{self._commits + 1} commits in one cycle exceeds width "
                f"{self._width}",
            )
        self._commits += 1
        if entry.state is not EntryState.COMPLETED:
            raise InvariantViolation(
                "commit-state", now,
                f"committed entry in state {entry.state.value} ({entry!r})",
            )
        op = entry.op
        seq = op.seq
        if seq != self._next_seq:
            raise InvariantViolation(
                "commit-order", now,
                f"committed seq {seq}, expected {self._next_seq} ({entry!r})",
            )
        self._next_seq += 1
        if op.is_load or op.is_store:
            head = self.processor.lsq.head()
            if head is not entry:
                raise InvariantViolation(
                    "lsq-order", now,
                    f"committing {entry!r} but the LSQ head is {head!r}",
                )
