"""Dead-cycle fast-forward in ``Processor.run`` and the flat predictor tables.

``run()`` jumps the clock over cycles in which nothing can happen.  The
reference loop below steps every cycle through the five phase methods,
as the loop did before it learned to skip, so any cycle the fast-forward
gets wrong shows up as a differing result, schedule trace or deadlock
cycle.
"""

import json
import random

import pytest

import repro.pipeline.processor as processor_module
from repro.analysis.cache import serialize_result
from repro.analysis.runner import SHADOW_SIZES
from repro.errors import SimulationError
from repro.frontend.direction import BimodalPredictor, CombinedPredictor, GSharePredictor
from repro.pipeline.config import (
    EIGHT_WIDE,
    FOUR_WIDE,
    RecoveryModel,
    RegFileModel,
    SchedulerModel,
)
from repro.pipeline.processor import Processor, SimulationResult
from repro.workloads import EmulatorFeed, SyntheticWorkload, get_profile, kernel_program
from tests.util import SaturatingCounter, op

PROFILES = ("gcc", "mcf", "crafty", "vortex")
LENGTHS = ((300, 150), (2000, 1000))


def run_every_cycle(processor: Processor, max_insts: int, warmup: int = 0):
    """``Processor.run`` without fast-forward: all five phases every cycle."""
    measured_started = warmup == 0
    budget = max_insts + warmup
    stats = processor.stats
    while True:
        processor.now += 1
        processor._process_events()
        processor._select_and_issue()
        processor._dispatch()
        processor._fetch()
        processor._commit()
        stats.cycles += 1
        committed = processor._total_committed
        if not measured_started and committed >= warmup:
            stats.reset_window()
            measured_started = True
        if committed >= budget:
            break
        if processor._feed_done and not processor._frontend and processor.rob.empty:
            break
        if processor.now - processor._last_commit_cycle > processor_module._WATCHDOG_CYCLES:
            error = SimulationError(f"no commit at cycle {processor.now}")
            error.cycle = processor.now
            raise error
    return SimulationResult(
        config_name=processor.config.name,
        workload_name=getattr(processor.feed, "name", "workload"),
        stats=processor.stats,
        total_committed=processor._total_committed,
        total_cycles=processor.now,
    )


def _variants(base):
    """The fig14, fig15 and fig16 technique variants plus selective recovery."""
    return {
        "seq wakeup": base.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP),
        "tag elim": base.with_techniques(scheduler=SchedulerModel.TAG_ELIM),
        "seq wakeup nopred": base.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, predictor_entries=None
        ),
        "seq RF access": base.with_techniques(regfile=RegFileModel.SEQUENTIAL),
        "1 extra RF stage": base.with_techniques(regfile=RegFileModel.EXTRA_STAGE),
        "reg + crossbar": base.with_techniques(regfile=RegFileModel.CROSSBAR),
        "combined": base.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, regfile=RegFileModel.SEQUENTIAL
        ),
        "selective": base.with_techniques(recovery=RecoveryModel.SELECTIVE),
    }


CASES = [
    pytest.param(config, id=f"{base.width}w-{name}")
    for base in (FOUR_WIDE, EIGHT_WIDE)
    for name, config in _variants(base).items()
]


def _both(config, benchmark, insts, warmup, **kwargs):
    """``[(processor, result)]`` for one job: ``run()``, then the reference."""
    processors = []
    for loop in ("run", "reference"):
        workload = SyntheticWorkload(get_profile(benchmark), seed=1)
        processor = Processor(workload, config, shadow_sizes=SHADOW_SIZES, **kwargs)
        if loop == "run":
            result = processor.run(max_insts=insts, warmup=warmup)
        else:
            result = run_every_cycle(processor, insts, warmup)
        processors.append((processor, result))
    return processors


def _serialized(result) -> str:
    return json.dumps(serialize_result(result), sort_keys=True)


class TestSameResultAsEveryCycle:
    @pytest.mark.parametrize("insts,warmup", LENGTHS, ids=["450", "3000"])
    @pytest.mark.parametrize("config", CASES)
    def test_serialized_results_match(self, config, insts, warmup):
        for benchmark in PROFILES:
            (_, fast), (_, reference) = _both(config, benchmark, insts, warmup)
            assert _serialized(fast) == _serialized(reference), benchmark

    @pytest.mark.parametrize("config", CASES[:: len(CASES) // 4])
    def test_schedule_traces_match(self, config):
        (fast, _), (reference, _) = _both(config, "gcc", 300, 150, record_schedule=True)
        assert fast.trace == reference.trace
        assert fast.trace

    def test_checked_run_matches(self):
        (_, fast), (_, reference) = _both(FOUR_WIDE, "mcf", 2000, 1000, check=True)
        assert _serialized(fast) == _serialized(reference)

    def test_lockstep_checked_kernel_matches(self):
        results = []
        for loop in ("run", "reference"):
            feed = EmulatorFeed(kernel_program("vector_sum"), name="vector_sum")
            processor = Processor(feed, FOUR_WIDE, check=True)
            if loop == "run":
                result = processor.run(max_insts=10**6)
            else:
                result = run_every_cycle(processor, 10**6)
            processor.checker.finish()
            results.append(_serialized(result))
        assert results[0] == results[1]


class TestDeadCyclesSkipped:
    def test_select_runs_on_fewer_than_half_the_cycles(self, monkeypatch):
        # Processor has __slots__, so the count is patched on the class.
        calls = []
        select_and_issue = Processor._select_and_issue

        def counting(self):
            calls.append(self.now)
            select_and_issue(self)

        monkeypatch.setattr(Processor, "_select_and_issue", counting)
        processor = Processor(SyntheticWorkload(get_profile("gcc"), seed=1), FOUR_WIDE)
        processor.run(max_insts=300, warmup=150)
        assert processor.stats.cycles > 0
        assert len(calls) < processor.now / 2


class _LoadChainFeed:
    name = "load-chain"

    def __iter__(self):
        for seq in range(6):
            yield op(seq, "LDQ", dest=1 + seq, mem_addr=0x10000 + 4096 * seq)


class TestWatchdogCap:
    @pytest.mark.parametrize("watchdog", [200, processor_module._WATCHDOG_CYCLES])
    def test_deadlock_cycle_is_last_commit_plus_watchdog(self, monkeypatch, watchdog):
        monkeypatch.setattr(processor_module, "_WATCHDOG_CYCLES", watchdog)
        processor = Processor(_LoadChainFeed(), FOUR_WIDE)
        # Sabotage commit after two commits.  The other loads still miss,
        # complete and drain the event calendar, then nothing is due.
        rob = processor.rob
        committable = rob.committable
        rob.committable = lambda: processor._total_committed < 2 and committable()
        with pytest.raises(SimulationError) as raised:
            processor.run(max_insts=6, warmup=0)
        assert processor._total_committed == 2
        calendars = (processor._kills, processor._slow_wakeups,
                     processor._broadcasts, processor._completions)
        assert not any(calendars)
        assert processor._last_commit_cycle > 0
        assert raised.value.cycle == processor._last_commit_cycle + watchdog + 1


# ----------------------------------------------------------------------
# Flat predictor tables against one SaturatingCounter object per entry.
# ----------------------------------------------------------------------
class _CounterBimodal:
    def __init__(self, entries):
        self.mask = entries - 1
        self.table = [SaturatingCounter(2) for _ in range(entries)]

    def predict(self, pc):
        return self.table[pc & self.mask].predict

    def update(self, pc, taken):
        self.table[pc & self.mask].train(taken)


class _CounterGShare(_CounterBimodal):
    def __init__(self, entries, history_bits):
        super().__init__(entries)
        self.history_mask = (1 << history_bits) - 1
        self.history = 0

    def predict(self, pc):
        return self.table[(pc ^ self.history) & self.mask].predict

    def update(self, pc, taken):
        self.table[(pc ^ self.history) & self.mask].train(taken)
        self.history = ((self.history << 1) | int(taken)) & self.history_mask


class _CounterCombined:
    def __init__(self, entries, history_bits):
        self.bimodal = _CounterBimodal(entries)
        self.gshare = _CounterGShare(entries, history_bits)
        self.selector = _CounterBimodal(entries)

    def predict(self, pc):
        if self.selector.predict(pc):
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def update(self, pc, taken):
        bimodal_said = self.bimodal.predict(pc)
        gshare_said = self.gshare.predict(pc)
        if bimodal_said != gshare_said:
            self.selector.update(pc, gshare_said == taken)
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)


def _values(reference) -> bytes:
    return bytes(counter.value for counter in reference.table)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["bimodal", "gshare", "combined"])
def test_flat_tables_match_counter_objects(kind, seed):
    entries, history_bits = 16, 5
    if kind == "bimodal":
        flat, reference = BimodalPredictor(entries), _CounterBimodal(entries)
    elif kind == "gshare":
        flat = GSharePredictor(entries, history_bits)
        reference = _CounterGShare(entries, history_bits)
    else:
        flat = CombinedPredictor(entries, entries, entries, history_bits)
        reference = _CounterCombined(entries, history_bits)
    rng = random.Random(seed)
    bias = [rng.random() for _ in range(40)]
    for _ in range(3000):
        pc = rng.randrange(40)
        assert flat.predict(pc) is reference.predict(pc)
        taken = rng.random() < bias[pc]
        flat.update(pc, taken)
        reference.update(pc, taken)
    if kind == "combined":
        assert bytes(flat._selector) == _values(reference.selector)
        assert bytes(flat.bimodal._table) == _values(reference.bimodal)
        assert bytes(flat.gshare._table) == _values(reference.gshare)
    else:
        assert bytes(flat._table) == _values(reference)
