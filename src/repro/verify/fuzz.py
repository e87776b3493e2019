"""Fuzz orchestration: generate, co-simulate, shrink, replay.

One fuzz *case* is a generated program checked under one machine
configuration with every verification layer armed:

1. the program is assembled and pre-validated on the functional emulator
   (it must halt within the step budget — generated programs terminate by
   construction, so a failure here is a generator bug and raises).  That
   one pass records the program's feed, which every configuration replays;
2. the timing pipeline runs it with ``Processor(check=True)``: lockstep
   co-simulation against a golden emulator of the run's own, plus the
   in-pipeline invariant checkers (:mod:`repro.verify.invariants`);
3. the committed instruction count must equal the emulator's dynamic count,
   and the golden emulator must have reached ``HALT``.

Any violation becomes a :class:`FuzzFailure` with a stable ``kind``; the
shrinker then minimizes the program while the *same kind* keeps firing
under the *same configuration*, and the result is written as a replayable
repro file (:mod:`repro.verify.reprofile`).

The default configuration matrix covers the paper's four machines —
baseline, sequential wakeup, sequential register access and tag
elimination — each under non-selective and selective recovery.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.errors import (
    AssemblyError,
    ConfigurationError,
    EmulationError,
    SimulationError,
    VerificationError,
)
from repro.analysis.cache import serialize_result
from repro.fastsim import (
    BACKENDS,
    available_backends,
    make_processor,
)
from repro.isa.assembler import Program, assemble
from repro.pipeline.config import (
    FOUR_WIDE,
    MachineConfig,
    RecoveryModel,
    RegFileModel,
    SchedulerModel,
)
from repro.pipeline.processor import Processor
from repro.verify.progen import GeneratorKnobs, generate_source
from repro.verify.reprofile import REPRO_SUFFIX, ReproCase, read_repro, write_repro
from repro.verify.shrink import shrink_source
from repro.workloads.feed import EmulatorFeed, ReplayFeed

#: Default functional-emulator step budget per program (a generated
#: program runs a few hundred dynamic instructions; this is ~100x slack).
DEFAULT_BUDGET = 50_000

#: Extra commit budget given to the pipeline beyond the dynamic count, so
#: a buggy pipeline that over-commits is caught as ``commit-count`` rather
#: than looping forever.
_COMMIT_SLACK = 8

#: Per-program seed stride (a large prime, so program streams from nearby
#: base seeds do not overlap).
SEED_STRIDE = 1_000_003

#: Technique axes of the default configuration matrix.
_TECHNIQUES: dict[str, dict] = {
    "base": {},
    "seq-wakeup": {"scheduler": SchedulerModel.SEQ_WAKEUP},
    "seq-regfile": {"regfile": RegFileModel.SEQUENTIAL},
    "tag-elim": {"scheduler": SchedulerModel.TAG_ELIM},
}

#: Recovery axes of the default configuration matrix.
_RECOVERIES: dict[str, RecoveryModel] = {
    "nonsel": RecoveryModel.NON_SELECTIVE,
    "sel": RecoveryModel.SELECTIVE,
}


def config_matrix(
    names: Sequence[str] | None = None, base: MachineConfig = FOUR_WIDE
) -> list[MachineConfig]:
    """Build the fuzzing configuration matrix.

    With no *names*, returns all eight machines: {base, seq-wakeup,
    seq-regfile, tag-elim} x {nonsel, sel}.  *names* filters by full label
    (``"tag-elim+sel"``) or by technique (``"tag-elim"`` selects both
    recovery variants).  Unknown names raise :class:`ConfigurationError`.
    """
    matrix: list[MachineConfig] = []
    matched: set[str] = set()
    for tech_key, techniques in _TECHNIQUES.items():
        for rec_key, recovery in _RECOVERIES.items():
            label = f"{tech_key}+{rec_key}"
            if names is not None:
                if label in names:
                    matched.add(label)
                elif tech_key in names:
                    matched.add(tech_key)
                else:
                    continue
            matrix.append(
                base.with_techniques(recovery=recovery, name=label, **techniques)
            )
    if names is not None:
        unknown = [name for name in names if name not in matched]
        if unknown:
            known = sorted(_TECHNIQUES) + [
                f"{t}+{r}" for t in _TECHNIQUES for r in _RECOVERIES
            ]
            raise ConfigurationError(
                f"unknown fuzz config(s) {', '.join(unknown)}; "
                f"known: {', '.join(known)}"
            )
    return matrix


@dataclass
class FuzzFailure:
    """One verification failure, with enough context to replay it."""

    #: stable category: an invariant/lockstep kind, "deadlock" (watchdog)
    #: or "commit-count"
    kind: str
    config_name: str
    message: str
    source: str
    #: generator seed of the original program (None for replayed cases)
    seed: int | None = None
    #: minimized source, when shrinking succeeded
    shrunk_source: str | None = None
    #: repro file written for this failure, if any
    repro_path: Path | None = None

    @property
    def repro_source(self) -> str:
        """The smallest source known to reproduce the failure."""
        return self.shrunk_source or self.source


@dataclass
class FuzzReport:
    """Outcome of one fuzzing or corpus-replay session."""

    programs: int
    config_names: list[str]
    #: individual (program, config) co-simulation runs executed
    checked: int
    failures: list[FuzzFailure] = field(default_factory=list)
    #: backends compared per run on cross-backend sessions (None otherwise)
    backends: tuple[str, ...] | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        gate = (
            f" [cross-backend: {' vs '.join(self.backends)}]"
            if self.backends
            else ""
        )
        lines = [
            f"fuzz: {self.programs} program(s) x {len(self.config_names)} "
            f"config(s), {self.checked} runs, "
            f"{len(self.failures)} failure(s){gate}"
        ]
        for failure in self.failures:
            seed = f" seed={failure.seed}" if failure.seed is not None else ""
            lines.append(
                f"  [{failure.kind}] {failure.config_name}{seed}: "
                f"{failure.message}"
            )
        return "\n".join(lines)


class _RecordedFeed(ReplayFeed):
    """A program's :class:`EmulatorFeed`, emulated once and then replayed.

    It keeps the feed's ``program`` and ``entry``, so a checked
    :class:`Processor` still builds its own golden emulator and diffs every
    commit against it: a corrupted recording fails lockstep like a
    corrupted live feed would.
    """

    def __init__(self, program: Program, ops: list):
        super().__init__(ops, name="program")
        self.program = program
        self.entry = 0


@functools.lru_cache(maxsize=1)
def _golden_run(source: str, budget: int) -> _RecordedFeed:
    """The assembled program's feed, recorded in one emulator pass that
    must halt within *budget* steps; one entry serves a program's whole
    config matrix and every backend."""
    program = assemble(source)
    ops = list(itertools.islice(EmulatorFeed(program), max(budget, 0)))
    if len(ops) >= budget:  # the feed leaves out HALT, which needs a step too
        raise EmulationError(f"exceeded step budget of {budget}")
    return _RecordedFeed(program, ops)


def check_source(
    source: str, config: MachineConfig, budget: int = DEFAULT_BUDGET
) -> FuzzFailure | None:
    """Co-simulate one program under one configuration.

    Returns None when every check passes, a :class:`FuzzFailure` otherwise.
    :class:`AssemblyError` and :class:`EmulationError` propagate — the
    program itself (not the pipeline) is broken, which callers treat as
    either a generator bug (fuzzing) or an invalid shrink candidate.
    """
    feed = _golden_run(source, budget)
    dynamic = len(feed)
    processor = Processor(feed, config, check=True)

    def failure(kind: str, message: str) -> FuzzFailure:
        return FuzzFailure(
            kind=kind, config_name=config.name, message=message, source=source
        )

    try:
        result = processor.run(max_insts=dynamic + _COMMIT_SLACK, warmup=0)
    except VerificationError as exc:
        return failure(getattr(exc, "kind", "verification"), str(exc))
    except SimulationError as exc:
        return failure("deadlock", str(exc))
    if result.total_committed != dynamic:
        return failure(
            "commit-count",
            f"pipeline committed {result.total_committed} instructions, "
            f"emulator executed {dynamic}",
        )
    try:
        processor.checker.finish()
    except VerificationError as exc:
        return failure(getattr(exc, "kind", "verification"), str(exc))
    return None


def _first_divergence(
    left: str, right: str, label_l: str = "python", label_r: str = "native"
) -> str:
    """Locate the first differing leaf between two stats-export payloads."""
    try:
        tree_l, tree_r = json.loads(left), json.loads(right)
    except (TypeError, json.JSONDecodeError):
        return f"{label_l}={left!r} {label_r}={right!r}"

    def walk(a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                hit = walk(a.get(key), b.get(key), f"{path}.{key}")
                if hit:
                    return hit
            return None
        if a != b:
            return f"{path or '<root>'}: {label_l}={a!r} {label_r}={b!r}"
        return None

    return walk(tree_l, tree_r, "") or "payloads differ"


def resolve_cross_backends() -> tuple[str, ...]:
    """The backend set a cross-backend fuzz run compares.

    Every installed backend; with fewer than two (python alone compares
    against nothing) the run is refused, so a missing native build fails
    loudly instead of silently narrowing the gate.
    """
    backends = available_backends()
    if len(backends) < 2:
        raise ConfigurationError(
            "cross-backend fuzzing needs at least two installed backends; "
            f"have: {', '.join(backends)} (pip install -e .[native] adds "
            "native)"
        )
    return backends


def check_source_cross_backend(
    source: str,
    config: MachineConfig,
    budget: int = DEFAULT_BUDGET,
) -> FuzzFailure | None:
    """Run one program on every backend and diff the stats exports.

    Each backend replays the same recorded feed with no checker attached
    (only the python backend has one), and the full serialized
    result — the exact payload the result cache and serve layer persist —
    is compared byte-for-byte as canonical JSON against the first backend
    (the reference).  A watchdog deadlock is a legal *matching* outcome as
    long as all backends deadlock at the same cycle; any other asymmetry
    is a ``backend-divergence`` failure naming the first differing leaf.
    """
    feed = _golden_run(source, budget)
    dynamic = len(feed)
    exports: dict[str, str] = {}
    for backend in BACKENDS:
        processor = make_processor(feed, config, backend=backend)
        try:
            result = processor.run(max_insts=dynamic + _COMMIT_SLACK, warmup=0)
        except SimulationError as exc:
            exports[backend] = json.dumps(
                {"deadlock_cycle": getattr(exc, "cycle", None)}, sort_keys=True
            )
            continue
        exports[backend] = json.dumps(serialize_result(result), sort_keys=True)
    reference = BACKENDS[0]
    for backend in BACKENDS[1:]:
        if exports[backend] != exports[reference]:
            return FuzzFailure(
                kind="backend-divergence",
                config_name=config.name,
                message=_first_divergence(
                    exports[reference], exports[backend], reference, backend
                ),
                source=source,
            )
    return None


def _shrink_failure(
    original: FuzzFailure, config: MachineConfig, budget: int
) -> str | None:
    """Minimize a failing program; None if the failure will not re-fire."""
    kind = original.kind
    check = (
        check_source_cross_backend if kind == "backend-divergence" else check_source
    )

    def still_fails(candidate: str) -> bool:
        try:
            result = check(candidate, config, budget)
        except (AssemblyError, EmulationError):
            return False  # candidate no longer assembles or halts
        return result is not None and result.kind == kind

    try:
        return shrink_source(original.source, still_fails)
    except ValueError:
        return None  # not deterministic under re-run; keep the original


def _repro_filename(failure: FuzzFailure) -> str:
    config = failure.config_name.replace("+", "_")
    seed = "manual" if failure.seed is None else str(failure.seed)
    return f"seed{seed}-{failure.kind}-{config}{REPRO_SUFFIX}"


def _write_failure(failure: FuzzFailure, corpus_dir: str | Path) -> Path:
    case = ReproCase(
        source=failure.repro_source,
        kind=failure.kind,
        config=failure.config_name,
        seed=failure.seed,
        note=failure.message,
    )
    return write_repro(case, Path(corpus_dir) / _repro_filename(failure))


def run_fuzz(
    programs: int,
    seed: int = 0,
    configs: Sequence[MachineConfig] | None = None,
    budget: int = DEFAULT_BUDGET,
    knobs: GeneratorKnobs | None = None,
    shrink: bool = True,
    corpus_dir: str | Path | None = None,
    max_failures: int = 5,
    raw_seeds: Iterable[int] | None = None,
    progress: Callable[[int, int], None] | None = None,
    cross_backend: bool = False,
) -> FuzzReport:
    """Fuzz *programs* random programs across the configuration matrix.

    Per-program generator seeds derive deterministically from *seed*
    (``seed * SEED_STRIDE + i``), so any failure is replayable from its
    reported seed alone (``repro fuzz --gen-seed N``).  *raw_seeds*
    overrides the derivation with explicit generator seeds.  Failures are
    shrunk (unless *shrink* is false) and written to *corpus_dir* when
    given; fuzzing stops early after *max_failures* distinct failures.

    With *cross_backend*, every (program, config) case instead runs on all
    compared cycle-loop backends and diffs the serialized results
    byte-for-byte (:func:`check_source_cross_backend`) — the bit-parity
    gate for the native backend; it needs every backend in
    :data:`~repro.fastsim.BACKENDS` installed.
    """
    if cross_backend:
        parity_backends = resolve_cross_backends()
        check = check_source_cross_backend
    else:
        parity_backends = None
        check = check_source
    matrix = list(configs) if configs is not None else config_matrix()
    if raw_seeds is not None:
        seeds = list(raw_seeds)
    else:
        seeds = [seed * SEED_STRIDE + index for index in range(programs)]
    failures: list[FuzzFailure] = []
    checked = 0
    for index, gen_seed in enumerate(seeds):
        source = generate_source(gen_seed, knobs)
        for config in matrix:
            result = check(source, config, budget)
            checked += 1
            if result is None:
                continue
            result.seed = gen_seed
            if shrink:
                result.shrunk_source = _shrink_failure(result, config, budget)
            if corpus_dir is not None:
                result.repro_path = _write_failure(result, corpus_dir)
            failures.append(result)
            if len(failures) >= max_failures:
                return FuzzReport(
                    programs=index + 1,
                    config_names=[c.name for c in matrix],
                    checked=checked,
                    failures=failures,
                    backends=parity_backends,
                )
        if progress is not None:
            progress(index + 1, len(seeds))
    return FuzzReport(
        programs=len(seeds),
        config_names=[c.name for c in matrix],
        checked=checked,
        failures=failures,
        backends=parity_backends,
    )


def replay_corpus(
    path: str | Path,
    configs: Sequence[MachineConfig] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> FuzzReport:
    """Replay a repro file, or every ``*.hpa`` case in a directory.

    Each case runs across the full configuration matrix (not just the
    configuration it was found under): a once-fixed bug must stay fixed
    everywhere.  Replay never shrinks.
    """
    target = Path(path)
    if target.is_file():
        files = [target]
    else:
        files = sorted(target.glob(f"*{REPRO_SUFFIX}"))
    matrix = list(configs) if configs is not None else config_matrix()
    failures: list[FuzzFailure] = []
    checked = 0
    for file in files:
        case = read_repro(file)
        for config in matrix:
            result = check_source(case.source, config, budget)
            checked += 1
            if result is None:
                continue
            result.seed = case.seed
            result.message = f"{file.name}: {result.message}"
            failures.append(result)
    return FuzzReport(
        programs=len(files),
        config_names=[c.name for c in matrix],
        checked=checked,
        failures=failures,
    )
