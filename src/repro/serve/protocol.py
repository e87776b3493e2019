"""Wire protocol of the serving layer: job specs, validation, fingerprints.

Everything that crosses the HTTP boundary is validated here, *before* it
touches the queue or a worker.  Two job kinds exist:

* ``run`` — one benchmark simulation, described by the same knobs the CLI
  exposes (benchmark, machine-technique flags, seed, run lengths).  The
  spec is validated against :mod:`repro.pipeline.config` (unknown enum
  values, non-positive lengths and unknown benchmarks are rejected with a
  400 before enqueue) and carries the **same cache fingerprint** as
  :mod:`repro.analysis.cache` — which is what the server's singleflight
  coalescer and the client's idempotent resubmission key on.
* ``verify`` — one differential-verification replay: an HPRISC program
  co-simulated against the functional emulator under a configuration
  matrix (:mod:`repro.verify`), so the fuzzing corpus can be replayed
  over the wire.
* ``trace`` — one tracefile simulation (:mod:`repro.trace`), full or
  SimPoint-sampled.  The spec carries the trace's **content hash** from
  the tracefile header; the fingerprint keys on that hash — never on a
  path or mtime — so identical traces coalesce across workers whatever
  their checkout layout.  When a submitting client omits the hash, the
  parser resolves the reference locally and reads it from the header;
  journal replays carry the hash and need no file access.

Specs are frozen dataclasses; ``as_wire()`` round-trips through
``parse_spec()`` losslessly, which the queue-persistence journal relies
on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from repro.analysis.cache import fingerprint as cache_fingerprint
from repro.analysis.runner import SHADOW_SIZES
from repro.errors import ReproError
from repro.pipeline.config import (
    BACKENDS,
    EIGHT_WIDE,
    FOUR_WIDE,
    BypassModel,
    MachineConfig,
    RegFileModel,
    RenameModel,
    SchedulerModel,
)
from repro.pipeline.processor import TIMING_MODEL_VERSION
from repro.trace.sampling import (
    DEFAULT_DIMS,
    DEFAULT_INTERVAL,
    DEFAULT_K,
    DEFAULT_SAMPLE_SEED,
    DEFAULT_SAMPLE_WARMUP,
)
from repro.workloads.profiles import SPEC_BENCHMARKS

#: Bump when the request/response shapes change incompatibly.
#: v2: batch submissions may carry caller-assigned job ids (``"ids"``),
#: which is how the cluster router pins its global ids onto workers, and
#: ``/healthz`` reports queue depth for routing decisions.
PROTOCOL_VERSION = 2

#: Job lifecycle states, as serialized on the wire.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class ProtocolError(ReproError):
    """A malformed or invalid request (maps to HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _get_int(payload: dict, key: str, default: int, minimum: int = 1) -> int:
    value = payload.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool), f"{key} must be an integer")
    _require(value >= minimum, f"{key} must be >= {minimum}")
    return value


def _get_bool(payload: dict, key: str, default: bool) -> bool:
    value = payload.get(key, default)
    _require(isinstance(value, bool), f"{key} must be a boolean")
    return value


def _enum_value(payload: dict, key: str, enum_cls, default) -> str:
    value = payload.get(key, default)
    try:
        return enum_cls(value).value
    except ValueError:
        known = ", ".join(member.value for member in enum_cls)
        raise ProtocolError(f"unknown {key} {value!r} (known: {known})") from None


def _machine_config(spec) -> MachineConfig:
    """Build the machine a run/trace spec describes (CLI flag semantics)."""
    config = FOUR_WIDE if spec.width == 4 else EIGHT_WIDE
    techniques: dict = {}
    if spec.scheduler != SchedulerModel.BASE.value:
        techniques["scheduler"] = SchedulerModel(spec.scheduler)
    if spec.regfile != RegFileModel.BASE.value:
        techniques["regfile"] = RegFileModel(spec.regfile)
    if spec.half_rename:
        techniques["rename"] = RenameModel.HALF_PORTS
    if spec.half_bypass:
        techniques["bypass"] = BypassModel.HALF
    if not spec.predictor:
        techniques["predictor_entries"] = None
    if techniques:
        config = config.with_techniques(**techniques)
    if spec.backend != config.backend:
        config = dataclasses.replace(config, backend=spec.backend)
    return config


@dataclass(frozen=True)
class RunSpec:
    """One benchmark simulation request (job kind ``run``)."""

    benchmark: str
    width: int = 4
    scheduler: str = SchedulerModel.BASE.value
    regfile: str = RegFileModel.BASE.value
    half_rename: bool = False
    half_bypass: bool = False
    predictor: bool = True
    seed: int = 42
    insts: int = 15_000
    warmup: int = 20_000
    shadow: bool = False
    priority: int = 0
    #: cycle-loop backend the job asks for ("python"/"native"); part of
    #: the config and therefore of the fingerprint, so coalescing and cached
    #: results never cross backends.  A server-side ``REPRO_BACKEND``
    #: override still wins inside the runner (stats are bit-identical
    #: either way — only cache locality differs).
    backend: str = "python"

    kind = "run"

    def config(self) -> MachineConfig:
        """Build the machine this spec describes (CLI flag semantics)."""
        return _machine_config(self)

    @property
    def shadow_sizes(self) -> tuple[int, ...] | None:
        return SHADOW_SIZES if self.shadow else None

    def fingerprint(self) -> str:
        """The result-cache digest — the coalescing/idempotency key."""
        return cache_fingerprint(
            self.benchmark, self.seed, self.insts, self.warmup, self.config(), self.shadow_sizes
        )

    def as_wire(self) -> dict:
        document = dataclasses.asdict(self)
        document["kind"] = self.kind
        return document


@dataclass(frozen=True)
class VerifySpec:
    """One differential-verification replay request (job kind ``verify``)."""

    source: str
    #: config-matrix filter names (:func:`repro.verify.config_matrix`);
    #: None replays the full 8-machine matrix
    configs: tuple[str, ...] | None = None
    budget: int = 50_000
    priority: int = 0

    kind = "verify"

    def fingerprint(self) -> str:
        identity = {
            "kind": self.kind,
            "model_version": TIMING_MODEL_VERSION,
            "source": self.source,
            "configs": list(self.configs) if self.configs else None,
            "budget": self.budget,
        }
        payload = json.dumps(identity, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def as_wire(self) -> dict:
        return {
            "kind": self.kind,
            "source": self.source,
            "configs": list(self.configs) if self.configs else None,
            "budget": self.budget,
            "priority": self.priority,
        }


@dataclass(frozen=True)
class TraceSpec:
    """One tracefile simulation request (job kind ``trace``).

    ``trace`` is a human reference (corpus name or path) used to *open*
    the file on the executing worker; ``content_hash`` is the identity.
    The fingerprint — hence coalescing, caching and idempotent
    resubmission — keys only on the hash, so the same trace content
    served from different paths or checkouts is one job.
    """

    trace: str
    #: ``trace_sha256`` from the tracefile header.  Filled in by the
    #: parser (reading the local header) when the caller omits it;
    #: trusted verbatim when present, so journal replays are lossless
    #: and need no tracefile on disk at parse time.
    content_hash: str
    width: int = 4
    scheduler: str = SchedulerModel.BASE.value
    regfile: str = RegFileModel.BASE.value
    half_rename: bool = False
    half_bypass: bool = False
    predictor: bool = True
    #: instruction budget; None simulates the whole trace
    insts: int | None = None
    warmup: int = 0
    #: SimPoint-style sampled simulation instead of a full run
    sampled: bool = False
    interval: int = DEFAULT_INTERVAL
    k: int = DEFAULT_K
    sample_warmup: int = DEFAULT_SAMPLE_WARMUP
    dims: int = DEFAULT_DIMS
    sample_seed: int = DEFAULT_SAMPLE_SEED
    warm_caches: bool = True
    shadow: bool = False
    priority: int = 0
    backend: str = "python"

    kind = "trace"

    def config(self) -> MachineConfig:
        """Build the machine this spec describes (CLI flag semantics)."""
        return _machine_config(self)

    @property
    def shadow_sizes(self) -> tuple[int, ...] | None:
        return SHADOW_SIZES if self.shadow else None

    def fingerprint(self) -> str:
        """The result-cache digest — keyed on the trace content hash."""
        # Deferred: only trace jobs need the trace stack.
        from repro.trace.run import sampled_fingerprint, trace_fingerprint

        if self.sampled:
            return sampled_fingerprint(
                self.content_hash,
                self.config(),
                interval=self.interval,
                k=self.k,
                warmup=self.sample_warmup,
                dims=self.dims,
                seed=self.sample_seed,
                warm_caches=self.warm_caches,
                shadow_sizes=self.shadow_sizes,
            )
        return trace_fingerprint(
            self.content_hash,
            self.config(),
            insts=self.insts,
            warmup=self.warmup,
            shadow_sizes=self.shadow_sizes,
        )

    def as_wire(self) -> dict:
        document = dataclasses.asdict(self)
        document["kind"] = self.kind
        return document


JobSpec = RunSpec | VerifySpec | TraceSpec

_RUN_KEYS = frozenset(
    (
        "kind",
        "benchmark",
        "width",
        "scheduler",
        "regfile",
        "half_rename",
        "half_bypass",
        "predictor",
        "seed",
        "insts",
        "warmup",
        "shadow",
        "priority",
        "backend",
    )
)
_VERIFY_KEYS = frozenset(("kind", "source", "configs", "budget", "priority"))
_TRACE_KEYS = frozenset(
    (
        "kind",
        "trace",
        "content_hash",
        "width",
        "scheduler",
        "regfile",
        "half_rename",
        "half_bypass",
        "predictor",
        "insts",
        "warmup",
        "sampled",
        "interval",
        "k",
        "sample_warmup",
        "dims",
        "sample_seed",
        "warm_caches",
        "shadow",
        "priority",
        "backend",
    )
)


def _parse_run(payload: dict) -> RunSpec:
    benchmark = payload.get("benchmark")
    _require(isinstance(benchmark, str) and bool(benchmark), "benchmark is required")
    _require(
        benchmark in SPEC_BENCHMARKS,
        f"unknown benchmark {benchmark!r} (known: {', '.join(SPEC_BENCHMARKS)})",
    )
    width = payload.get("width", 4)
    _require(width in (4, 8), "width must be 4 or 8")
    backend = payload.get("backend", "python")
    _require(
        backend in BACKENDS,
        f"unknown backend {backend!r} (known: {', '.join(BACKENDS)})",
    )
    spec = RunSpec(
        benchmark=benchmark,
        width=width,
        scheduler=_enum_value(payload, "scheduler", SchedulerModel, SchedulerModel.BASE.value),
        regfile=_enum_value(payload, "regfile", RegFileModel, RegFileModel.BASE.value),
        half_rename=_get_bool(payload, "half_rename", False),
        half_bypass=_get_bool(payload, "half_bypass", False),
        predictor=_get_bool(payload, "predictor", True),
        seed=_get_int(payload, "seed", 42, minimum=0),
        insts=_get_int(payload, "insts", 15_000),
        warmup=_get_int(payload, "warmup", 20_000, minimum=0),
        shadow=_get_bool(payload, "shadow", False),
        priority=_get_int(payload, "priority", 0, minimum=-(10**6)),
        backend=backend,
    )
    spec.config()  # surface ConfigurationError-shaped problems as 400s
    return spec


def _parse_verify(payload: dict) -> VerifySpec:
    source = payload.get("source")
    _require(isinstance(source, str) and bool(source.strip()), "source is required")
    configs = payload.get("configs")
    if configs is not None:
        _require(
            isinstance(configs, (list, tuple))
            and all(isinstance(name, str) for name in configs)
            and bool(configs),
            "configs must be a non-empty list of names",
        )
        # Validate the filter now (unknown names raise ConfigurationError).
        from repro.verify import config_matrix

        try:
            config_matrix(names=list(configs))
        except ReproError as error:
            raise ProtocolError(str(error)) from None
        configs = tuple(configs)
    return VerifySpec(
        source=source,
        configs=configs,
        budget=_get_int(payload, "budget", 50_000),
        priority=_get_int(payload, "priority", 0, minimum=-(10**6)),
    )


def _parse_trace(payload: dict) -> TraceSpec:
    trace = payload.get("trace")
    _require(isinstance(trace, str) and bool(trace.strip()), "trace is required")
    width = payload.get("width", 4)
    _require(width in (4, 8), "width must be 4 or 8")
    backend = payload.get("backend", "python")
    _require(
        backend in BACKENDS,
        f"unknown backend {backend!r} (known: {', '.join(BACKENDS)})",
    )
    content_hash = payload.get("content_hash")
    if content_hash is None:
        # Deferred: only trace jobs need the trace stack.
        from repro.trace.corpus import resolve_trace
        from repro.trace.format import read_header

        try:
            content_hash = read_header(resolve_trace(trace))["trace_sha256"]
        except ReproError as error:
            raise ProtocolError(str(error)) from None
    _require(
        isinstance(content_hash, str) and bool(content_hash),
        "content_hash must be a non-empty string",
    )
    insts = payload.get("insts")
    if insts is not None:
        _require(
            isinstance(insts, int) and not isinstance(insts, bool) and insts >= 1,
            "insts must be >= 1 (or null for the whole trace)",
        )
    spec = TraceSpec(
        trace=trace,
        content_hash=content_hash,
        width=width,
        scheduler=_enum_value(payload, "scheduler", SchedulerModel, SchedulerModel.BASE.value),
        regfile=_enum_value(payload, "regfile", RegFileModel, RegFileModel.BASE.value),
        half_rename=_get_bool(payload, "half_rename", False),
        half_bypass=_get_bool(payload, "half_bypass", False),
        predictor=_get_bool(payload, "predictor", True),
        insts=insts,
        warmup=_get_int(payload, "warmup", 0, minimum=0),
        sampled=_get_bool(payload, "sampled", False),
        interval=_get_int(payload, "interval", DEFAULT_INTERVAL),
        k=_get_int(payload, "k", DEFAULT_K),
        sample_warmup=_get_int(payload, "sample_warmup", DEFAULT_SAMPLE_WARMUP, minimum=0),
        dims=_get_int(payload, "dims", DEFAULT_DIMS),
        sample_seed=_get_int(payload, "sample_seed", DEFAULT_SAMPLE_SEED, minimum=0),
        warm_caches=_get_bool(payload, "warm_caches", True),
        shadow=_get_bool(payload, "shadow", False),
        priority=_get_int(payload, "priority", 0, minimum=-(10**6)),
        backend=backend,
    )
    spec.config()  # surface ConfigurationError-shaped problems as 400s
    return spec


def parse_spec(payload: object) -> JobSpec:
    """Validate one wire-level job spec; raises :class:`ProtocolError`."""
    _require(isinstance(payload, dict), "job spec must be a JSON object")
    assert isinstance(payload, dict)
    kind = payload.get("kind", "run")
    if kind == "run":
        unknown = set(payload) - _RUN_KEYS
        _require(not unknown, f"unknown run-spec field(s): {', '.join(sorted(unknown))}")
        return _parse_run(payload)
    if kind == "verify":
        unknown = set(payload) - _VERIFY_KEYS
        _require(not unknown, f"unknown verify-spec field(s): {', '.join(sorted(unknown))}")
        return _parse_verify(payload)
    if kind == "trace":
        unknown = set(payload) - _TRACE_KEYS
        _require(not unknown, f"unknown trace-spec field(s): {', '.join(sorted(unknown))}")
        return _parse_trace(payload)
    raise ProtocolError(f"unknown job kind {kind!r} (known: run, verify, trace)")


def parse_batch_with_ids(payload: object) -> tuple[list[JobSpec], list[str] | None]:
    """Parse a ``POST /v1/jobs`` body: specs plus optional assigned ids.

    The ``"ids"`` list (parallel to ``"jobs"``) lets a trusted caller —
    the cluster router — pin its own job ids onto a worker, so one job
    keeps a single identity across the whole cluster.  Absent ``"ids"``,
    the server assigns ids as before.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    assert isinstance(payload, dict)
    if "jobs" in payload:
        jobs = payload["jobs"]
        _require(isinstance(jobs, list) and bool(jobs), "jobs must be a non-empty list")
        extra = set(payload) - {"jobs", "ids"}
        _require(not extra, f"unknown batch field(s): {', '.join(sorted(extra))}")
        specs = [parse_spec(entry) for entry in jobs]
        ids = payload.get("ids")
        if ids is not None:
            _require(
                isinstance(ids, list)
                and len(ids) == len(specs)
                and all(isinstance(job_id, str) and job_id for job_id in ids),
                "ids must be a list of job-id strings parallel to jobs",
            )
        return specs, ids
    return [parse_spec(payload)], None


def parse_batch(payload: object) -> list[JobSpec]:
    """Parse a ``POST /v1/jobs`` body: a single spec or ``{"jobs": [...]}``."""
    specs, _ids = parse_batch_with_ids(payload)
    return specs
