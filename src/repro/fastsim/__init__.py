"""Backend selection for the cycle loop: python or native.

Two interchangeable cycle-loop backends exist:

* ``"python"`` — :class:`repro.pipeline.processor.Processor`, the reference
  implementation and the fallback on every host.  Supports every feature
  (lockstep checking, schedule traces, profiling, the Figure 5 dependence
  matrix).
* ``"native"`` — :class:`repro.fastsim.native.NativeProcessor`, a
  struct-of-arrays rewrite of the same timing model compiled as a C
  extension (``repro.fastsim._native``), with the stateful cold-path
  components (branch unit, last-arrival predictor, shadow banks) shared
  with the python backend through callbacks so the ``repro fuzz
  --cross-backend`` parity gate pins it byte-for-byte.  It supports only
  plain simulation runs — no checker, trace, profiler or dependence
  matrix — and needs the compiled artifact (``pip install -e .[native]``,
  requires a C compiler).

Selection precedence: an explicit ``--backend`` flag beats the
``REPRO_BACKEND`` environment variable, which beats the config's
``backend`` field, which defaults to ``"python"``.

Call :func:`apply_backend` once at the boundary (CLI, runner, serve) to
materialize the resolved backend into the :class:`MachineConfig`; from then
on the config is the single source of truth, the cache fingerprint includes
it, and :func:`make_processor` should be called with
``backend=config.backend`` so a later environment change cannot diverge
from what was fingerprinted.
"""

from __future__ import annotations

import dataclasses
import os

from repro.errors import ConfigurationError
from repro.pipeline.config import BACKENDS, MachineConfig
from repro.pipeline.processor import Processor

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV_VAR = "REPRO_BACKEND"


def native_available() -> bool:
    """Is the compiled ``_native`` extension importable and ABI-compatible?"""
    from repro.fastsim.native import native_available as probe

    return probe()


def available_backends() -> tuple[str, ...]:
    """The subset of :data:`BACKENDS` that can actually run here."""
    return BACKENDS if native_available() else ("python",)


def resolve_backend(
    explicit: str | None = None, config: MachineConfig | None = None
) -> str:
    """Resolve the backend name: flag > ``REPRO_BACKEND`` > config > python."""
    backend = explicit
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or None
    if backend is None and config is not None:
        backend = config.backend
    if backend is None:
        backend = "python"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
        )
    return backend


def apply_backend(config: MachineConfig, backend: str | None = None) -> MachineConfig:
    """Materialize the resolved backend into *config*.

    Returns a config whose ``backend`` field is the fully resolved choice,
    so everything keyed on the config — the result-cache fingerprint, serve
    job coalescing, stats exports — distinguishes backends and results are
    never served across them.
    """
    resolved = resolve_backend(backend, config)
    if config.backend == resolved:
        return config
    return dataclasses.replace(config, backend=resolved)


def make_processor(
    feed,
    config: MachineConfig,
    *,
    backend: str | None = None,
    shadow_sizes: tuple[int, ...] | None = None,
    record_schedule: bool = False,
    profile: bool = False,
    check: bool = False,
):
    """Build the processor the resolved backend asks for.

    The native backend rejects (with a clean
    :class:`ConfigurationError`) every feature that needs per-entry object
    state: lockstep checking, schedule traces, the stage profiler and the
    dependence-matrix cross-check all remain python-backend only.
    """
    resolved = resolve_backend(backend, config)
    if resolved == "python":
        return Processor(
            feed,
            config,
            shadow_sizes=shadow_sizes,
            record_schedule=record_schedule,
            profile=profile,
            check=check,
        )
    unsupported = None
    if check:
        unsupported = "lockstep checking (check=True)"
    elif record_schedule:
        unsupported = "schedule traces (record_schedule=True)"
    elif profile:
        unsupported = "stage profiling (profile=True)"
    elif config.use_dependence_matrix:
        unsupported = "the dependence-matrix cross-check"
    if unsupported is not None:
        raise ConfigurationError(
            f"backend {resolved!r} does not support {unsupported}; "
            "use the python backend for this run"
        )
    if not native_available():
        raise ConfigurationError(
            "backend 'native' needs the compiled extension; build it "
            "with pip install -e .[native] (requires a C compiler)"
        )
    from repro.fastsim.native import NativeProcessor

    return NativeProcessor(feed, config, shadow_sizes=shadow_sizes)
