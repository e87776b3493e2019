"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show available benchmarks, kernels and experiments;
* ``run`` — simulate a synthetic benchmark on a configured machine;
* ``kernel`` — run an assembly kernel (optionally with a pipeline trace);
* ``experiment`` — regenerate one or more of the paper's tables/figures;
* ``prefetch`` — warm the on-disk result cache with the base-machine runs;
* ``export-stats`` — write schema-versioned stats JSON, one per run;
* ``trace`` — the tracefile toolbox (docs/TRACES.md): ``capture`` a
  kernel/benchmark execution to a binary tracefile, ``info`` a
  tracefile's header, ``run`` a tracefile (full or SimPoint-sampled),
  and ``render`` a pipeline trace (ASCII or Chrome/Perfetto JSON);
* ``workloads`` — list kernels, synthetic profiles and the trace corpus;
* ``report`` — regression scorecard: diff a stats tree against a baseline;
* ``fuzz`` — differential fuzzing: random programs co-simulated against
  the functional emulator with pipeline invariant checkers armed
  (docs/VERIFICATION.md), with failure shrinking and corpus replay;
* ``serve`` — run the HTTP job server (simulation-as-a-service with
  request coalescing and backpressure, docs/SERVING.md);
* ``submit`` — submit runs to a serve endpoint and optionally wait;
* ``jobs`` — list or inspect jobs on a serve endpoint.

``experiment``, ``prefetch`` and ``export-stats`` accept ``--jobs N`` to
fan independent simulations over N worker processes (docs/PERFORMANCE.md);
the observability pipeline is described in docs/OBSERVABILITY.md.

Every failure exits nonzero with a one-line ``error: ...`` message on
stderr — library errors never surface as tracebacks.
"""

from __future__ import annotations

import argparse
import sys

import repro
from repro.analysis import experiments as experiment_defs
from repro.analysis.report import render
from repro.analysis.runner import ExperimentRunner
from repro.obs.chrometrace import write_chrome_trace
from repro.obs.scorecard import (
    DEFAULT_TOLERANCES,
    compare_trees,
    render_scorecard,
)
from repro.pipeline.config import (
    EIGHT_WIDE,
    FOUR_WIDE,
    BypassModel,
    RegFileModel,
    RenameModel,
    SchedulerModel,
)
from repro.errors import ReproError
from repro.fastsim import BACKENDS, apply_backend, make_processor
from repro.pipeline.pipetrace import render_pipetrace
from repro.pipeline.processor import Processor
from repro.workloads.feed import EmulatorFeed
from repro.workloads.kernels import KERNELS, kernel_program
from repro.workloads.profiles import SPEC_BENCHMARKS, get_profile
from repro.workloads.synthetic import SyntheticWorkload


def _machine(args) -> "MachineConfig":
    config = FOUR_WIDE if args.width == 4 else EIGHT_WIDE
    techniques = {}
    if args.scheduler != "base":
        techniques["scheduler"] = SchedulerModel(args.scheduler)
    if args.regfile != "base":
        techniques["regfile"] = RegFileModel(args.regfile)
    if args.half_rename:
        techniques["rename"] = RenameModel.HALF_PORTS
    if args.half_bypass:
        techniques["bypass"] = BypassModel.HALF
    if args.no_predictor:
        techniques["predictor_entries"] = None
    if techniques:
        config = config.with_techniques(**techniques)
    return config


def _add_machine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=4, choices=(4, 8))
    parser.add_argument(
        "--scheduler", default="base", choices=[m.value for m in SchedulerModel]
    )
    parser.add_argument(
        "--regfile", default="base", choices=[m.value for m in RegFileModel]
    )
    parser.add_argument("--half-rename", action="store_true")
    parser.add_argument("--half-bypass", action="store_true")
    parser.add_argument("--no-predictor", action="store_true")


def _print_summary(result, processor) -> None:
    stats = result.stats
    print(f"machine:   {result.config_name}")
    print(f"workload:  {result.workload_name}")
    print(f"cycles:    {stats.cycles}")
    print(f"committed: {stats.committed}")
    print(f"IPC:       {stats.ipc:.4f}")
    print(f"branch mispredict rate: {stats.branch_mispredict_rate:.2%}")
    print(f"DL1 miss rate:          {processor.memory.dl1.stats.miss_rate:.2%}")
    print(f"replayed issues:        {stats.replayed}")
    print(f"load-miss replays:      {stats.load_miss_replays}")
    if stats.sequential_rf_accesses:
        print(f"sequential RF accesses: {stats.sequential_rf_accesses}")
    if stats.tag_elim_misschedules:
        print(f"tag-elim misschedules:  {stats.tag_elim_misschedules}")
    if stats.rename_port_stalls:
        print(f"rename port stalls:     {stats.rename_port_stalls}")
    if stats.double_bypass_delays:
        print(f"double-bypass delays:   {stats.double_bypass_delays}")


def _cmd_list(args) -> int:
    print("benchmarks: " + ", ".join(SPEC_BENCHMARKS))
    print("kernels:    " + ", ".join(sorted(KERNELS)))
    print("experiments:" + " " + ", ".join(experiment_defs.ALL_EXPERIMENTS))
    return 0


def _cmd_run(args) -> int:
    config = apply_backend(_machine(args), args.backend)
    workload = SyntheticWorkload(get_profile(args.benchmark), seed=args.seed)
    processor = make_processor(
        workload, config, backend=config.backend, profile=args.profile
    )
    result = processor.run(max_insts=args.insts, warmup=args.warmup)
    _print_summary(result, processor)
    if processor.profiler is not None:
        print()
        print("stage wall time (profiled):")
        total = sum(processor.profiler.seconds.values()) or 1.0
        for name, seconds in sorted(
            processor.profiler.seconds.items(), key=lambda kv: -kv[1]
        ):
            print(f"  {name:<18} {seconds * 1e3:8.2f} ms  {seconds / total:6.1%}")
    return 0


def _cmd_kernel(args) -> int:
    config = _machine(args)
    feed = EmulatorFeed(kernel_program(args.name), name=args.name)
    processor = Processor(feed, config, record_schedule=args.pipetrace > 0)
    result = processor.run(max_insts=10**7, warmup=0)
    _print_summary(result, processor)
    if args.pipetrace > 0:
        print()
        print(render_pipetrace(processor, first_seq=0, count=args.pipetrace))
    return 0


def _cmd_experiment(args) -> int:
    runner = ExperimentRunner(
        insts=args.insts,
        warmup=args.warmup,
        benchmarks=tuple(args.benchmarks.split(",")) if args.benchmarks else None,
        jobs=args.jobs,
    )
    names = list(experiment_defs.ALL_EXPERIMENTS) if "all" in args.ids else args.ids
    for name in names:
        function = experiment_defs.ALL_EXPERIMENTS.get(name)
        if function is None:
            print(f"unknown experiment {name!r}", file=sys.stderr)
            return 2
        print(render(function(runner)))
        print()
    return 0


def _cmd_prefetch(args) -> int:
    runner = ExperimentRunner(
        insts=args.insts,
        warmup=args.warmup,
        benchmarks=tuple(args.benchmarks.split(",")) if args.benchmarks else None,
        jobs=args.jobs,
    )
    if runner.cache is None:
        print("result cache is disabled (REPRO_CACHE=0); nothing to warm")
        return 2
    executed = runner.prefetch_base()
    print(f"cache dir: {runner.cache.directory}")
    print(f"simulated: {executed}")
    print(f"served from disk: {runner.cache.hits}")
    _print_pool_summary()
    return 0


def _print_pool_summary() -> None:
    """One line of warm-pool stats, if a fan-out actually started one."""
    from repro.analysis.pool import maybe_pool

    pool = maybe_pool()
    if pool is None:
        return
    metrics = pool.registry.as_dict()
    dispatches = metrics.get("pool.dispatches", 0)
    if not dispatches:
        return
    chunks = metrics.get("pool.chunks_sent", 0)
    jobs = metrics.get("pool.jobs_dispatched", 0)
    print(
        f"pool: {jobs} job(s) over {dispatches} dispatch(es) in {chunks} "
        f"chunk(s), {metrics.get('pool.worker_starts', 0)} worker start(s), "
        f"{metrics.get('pool.worker_reuse_hits', 0)} warm reuse(s), "
        f"{metrics.get('pool.crash_replacements', 0)} crash replacement(s)"
    )


def _cmd_export_stats(args) -> int:
    config = _machine(args)
    benchmarks = (
        SPEC_BENCHMARKS if args.benchmarks == ["all"] else tuple(args.benchmarks)
    )
    unknown = [name for name in benchmarks if name not in SPEC_BENCHMARKS]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    runner = ExperimentRunner(
        insts=args.insts,
        warmup=args.warmup,
        seed=args.seed,
        benchmarks=tuple(benchmarks),
        jobs=args.jobs,
        cache=not args.no_cache,
    )
    paths = runner.export_stats(args.out, configs=(config,), workers=args.jobs)
    for path in paths:
        print(path)
    return 0


def _cmd_trace(args) -> int:
    handlers = {
        "render": _cmd_trace_render,
        "capture": _cmd_trace_capture,
        "info": _cmd_trace_info,
        "run": _cmd_trace_run,
    }
    return handlers[args.trace_command](args)


def _cmd_trace_render(args) -> int:
    config = _machine(args)
    if args.name in KERNELS:
        feed = EmulatorFeed(kernel_program(args.name), name=args.name)
    elif args.name in SPEC_BENCHMARKS:
        feed = SyntheticWorkload(get_profile(args.name), seed=args.seed)
    else:
        print(f"unknown kernel/benchmark {args.name!r}", file=sys.stderr)
        return 2
    processor = Processor(feed, config, record_schedule=True)
    processor.run(max_insts=args.insts, warmup=0)
    if args.format == "chrome":
        out = args.out or f"{args.name}.trace.json"
        path = write_chrome_trace(
            processor, out, first_seq=args.first, count=args.count
        )
        print(f"wrote {path} (open in chrome://tracing or ui.perfetto.dev)")
    else:
        print(render_pipetrace(processor, first_seq=args.first, count=args.count or 16))
    return 0


def _kernel_kwargs(pairs: list[str]) -> dict:
    kwargs = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key or not value:
            raise ReproError(f"--arg wants NAME=INT, got {pair!r}")
        try:
            kwargs[key] = int(value)
        except ValueError:
            raise ReproError(f"--arg value for {key!r} must be an integer") from None
    return kwargs


def _cmd_trace_capture(args) -> int:
    from repro.trace import (
        CORPUS_BY_NAME,
        capture_corpus_entry,
        capture_kernel,
        capture_stream,
        corpus_path,
    )

    if args.corpus is None and args.source is None:
        print("error: give a kernel/benchmark name or --corpus NAME", file=sys.stderr)
        return 2
    if args.corpus is not None:
        entry = CORPUS_BY_NAME.get(args.corpus)
        if entry is None:
            known = ", ".join(sorted(CORPUS_BY_NAME))
            print(f"unknown corpus trace {args.corpus!r} (corpus: {known})", file=sys.stderr)
            return 2
        path = corpus_path(entry)
        header = capture_corpus_entry(entry, path)
    elif args.source in KERNELS:
        path = args.out or f"{args.source}.hpt"
        header = capture_kernel(
            args.source,
            path,
            name=args.name or args.source,
            limit=args.limit,
            **_kernel_kwargs(args.arg),
        )
    elif args.source in SPEC_BENCHMARKS:
        if args.limit is None:
            print(
                "error: synthetic benchmarks are unbounded; --limit is required",
                file=sys.stderr,
            )
            return 2
        path = args.out or f"{args.source}.hpt"
        workload = SyntheticWorkload(get_profile(args.source), seed=args.seed)
        header = capture_stream(
            workload,
            path,
            name=args.name or f"{args.source}-s{args.seed}",
            limit=args.limit,
            source={"kind": "synthetic", "benchmark": args.source, "seed": args.seed},
        )
    else:
        print(f"unknown kernel/benchmark {args.source!r}", file=sys.stderr)
        return 2
    print(
        f"captured {header['name']}  insts={header['insts']}  "
        f"sha={header['trace_sha256'][:12]}  -> {path}"
    )
    return 0


def _cmd_trace_info(args) -> int:
    from repro.trace import resolve_trace, trace_info

    info = trace_info(resolve_trace(args.trace))
    for key in (
        "path",
        "name",
        "insts",
        "bytes",
        "trace_sha256",
        "program_sha256",
        "isa_version",
        "format_version",
        "source",
    ):
        print(f"{key + ':':<16}{info[key]}")
    return 0


def _cmd_trace_run(args) -> int:
    from repro.analysis.cache import ResultCache
    from repro.trace import load_corpus_feed, run_full, run_sampled

    config = apply_backend(_machine(args), args.backend)
    feed = load_corpus_feed(args.trace)
    cache = None if args.no_cache else ResultCache.from_env()
    if args.sampled:
        report = run_sampled(
            feed,
            config,
            interval=args.interval,
            k=args.k,
            warmup=args.sample_warmup,
            dims=args.dims,
            seed=args.sample_seed,
            warm_caches=not args.no_warm_caches,
            cache=cache,
        )
        print(f"machine:   {report['config']}")
        print(f"trace:     {report['trace']} ({report['insts']} insts)")
        print(f"intervals: {report['intervals']} x {report['interval']}")
        print(f"clusters:  {report['clusters']} (of k={report['k']})")
        print(f"simulated: {report['simulated_insts']} insts "
              f"(coverage {report['coverage']:.3f})")
        print(f"weighted IPC: {report['weighted_ipc']:.4f}")
        if args.report_out is not None:
            import json

            from pathlib import Path

            out = Path(args.report_out)
            out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
            print(f"wrote {out}")
    else:
        result = run_full(
            feed, config, insts=args.insts, warmup=args.warmup, cache=cache
        )
        stats = result.stats
        print(f"machine:   {result.config_name}")
        print(f"trace:     {result.workload_name}")
        print(f"cycles:    {stats.cycles}")
        print(f"committed: {stats.committed}")
        print(f"IPC:       {stats.ipc:.4f}")
        print(f"branch mispredict rate: {stats.branch_mispredict_rate:.2%}")
    return 0


def _cmd_workloads(args) -> int:
    from repro.trace import corpus_listing

    print("kernels (assembled, run to completion):")
    for name in sorted(KERNELS):
        feed = EmulatorFeed(kernel_program(name), name=name)
        count = sum(1 for _ in feed)
        print(f"  {name:<14} {count:>8} insts")
    print()
    print("synthetic profiles (unbounded, seeded):")
    print("  " + ", ".join(SPEC_BENCHMARKS))
    print()
    print("trace corpus (workloads/traces/, see docs/TRACES.md):")
    for row in corpus_listing():
        parameters = ", ".join(f"{k}={v}" for k, v in row["kwargs"].items())
        origin = f"{row['kernel']}({parameters})"
        if row.get("missing"):
            state = (
                "uncommitted; captured by CI"
                if not row["committed"]
                else "MISSING — run scripts/make_corpus.py"
            )
            print(f"  {row['name']:<16} {origin:<24} [{state}]")
        elif row.get("error"):
            print(f"  {row['name']:<16} {origin:<24} [unreadable: {row['error']}]")
        else:
            print(
                f"  {row['name']:<16} {origin:<24} {row['insts']:>8} insts  "
                f"{row['bytes']:>7} B  sha {row['trace_sha256'][:12]}"
            )
    return 0


def _cmd_fuzz(args) -> int:
    # Imported here: the verify package is needed only by this command.
    from repro.verify import config_matrix, replay_corpus, run_fuzz

    config_names = None if args.configs == "all" else args.configs.split(",")
    configs = config_matrix(names=config_names)
    if args.backends is not None and not args.cross_backend:
        print("error: --backends requires --cross-backend", file=sys.stderr)
        return 2
    if args.replay is not None:
        from pathlib import Path

        if args.cross_backend:
            print("error: --cross-backend cannot be combined with --replay", file=sys.stderr)
            return 2
        if not Path(args.replay).exists():
            print(f"error: no such replay file or directory: {args.replay}", file=sys.stderr)
            return 2
        report = replay_corpus(args.replay, configs=configs, budget=args.budget)
    else:
        if args.gen_seed is not None:
            raw_seeds, programs = [args.gen_seed], 1
        else:
            raw_seeds, programs = None, args.programs

        def progress(done: int, total: int) -> None:
            if done % 50 == 0 or done == total:
                print(f"  fuzz progress: {done}/{total} programs", flush=True)

        report = run_fuzz(
            programs,
            seed=args.seed,
            configs=configs,
            budget=args.budget,
            shrink=not args.no_shrink,
            corpus_dir=args.out,
            max_failures=args.max_failures,
            raw_seeds=raw_seeds,
            progress=progress if not args.quiet else None,
            cross_backend=args.cross_backend,
            backends=(
                args.backends.split(",") if args.backends is not None else None
            ),
        )
    print(report.summary())
    for failure in report.failures:
        print()
        if failure.repro_path is not None:
            print(
                "repro: PYTHONPATH=src python -m repro fuzz "
                f"--replay {failure.repro_path}"
            )
        elif failure.seed is not None:
            print(
                "repro: PYTHONPATH=src python -m repro fuzz "
                f"--gen-seed {failure.seed} --configs {failure.config_name}"
            )
        if failure.shrunk_source is not None:
            print("shrunken repro:")
            print(failure.shrunk_source.rstrip())
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    tolerances = dict(DEFAULT_TOLERANCES)
    if args.tolerance is not None:
        tolerances[""] = args.tolerance
        tolerances["metrics"] = args.tolerance
    if args.ipc_tolerance is not None:
        tolerances["derived.ipc"] = args.ipc_tolerance
    card = compare_trees(args.baseline, args.current, tolerances)
    print(render_scorecard(card))
    return card.exit_code


def _machine_spec_fields(args, spec: dict) -> dict:
    """Fold submit's machine flags into a wire-level spec."""
    if args.scheduler != "base":
        spec["scheduler"] = args.scheduler
    if args.regfile != "base":
        spec["regfile"] = args.regfile
    if args.half_rename:
        spec["half_rename"] = True
    if args.half_bypass:
        spec["half_bypass"] = True
    if args.no_predictor:
        spec["predictor"] = False
    if args.shadow:
        spec["shadow"] = True
    if args.backend is not None:
        spec["backend"] = args.backend
    return spec


def _run_spec_from_args(args, benchmark: str) -> dict:
    """Wire-level run spec from submit's machine/run flags."""
    spec = {"kind": "run", "benchmark": benchmark, "width": args.width,
            "seed": args.seed, "priority": args.priority,
            "insts": args.insts if args.insts is not None else 15_000,
            "warmup": args.warmup if args.warmup is not None else 20_000}
    return _machine_spec_fields(args, spec)


def _trace_spec_from_args(args, ref: str) -> dict:
    """Wire-level trace spec; resolves the content hash locally if it can.

    A locally resolvable reference gets its ``content_hash`` pinned on the
    client, so the job identity is the trace *content* even if the server
    resolves the name to a different checkout path.  Unresolvable
    references are sent bare and resolved server-side at parse time.
    """
    spec = {"kind": "trace", "trace": ref, "width": args.width,
            "priority": args.priority}
    if args.insts is not None:
        spec["insts"] = args.insts
    if args.warmup is not None:
        spec["warmup"] = args.warmup
    if args.sampled:
        spec["sampled"] = True
    try:
        from repro.trace import read_header, resolve_trace

        spec["content_hash"] = read_header(resolve_trace(ref))["trace_sha256"]
    except ReproError:
        pass
    return _machine_spec_fields(args, spec)


def _cmd_serve(args) -> int:
    if args.router and args.worker:
        print("error: --router and --worker are mutually exclusive", file=sys.stderr)
        return 2
    if args.router:
        return _cmd_serve_router(args)
    from repro.analysis.cache import ResultCache
    from repro.serve.executor import JobExecutor
    from repro.serve.server import ServeServer, run_server

    if args.no_cache:
        cache: ResultCache | bool = False
    elif args.store is not None:
        cache = ResultCache(directory=args.store)
    else:
        cache = True
    server = ServeServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        spool=args.spool,
        executor=JobExecutor(cache=cache),
        name=args.name,
        batch=args.batch,
    )
    role = "worker" if args.worker else "serving"

    def announce(started: ServeServer) -> None:
        label = f" [{started.name}]" if started.name else ""
        print(f"{role}{label} on http://{started.host}:{started.port}", flush=True)
        if started.recovered:
            print(f"recovered {started.recovered} pending job(s) from {args.spool}", flush=True)

    code = run_server(server, announce=announce)
    pending = len(server.table.pending())
    completed = server.registry.get("serve.completed")
    print(
        f"drained: {completed.value if completed else 0} job(s) completed, "
        f"{pending} persisted for restart",
        flush=True,
    )
    return code


def _cmd_serve_router(args) -> int:
    from repro.serve.router import RouterServer, run_router

    if not args.worker_url:
        print(
            "error: --router needs at least one --worker-url "
            "(workers can also register at runtime via /v1/workers/register)",
            file=sys.stderr,
        )
        return 2
    router = RouterServer(
        host=args.host,
        port=args.port,
        workers=args.worker_url,
        spool=args.spool,
        queue_size=args.queue_size,
        steal_watermark=args.steal_watermark,
    )

    def announce(started: RouterServer) -> None:
        print(f"routing on http://{started.host}:{started.port}", flush=True)
        print(f"workers: {', '.join(started.ring.nodes())}", flush=True)
        if started.recovered:
            print(f"recovered {started.recovered} pending job(s) from {args.spool}", flush=True)

    code = run_router(router, announce=announce)
    pending = len(router.table.pending())
    completed = router.registry.get("router.completed")
    print(
        f"drained: {completed.value if completed else 0} job(s) completed, "
        f"{pending} persisted for restart",
        flush=True,
    )
    return code


def _cmd_submit(args) -> int:
    from repro.obs.export import write_stats_json
    from repro.serve.client import JobFailed, ServeClient

    if args.trace:
        if args.benchmarks == ["all"]:
            from repro.trace import CORPUS

            names = tuple(entry.name for entry in CORPUS if entry.committed)
        else:
            names = tuple(args.benchmarks)
        specs = [_trace_spec_from_args(args, ref) for ref in names]
    else:
        if args.sampled:
            print("error: --sampled requires --trace", file=sys.stderr)
            return 2
        benchmarks = (
            SPEC_BENCHMARKS if args.benchmarks == ["all"] else tuple(args.benchmarks)
        )
        unknown = [name for name in benchmarks if name not in SPEC_BENCHMARKS]
        if unknown:
            print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        specs = [_run_spec_from_args(args, benchmark) for benchmark in benchmarks]
    client = ServeClient(args.server, timeout=args.timeout)
    receipts = client.submit(specs)
    for receipt in receipts:
        suffix = f" (coalesced into {receipt['coalesced_into']})" if receipt["coalesced"] else ""
        print(f"{receipt['id']}  {receipt['status']}{suffix}")
    if not args.wait:
        return 0
    failures = 0
    for receipt in receipts:
        try:
            document = client.wait(receipt["id"], timeout=args.timeout)
        except JobFailed as error:
            print(f"{receipt['id']}  failed: {error}", file=sys.stderr)
            failures += 1
            continue
        result = document["result"]
        if "report" in result:
            report = result["report"]
            print(
                f"{receipt['id']}  done  {report['trace']}  "
                f"weighted IPC {report['weighted_ipc']:.4f}  "
                f"coverage {report['coverage']:.3f}"
            )
            if args.out is not None:
                import json
                from pathlib import Path

                out_dir = Path(args.out)
                out_dir.mkdir(parents=True, exist_ok=True)
                out = out_dir / f"{report['trace']}.report.json"
                out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
                print(f"  wrote {out}")
            continue
        stats = result["stats"]
        ipc = stats["derived"]["ipc"]
        label = stats["run"]["workload"] if args.trace else stats["run"]["benchmark"]
        print(f"{receipt['id']}  done  {label}  IPC {ipc:.4f}")
        if args.out is not None:
            print(f"  wrote {write_stats_json(stats, args.out)}")
    return 1 if failures else 0


def _cmd_jobs(args) -> int:
    from repro.serve.client import ServeClient

    client = ServeClient(args.server, timeout=args.timeout)
    if args.id is not None:
        document = client.job(args.id)
        document.pop("result", None)
        for key in ("id", "kind", "status", "fingerprint", "coalesced_into", "error"):
            print(f"{key + ':':<16}{document.get(key)}")
        return 0
    jobs = client.jobs(status=args.status)
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        label = job["spec"].get("benchmark") or job["spec"].get("trace") or job["kind"]
        coalesced = f" -> {job['coalesced_into']}" if job.get("coalesced_into") else ""
        print(f"{job['id']}  {job['status']:<9} {label}{coalesced}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Half-Price Architecture reproduction CLI"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="show benchmarks/kernels/experiments")

    run_parser = subparsers.add_parser("run", help="simulate a synthetic benchmark")
    run_parser.add_argument("benchmark", choices=SPEC_BENCHMARKS)
    run_parser.add_argument("--insts", type=int, default=15_000)
    run_parser.add_argument("--warmup", type=int, default=20_000)
    run_parser.add_argument("--seed", type=int, default=42)
    run_parser.add_argument(
        "--profile", action="store_true",
        help="wall-time the pipeline stages and print the breakdown",
    )
    run_parser.add_argument(
        "--backend", default=None, choices=BACKENDS,
        help="cycle-loop backend (default: REPRO_BACKEND, then the config)",
    )
    _add_machine_arguments(run_parser)

    kernel_parser = subparsers.add_parser("kernel", help="run an assembly kernel")
    kernel_parser.add_argument("name", choices=sorted(KERNELS))
    kernel_parser.add_argument(
        "--pipetrace", type=int, default=0, metavar="N",
        help="render the pipeline timeline of the first N instructions",
    )
    _add_machine_arguments(kernel_parser)

    experiment_parser = subparsers.add_parser(
        "experiment", help="regenerate paper tables/figures"
    )
    experiment_parser.add_argument(
        "ids", nargs="+",
        help="experiment ids (see 'repro list'), or 'all'",
    )
    experiment_parser.add_argument("--insts", type=int, default=None)
    experiment_parser.add_argument("--warmup", type=int, default=None)
    experiment_parser.add_argument("--benchmarks", default=None)
    experiment_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent runs (default: REPRO_JOBS/CPUs)",
    )

    prefetch_parser = subparsers.add_parser(
        "prefetch", help="warm the on-disk result cache with base-machine runs"
    )
    prefetch_parser.add_argument("--insts", type=int, default=None)
    prefetch_parser.add_argument("--warmup", type=int, default=None)
    prefetch_parser.add_argument("--benchmarks", default=None)
    prefetch_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent runs (default: REPRO_JOBS/CPUs)",
    )

    export_parser = subparsers.add_parser(
        "export-stats",
        help="write schema-versioned stats JSON, one file per simulation",
    )
    export_parser.add_argument(
        "benchmarks", nargs="+",
        help="benchmark names (see 'repro list'), or 'all'",
    )
    export_parser.add_argument("--insts", type=int, default=None)
    export_parser.add_argument("--warmup", type=int, default=None)
    export_parser.add_argument("--seed", type=int, default=None)
    export_parser.add_argument(
        "--out", default="results/stats", metavar="DIR",
        help="output directory for *.stats.json (default: results/stats)",
    )
    export_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent runs (default: REPRO_JOBS/CPUs)",
    )
    export_parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache (always simulate)",
    )
    _add_machine_arguments(export_parser)

    trace_parser = subparsers.add_parser(
        "trace", help="tracefile capture/replay and pipeline-trace rendering"
    )
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command", required=True)

    trace_capture = trace_subparsers.add_parser(
        "capture", help="capture a kernel/benchmark execution to a tracefile"
    )
    trace_capture.add_argument(
        "source", nargs="?", default=None,
        help="kernel or benchmark name (omit with --corpus)",
    )
    trace_capture.add_argument(
        "--corpus", default=None, metavar="NAME",
        help="(re)capture a named corpus entry into workloads/traces/",
    )
    trace_capture.add_argument(
        "--out", default=None, metavar="FILE",
        help="output tracefile (default <source>.hpt)",
    )
    trace_capture.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="stop after N instructions (required for synthetic benchmarks)",
    )
    trace_capture.add_argument(
        "--arg", action="append", default=[], metavar="NAME=INT",
        help="kernel parameter, e.g. --arg n=16000 (repeatable)",
    )
    trace_capture.add_argument("--seed", type=int, default=42)
    trace_capture.add_argument(
        "--name", default=None, help="trace name recorded in the header"
    )

    trace_info = trace_subparsers.add_parser(
        "info", help="print a tracefile's self-describing header"
    )
    trace_info.add_argument("trace", help="corpus trace name or tracefile path")

    trace_run = trace_subparsers.add_parser(
        "run", help="simulate a tracefile (full, or SimPoint-sampled)"
    )
    trace_run.add_argument("trace", help="corpus trace name or tracefile path")
    trace_run.add_argument(
        "--insts", type=int, default=None,
        help="instruction budget (default: the whole trace)",
    )
    trace_run.add_argument("--warmup", type=int, default=0)
    trace_run.add_argument(
        "--sampled", action="store_true",
        help="SimPoint-style sampled simulation (docs/TRACES.md)",
    )
    trace_run.add_argument("--interval", type=int, default=10_000)
    trace_run.add_argument("--k", type=int, default=8)
    trace_run.add_argument("--sample-warmup", type=int, default=2_000)
    trace_run.add_argument("--dims", type=int, default=32)
    trace_run.add_argument("--sample-seed", type=int, default=1)
    trace_run.add_argument(
        "--no-warm-caches", action="store_true",
        help="skip cache-state reconstruction before sample windows",
    )
    trace_run.add_argument(
        "--report-out", default=None, metavar="FILE",
        help="with --sampled: write the sampling report JSON here",
    )
    trace_run.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache (always simulate)",
    )
    trace_run.add_argument(
        "--backend", default=None, choices=BACKENDS,
        help="cycle-loop backend (default: REPRO_BACKEND, then the config)",
    )
    _add_machine_arguments(trace_run)

    trace_render = trace_subparsers.add_parser(
        "render", help="render a pipeline trace (ASCII or Chrome trace JSON)"
    )
    trace_render.add_argument("name", help="kernel or benchmark name")
    trace_render.add_argument(
        "--format", choices=("ascii", "chrome"), default="ascii"
    )
    trace_render.add_argument("--insts", type=int, default=500)
    trace_render.add_argument("--seed", type=int, default=42)
    trace_render.add_argument(
        "--first", type=int, default=0, metavar="SEQ",
        help="first dynamic instruction to render",
    )
    trace_render.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="instructions to render (ascii default 16, chrome default all)",
    )
    trace_render.add_argument(
        "--out", default=None, metavar="FILE",
        help="chrome format: output path (default <name>.trace.json)",
    )
    _add_machine_arguments(trace_render)

    subparsers.add_parser(
        "workloads",
        help="list kernels, synthetic profiles and the trace corpus",
    )

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing vs the functional emulator, exit 1 on failure",
    )
    fuzz_parser.add_argument(
        "--programs", type=int, default=200, metavar="N",
        help="random programs to generate and check (default 200)",
    )
    fuzz_parser.add_argument("--seed", type=int, default=0)
    fuzz_parser.add_argument(
        "--gen-seed", type=int, default=None, metavar="N",
        help="check exactly one program, from this raw generator seed "
        "(the seed printed with a failure)",
    )
    fuzz_parser.add_argument(
        "--budget", type=int, default=50_000, metavar="STEPS",
        help="functional-emulator step budget per program (default 50000)",
    )
    fuzz_parser.add_argument(
        "--configs", default="all", metavar="NAMES",
        help="comma-separated matrix filter, e.g. 'tag-elim' or "
        "'base+nonsel,seq-wakeup+sel' (default: all 8 configurations)",
    )
    fuzz_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write shrunken repro files for failures into DIR",
    )
    fuzz_parser.add_argument(
        "--replay", default=None, metavar="PATH",
        help="replay a repro file, or every *.hpa case in a directory, "
        "instead of generating programs",
    )
    fuzz_parser.add_argument(
        "--cross-backend", action="store_true",
        help="run every program on all compared cycle-loop backends and diff "
        "the serialized stats byte-for-byte (the native parity gate)",
    )
    fuzz_parser.add_argument(
        "--backends", default=None, metavar="NAMES",
        help="comma-separated backend set for --cross-backend, e.g. "
        "'python,native'; every named backend must be installed "
        "(default: every installed backend)",
    )
    fuzz_parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip test-case minimization of failures",
    )
    fuzz_parser.add_argument(
        "--max-failures", type=int, default=5, metavar="N",
        help="stop fuzzing after N failures (default 5)",
    )
    fuzz_parser.add_argument("--quiet", action="store_true")

    report_parser = subparsers.add_parser(
        "report",
        help="regression scorecard: diff two stats-JSON trees, exit 1 on drift",
    )
    report_parser.add_argument(
        "--baseline", required=True, metavar="DIR",
        help="committed baseline tree (e.g. results/ci_baseline)",
    )
    report_parser.add_argument(
        "--current", default="results/stats", metavar="DIR",
        help="freshly exported tree to judge (default: results/stats)",
    )
    report_parser.add_argument(
        "--tolerance", type=float, default=None, metavar="FRAC",
        help="default relative drift tolerance (default 0.01)",
    )
    report_parser.add_argument(
        "--ipc-tolerance", type=float, default=None, metavar="FRAC",
        help="tolerance for derived.ipc (default 0.005)",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the HTTP job server (docs/SERVING.md)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8765,
        help="listen port (0 picks a free port, printed at startup)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent job executions (default 2)",
    )
    serve_parser.add_argument(
        "--queue-size", type=int, default=256, metavar="N",
        help="queued-job bound before 429 backpressure (default 256)",
    )
    serve_parser.add_argument(
        "--batch", type=int, default=None, metavar="N",
        help="max queued jobs one worker drains into a single batched "
        "execution (default REPRO_POOL_BATCH, else 8)",
    )
    serve_parser.add_argument(
        "--spool", default=None, metavar="DIR",
        help="persist pending jobs here; a restart resumes them",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache (always simulate)",
    )
    serve_parser.add_argument(
        "--router", action="store_true",
        help="run as the cluster router: shard jobs onto --worker-url workers "
        "by cache fingerprint (docs/SERVING.md, Cluster mode)",
    )
    serve_parser.add_argument(
        "--worker", action="store_true",
        help="run as a cluster worker (a job server meant to sit behind a "
        "router; give it --name and a shared --store)",
    )
    serve_parser.add_argument(
        "--worker-url", action="append", default=[], metavar="URL",
        help="router mode: a worker base URL (repeatable)",
    )
    serve_parser.add_argument(
        "--name", default=None, metavar="NAME",
        help="worker identity reported on /healthz",
    )
    serve_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="shared result-store directory (all cluster workers must agree)",
    )
    serve_parser.add_argument(
        "--steal-watermark", type=int, default=8, metavar="N",
        help="router mode: queue depth above which a hot worker's jobs are "
        "stolen by the least-loaded worker (default 8)",
    )

    submit_parser = subparsers.add_parser(
        "submit", help="submit runs to a serve endpoint"
    )
    submit_parser.add_argument(
        "benchmarks", nargs="+",
        help="benchmark names (see 'repro list'), or 'all'; with --trace, "
        "corpus trace names or tracefile paths ('all' = committed corpus)",
    )
    submit_parser.add_argument(
        "--server", default="http://127.0.0.1:8765", metavar="URL"
    )
    submit_parser.add_argument(
        "--trace", action="store_true",
        help="submit tracefile jobs instead of benchmark runs (docs/TRACES.md)",
    )
    submit_parser.add_argument(
        "--sampled", action="store_true",
        help="with --trace: SimPoint-sampled simulation instead of a full run",
    )
    submit_parser.add_argument(
        "--insts", type=int, default=None,
        help="instruction budget (default: 15000; --trace: the whole trace)",
    )
    submit_parser.add_argument(
        "--warmup", type=int, default=None,
        help="warmup instructions (default: 20000; --trace: 0)",
    )
    submit_parser.add_argument("--seed", type=int, default=42)
    submit_parser.add_argument("--shadow", action="store_true")
    submit_parser.add_argument(
        "--backend", default=None, choices=BACKENDS,
        help="cycle-loop backend the jobs should run on (default: server's choice)",
    )
    submit_parser.add_argument(
        "--priority", type=int, default=0,
        help="higher runs earlier (default 0)",
    )
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="block until every job finishes; exit 1 if any failed",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="per-request / per-job wait timeout (default 600)",
    )
    submit_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="with --wait: write each result as stats JSON under DIR",
    )
    _add_machine_arguments(submit_parser)

    jobs_parser = subparsers.add_parser(
        "jobs", help="list or inspect jobs on a serve endpoint"
    )
    jobs_parser.add_argument("id", nargs="?", default=None, help="job id to inspect")
    jobs_parser.add_argument(
        "--server", default="http://127.0.0.1:8765", metavar="URL"
    )
    jobs_parser.add_argument(
        "--status", default=None,
        help="filter the listing (queued/running/done/failed/cancelled)",
    )
    jobs_parser.add_argument("--timeout", type=float, default=30.0, metavar="S")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "kernel": _cmd_kernel,
        "experiment": _cmd_experiment,
        "prefetch": _cmd_prefetch,
        "export-stats": _cmd_export_stats,
        "trace": _cmd_trace,
        "workloads": _cmd_workloads,
        "report": _cmd_report,
        "fuzz": _cmd_fuzz,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
