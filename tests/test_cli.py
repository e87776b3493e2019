"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bzip" in out and "fibonacci" in out and "fig14" in out


class TestKernel:
    def test_kernel_summary(self, capsys):
        assert main(["kernel", "fibonacci"]) == 0
        out = capsys.readouterr().out
        assert "IPC:" in out and "committed:" in out

    def test_kernel_with_techniques(self, capsys):
        assert main(
            ["kernel", "dotproduct", "--scheduler", "seq_wakeup",
             "--regfile", "sequential", "--no-predictor"]
        ) == 0
        out = capsys.readouterr().out
        assert "seq_wakeup-nopred" in out

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["kernel", "doom"])


class TestRun:
    def test_run_benchmark(self, capsys):
        code = main(["run", "gzip", "--insts", "600", "--warmup", "600"])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload:  gzip" in out

    def test_run_with_extensions(self, capsys):
        code = main(
            ["run", "gzip", "--insts", "400", "--warmup", "400",
             "--half-rename", "--half-bypass", "--width", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "halfrename" in out and "halfbypass" in out


class TestExperiment:
    def test_timing_experiment(self, capsys):
        assert main(["experiment", "timing"]) == 0
        out = capsys.readouterr().out
        assert "466" in out and "1.710" in out

    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "RUU entries" in capsys.readouterr().out

    def test_small_simulation_experiment(self, capsys):
        code = main(
            ["experiment", "fig2", "--insts", "300", "--warmup", "300",
             "--benchmarks", "gzip"]
        )
        assert code == 0
        assert "gzip" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2


class TestExportStats:
    def test_export_writes_versioned_json(self, tmp_path, capsys):
        out = tmp_path / "stats"
        code = main(
            ["export-stats", "gzip", "--insts", "300", "--warmup", "150",
             "--seed", "5", "--no-cache", "--out", str(out), "--jobs", "1"]
        )
        assert code == 0
        files = sorted(out.glob("*.stats.json"))
        assert len(files) == 1
        document = json.loads(files[0].read_text())
        assert document["schema_version"] == 1
        assert document["run"]["benchmark"] == "gzip"
        assert str(files[0]) in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self, capsys):
        assert main(["export-stats", "doom", "--out", "/tmp/x"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestTraceRender:
    def test_ascii_kernel_trace(self, capsys):
        assert main(["trace", "render", "fibonacci", "--count", "6"]) == 0
        assert "legend:" in capsys.readouterr().out

    def test_ascii_benchmark_trace(self, capsys):
        assert main(["trace", "render", "gzip", "--insts", "200", "--count", "4"]) == 0
        assert "legend:" in capsys.readouterr().out

    def test_chrome_trace_file(self, tmp_path, capsys):
        out = tmp_path / "fib.trace.json"
        code = main(
            ["trace", "render", "fibonacci", "--format", "chrome", "--out", str(out)]
        )
        assert code == 0
        assert "perfetto" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert document["traceEvents"]

    def test_unknown_name_rejected(self, capsys):
        assert main(["trace", "render", "doom"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_verb_is_required(self):
        with pytest.raises(SystemExit):
            main(["trace", "fibonacci"])


class TestTraceFiles:
    def test_capture_info_run_round_trip(self, tmp_path, capsys):
        out = tmp_path / "fib.hpt"
        assert main(["trace", "capture", "fibonacci", "--out", str(out)]) == 0
        assert "captured fibonacci" in capsys.readouterr().out
        assert main(["trace", "info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "insts:" in info and "trace_sha256:" in info
        assert main(["trace", "run", str(out), "--no-cache"]) == 0
        summary = capsys.readouterr().out
        assert "IPC:" in summary and "fibonacci" in summary

    def test_capture_kernel_args_change_the_trace(self, tmp_path, capsys):
        small = tmp_path / "small.hpt"
        big = tmp_path / "big.hpt"
        assert main(["trace", "capture", "vector_sum", "--out", str(small)]) == 0
        assert main(
            ["trace", "capture", "vector_sum", "--arg", "n=200", "--out", str(big)]
        ) == 0
        capsys.readouterr()
        assert small.read_bytes() != big.read_bytes()

    def test_capture_synthetic_needs_limit(self, tmp_path, capsys):
        out = tmp_path / "gz.hpt"
        assert main(["trace", "capture", "gzip", "--out", str(out)]) == 2
        assert "--limit" in capsys.readouterr().err
        assert main(
            ["trace", "capture", "gzip", "--limit", "500", "--out", str(out)]
        ) == 0

    def test_sampled_run_prints_weighted_ipc(self, tmp_path, capsys):
        out = tmp_path / "dot.hpt"
        assert main(
            ["trace", "capture", "dotproduct", "--arg", "n=2500", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        report = tmp_path / "report.json"
        code = main(
            ["trace", "run", str(out), "--sampled", "--interval", "2000",
             "--no-cache", "--report-out", str(report)]
        )
        assert code == 0
        assert "weighted IPC" in capsys.readouterr().out
        document = json.loads(report.read_text())
        assert document["weighted_ipc"] > 0 and document["samples"]

    def test_zero_insts_is_refused_and_leaves_the_store_empty(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--insts 0`` used to publish a 0-instruction result under the
        whole-trace key, which the next whole-trace run then served."""
        store = tmp_path / "store"
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(store))
        assert main(["trace", "run", "vector_sum_80k", "--insts", "0"]) != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--insts" in err
        assert not list(store.rglob("*.json"))

    def test_unknown_trace_is_one_line_error(self, capsys):
        assert main(["trace", "info", "no_such_trace"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestWorkloads:
    def test_listing_covers_all_three_sections(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "kernels" in out and "fibonacci" in out
        assert "synthetic profiles" in out and "bzip" in out
        assert "trace corpus" in out and "vector_sum_80k" in out


class TestRunProfile:
    def test_run_profile_prints_stage_breakdown(self, capsys):
        code = main(
            ["run", "gzip", "--insts", "300", "--warmup", "150", "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stage wall time" in out and "select_and_issue" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_machine_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "bzip", "--scheduler", "tag_elim", "--width", "8"]
        )
        assert args.scheduler == "tag_elim" and args.width == 8


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestErrorExits:
    """Every failure is one readable line and a nonzero exit — no tracebacks."""

    def test_fuzz_replay_missing_path(self, capsys):
        assert main(["fuzz", "--replay", "/nonexistent/corpus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" == err[-1]

    def test_submit_to_dead_server_is_one_line_error(self, capsys):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here
        code = main(
            ["submit", "gzip", "--server", f"http://127.0.0.1:{port}",
             "--insts", "200", "--warmup", "100"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_submit_unknown_benchmark(self, capsys):
        assert main(["submit", "doom", "--server", "http://127.0.0.1:1"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestServeCommands:
    @pytest.fixture
    def served(self, tmp_path):
        from repro.analysis.cache import ResultCache
        from repro.serve.executor import JobExecutor
        from tests.serve.background import BackgroundServer

        background = BackgroundServer(
            port=0, workers=2, spool=tmp_path / "spool",
            executor=JobExecutor(cache=ResultCache(tmp_path / "cache")),
        )
        with background:
            yield background

    def test_submit_wait_and_write_stats(self, served, tmp_path, capsys):
        out = tmp_path / "stats"
        code = main(
            ["submit", "gzip", "gcc", "--server", served.base_url,
             "--insts", "200", "--warmup", "100", "--wait",
             "--timeout", "120", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "done" in stdout and "IPC" in stdout
        assert len(sorted(out.glob("*.stats.json"))) == 2

    def test_jobs_list_and_inspect(self, served, capsys):
        assert main(
            ["submit", "gzip", "--server", served.base_url,
             "--insts", "200", "--warmup", "100", "--wait", "--timeout", "120"]
        ) == 0
        capsys.readouterr()
        assert main(["jobs", "--server", served.base_url]) == 0
        listing = capsys.readouterr().out
        assert "j-000001" in listing and "gzip" in listing
        assert main(["jobs", "j-000001", "--server", served.base_url]) == 0
        detail = capsys.readouterr().out
        assert "status:" in detail and "done" in detail

    def test_submit_trace_full_and_sampled(self, served, tmp_path, capsys):
        code = main(
            ["submit", "--trace", "vector_sum_80k", "--server", served.base_url,
             "--insts", "5000", "--wait", "--timeout", "120"]
        )
        assert code == 0
        assert "IPC" in capsys.readouterr().out
        out = tmp_path / "reports"
        code = main(
            ["submit", "--trace", "vector_sum_80k", "--sampled",
             "--server", served.base_url, "--wait", "--timeout", "120",
             "--out", str(out)]
        )
        assert code == 0
        assert "weighted IPC" in capsys.readouterr().out
        report = json.loads((out / "vector_sum_80k.report.json").read_text())
        assert report["weighted_ipc"] > 0

    def test_jobs_unknown_id_is_one_line_error(self, served, capsys):
        assert main(["jobs", "j-999999", "--server", served.base_url]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
