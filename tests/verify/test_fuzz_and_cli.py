"""Fuzz orchestration, configuration matrix, repro files, and the CLI."""

import pytest

from repro.cli import main
from repro.core.wakeup import WakeupLogic
from repro.errors import ConfigurationError
from repro.pipeline.config import RecoveryModel, RegFileModel, SchedulerModel
from repro.verify import (
    FuzzReport,
    ReproCase,
    check_source,
    config_matrix,
    generate_source,
    read_repro,
    run_fuzz,
    write_repro,
)


class TestConfigMatrix:
    def test_full_matrix_is_eight_machines(self):
        matrix = config_matrix()
        assert len(matrix) == 8
        assert len({config.name for config in matrix}) == 8
        schedulers = {config.scheduler for config in matrix}
        assert schedulers == {
            SchedulerModel.BASE,
            SchedulerModel.SEQ_WAKEUP,
            SchedulerModel.TAG_ELIM,
        }
        assert any(c.regfile is RegFileModel.SEQUENTIAL for c in matrix)
        recoveries = {config.recovery for config in matrix}
        assert recoveries == {
            RecoveryModel.NON_SELECTIVE,
            RecoveryModel.SELECTIVE,
        }

    def test_filter_by_technique_selects_both_recoveries(self):
        matrix = config_matrix(["tag-elim"])
        assert [config.name for config in matrix] == [
            "tag-elim+nonsel",
            "tag-elim+sel",
        ]

    def test_filter_by_full_label(self):
        matrix = config_matrix(["seq-wakeup+sel"])
        assert len(matrix) == 1
        assert matrix[0].name == "seq-wakeup+sel"
        assert matrix[0].scheduler is SchedulerModel.SEQ_WAKEUP
        assert matrix[0].recovery is RecoveryModel.SELECTIVE

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="doom"):
            config_matrix(["doom"])


class TestRunFuzz:
    def test_clean_sweep(self):
        report = run_fuzz(programs=3, seed=11)
        assert report.ok
        assert report.programs == 3
        assert report.checked == 3 * 8
        assert "0 failure(s)" in report.summary()

    def test_raw_seeds_override_derivation(self):
        source = generate_source(123)
        config = config_matrix(["base+nonsel"])
        report = run_fuzz(programs=99, raw_seeds=[123], configs=config)
        assert report.ok and report.programs == 1
        # ... and the program checked is exactly the one that seed makes.
        assert check_source(source, config[0]) is None

    def test_each_program_is_assembled_once_per_matrix(self, monkeypatch):
        from repro.verify import fuzz

        calls = []
        original = fuzz.assemble

        def counting(source):
            calls.append(source)
            return original(source)

        monkeypatch.setattr(fuzz, "assemble", counting)
        fuzz._golden_run.cache_clear()
        report = run_fuzz(programs=2, seed=29)
        assert report.ok and report.checked == 2 * 8
        assert len(calls) == 2

    def test_one_recorded_feed_per_program(self, monkeypatch):
        # One emulator pass records the feed; each configuration's lockstep
        # checker still steps a golden emulator of its own.
        from repro.isa.emulator import Emulator
        from repro.verify import fuzz

        built = []
        original = Emulator.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Emulator, "__init__", counting)
        fuzz._golden_run.cache_clear()
        report = run_fuzz(programs=1, seed=31)
        assert report.ok and report.checked == 8
        assert len(built) == 1 + 8

    @pytest.mark.parametrize("field,kind", [
        ("dest_value", "lockstep-dest-value"),
        ("next_pc", "lockstep-next-pc"),
    ])
    def test_corrupt_recording_fails_every_config(self, field, kind):
        # Configurations share one recorded feed but not its golden
        # emulator, so a corrupted recording cannot pass as the truth.
        from repro.verify import fuzz

        source = generate_source(37)
        fuzz._golden_run.cache_clear()
        try:
            feed = fuzz._golden_run(source, fuzz.DEFAULT_BUDGET)
            op = next(op for op in feed.ops
                      if not op.is_control and type(op.dest_value) is int)
            setattr(op, field, getattr(op, field) + 1)
            for config in config_matrix():
                failure = check_source(source, config)
                assert failure is not None and failure.kind == kind
        finally:
            fuzz._golden_run.cache_clear()

    def test_progress_callback(self):
        seen = []
        run_fuzz(programs=2, seed=5, configs=config_matrix(["base+nonsel"]),
                 progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_max_failures_stops_early(self, monkeypatch):
        # Every issue is a violation once the selector stops counting, so
        # the sweep must stop after the first failing program.
        from repro.core.select import Selector

        monkeypatch.setattr(Selector, "take_slot",
                            lambda self, bubble_next=False: 0)
        report = run_fuzz(programs=50, seed=0,
                          configs=config_matrix(["base+nonsel"]),
                          shrink=False, max_failures=1)
        assert len(report.failures) == 1
        assert report.programs < 50

    def test_report_ok_property(self):
        report = FuzzReport(programs=0, config_names=[], checked=0)
        assert report.ok and "0 failure(s)" in report.summary()


class TestReproFiles:
    def test_round_trip(self, tmp_path):
        case = ReproCase(
            source="LDI r4, 1\nHALT\n",
            kind="issue-width",
            config="base+nonsel",
            seed=77,
            note="demo",
        )
        path = write_repro(case, tmp_path / "demo.hpa")
        loaded = read_repro(path)
        assert loaded.source == case.source
        assert loaded.kind == "issue-width"
        assert loaded.config == "base+nonsel"
        assert loaded.seed == 77
        assert loaded.note == "demo"

    def test_written_file_is_directly_assemblable(self, tmp_path):
        from repro.isa.assembler import assemble

        case = ReproCase(source=generate_source(3), kind="demo", seed=3)
        path = write_repro(case, tmp_path / "gen.hpa")
        assert len(assemble(path.read_text())) > 0

    def test_replay_command_embedded(self, tmp_path):
        path = write_repro(ReproCase(source="HALT\n"), tmp_path / "r.hpa")
        assert "--replay" in path.read_text()


class TestCli:
    def test_fuzz_clean_exit(self, capsys):
        code = main(["fuzz", "--programs", "2", "--seed", "11",
                     "--configs", "base+nonsel,tag-elim+sel", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 program(s) x 2 config(s)" in out

    def test_fuzz_gen_seed_single_program(self, capsys):
        code = main(["fuzz", "--gen-seed", "123",
                     "--configs", "base", "--quiet"])
        assert code == 0
        assert "1 program(s)" in capsys.readouterr().out

    def test_fuzz_unknown_config_errors(self, capsys):
        code = main(["fuzz", "--programs", "1", "--configs", "doom", "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown fuzz config")
        assert "Traceback" not in err

    def test_fuzz_failure_exit_code_and_repro(self, capsys, tmp_path,
                                              monkeypatch):
        def never_ready_is_fine(self, entry):
            return True

        monkeypatch.setattr(WakeupLogic, "entry_ready", never_ready_is_fine)
        code = main(["fuzz", "--programs", "5", "--seed", "0",
                     "--configs", "base+nonsel", "--max-failures", "1",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 1
        out = capsys.readouterr().out
        assert "failure(s)" in out
        assert "repro: PYTHONPATH=src python -m repro fuzz --replay" in out
        written = list(tmp_path.glob("*.hpa"))
        assert written, "failing case was not written to --out"

    def test_fuzz_replay_corpus(self, capsys, tmp_path):
        case = ReproCase(source=generate_source(9), kind="demo", seed=9)
        write_repro(case, tmp_path / "case.hpa")
        code = main(["fuzz", "--replay", str(tmp_path),
                     "--configs", "base", "--quiet"])
        assert code == 0
        assert "1 program(s)" in capsys.readouterr().out
