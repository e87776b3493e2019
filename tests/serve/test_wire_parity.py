"""The wire path must be indistinguishable from the offline path.

Two guarantees: (a) a run served over HTTP and written with
``write_stats_json`` produces a byte-identical file to a direct
``ExperimentRunner.export_run`` call with the same inputs, and (b) every
program in the differential-fuzzing corpus replayed through a served
``verify`` job agrees with a direct ``check_source`` call.
"""

from pathlib import Path

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.runner import ExperimentRunner
from repro.obs.export import write_stats_json
from repro.serve.client import ServeClient
from repro.serve.executor import JobExecutor
from repro.serve.protocol import parse_spec
from repro.verify import check_source, config_matrix

from .conftest import TINY, tiny_run
from tests.serve.background import BackgroundServer

CORPUS = sorted(Path(__file__).parent.parent.joinpath("verify", "corpus").glob("*.hpa"))


class TestRunExportParity:
    def test_served_stats_bytes_match_offline_export(self, tmp_path, server):
        specs = [tiny_run(seed=7), tiny_run("gcc", scheduler="seq_wakeup", shadow=True)]
        client = ServeClient(server.base_url)
        receipts = client.submit(specs)

        served_dir = tmp_path / "served"
        offline_dir = tmp_path / "offline"
        # Offline path: a fresh runner over its own empty cache.
        runner = ExperimentRunner(
            insts=TINY["insts"], warmup=TINY["warmup"],
            cache=ResultCache(tmp_path / "offline-cache"),
        )
        for wire, receipt in zip(specs, receipts):
            document = client.wait(receipt["id"], timeout=60, poll=1.0)
            served_path = write_stats_json(document["result"]["stats"], served_dir)

            spec = parse_spec(wire)
            offline_path = runner.export_run(
                spec.benchmark, spec.config(), offline_dir,
                seed=spec.seed, shadow=spec.shadow,
            )
            assert served_path.name == offline_path.name
            assert served_path.read_bytes() == offline_path.read_bytes()


class TestCorpusReplay:
    def test_corpus_exists(self):
        assert len(CORPUS) >= 1  # the fuzzing PR seeded these

    @pytest.mark.parametrize("program", CORPUS, ids=lambda path: path.stem)
    def test_served_verify_matches_direct_check(self, program, tmp_path):
        source = program.read_text(encoding="utf-8")
        (config,) = config_matrix(names=["base+nonsel"])
        direct_failure = check_source(source, config, budget=50_000)

        executor = JobExecutor(cache=ResultCache(tmp_path / "cache"))
        with BackgroundServer(port=0, workers=1, executor=executor) as bg:
            client = ServeClient(bg.base_url)
            (receipt,) = client.submit(
                {"kind": "verify", "source": source, "configs": ["base+nonsel"]}
            )
            result = client.wait(receipt["id"], timeout=120, poll=1.0)["result"]
        assert result["kind"] == "verify"
        assert result["ok"] is (direct_failure is None)
        if direct_failure is not None:
            assert result["failures"][0]["kind"] == direct_failure.kind
