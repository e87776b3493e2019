"""Wire-protocol validation and fingerprint semantics."""

import pytest

from repro.analysis.cache import fingerprint as cache_fingerprint
from repro.analysis.parallel import Job
from repro.analysis.runner import SHADOW_SIZES
from repro.pipeline.config import FOUR_WIDE, SchedulerModel
from repro.serve.protocol import (
    ProtocolError,
    RunSpec,
    TraceSpec,
    VerifySpec,
    parse_batch,
    parse_spec,
)


class TestRunSpecParsing:
    def test_minimal_spec_defaults(self):
        spec = parse_spec({"benchmark": "gzip"})
        assert isinstance(spec, RunSpec)
        assert spec.insts == 15_000 and spec.width == 4 and spec.kind == "run"

    def test_wire_round_trip(self):
        spec = parse_spec(
            {"benchmark": "gcc", "scheduler": "seq_wakeup", "insts": 500,
             "warmup": 250, "seed": 3, "shadow": True, "priority": 2}
        )
        assert parse_spec(spec.as_wire()) == spec

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ProtocolError, match="unknown benchmark"):
            parse_spec({"benchmark": "doom"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown run-spec field"):
            parse_spec({"benchmark": "gzip", "instz": 100})

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ProtocolError, match="unknown scheduler"):
            parse_spec({"benchmark": "gzip", "scheduler": "warp"})

    def test_bad_width_rejected(self):
        with pytest.raises(ProtocolError, match="width"):
            parse_spec({"benchmark": "gzip", "width": 6})

    def test_nonpositive_insts_rejected(self):
        with pytest.raises(ProtocolError, match="insts"):
            parse_spec({"benchmark": "gzip", "insts": 0})

    def test_non_integer_rejected(self):
        with pytest.raises(ProtocolError, match="seed"):
            parse_spec({"benchmark": "gzip", "seed": "five"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job kind"):
            parse_spec({"kind": "train", "benchmark": "gzip"})


class TestFingerprints:
    def test_matches_result_cache_digest(self):
        spec = parse_spec(
            {"benchmark": "gzip", "scheduler": "seq_wakeup", "insts": 400,
             "warmup": 200, "seed": 9}
        )
        config = FOUR_WIDE.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP)
        assert spec.fingerprint() == cache_fingerprint(Job("gzip", config, 9, 400, 200))

    def test_shadow_changes_fingerprint(self):
        base = parse_spec({"benchmark": "gzip"})
        shadowed = parse_spec({"benchmark": "gzip", "shadow": True})
        assert base.fingerprint() != shadowed.fingerprint()
        config = base.config()
        assert shadowed.fingerprint() == cache_fingerprint(
            Job("gzip", config, 42, 15_000, 20_000, SHADOW_SIZES)
        )

    def test_priority_does_not_change_fingerprint(self):
        low = parse_spec({"benchmark": "gzip", "priority": 0})
        high = parse_spec({"benchmark": "gzip", "priority": 9})
        assert low.fingerprint() == high.fingerprint()


class TestVerifySpec:
    SOURCE = "    LDI  r1, 5\n    ADD  r2, r1, #1\n    HALT\n"

    def test_parse_and_round_trip(self):
        spec = parse_spec({"kind": "verify", "source": self.SOURCE, "configs": ["base+nonsel"]})
        assert isinstance(spec, VerifySpec)
        assert parse_spec(spec.as_wire()) == spec

    def test_empty_source_rejected(self):
        with pytest.raises(ProtocolError, match="source"):
            parse_spec({"kind": "verify", "source": "  "})

    def test_unknown_config_rejected(self):
        with pytest.raises(ProtocolError, match="unknown fuzz config"):
            parse_spec({"kind": "verify", "source": self.SOURCE, "configs": ["warp"]})

    def test_fingerprint_depends_on_source(self):
        one = parse_spec({"kind": "verify", "source": self.SOURCE})
        two = parse_spec({"kind": "verify", "source": self.SOURCE + "NOP\n"})
        assert one.fingerprint() != two.fingerprint()


class TestBatch:
    def test_single_spec_body(self):
        specs = parse_batch({"benchmark": "gzip"})
        assert len(specs) == 1

    def test_jobs_list_body(self):
        specs = parse_batch({"jobs": [{"benchmark": "gzip"}, {"benchmark": "gcc"}]})
        assert [spec.benchmark for spec in specs] == ["gzip", "gcc"]

    def test_empty_jobs_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_batch({"jobs": []})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_batch([1, 2])


class TestBackendField:
    def test_default_backend_is_python(self):
        spec = parse_spec({"benchmark": "gzip"})
        assert spec.backend == "python"
        assert spec.config().backend == "python"

    @pytest.mark.parametrize("backend", ["native"])
    def test_backend_round_trips_through_wire(self, backend):
        spec = parse_spec({"benchmark": "gzip", "backend": backend})
        assert spec.backend == backend
        assert spec.config().backend == backend
        assert parse_spec(spec.as_wire()) == spec

    def test_unknown_backend_rejected(self):
        for backend in ("cuda", "vector"):
            with pytest.raises(ProtocolError, match="unknown backend"):
                parse_spec({"benchmark": "gzip", "backend": backend})

    def test_backend_changes_fingerprint(self):
        """Coalescing and cached results must never cross backends."""
        fingerprints = {
            backend: parse_spec(
                {"benchmark": "gzip", "backend": backend}
            ).fingerprint()
            for backend in ("python", "native")
        }
        assert len(set(fingerprints.values())) == 2

    @pytest.mark.parametrize("backend", ["native"])
    def test_backend_fingerprint_matches_cache_digest(self, backend):
        spec = parse_spec({"benchmark": "gzip", "backend": backend})
        expected = cache_fingerprint(
            Job("gzip", spec.config(), spec.seed, spec.insts, spec.warmup)
        )
        assert spec.fingerprint() == expected


class TestTraceSpecParsing:
    HASH = "ab" * 32

    def spec(self, **overrides):
        payload = {"kind": "trace", "trace": "some/file.hpt", "content_hash": self.HASH}
        payload.update(overrides)
        return parse_spec(payload)

    def test_explicit_hash_needs_no_file(self):
        spec = self.spec()
        assert isinstance(spec, TraceSpec)
        assert spec.content_hash == self.HASH
        assert spec.insts is None and not spec.sampled

    def test_corpus_name_resolves_hash_from_header(self):
        spec = parse_spec({"kind": "trace", "trace": "vector_sum_80k"})
        assert len(spec.content_hash) == 64

    def test_unresolvable_reference_without_hash_is_400(self):
        with pytest.raises(ProtocolError, match="neither a corpus trace name"):
            parse_spec({"kind": "trace", "trace": "no_such_trace"})

    def test_wire_round_trip_is_lossless(self):
        spec = self.spec(sampled=True, k=4, interval=5_000, warm_caches=False,
                         backend="native", insts=None)
        again = parse_spec(spec.as_wire())
        assert again == spec and again.fingerprint() == spec.fingerprint()

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown trace-spec field"):
            self.spec(simpoints=10)

    def test_trace_is_required(self):
        with pytest.raises(ProtocolError, match="trace is required"):
            parse_spec({"kind": "trace", "content_hash": self.HASH})

    def test_zero_insts_rejected(self):
        with pytest.raises(ProtocolError, match="insts"):
            self.spec(insts=0)

    def test_fingerprint_keys_on_content_not_reference(self):
        a = self.spec()
        b = self.spec(trace="renamed/elsewhere.hpt")
        assert a.trace != b.trace
        assert a.fingerprint() == b.fingerprint()

    def test_sampled_and_full_fingerprints_differ(self):
        assert self.spec().fingerprint() != self.spec(sampled=True).fingerprint()

    def test_machine_knobs_change_fingerprint(self):
        assert self.spec().fingerprint() != self.spec(width=8).fingerprint()
        assert self.spec().fingerprint() != self.spec(backend="native").fingerprint()
