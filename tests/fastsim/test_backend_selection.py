"""Backend resolution precedence, feature gating and the install gates."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.fastsim import (
    BACKEND_ENV_VAR,
    BACKENDS,
    apply_backend,
    available_backends,
    make_processor,
    native_available,
    resolve_backend,
)
from repro.pipeline.config import FOUR_WIDE, MachineConfig
from repro.pipeline.processor import Processor


class TestResolutionPrecedence:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend() == "python"
        assert resolve_backend(None, FOUR_WIDE) == "python"

    @pytest.mark.parametrize("backend", ["native"])
    def test_config_field_beats_default(self, monkeypatch, backend):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        config = dataclasses.replace(FOUR_WIDE, backend=backend)
        assert resolve_backend(None, config) == backend

    @pytest.mark.parametrize("backend", ["native"])
    def test_env_beats_config_field(self, monkeypatch, backend):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        config = dataclasses.replace(FOUR_WIDE, backend=backend)
        assert resolve_backend(None, config) == "python"

    @pytest.mark.parametrize("backend", ["native"])
    def test_explicit_flag_beats_env(self, monkeypatch, backend):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert resolve_backend(backend, FOUR_WIDE) == backend

    def test_empty_env_var_is_ignored(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert resolve_backend(None, FOUR_WIDE) == "python"

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend("cuda")
        monkeypatch.setenv(BACKEND_ENV_VAR, "cuda")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend()

    def test_config_validates_backend_field(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            dataclasses.replace(FOUR_WIDE, backend="cuda")


class TestApplyBackend:
    @pytest.mark.parametrize("backend", ["native"])
    def test_materializes_resolved_choice(self, monkeypatch, backend):
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        applied = apply_backend(FOUR_WIDE)
        assert applied.backend == backend
        assert applied.name == FOUR_WIDE.name  # backend never renames

    def test_no_change_returns_same_object(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert apply_backend(FOUR_WIDE) is FOUR_WIDE

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "native")
        assert apply_backend(FOUR_WIDE, "python").backend == "python"


class TestMakeProcessor:
    def test_python_backend_returns_reference_processor(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        processor = make_processor(iter(()), FOUR_WIDE)
        assert isinstance(processor, Processor)

    @pytest.mark.parametrize("backend", ["native"])
    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            ({"check": True}, "lockstep checking"),
            ({"record_schedule": True}, "schedule traces"),
            ({"profile": True}, "stage profiling"),
        ],
    )
    def test_fast_backends_reject_python_only_features(
        self, kwargs, needle, backend
    ):
        with pytest.raises(ConfigurationError, match=needle):
            make_processor(iter(()), FOUR_WIDE, backend=backend, **kwargs)

    @pytest.mark.parametrize("backend", ["native"])
    def test_fast_backends_reject_dependence_matrix(self, backend):
        config = dataclasses.replace(FOUR_WIDE, use_dependence_matrix=True)
        with pytest.raises(ConfigurationError, match="dependence-matrix"):
            make_processor(iter(()), config, backend=backend)

    def test_missing_native_message_is_actionable(self, monkeypatch):
        import repro.fastsim as fastsim

        monkeypatch.setattr(fastsim, "native_available", lambda: False)
        with pytest.raises(ConfigurationError) as excinfo:
            make_processor(iter(()), FOUR_WIDE, backend="native")
        assert str(excinfo.value) == (
            "backend 'native' needs the compiled extension; build it "
            "with pip install -e .[native] (requires a C compiler)"
        )

    def test_extension_from_another_abi_is_refused(self, monkeypatch):
        """A stale build of ``_native`` is never driven: same error as none."""
        import types

        from repro.fastsim import native

        stale = types.SimpleNamespace(ABI_VERSION=native._ABI_VERSION - 1)
        monkeypatch.setattr(native, "_native", stale)
        assert native_available() is False
        with pytest.raises(ConfigurationError) as excinfo:
            make_processor(iter(()), FOUR_WIDE, backend="native")
        assert str(excinfo.value) == (
            "backend 'native' needs the compiled extension; build it "
            "with pip install -e .[native] (requires a C compiler)"
        )

    def test_cli_surfaces_native_gate_as_one_line_error(self, monkeypatch, capsys):
        """`repro run --backend native` without the artifact: clean error."""
        import repro.fastsim as fastsim
        from repro.cli import main

        monkeypatch.setattr(fastsim, "native_available", lambda: False)
        code = main(
            ["run", "gzip", "--insts", "100", "--warmup", "0", "--backend", "native"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.strip() == (
            "error: backend 'native' needs the compiled extension; "
            "build it with pip install -e .[native] (requires a C compiler)"
        )


class TestBackendsConstant:
    def test_known_backends(self):
        assert BACKENDS == ("python", "native")
        assert MachineConfig.__dataclass_fields__["backend"].default == "python"

    def test_native_available_is_boolean(self):
        assert native_available() in (True, False)

    def test_available_backends_is_installed_subset(self):
        installed = available_backends()
        assert installed[0] == "python"
        assert set(installed) <= set(BACKENDS)
        assert ("native" in installed) == native_available()
