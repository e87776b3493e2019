"""Session set-up: build the native engine for the test run when it is missing.

The native-backend tests (parity, cross-backend fuzz, runner plumbing)
skip without a usable compiled ``repro.fastsim._native`` extension.  So
that a plain checkout runs them too, the session compiles ``_native.c``
once into a temporary directory with the interpreter's own compiler
settings (``CC`` overrides the compiler) and puts that directory first on
the ``repro.fastsim`` package path.  An extension already importable (an
in-place or installed build) is used as is when the wrapper accepts its
``ABI_VERSION``; a stale build from an older ``_native.c`` is shadowed by
the fresh one instead of silently skipping every native test.  The check
runs in a child interpreter, so this process has not imported ``_native``
when the path changes.  If the compiler is missing or fails, nothing is
built and the native tests skip as before; run with ``CC=/bin/false`` to
test that path on purpose.

``repro.fastsim.native`` must not be imported before the build: it reads
``_native`` once, at import.
"""

from __future__ import annotations

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

_SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro" / "fastsim" / "_native.c"

_build_dir: str | None = None


def _importable_native_matches_abi() -> bool:
    """Is the importable ``_native`` the ABI the wrapper speaks? (asked of a child)"""
    probe = "from repro.fastsim.native import native_available; print(native_available())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    try:
        child = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=env, timeout=120,
        )
    except (OSError, subprocess.SubprocessError):
        return False
    return child.stdout.strip() == "True"


def _build_native() -> None:
    global _build_dir
    try:
        spec = importlib.util.find_spec("repro.fastsim._native")
        if spec is not None and _importable_native_matches_abi():
            return
    except ImportError:  # repro itself is not importable: nothing to do
        return
    if not _SOURCE.is_file():
        return
    compiler = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    out_dir = tempfile.mkdtemp(prefix="repro-native-")
    target = Path(out_dir) / ("_native" + sysconfig.get_config_var("EXT_SUFFIX"))
    command = [
        *compiler, "-O2", "-fPIC", "-shared",
        f"-I{sysconfig.get_paths()['include']}",
        str(_SOURCE), "-o", str(target),
    ]
    try:
        built = subprocess.run(command, capture_output=True, timeout=300).returncode == 0
    except (OSError, subprocess.SubprocessError):
        built = False
    if not built or not target.is_file():
        shutil.rmtree(out_dir, ignore_errors=True)
        return
    import repro.fastsim

    repro.fastsim.__path__.insert(0, out_dir)
    _build_dir = out_dir


def pytest_sessionstart(session):
    _build_native()


def pytest_sessionfinish(session, exitstatus):
    if _build_dir is not None:
        shutil.rmtree(_build_dir, ignore_errors=True)
