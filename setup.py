"""Build shim: pure-python package + an *optional* compiled cycle loop.

The ``repro.fastsim._native`` C extension is a best-effort build: on
machines without a C compiler (or with a broken toolchain) the package
must still install and run on the python backend, so any build
failure downgrades the extension to "absent" instead of failing the
install.  ``repro.fastsim.native_available()`` reports what happened and
the backend selector raises a one-line actionable error if ``native`` is
requested anyway.

Set ``REPRO_NATIVE_REQUIRE=1`` to turn a failed extension build back
into a hard error — CI's build-native job uses this so a toolchain
regression cannot silently ship an interpreter-only artifact.
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

_REQUIRE = os.environ.get("REPRO_NATIVE_REQUIRE") == "1"


class OptionalBuildExt(build_ext):
    """build_ext that downgrades compiler failures to a loud warning."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any toolchain failure
            if _REQUIRE:
                raise
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001 - any toolchain failure
            if _REQUIRE:
                raise
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            "WARNING: repro.fastsim._native failed to build "
            f"({type(exc).__name__}: {exc}); the 'native' backend will be "
            "unavailable and runs fall back to python. "
            "Set REPRO_NATIVE_REQUIRE=1 to make this fatal."
        )


setup(
    ext_modules=[
        Extension(
            "repro.fastsim._native",
            sources=["src/repro/fastsim/_native.c"],
            optional=not _REQUIRE,
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
