"""Greedy test-case minimization for failing fuzz programs.

The shrinker is a line-oriented ddmin: it deletes chunks of source lines,
keeps any deletion after which the failure *still reproduces*, and halves
the chunk size until single-line deletion reaches a fixpoint.  It knows
nothing about assembly — the caller's ``still_fails`` predicate is the sole
oracle, and it must reject invalid candidates (programs that no longer
assemble, or no longer halt within the emulator budget, e.g. because a
loop's counter-update line was deleted).  The fuzzer's predicate does
exactly that by funnelling candidates through
:func:`repro.verify.fuzz.check_source` and treating assembly or emulation
errors as "does not reproduce".

Shrinking is what turns a 60-instruction random program into the ≤12-line
repro a human can actually debug.
"""

from __future__ import annotations

from typing import Callable

#: Safety valve: maximum candidate evaluations per shrink.
DEFAULT_MAX_TESTS = 2_000


def _join(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def shrink_source(
    source: str,
    still_fails: Callable[[str], bool],
    max_tests: int = DEFAULT_MAX_TESTS,
) -> str:
    """Minimize *source* while ``still_fails(candidate)`` stays true.

    Raises :class:`ValueError` if the original source does not satisfy the
    predicate (nothing to shrink — usually a sign the caller's oracle is
    nondeterministic).
    """
    lines = source.splitlines()
    if not still_fails(_join(lines)):
        raise ValueError("shrink_source: the original input does not fail")

    tests = 0

    def sweep(chunk: int) -> bool:
        """One deletion pass at the given chunk size; True if it shrank."""
        nonlocal lines, tests
        index = 0
        removed_any = False
        while index < len(lines) and tests < max_tests:
            candidate = lines[:index] + lines[index + chunk:]
            tests += 1
            if candidate and still_fails(_join(candidate)):
                lines = candidate
                removed_any = True
                # Retry the same index: the next chunk slid into place.
            else:
                index += chunk
        return removed_any

    chunk = max(1, len(lines) // 2)
    while tests < max_tests:
        shrank = sweep(chunk)
        if chunk > 1:
            chunk //= 2
        elif not shrank:
            break  # single-line fixpoint reached
    return _join(lines)
