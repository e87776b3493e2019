"""Every paper claim, asserted at the runner's run size.

One case per :data:`repro.analysis.validation.ALL_CHECKS` entry; a failure
message carries the check's measured value, bound and paper value.  The
tables the checks read are printed by ``repro experiment all``.
"""

import pytest

from repro.analysis.validation import ALL_CHECKS


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda check: check.name)
def test_claim(runner, check):
    ok, detail = check.predicate(runner)
    assert ok, f"{check.name} ({check.paper_claim}): {detail}"
