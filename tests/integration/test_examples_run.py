"""Smoke tests: every example script runs to completion."""

import pathlib
import subprocess
import sys
import time

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": "delivery ratio",
    "protocol_switching.py": "DYMO reached the new far node",
    "olsr_variants.py": "fish-eye removed",
    "multipath_dymo.py": "failover needed no new flood",
    "shared_mpr.py": "sharing saves",
    "concurrency_models.py": "trade-offs",
    "self_managing_network.py": "established",
    "zrp_hybrid.py": "both planes coexist",
    "real_udp_network.py": "nothing was ported",
}


#: Wall budgets (seconds) for examples whose cost is CPU work, so a run
#: that sleeps in a drain timeout (10 s each) shows up as a failure.
WALL_BUDGET_S = {
    "concurrency_models.py": 60.0,
}


@pytest.mark.parametrize("script", sorted(EXPECTED_MARKERS))
def test_example_runs(script):
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.monotonic() - started
    assert result.returncode == 0, result.stderr[-2000:]
    assert EXPECTED_MARKERS[script] in result.stdout
    budget = WALL_BUDGET_S.get(script)
    assert budget is None or elapsed < budget, f"{script} took {elapsed:.1f} s"
