"""Byte-exact golden-replay equivalence for the event hot path.

The dispatch-index / scheduler-queue / batched-delivery refactors are only
admissible because these tests hold: for every (protocol, seed) cell of
the pinned matrix, a seeded run of the paper's 5-node chain under a
fault plan serialises to *exactly* the bytes frozen in ``tests/golden/``
(generated on the pre-refactor tree).  Any reordering of RNG draws,
deliveries or traced events shows up here first.

Regenerate (only when the trace format itself legitimately changes)::

    PYTHONPATH=src python -m repro.tools.golden_replay --update
"""

from __future__ import annotations

import pytest

from repro.tools import golden_replay


def _cells():
    return [
        pytest.param(protocol, seed, id=f"{protocol}-seed{seed}")
        for protocol in golden_replay.PROTOCOLS
        for seed in golden_replay.SEEDS
    ]


@pytest.mark.parametrize("protocol, seed", _cells())
def test_replay_matches_golden(protocol, seed):
    path = golden_replay.golden_path(protocol, seed)
    assert path.exists(), (
        f"missing golden file {path}; run "
        "`PYTHONPATH=src python -m repro.tools.golden_replay --update` "
        "on a known-good tree"
    )
    actual = golden_replay.run_scenario(protocol, seed)
    expected = golden_replay.load_golden(protocol, seed)
    if actual != expected:
        # Find the first divergent line for a useful failure message.
        actual_lines = actual.decode("utf-8").splitlines()
        expected_lines = expected.decode("utf-8").splitlines()
        for i, (got, want) in enumerate(zip(actual_lines, expected_lines)):
            if got != want:
                pytest.fail(
                    f"{path.name}: first divergence at line {i + 1}:\n"
                    f"  expected: {want}\n"
                    f"  actual:   {got}"
                )
        pytest.fail(
            f"{path.name}: line count differs "
            f"(expected {len(expected_lines)}, got {len(actual_lines)})"
        )


def test_scenario_is_self_deterministic():
    """Two in-process runs of one cell are byte-identical (no hidden
    global state leaks between simulations)."""
    first = golden_replay.run_scenario("olsr", 1)
    second = golden_replay.run_scenario("olsr", 1)
    assert first == second
