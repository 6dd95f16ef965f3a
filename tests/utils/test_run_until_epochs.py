"""Epoch-boundary semantics of ``run_until`` — the sharded-run seam.

The sharded orchestrator (:mod:`repro.sim.sharded`) slices a phase into
epochs: every epoch but the last runs ``inclusive=False`` and the final
one ``inclusive=True``.  These tests pin the property that makes the
slicing sound: an event stamped exactly on a barrier — including
barriers on 50 ms slot edges, where the scheduler once switched queue
structures — fires on the same side of it as in one unsliced
``run_until``, so the cut points are invisible in the executed sequence.

Also pins the ``max_events`` truncation contract: a tripped budget must
NOT advance the clock past the stranded events (the old behaviour
jumped to the deadline, and any later ``step`` raised ``cannot move
clock backwards``), and ``Simulation.truncated`` is sticky.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import Simulation
from repro.utils.scheduler import Scheduler


def _schedule(scheduler, times, fired):
    for index, when in enumerate(times):
        scheduler.call_at(when, fired.append, (round(when, 9), index))


def _run_sliced(times, barriers, final):
    scheduler = Scheduler()
    fired = []
    _schedule(scheduler, times, fired)
    for end in barriers:
        scheduler.run_until(end, inclusive=False)
        assert scheduler.now == end
    scheduler.run_until(final, inclusive=True)
    return fired, scheduler.now


def _run_whole(times, final):
    scheduler = Scheduler()
    fired = []
    _schedule(scheduler, times, fired)
    scheduler.run_until(final, inclusive=True)
    return fired, scheduler.now


class TestEpochBoundaries:
    def test_event_exactly_at_exclusive_deadline_stays_queued(self):
        scheduler = Scheduler()
        fired = []
        scheduler.call_at(1.0, fired.append, "edge")
        assert scheduler.run_until(1.0, inclusive=False) == 0
        assert fired == []
        assert scheduler.now == 1.0
        assert scheduler.run_until(1.0, inclusive=True) == 1
        assert fired == ["edge"]

    def test_event_exactly_at_inclusive_deadline_fires(self):
        scheduler = Scheduler()
        fired = []
        scheduler.call_at(1.0, fired.append, "edge")
        assert scheduler.run_until(1.0, inclusive=True) == 1
        assert fired == ["edge"]

    def test_barrier_on_wheel_slot_edge(self):
        # An event on an exact 50 ms slot edge (the scheduler's former
        # timer-wheel granularity) must respect the exclusive barrier
        # exactly like any other event.
        edge = 0.05 * 4
        times = [edge - 0.001, edge, edge + 0.001]
        sliced = _run_sliced(times, [edge], edge + 1.0)
        whole = _run_whole(times, edge + 1.0)
        assert sliced == whole

    def test_slicing_preserves_execution_order(self):
        times = [0.1, 0.25, 0.25, 0.3, 0.55, 0.7, 1.0, 1.0, 1.3]
        barriers = [0.25, 0.3, 1.0]
        sliced = _run_sliced(times, barriers, 1.5)
        whole = _run_whole(times, 1.5)
        assert sliced == whole

    @given(
        raw_times=st.lists(st.integers(0, 200), max_size=30),
        raw_barriers=st.lists(st.integers(1, 200), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_epoch_slicing_is_invisible(self, raw_times, raw_barriers):
        # The 0.013 quantum mixes sub-50 ms gaps with longer ones and
        # makes exact time==barrier collisions common.
        times = [t * 0.013 for t in raw_times]
        barriers = sorted({b * 0.013 for b in raw_barriers})
        final = barriers[-1]
        sliced = _run_sliced(times, barriers[:-1], final)
        whole = _run_whole(times, final)
        assert sliced == whole


class TestTruncation:
    def test_scheduler_truncation_leaves_clock_on_stranded_events(self):
        scheduler = Scheduler()
        fired = []
        _schedule(scheduler, [0.1, 0.2, 0.3, 0.4, 0.5], fired)
        executed = scheduler.run_until(1.0, max_events=3)
        assert executed == 3
        assert scheduler.now == pytest.approx(0.3)
        # The stranded events are still runnable: no clock-backwards error.
        assert scheduler.run_until(1.0) == 2
        assert scheduler.now == 1.0
        assert len(fired) == 5

    def test_simulation_truncated_flag_is_sticky(self):
        sim = Simulation()
        fired = []
        for when in (0.1, 0.2, 0.3, 0.4):
            sim.scheduler.call_at(when, fired.append, when)
        executed = sim.run(1.0, max_events=2)
        assert executed == 2
        assert sim.truncated is True
        assert sim.now == pytest.approx(0.2)
        # Resuming works and completes, but the flag stays up.
        sim.run_until(1.0)
        assert len(fired) == 4
        assert sim.now == 1.0
        assert sim.truncated is True

    def test_untruncated_run_keeps_flag_down(self):
        sim = Simulation()
        sim.scheduler.call_at(0.5, lambda: None)
        sim.run(1.0)
        assert sim.truncated is False
        assert sim.now == 1.0


class TestDrainTimeouts:
    def test_drain_hook_false_latches_timeout(self):
        sim = Simulation()
        verdicts = iter([True, False, True, True])
        sim.add_drain_hook(lambda: next(verdicts))
        for when in (0.1, 0.2, 0.3):
            sim.scheduler.call_at(when, lambda: None)
        sim.run(1.0)
        assert sim.drain_timeouts == 1
        # Sticky: a later clean drain does not clear it.
        sim.scheduler.call_at(1.5, lambda: None)
        sim.run(1.0)
        assert sim.drain_timeouts == 1

    def test_clean_drains_keep_count_at_zero(self):
        sim = Simulation()
        sim.add_drain_hook(lambda: True)
        sim.add_drain_hook(lambda: None)  # hooks without a verdict count as clean
        sim.scheduler.call_at(0.5, lambda: None)
        sim.run(1.0)
        assert sim.drain_timeouts == 0
