"""The tuple-heap scheduler must pop in the exact ``(when, seq)`` order.

A reference single-heap implementation executes the same randomly
generated schedules (inserts across short, timer-band and long delays,
cancellations, reschedules from inside callbacks); the production
scheduler must pop in the identical ``(when, seq)`` total order, every
time — including after lazy-cancel compaction rebuilt its heap.
"""

from __future__ import annotations

import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.scheduler import Scheduler


class ReferenceScheduler:
    """One heap of mutable entries, lazy cancellation, no compaction."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0.0

    def call_later(self, delay, tag):
        entry = [self.now + delay, self._seq, tag, False]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def run_all(self):
        order = []
        while self._heap:
            when, seq, tag, cancelled = heapq.heappop(self._heap)
            if cancelled:
                continue
            self.now = when
            order.append((round(when, 9), tag))
        return order


# Delay bands: packet-delivery delays, the protocol-timer band (HELLO/TC
# intervals, route lifetimes) and long deadlines — plus zero delays.
_delays = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0001, max_value=0.045),
    st.floats(min_value=0.05, max_value=12.7),
    st.floats(min_value=12.8, max_value=60.0),
)


@settings(max_examples=60, deadline=None)
@given(
    delays=st.lists(_delays, min_size=1, max_size=60),
    cancel_seed=st.integers(min_value=0, max_value=2**32 - 1),
    # Shares over one half make cancellation rebuild the heap.
    cancel_share=st.sampled_from((0.3, 0.8)),
)
def test_pop_order_matches_reference(delays, cancel_seed, cancel_share):
    rng = random.Random(cancel_seed)
    cancel_picks = [rng.random() < cancel_share for _ in delays]

    sched = Scheduler()
    order = []
    handles = []
    for i, delay in enumerate(delays):
        handles.append(
            sched.call_later(delay, lambda tag=i: order.append((round(sched.now, 9), tag)))
        )
    for handle, cancel in zip(handles, cancel_picks):
        if cancel:
            handle.cancel()
    sched.run_until_idle()

    ref = ReferenceScheduler()
    ref_handles = [ref.call_later(delay, i) for i, delay in enumerate(delays)]
    for handle, cancel in zip(ref_handles, cancel_picks):
        if cancel:
            handle[3] = True
    assert order == ref.run_all()


@settings(max_examples=30, deadline=None)
@given(
    delays=st.lists(_delays, min_size=1, max_size=30),
    chain_delays=st.lists(_delays, min_size=1, max_size=10),
)
def test_reschedule_from_callback_matches_reference(delays, chain_delays):
    """Callbacks that schedule more work (periodic-timer shape)."""

    def run(make_sched, call_later, run_all):
        order = []
        sched = make_sched()
        remaining = list(chain_delays)

        def chain(tag):
            order.append((round(sched.now, 9), tag))
            if remaining:
                call_later(sched, remaining.pop(0), lambda: chain(tag + 1000))

        for i, delay in enumerate(delays):
            call_later(sched, delay, lambda tag=i: order.append((round(sched.now, 9), tag)))
        call_later(sched, 0.01, lambda: chain(0))
        run_all(sched)
        return order

    real = run(
        Scheduler,
        lambda s, d, fn: s.call_later(d, fn),
        lambda s: s.run_until_idle(),
    )

    # Reference run: emulate with the reference heap, draining manually.
    ref_order = []

    class _Ref(ReferenceScheduler):
        def run_callbacks(self):
            while self._heap:
                when, seq, fn, cancelled = heapq.heappop(self._heap)
                if cancelled:
                    continue
                self.now = when
                fn()

    ref = _Ref()
    remaining = list(chain_delays)

    def ref_chain(tag):
        ref_order.append((round(ref.now, 9), tag))
        if remaining:
            ref.call_later(remaining.pop(0), lambda: ref_chain(tag + 1000))

    for i, delay in enumerate(delays):
        ref.call_later(delay, lambda tag=i: ref_order.append((round(ref.now, 9), tag)))
    ref.call_later(0.01, lambda: ref_chain(0))
    ref.run_callbacks()

    assert real == ref_order


def test_heap_compaction_reclaims_cancelled_entries():
    sched = Scheduler()
    keepers = [sched.call_later(0.001 * i, lambda: None) for i in range(1, 4)]
    victims = [sched.call_later(0.002, lambda: None) for _ in range(50)]
    for victim in victims:
        victim.cancel()
    # More than half the heap was cancelled -> it must have been compacted.
    assert len(sched._heap) <= len(keepers) + len(victims) // 2
    assert sched.pending_count() == len(keepers)
    assert sched.run_until_idle() == len(keepers)


def test_mass_cancellation_keeps_order_and_bounds_heap():
    """A crashing node cancels every timer it owns at once."""
    sched = Scheduler()
    fired = []
    calls = []
    for i in range(400):
        delay = (i * 7919 % 400) * 0.01
        calls.append((i, sched.call_later(delay, fired.append, (round(delay, 9), i))))
    survivors = []
    for i, call in calls:
        if i % 10 == 0:
            survivors.append(((i * 7919 % 400) * 0.01, i))
        else:
            call.cancel()
            # Compaction keeps cancelled entries at most half the heap.
            assert len(sched._heap) <= 2 * sched.pending_count() + 1
    assert sched.pending_count() == len(survivors)
    assert len(sched._heap) <= 2 * len(survivors)
    assert sched.run_until_idle() == len(survivors)
    assert fired == [(round(when, 9), i) for when, i in sorted(survivors)]
    assert sched.pending_count() == 0 and not sched._heap


def test_cancel_after_run_does_not_count_as_resident():
    sched = Scheduler()
    done = sched.call_later(0.1, lambda: None)
    later = sched.call_later(0.2, lambda: None)
    assert sched.step()
    done.cancel()  # already popped: nothing resident to reclaim
    assert sched.pending_count() == 1
    later.cancel()
    assert sched.pending_count() == 0
    assert sched.next_event_time() is None
    assert not sched.step()
