"""Discrete-event scheduler over a :class:`~repro.utils.clock.VirtualClock`.

The scheduler is the single ordering authority for a simulation: packet
deliveries, protocol timers, mobility steps and context-sensor polls are all
scheduled calls.  Events with equal timestamps run in insertion order, which
keeps runs deterministic.

One binary heap of ``(when, seq, call)`` tuples backs the timeline.  The
sequence number is unique, so tuple comparison never reaches the call
object and the pop order is exactly ``(when, seq)``, decided in C.
Cancellation is lazy: a cancelled entry stays queued until it reaches the
head, and the heap is rebuilt whenever cancelled entries outnumber live
ones, so mass cancellations (a crashing node's timers) do not leak.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.trace import callback_name
from repro.utils.clock import VirtualClock

_heappush = heapq.heappush
_heappop = heapq.heappop


class ScheduledCall:
    """Handle to a scheduled callback; allows cancellation."""

    __slots__ = ("when", "callback", "args", "cancelled", "_owner")

    def __init__(
        self,
        when: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        owner: "Scheduler",
    ) -> None:
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The scheduler while the call is queued; ``None`` once popped.
        self._owner: Optional["Scheduler"] = owner

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None:
            owner._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self.when:.6f} {state} {self.callback!r}>"


class Scheduler:
    """A deterministic discrete-event scheduler.

    The scheduler owns a :class:`VirtualClock` and advances it as it pops
    events.  ``run_until`` / ``run_for`` are the main driving loops; ``step``
    executes exactly one event, which the tests use for fine-grained
    assertions.
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._heap: List[Tuple[float, int, ScheduledCall]] = []
        self._seq = itertools.count()
        self._executed = 0
        # Cancelled entries still resident in the heap.
        self._cancelled = 0
        #: Optional :class:`repro.obs.trace.TraceRecorder`; when set (and
        #: enabled) every dispatched callback is recorded as a trace event.
        self.tracer = None
        #: Optional :class:`repro.obs.profile.Profiler`; when set, every
        #: dispatched callback runs inside a ``sched.dispatch`` frame.
        self.profiler = None

    # -- scheduling -------------------------------------------------------

    def call_at(
        self, when: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledCall:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        now = self.clock.now()
        if when < now:
            raise ValueError(f"cannot schedule in the past: {when} < {now}")
        call = ScheduledCall(when, callback, args, self)
        _heappush(self._heap, (when, next(self._seq), call))
        return call

    def call_later(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledCall:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        when = self.clock.now() + delay
        call = ScheduledCall(when, callback, args, self)
        _heappush(self._heap, (when, next(self._seq), call))
        return call

    # -- introspection ----------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now()

    @property
    def executed_count(self) -> int:
        """Number of callbacks executed so far (cancelled ones excluded)."""
        return self._executed

    def pending_count(self) -> int:
        """Number of not-yet-cancelled calls still queued."""
        return len(self._heap) - self._cancelled

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest pending call, or ``None`` if idle."""
        heap = self._heap
        while heap:
            head = heap[0]
            if not head[2].cancelled:
                return head[0]
            _heappop(heap)
            self._cancelled -= 1
        return None

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Execute the single earliest pending call.

        Returns ``True`` if a callback ran, ``False`` if the queue was
        empty.  The clock is advanced to the callback's timestamp before it
        runs.
        """
        heap = self._heap
        while True:
            if not heap:
                return False
            when, _seq, call = _heappop(heap)
            if not call.cancelled:
                break
            self._cancelled -= 1
        call._owner = None
        self.clock.set_time(when)
        self._executed += 1
        tracer = self.tracer
        profiler = self.profiler
        if profiler is None:
            if tracer is not None and tracer.enabled:
                with tracer.span("sched.dispatch", callback=callback_name(call.callback)):
                    call.callback(*call.args)
                return True
            call.callback(*call.args)
            return True
        name = callback_name(call.callback)
        profiler.push2("sched.dispatch", name)
        try:
            if tracer is not None and tracer.enabled:
                with tracer.span("sched.dispatch", callback=name):
                    call.callback(*call.args)
            else:
                call.callback(*call.args)
        finally:
            profiler.pop()
        return True

    def run_until(
        self,
        deadline: float,
        max_events: Optional[int] = None,
        inclusive: bool = True,
    ) -> int:
        """Run events up to ``deadline``; advance the clock to it.

        With ``inclusive=True`` (the default) events stamped exactly at
        the deadline run; with ``inclusive=False`` they stay queued —
        the mode a sharded epoch uses so that an event sitting exactly
        on a barrier fires on the same side of it as in an unsharded
        run (the *final* epoch of a phase is inclusive, matching
        :meth:`run_until`'s default semantics end to end).

        Returns the number of callbacks executed.  ``max_events`` is a
        safety valve against runaway event storms; when it trips, the
        clock is NOT advanced past the stranded events (advancing would
        leave past-dated work that a later ``step`` could never run).
        """
        executed = 0
        truncated = False
        while True:
            upcoming = self.next_event_time()
            if upcoming is None:
                break
            if (upcoming > deadline) if inclusive else (upcoming >= deadline):
                break
            if max_events is not None and executed >= max_events:
                truncated = True
                break
            self.step()
            executed += 1
        if not truncated and self.clock.now() < deadline:
            self.clock.set_time(deadline)
        return executed

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Run events for ``duration`` simulated seconds from now."""
        return self.run_until(self.clock.now() + duration, max_events=max_events)

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Drain every pending event regardless of timestamp."""
        executed = 0
        while executed < max_events and self.step():
            executed += 1
        return executed

    # -- internals --------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Cancellation hook: rebuild once cancelled entries are the majority."""
        self._cancelled += 1
        if self._cancelled * 2 > len(self._heap):
            self._heap = [entry for entry in self._heap if not entry[2].cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0
