"""Unit tests: threadpool and the four concurrency models.

These tests use wall-clock threads (not the simulator): the models'
obligations — atomic handlers, per-unit FIFO order, drainability — must
hold under real parallelism.
"""

import sys
import threading
import time

import pytest

from repro.concurrency.models import (
    SingleThreaded,
    ThreadPerMessage,
    ThreadPerNMessages,
    ThreadPerProtocol,
    make_model,
)
from repro.concurrency.threadpool import ThreadPool
from repro.events.event import Event
from repro.events.types import ontology

ETYPE = ontology.get("HELLO_IN")


class Unit:
    """A minimal CFS-unit stand-in recording processing order."""

    def __init__(self, name="unit", delay=0.0):
        self.name = name
        self.lock = threading.RLock()
        self.seen = []
        self.delay = delay
        self.concurrent = 0
        self.max_concurrent = 0
        self._gauge = threading.Lock()

    def process_event(self, event):
        with self._gauge:
            self.concurrent += 1
            self.max_concurrent = max(self.max_concurrent, self.concurrent)
        if self.delay:
            time.sleep(self.delay)
        self.seen.append(event.event_id)
        with self._gauge:
            self.concurrent -= 1


def events(count):
    return [Event(ETYPE) for _ in range(count)]


class TestThreadPool:
    def test_executes_jobs(self):
        pool = ThreadPool(workers=2)
        results = []
        lock = threading.Lock()
        for i in range(20):
            pool.submit(lambda i=i: (lock.acquire(), results.append(i), lock.release()))
        assert pool.wait_idle(timeout=5.0)
        assert sorted(results) == list(range(20))
        pool.shutdown()

    def test_captures_exceptions(self):
        pool = ThreadPool(workers=1)
        pool.submit(lambda: 1 / 0)
        pool.wait_idle(timeout=5.0)
        pool.shutdown()
        assert len(pool.errors) == 1
        assert "ZeroDivisionError" in pool.errors[0]

    def test_shutdown_rejects_new_work(self):
        pool = ThreadPool(workers=1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ThreadPool(workers=0)


@pytest.mark.parametrize(
    "model_name",
    ["single-threaded", "thread-per-message", "thread-per-n-messages",
     "thread-per-protocol"],
)
class TestModelContract:
    """The shared obligations, verified for every model."""

    def make(self, model_name):
        return make_model(model_name)

    def test_all_events_processed(self, model_name):
        model = self.make(model_name)
        unit = Unit()
        batch = events(40)
        for event in batch:
            model.dispatch(unit, event)
        assert model.drain(timeout=10.0)
        assert sorted(unit.seen) == sorted(e.event_id for e in batch)
        model.shutdown()

    def test_fifo_order_per_unit(self, model_name):
        model = self.make(model_name)
        unit = Unit(delay=0.001)
        batch = events(25)
        for event in batch:
            model.dispatch(unit, event)
        assert model.drain(timeout=10.0)
        assert unit.seen == [e.event_id for e in batch]
        model.shutdown()

    def test_handlers_are_atomic(self, model_name):
        model = self.make(model_name)
        unit = Unit(delay=0.002)
        for event in events(12):
            model.dispatch(unit, event)
        assert model.drain(timeout=10.0)
        assert unit.max_concurrent == 1  # critical section honoured
        model.shutdown()

    def test_drain_idle_model(self, model_name):
        model = self.make(model_name)
        assert model.drain(timeout=1.0)
        model.shutdown()

    def test_in_flight_accounting(self, model_name):
        model = self.make(model_name)
        unit = Unit()
        for event in events(5):
            model.dispatch(unit, event)
        model.drain(timeout=10.0)
        assert model.in_flight == 0
        assert model.dispatched == model.processed == 5
        model.shutdown()


class TestModelSpecifics:
    def test_single_threaded_is_synchronous(self):
        model = SingleThreaded()
        unit = Unit()
        event = Event(ETYPE)
        model.dispatch(unit, event)
        assert unit.seen == [event.event_id]  # processed before return

    def test_single_threaded_wakes_drain_waiting_on_another_thread(self):
        # Processing notifies only when a drain() is waiting: a waiter
        # that arrives while a handler runs must still be woken, not left
        # to sleep out its timeout.
        model = SingleThreaded()
        release = threading.Event()

        class Blocking(Unit):
            def process_event(self, event):
                release.wait(10.0)
                super().process_event(event)

        dispatcher = threading.Thread(
            target=model.dispatch, args=(Blocking(), Event(ETYPE))
        )
        dispatcher.start()
        result = {}

        def waiter():
            began = time.monotonic()
            result["done"] = model.drain(timeout=30.0)
            result["took"] = time.monotonic() - began

        draining = threading.Thread(target=waiter)
        draining.start()
        deadline = time.monotonic() + 10.0
        while model._waiters == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert model._waiters == 1
        assert model.in_flight == 1
        release.set()
        draining.join(15.0)
        dispatcher.join(15.0)
        assert not draining.is_alive() and not dispatcher.is_alive()
        assert result["done"] is True
        assert result["took"] < 10.0
        assert model.in_flight == 0 and model._waiters == 0

    def test_single_threaded_accounting_under_concurrent_drains(self):
        # More dispatching threads than cores, drains racing them, and a
        # short switch interval: no increment may be lost and no drain
        # may sleep out its timeout once the work is done.
        model = SingleThreaded()
        units = [Unit(name=f"u{i}") for i in range(4)]
        per_thread = 300
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            dispatchers = [
                threading.Thread(
                    target=lambda unit=unit: [
                        model.dispatch(unit, event) for event in events(per_thread)
                    ]
                )
                for unit in units
            ]
            drained = []
            drainers = [
                threading.Thread(target=lambda: drained.append(model.drain(timeout=20.0)))
                for _ in range(3)
            ]
            for thread in dispatchers + drainers:
                thread.start()
            for thread in dispatchers + drainers:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in dispatchers + drainers)
        assert drained == [True, True, True]
        assert model.dispatched == model.processed == per_thread * len(units)
        assert all(len(unit.seen) == per_thread for unit in units)
        assert model._waiters == 0

    def test_thread_per_message_parallel_across_units(self):
        model = ThreadPerMessage()
        slow_units = [Unit(f"u{i}", delay=0.05) for i in range(4)]
        start = time.monotonic()
        for unit in slow_units:
            model.dispatch(unit, Event(ETYPE))
        assert model.drain(timeout=10.0)
        elapsed = time.monotonic() - start
        # 4 x 0.05s sequentially would take 0.2s; parallel should be well under.
        assert elapsed < 0.15
        model.shutdown()

    def test_thread_per_n_batches(self):
        model = ThreadPerNMessages(n=3)
        unit = Unit()
        for event in events(2):
            model.dispatch(unit, event)
        time.sleep(0.05)
        assert unit.seen == []  # batch not yet full: buffered
        model.dispatch(unit, Event(ETYPE))
        assert model.drain(timeout=5.0)
        assert len(unit.seen) == 3
        model.shutdown()

    def test_thread_per_n_drain_flushes_partial_batch(self):
        model = ThreadPerNMessages(n=10)
        unit = Unit()
        for event in events(4):
            model.dispatch(unit, event)
        assert model.drain(timeout=5.0)
        assert len(unit.seen) == 4
        model.shutdown()

    def test_thread_per_n_drain_flushes_cascades_until_quiescent(self):
        # Each handled event dispatches a follow-up to the next unit in a
        # chain; those land in fresh partial batches while the flushed
        # batch runs, and drain must flush them too instead of timing out.
        model = ThreadPerNMessages(n=10)

        class Relay(Unit):
            def __init__(self, name, downstream):
                super().__init__(name)
                self.downstream = downstream

            def process_event(self, event):
                super().process_event(event)
                if self.downstream is not None:
                    model.dispatch(self.downstream, Event(ETYPE))

        head = None
        for i in range(5):
            head = Relay(f"u{i}", head)
        for event in events(3):
            model.dispatch(head, event)
        started = time.monotonic()
        assert model.drain(timeout=5.0)
        assert time.monotonic() - started < 2.0
        assert model.in_flight == 0
        assert model.dispatched == 3 * 5
        model.shutdown()

    def test_thread_per_n_cascade_stress_keeps_fifo(self):
        # More shepherds than cores, frequent thread switches: every relay
        # forwards what it handled downstream, and each unit must see its
        # events in dispatch order with drain ending quiescent.
        model = ThreadPerNMessages(n=3)
        sinks = [Unit(f"sink{i}") for i in range(4)]

        class Fan(Unit):
            def process_event(self, event):
                super().process_event(event)
                model.dispatch(sinks[event.event_id % len(sinks)], event)

        fans = [Fan(f"fan{i}") for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sent = events(200)
            for event in sent:
                model.dispatch(fans[event.event_id % len(fans)], event)
            assert model.drain(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        for index, fan in enumerate(fans):
            assert fan.seen == [
                e.event_id for e in sent if e.event_id % len(fans) == index
            ]
        for index, sink in enumerate(sinks):
            assert sorted(sink.seen) == sorted(
                e.event_id for e in sent if e.event_id % len(sinks) == index
            )
        assert model.in_flight == 0
        model.shutdown()

    def test_drain_timeout_returns_false(self):
        model = ThreadPerMessage()
        model.dispatch(Unit(delay=0.5), Event(ETYPE))
        assert not model.drain(timeout=0.05)
        assert model.drain(timeout=5.0)
        model.shutdown()

    def test_thread_per_n_invalid(self):
        with pytest.raises(ValueError):
            ThreadPerNMessages(n=0)

    def test_thread_per_protocol_dedicated_threads(self):
        model = ThreadPerProtocol()
        units = [Unit(f"u{i}") for i in range(3)]
        for unit in units:
            model.attach(unit)
        for unit in units:
            for event in events(5):
                model.dispatch(unit, event)
        assert model.drain(timeout=10.0)
        for unit in units:
            assert len(unit.seen) == 5
        model.shutdown()

    def test_thread_per_protocol_caller_returns_immediately(self):
        model = ThreadPerProtocol()
        unit = Unit(delay=0.2)
        start = time.monotonic()
        model.dispatch(unit, Event(ETYPE))
        dispatch_time = time.monotonic() - start
        assert dispatch_time < 0.05  # hand-off, not synchronous processing
        assert model.drain(timeout=5.0)
        model.shutdown()

    def test_make_model_unknown(self):
        with pytest.raises(ValueError):
            make_model("fibers")

    def test_model_name(self):
        assert make_model("single-threaded").model_name == "SingleThreaded"
