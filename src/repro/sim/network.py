"""The :class:`Simulation` facade.

Wires scheduler, medium, nodes, topology control, mobility and statistics
into one object, and provides traffic generation plus a drain-aware run
loop: after every discrete event, registered drain hooks run so that
deployments using threaded concurrency models reach quiescence before
simulated time advances — keeping runs deterministic under every model.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults imports medium)
    from repro.sim.faults import FaultInjector, FaultPlan

from repro.errors import UnknownNode
from repro.obs import Observability
from repro.obs.profile import Profiler
from repro.obs.trace import TraceRecorder
from repro.sim.medium import WirelessMedium
from repro.sim.node import BatteryModel, SimNode
from repro.sim.phy import MediumModel, build_medium_model
from repro.sim.stats import NetworkStats
from repro.sim.topology import TopologyController
from repro.utils.scheduler import Scheduler
from repro.utils.timers import TimerService


class CBRFlow:
    """A constant-bit-rate data flow between two nodes."""

    def __init__(
        self,
        sim: "Simulation",
        src: int,
        dst: int,
        interval: float,
        payload: bytes,
        count: Optional[int],
    ) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        self.interval = interval
        self.payload = payload
        self.remaining = count
        self.sent = 0
        self._stopped = False

    def _emit(self) -> None:
        if self._stopped:
            return
        if self.remaining is not None and self.sent >= self.remaining:
            return
        self.sim.node(self.src).send_data(self.dst, self.payload)
        self.sent += 1
        if self.remaining is None or self.sent < self.remaining:
            self.sim.scheduler.call_later(self.interval, self._emit)

    def stop(self) -> None:
        self._stopped = True


class Simulation:
    """One simulated MANET: scheduler + medium + nodes + traffic + stats."""

    def __init__(
        self,
        seed: int = 0,
        latency: float = 0.002,
        loss: float = 0.0,
        phy: "Union[None, str, MediumModel]" = None,
    ) -> None:
        self.scheduler = Scheduler()
        self.obs = Observability(clock=lambda: self.scheduler.now)
        self.medium = WirelessMedium(self.scheduler, seed=seed, obs=self.obs)
        #: PHY strategy (see :mod:`repro.sim.phy`): ``None``/``"ideal"``
        #: keeps the ideal matrix-delivery fast path; a profile name
        #: (``"802.11b"``/``"802.11g"``/``"802.11p"``) installs an
        #: :class:`~repro.sim.phy.InterferenceModel` seeded with ``seed``.
        self.phy_model = self.medium.install_model(build_medium_model(phy, seed=seed))
        self.stats = NetworkStats(registry=self.obs.registry)
        self.obs.registry.register_collector(self._collect_medium_metrics)
        self.timers = TimerService(self.scheduler, seed=seed)
        self.topology = TopologyController(self.medium, latency=latency, loss=loss)
        self._nodes: Dict[int, SimNode] = {}
        self._next_id = itertools.count(1)
        self._drain_hooks: List[Callable[[], Optional[bool]]] = []
        self.flows: List[CBRFlow] = []
        #: Sticky: set once any run loop trips its ``max_events`` cap with
        #: work still queued.  Surfaced per shard in merged sharded
        #: summaries so a silently capped shard cannot masquerade as a
        #: complete run.
        self.truncated = False
        #: Sticky count of drain hooks that returned ``False``: a threaded
        #: concurrency model timed out with events still in flight, so the
        #: run went on without reaching quiescence.
        self.drain_timeouts = 0

    # -- node management -----------------------------------------------------

    def add_node(
        self,
        node_id: Optional[int] = None,
        position: Tuple[float, float] = (0.0, 0.0),
        battery: Optional[BatteryModel] = None,
    ) -> SimNode:
        if node_id is None:
            node_id = next(self._next_id)
            while node_id in self._nodes:
                node_id = next(self._next_id)
        if node_id in self._nodes:
            raise ValueError(f"node {node_id} already exists")
        node = SimNode(
            node_id,
            self.medium,
            self.scheduler,
            stats=self.stats,
            position=position,
            battery=battery,
            obs=self.obs,
        )
        self._nodes[node_id] = node
        return node

    def add_nodes(self, count: int) -> List[SimNode]:
        return [self.add_node() for _ in range(count)]

    def remove_node(self, node_id: int) -> None:
        node = self.node(node_id)
        node.shutdown()
        del self._nodes[node_id]

    def node(self, node_id: int) -> SimNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no node {node_id} in simulation") from None

    def nodes(self) -> List[SimNode]:
        return [self._nodes[nid] for nid in sorted(self._nodes)]

    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    # -- observability -------------------------------------------------------

    def enable_tracing(self, capacity: int = 200_000) -> TraceRecorder:
        """Turn on structured tracing for this simulation.

        Installs the recorder on the scheduler (every dispatched event
        becomes a span) and arms the medium / node / kernel-table hooks
        that share this simulation's :class:`Observability`.
        """
        tracer = self.obs.enable_tracing(capacity=capacity)
        self.scheduler.tracer = tracer
        return tracer

    def disable_tracing(self) -> None:
        self.obs.disable_tracing()

    def enable_profiling(self) -> Profiler:
        """Turn on the cost-attribution profiler for this simulation.

        Installs the profiler on the scheduler (every dispatch becomes a
        ``sched.dispatch`` frame); the medium / unit / fault / reconfig
        seams pick it up through this simulation's :class:`Observability`.
        See :mod:`repro.obs.profile`.
        """
        profiler = self.obs.enable_profiling()
        self.scheduler.profiler = profiler
        return profiler

    def disable_profiling(self) -> None:
        self.obs.disable_profiling()
        self.scheduler.profiler = None

    def _collect_medium_metrics(self) -> Dict[str, float]:
        tracer = self.obs.tracer
        metrics = {
            "medium.frames_sent": float(self.medium.frames_sent),
            "medium.frames_delivered": float(self.medium.frames_delivered),
            "medium.frames_lost": float(self.medium.frames_lost),
            "medium.batches_scheduled": float(self.medium.batches_scheduled),
            "sched.events_executed": float(self.scheduler.executed_count),
            # Always-present so metric schemas don't depend on tracing.
            "trace.events": float(len(tracer.events)) if tracer else 0.0,
            "trace.dropped": float(tracer.dropped) if tracer else 0.0,
        }
        # phy.* keys are always present (zeros under the ideal model) so
        # metric schemas don't depend on which medium model is installed.
        metrics.update(self.medium.model.metrics())
        return metrics

    # -- drain hooks (determinism under threaded concurrency models) ----------

    def add_drain_hook(self, hook: Callable[[], Optional[bool]]) -> None:
        """Run ``hook`` after every event; a ``False`` return is a timeout."""
        self._drain_hooks.append(hook)

    def _drain(self) -> None:
        for hook in self._drain_hooks:
            if hook() is False:
                self.drain_timeouts += 1

    # -- running ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.now

    def run(self, duration: float, max_events: int = 2_000_000) -> int:
        """Advance the simulation by ``duration`` seconds."""
        return self.run_until(
            self.scheduler.now + duration, max_events=max_events
        )

    def run_until(
        self,
        deadline: float,
        max_events: Optional[int] = 2_000_000,
        inclusive: bool = True,
    ) -> int:
        """Advance to an absolute deadline — the sharded-epoch seam.

        ``inclusive=False`` leaves events stamped exactly at ``deadline``
        queued (a shard's non-final epochs use this so barrier-straddling
        events fire on the same side as in an unsharded run).  When
        ``max_events`` trips with work still queued, the clock is NOT
        jumped over the stranded events (doing so used to poison the
        scheduler: the next ``step`` would try to move the clock
        backwards) and :attr:`truncated` latches ``True``.
        """
        executed = 0
        truncated = False
        while True:
            upcoming = self.scheduler.next_event_time()
            if upcoming is None:
                break
            if (upcoming > deadline) if inclusive else (upcoming >= deadline):
                break
            if max_events is not None and executed >= max_events:
                truncated = True
                break
            self.scheduler.step()
            executed += 1
            if self._drain_hooks:
                self._drain()
        if truncated:
            self.truncated = True
        elif self.scheduler.clock.now() < deadline:
            self.scheduler.clock.set_time(deadline)
        return executed

    def run_until_idle(self, max_events: int = 2_000_000) -> int:
        executed = 0
        while executed < max_events and self.scheduler.step():
            executed += 1
            if self._drain_hooks:
                self._drain()
        return executed

    # -- fault injection ------------------------------------------------------------

    def install_faults(
        self,
        plan: "FaultPlan",
        kits: Optional[Dict[int, object]] = None,
        rebuild: Optional[Callable[[int, object], object]] = None,
    ) -> "FaultInjector":
        """Install a :class:`~repro.sim.faults.FaultPlan` on this simulation.

        Convenience wrapper constructing a seeded
        :class:`~repro.sim.faults.FaultInjector`; see that class for the
        ``kits`` / ``rebuild`` contract (needed for crash/restart steps).
        """
        from repro.sim.faults import FaultInjector

        return FaultInjector(self, kits=kits, rebuild=rebuild).install(plan)

    # -- traffic --------------------------------------------------------------------

    def start_cbr(
        self,
        src: int,
        dst: int,
        interval: float = 0.25,
        payload: bytes = b"\x00" * 64,
        start_delay: float = 0.0,
        count: Optional[int] = None,
    ) -> CBRFlow:
        """Start a constant-bit-rate flow ``src -> dst``."""
        self.node(src)
        self.node(dst)
        flow = CBRFlow(self, src, dst, interval, payload, count)
        self.flows.append(flow)
        self.scheduler.call_later(start_delay, flow._emit)
        return flow
