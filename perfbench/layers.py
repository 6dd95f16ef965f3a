"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer (class
attributes and the names ``repro.core.system_cf`` imported from
``repro.packetbb``) for the duration of one pass.  Every wrapped call is
a span: its self time is its duration minus the time its wrapped child
calls took.  Counts and self times aggregate online per span label; the
first ``capacity`` spans are also kept in memory and written out at the
end of the run as a Chrome trace (``chrome://tracing`` / Perfetto).

Wrappers must be installed before the pass builds its simulation: the
medium captures each node's bound ``receive_frame`` at registration.
"""

from __future__ import annotations

import gzip
import json
import pathlib
import time
from array import array
from typing import Callable, Dict, List, Optional

import repro.core.system_cf as system_cf
from repro.core.framework_manager import FrameworkManager
from repro.core.manetkit import ManetKit
from repro.core.system_cf import SysForward
from repro.core.unit import CFSUnit
from repro.monolithic.olsrd import OlsrdDaemon
from repro.packetbb.packet import decode_cache_stats
from repro.protocols.olsr.routes import RouteCalculator
from repro.protocols.olsr.spt import IncrementalSpt
from repro.protocols.olsr.state import OlsrState
from repro.sim.kernel_table import KernelRoutingTable
from repro.sim.medium import WirelessMedium
from repro.sim.node import SimNode
from repro.utils.scheduler import Scheduler

perf = time.perf_counter

#: The (unit, event) pairs reported per layer; all pairs are in the span file.
UNIT_EVENTS = (
    "olsr-TC_IN", "mpr-TC_IN", "mpr-HELLO_IN", "system-TC_OUT",
    "system-HELLO_OUT", "dymo-RE_IN", "system-RE_OUT", "dymo-ROUTE_UPDATE",
)


class LayerTracer:
    """Span recorder over monkey-patched layer entry points."""

    def __init__(self, capacity: int = 100_000) -> None:
        self.capacity = capacity
        self.labels: List[str] = []
        self._ids: Dict[str, int] = {}
        self.count: List[int] = []
        self.self_s: List[float] = []
        # Open spans: accumulated child time per level.
        self._stack: List[float] = []
        self.span_label = array("I")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.span_depth = array("H")
        self.dropped = 0
        self.last = 0.0
        self.tally: Dict[str, float] = {}
        self._restore: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def label_id(self, label: str) -> int:
        index = self._ids.get(label)
        if index is None:
            index = self._ids[label] = len(self.labels)
            self.labels.append(label)
            self.count.append(0)
            self.self_s.append(0.0)
        return index

    def span(self, label: Optional[str], fn: Callable,
             label_of: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call is a span named ``label`` (or ``label_of(*args)``)."""
        stack = self._stack
        fixed = None if label is None else self.label_id(label)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                child = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                index = fixed if fixed is not None else self.label_id(label_of(*args))
                self.count[index] += 1
                self.self_s[index] += duration - child
                self.last = duration
                if len(self.span_start) < self.capacity:
                    self.span_label.append(index)
                    self.span_start.append(start)
                    self.span_dur.append(duration)
                    self.span_depth.append(len(stack))
                else:
                    self.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, key: str, value: float = 1.0) -> None:
        self.tally[key] = self.tally.get(key, 0.0) + value

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name: str, replacement: Callable) -> None:
        """Replace a class's method or a module's function until :meth:`uninstall`."""
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> "LayerTracer":
        span = self.span
        add = self.add

        self._patch(Scheduler, "step", span("scheduler.step", Scheduler.step))
        broadcast = span("medium.broadcast", WirelessMedium.broadcast)

        def medium_broadcast(medium, frame):
            scheduled = broadcast(medium, frame)
            add("medium.fanout", scheduled)
            return scheduled

        self._patch(WirelessMedium, "broadcast", medium_broadcast)
        self._patch(WirelessMedium, "unicast", span("medium.unicast", WirelessMedium.unicast))
        self._patch(WirelessMedium, "_deliver", span("medium.deliver", WirelessMedium._deliver))

        receive = span("node.receive_frame", SimNode.receive_frame)

        def node_receive(node, frame):
            if frame.kind == "data" and frame.payload.dst != node.node_id:
                add("node.data_forwarded")
            return receive(node, frame)

        self._patch(SimNode, "receive_frame", node_receive)
        self._patch(SysForward, "_on_wire", span("system_cf.rx", SysForward._on_wire))

        decode = span("packetbb.decode", system_cf.decode_interned)

        def packetbb_decode(payload):
            misses = decode_cache_stats()["misses"]
            packet = decode(payload)
            if decode_cache_stats()["misses"] != misses:
                add("packetbb.decode_misses")
                add("packetbb.decode_miss_s", self.last)
            return packet

        self._patch(system_cf, "decode_interned", packetbb_decode)
        self._patch(system_cf, "encode", span("packetbb.encode", system_cf.encode))

        route = span("fm.route", FrameworkManager.route)

        def fm_route(manager, source, event):
            targets = route(manager, source, event)
            add("fm.targets", targets)
            return targets

        self._patch(FrameworkManager, "route", fm_route)
        self._patch(CFSUnit, "process_event", span(
            None, CFSUnit.process_event,
            label_of=lambda unit, event: f"unit.{unit.name}-{event.etype.name}",
        ))
        self._patch(OlsrState, "record_topology",
                    span("olsr.record_topology", OlsrState.record_topology))
        install = span("route_calc.install", RouteCalculator.install)

        def route_install(calculator):
            hits = calculator.cache_hits
            count = install(calculator)
            if calculator.cache_hits != hits:
                add("route_calc.noop")
            return count

        self._patch(RouteCalculator, "install", route_install)
        self._patch(IncrementalSpt, "apply", span("spt.apply", IncrementalSpt.apply))
        self._patch(IncrementalSpt, "rebuild", span("spt.rebuild", IncrementalSpt.rebuild))

        replace_all = span("kernel.write", KernelRoutingTable.replace_all)

        def kernel_replace_all(table, routes, proto=None):
            add("kernel.routes_written", len(routes))
            return replace_all(table, routes, proto)

        add_route = span("kernel.write", KernelRoutingTable.add_route)

        def kernel_add_route(table, *args, **kwargs):
            add("kernel.routes_written")
            return add_route(table, *args, **kwargs)

        self._patch(KernelRoutingTable, "replace_all", kernel_replace_all)
        self._patch(KernelRoutingTable, "add_route", kernel_add_route)
        self._patch(KernelRoutingTable, "lookup", span("kernel.lookup", KernelRoutingTable.lookup))
        self._patch(ManetKit, "load_protocol", span("manetkit.load", ManetKit.load_protocol))
        self._patch(OlsrdDaemon, "on_wire", span("olsrd.on_wire", OlsrdDaemon.on_wire))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------

    def stat(self, label: str):
        index = self._ids.get(label)
        if index is None:
            return 0, 0.0
        return self.count[index], self.self_s[index]

    def unit_counts(self) -> Dict[str, int]:
        return {
            label[len("unit."):]: self.count[i]
            for i, label in enumerate(self.labels) if label.startswith("unit.")
        }

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures; a layer the pass never entered reads 0."""
        def per(total: float, n: float, scale: float = 1.0) -> float:
            return total / n * scale if n else 0.0

        tally = self.tally.get
        out: Dict[str, float] = {}
        n, s = self.stat("scheduler.step")
        out["scheduler.events"] = n
        out["scheduler.self_us_per_event"] = per(s, n, 1e6)
        broadcasts, _ = self.stat("medium.broadcast")
        unicasts, _ = self.stat("medium.unicast")
        deliveries, s = self.stat("medium.deliver")
        out["medium.broadcasts"] = broadcasts
        out["medium.unicasts"] = unicasts
        out["medium.deliveries"] = deliveries
        out["medium.fanout"] = per(tally("medium.fanout", 0.0), broadcasts)
        out["medium.self_us_per_delivery"] = per(s, deliveries, 1e6)
        n, s = self.stat("node.receive_frame")
        out["node.rx_frames"] = n
        out["node.self_us_per_rx"] = per(s, n, 1e6)
        out["node.data_forwarded"] = tally("node.data_forwarded", 0.0)
        decodes, _ = self.stat("packetbb.decode")
        misses = tally("packetbb.decode_misses", 0.0)
        out["packetbb.decodes"] = decodes
        out["packetbb.decode_hit_ratio"] = per(decodes - misses, decodes)
        out["packetbb.decode_us_per_miss"] = per(tally("packetbb.decode_miss_s", 0.0), misses, 1e6)
        n, s = self.stat("packetbb.encode")
        out["packetbb.encodes"] = n
        out["packetbb.encode_us"] = per(s, n, 1e6)
        n, s = self.stat("system_cf.rx")
        out["system_cf.self_us_per_rx"] = per(s, n, 1e6)
        n, s = self.stat("fm.route")
        out["fm.routes"] = n
        out["fm.targets_per_route"] = per(tally("fm.targets", 0.0), n)
        out["fm.self_us_per_route"] = per(s, n, 1e6)
        for pair in UNIT_EVENTS:
            n, s = self.stat(f"unit.{pair}")
            out[f"unit.{pair}.count"] = n
            out[f"unit.{pair}.self_us"] = per(s, n, 1e6)
        tc_in, _ = self.stat("unit.olsr-TC_IN")
        out["olsr.tc_fresh_share"] = per(self.stat("olsr.record_topology")[0], tc_in)
        n, s = self.stat("route_calc.install")
        out["route_calc.installs"] = n
        out["route_calc.noop_share"] = per(tally("route_calc.noop", 0.0), n)
        out["route_calc.self_us"] = per(s, n, 1e6)
        applies, s = self.stat("spt.apply")
        out["spt.applies"] = applies
        out["spt.rebuilds"] = self.stat("spt.rebuild")[0]
        out["spt.us_per_apply"] = per(s, applies, 1e6)
        n, s = self.stat("kernel.write")
        out["kernel.writes"] = n
        out["kernel.routes_per_write"] = per(tally("kernel.routes_written", 0.0), n)
        out["kernel.us_per_write"] = per(s, n, 1e6)
        n, s = self.stat("kernel.lookup")
        out["kernel.lookups"] = n
        out["kernel.us_per_lookup"] = per(s, n, 1e6)
        n, s = self.stat("manetkit.load")
        out["manetkit.loads"] = n
        out["manetkit.ms_per_load"] = per(s, n, 1e3)
        n, s = self.stat("olsrd.on_wire")
        out["olsrd.us_per_msg"] = per(s, n, 1e6)
        return out

    def write_chrome(self, path: pathlib.Path) -> pathlib.Path:
        """Write the kept spans as a gzipped Chrome trace-event file."""
        origin = self.span_start[0] if self.span_start else 0.0
        events = [
            {"name": self.labels[self.span_label[i]], "ph": "X", "pid": 1, "tid": 1,
             "ts": round((self.span_start[i] - origin) * 1e6, 3),
             "dur": round(self.span_dur[i] * 1e6, 3),
             "args": {"depth": self.span_depth[i]}}
            for i in range(len(self.span_start))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            json.dump({"traceEvents": events, "otherData": {
                "dropped_spans": self.dropped,
                "totals": {label: {"count": self.count[i], "self_s": self.self_s[i]}
                           for i, label in enumerate(self.labels)},
            }}, handle)
        return path


def cross_check(tracer: LayerTracer, sims: list, kits: list) -> List[str]:
    """Compare wrapper counts with the program's own deterministic counters.

    A wrapper that misses calls (for example through a name bound by
    ``from ... import`` before patching) shows up as a mismatch here.
    ``sims`` must have had ``enable_profiling()`` called before running.
    """
    problems = []

    def expect(what: str, traced: float, program: float) -> None:
        if traced != program:
            problems.append(f"cross-check {what}: traced {traced} != program {program}")

    profiled: Dict[str, int] = {}
    registry: Dict[str, float] = {}
    for sim in sims:
        profile = sim.obs.profiler.snapshot(deterministic=True)
        for entry in profile["stacks"]:
            label = entry["stack"][-1]
            if label.startswith("unit.process:"):
                key = label.split(":", 1)[1].replace("/", "-")
                profiled[key] = profiled.get(key, 0) + entry["count"]
        for key, value in sim.obs.registry.snapshot()["counters"].items():
            if key.startswith("route_calc."):
                name = key.split("{")[0]
                registry[name] = registry.get(name, 0) + value
    expect("unit.process counts", tracer.unit_counts(), profiled)
    expect("medium deliveries", tracer.stat("medium.deliver")[0],
           sum(sim.medium.frames_delivered for sim in sims))
    stats = decode_cache_stats()
    expect("packetbb decodes", tracer.stat("packetbb.decode")[0], stats["hits"] + stats["misses"])
    expect("packetbb decode misses", tracer.tally.get("packetbb.decode_misses", 0.0),
           stats["misses"])
    expect("route_calc installs", tracer.stat("route_calc.install")[0], sum(registry.values()))
    expect("route_calc noops", tracer.tally.get("route_calc.noop", 0.0),
           registry.get("route_calc.noop", 0))
    expect("fm routes", tracer.stat("fm.route")[0],
           sum(kit.manager.events_routed for kit in kits))
    expect("node data forwarded", tracer.tally.get("node.data_forwarded", 0.0),
           sum(node.data_forwarded for sim in sims for node in sim.nodes()))
    return problems
