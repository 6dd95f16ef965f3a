"""Scenario builders and timed passes for the three benchmark workloads.

Every pass is single-process and single-threaded, uses the ideal PHY and
the default ``SingleThreaded`` concurrency model, and is a pure function
of its seed: the deterministic part of its result (``digest``) must be
identical every time the same seed runs.

On a shared box the same code can take 1.8x longer from one second to the
next.  Sim passes and replayed messages are therefore reported at a fixed
reference speed: the work is cut into pieces of a millisecond or two (16
scheduler events, one node's stack deploy, or one replayed message), a
fixed pure-Python yardstick runs next to every piece, and each piece's
time is scaled by ``YARD_REF_S`` over the median yardstick time of the
pieces around it (see :func:`at_reference`).  On repeated runs of one seed
this cut the spread of a pass's rate from 0.10 to 0.04 (coefficient of
variation) and of the replay p50 from 0.10 to 0.05; a yardstick sampled
only every 10 ms or more did not follow the box at all.  A change to the
program moves the work time but not the yardstick, which lives here.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import struct
import time
from typing import Callable, Dict, List, Tuple

import repro.protocols  # noqa: F401  (registers the protocol builders)
from repro.core import ManetKit
from repro.monolithic import DymoumDaemon, OlsrdDaemon
from repro.packetbb.message import MsgType
from repro.packetbb.packet import decode, reset_decode_cache
from repro.sim import Simulation
from repro.sim.medium import BROADCAST, Frame
from repro.tools.scenario import parse_topology

perf = time.perf_counter

#: The yardstick's nominal time: reported host times are what a box whose
#: yardstick takes exactly this long would take.
YARD_REF_S = 20e-6

#: Replayed messages per yardstick scaling block (see :func:`at_reference`).
YARD_BLOCK = 64

#: A sim pass runs in chunks of this many scheduler events, a yardstick
#: before each, and scales its chunks in blocks of ``CHUNK_BLOCK``.
CHUNK_EVENTS = 16
CHUNK_BLOCK = 16

#: Event cap of one sim pass; reaching it makes the pass truncated.
MAX_EVENTS = 5_000_000

#: Per-link one-way latency, drawn per link from the seed.  Unequal links
#: make every sim-time latency a continuous quantity, so two seeds never
#: tie on a latency percentile by construction.
LINK_LATENCY_S = (0.0015, 0.0025)

#: Setups timed per run for ``setup_s``, beyond the ones passes make.
EXTRA_SETUPS = 10

#: A stream entry: (sim time, receiving node, sending node, payload bytes).
StreamEntry = Tuple[float, int, int, bytes]

PAYLOAD = struct.Struct(">HI")

# ``taps``: nodes whose received control stream a sim pass records for the
# replay behind ``msg_us_*`` and ``monolith_ratio_p50``, spread evenly over
# the ids.  DYMO control traffic is sparse, so it taps more nodes.
# ``sampled``: the message type the per-message metrics describe, as in
# the paper's Table 1a (an OLSR TC, a DYMO routing element); every message
# is replayed, but HELLOs, about half of a DYMO stream, would otherwise
# put the p50 on the boundary between two cost modes.
OLSR_GRID = {"nodes": 200, "horizon": 10.0, "probes": 32, "probe_start": 8.0,
             "probe_stop": 9.8, "rate": 20.0, "taps": 16, "sampled": int(MsgType.TC)}
DYMO_FLOWS = {"nodes": 200, "horizon": 60.0, "flows": 64, "flow_len": 10.0,
              "rate": 20.0, "net_diameter": 32, "taps": 100, "sampled": int(MsgType.RE)}
OLSR_REPLAY = {"nodes": 64, "horizon": 20.0, "check_prefix": 6.0,
               "sampled": int(MsgType.TC)}

#: Reduced sizes for the traced run's counter cross-check.
SMALL = {
    "olsr_grid": dict(OLSR_GRID, nodes=36, horizon=9.0, probes=2,
                      probe_start=8.0, probe_stop=8.8),
    "dymo_flows": dict(DYMO_FLOWS, nodes=36, horizon=12.0, flows=4,
                       flow_len=3.0),
    "olsr_replay": dict(OLSR_REPLAY, nodes=25, horizon=10.0),
}


def digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# -- topology and stacks -------------------------------------------------------


def build_grid(seed: int, nodes: int) -> Tuple[Simulation, List[int]]:
    """The scale benchmark's near-square grid with seeded link latencies."""
    sim = Simulation(seed=seed)
    ids = parse_topology("grid", sim, nodes=nodes)
    rng = random.Random(f"links-{seed}")
    for a, b in sim.topology.edges():
        sim.medium.set_link(a, b, latency=rng.uniform(*LINK_LATENCY_S))
    return sim, ids


def build_linkless(seed: int, ids: List[int]) -> Simulation:
    """Nodes with the given ids and no links (replay targets)."""
    sim = Simulation(seed=seed)
    for node_id in ids:
        sim.add_node(node_id=node_id)
    return sim


def _olsr_kit(node) -> ManetKit:
    kit = ManetKit(node)
    kit.load_protocol("mpr")
    kit.load_protocol("olsr")
    return kit


def _dymo_kit(node, net_diameter: int) -> ManetKit:
    kit = ManetKit(node)
    kit.load_protocol("dymo").configurator.update({"net_diameter": net_diameter})
    return kit


def deploy_olsr(sim: Simulation, ids: List[int], clock: "RefClock",
                **_: object) -> list:
    """MANETKit MPR+OLSR on every node, each node's deploy timed on ``clock``."""
    return [clock.time(_olsr_kit, sim.node(node_id)) for node_id in ids]


def deploy_dymo(sim: Simulation, ids: List[int], clock: "RefClock",
                net_diameter: int = 32, **_: object) -> list:
    """MANETKit DYMO on every node, each node's deploy timed on ``clock``."""
    return [clock.time(_dymo_kit, sim.node(node_id), net_diameter) for node_id in ids]


def deploy_olsrd(sim: Simulation, ids: List[int], seed: int = 0, **_: object) -> list:
    daemons = []
    for node_id in ids:
        daemon = OlsrdDaemon(sim.node(node_id), seed=seed * 100_003 + node_id)
        daemon.start()
        daemons.append(daemon)
    return daemons


def deploy_dymoum(sim: Simulation, ids: List[int], seed: int = 0,
                  net_diameter: int = 32, **_: object) -> list:
    daemons = []
    for node_id in ids:
        # processing_delay=0: time the CPU path only, as Table 1a does.
        daemon = DymoumDaemon(sim.node(node_id), processing_delay=0.0,
                              net_diameter=net_diameter,
                              seed=seed * 100_003 + node_id)
        daemon.start()
        daemons.append(daemon)
    return daemons


def route_coverage(sim: Simulation, ids: List[int]) -> float:
    """Share of ordered node pairs holding a kernel route."""
    have = 0
    for node_id in ids:
        have += sum(1 for dst in sim.node(node_id).kernel_table.destinations()
                    if dst != node_id)
    return have / (len(ids) * (len(ids) - 1))


def tap_streams(sim: Simulation, ids: List[int], taps: int) -> List[StreamEntry]:
    """Record every control payload ``taps`` evenly spaced nodes receive."""
    stream: List[StreamEntry] = []
    step = max(1, len(ids) // taps)
    for node_id in ids[::step][:taps]:
        def tap(payload: bytes, sender: int, node_id: int = node_id) -> None:
            stream.append((sim.now, node_id, sender, payload))
        sim.node(node_id).add_control_receiver(tap)
    return stream


def yardstick() -> int:
    """Fixed pure-Python work (dict, int and str operations), ~20 us."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(120):
        key = i & 7
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


def at_reference(works: List[float], yards: List[float],
                 block: int = YARD_BLOCK) -> List[float]:
    """Scale each work time to the reference speed.

    ``yards[i]`` is the yardstick time measured next to ``works[i]``.
    Consecutive items form blocks of ``block``; a block's work is scaled
    by ``YARD_REF_S`` over the block's median yardstick time.  A block
    spans a few to a few tens of milliseconds, short enough to follow the
    box's speed as it drifts.
    """
    scaled: List[float] = []
    for lo in range(0, len(works), block):
        ordered = sorted(yards[lo:lo + block])
        factor = YARD_REF_S / ordered[len(ordered) // 2]
        scaled.extend(work * factor for work in works[lo:lo + block])
    return scaled


class RefClock:
    """Reference-speed time of work done in small pieces.

    :meth:`time` runs one piece with a yardstick run just before it;
    :meth:`seconds` scales the pieces with :func:`at_reference`.  Pieces
    must be short (a few milliseconds at most) for the scaling to follow
    the box.
    """

    def __init__(self) -> None:
        self.works: List[float] = []
        self.yards: List[float] = []

    def time(self, fn: Callable, *args, **kwargs):
        start = perf()
        yardstick()
        middle = perf()
        result = fn(*args, **kwargs)
        self.works.append(perf() - middle)
        self.yards.append(middle - start)
        return result

    def seconds(self) -> float:
        return sum(at_reference(self.works, self.yards, CHUNK_BLOCK))


def run_at_reference(sim: Simulation, horizon: float):
    """Run ``sim`` to ``horizon`` in yardstick-paired chunks.

    Returns (events, reference seconds, truncated).  Each chunk is a
    ``run_until`` capped at ``CHUNK_EVENTS``, so ``Simulation.truncated``
    latches by design; the pass's own ``MAX_EVENTS`` cap replaces it.
    """
    clock = RefClock()
    events = 0
    while events < MAX_EVENTS:
        done = clock.time(sim.run_until, horizon, max_events=CHUNK_EVENTS)
        events += done
        if done < CHUNK_EVENTS:
            return events, clock.seconds(), False
    return events, clock.seconds(), True


def setup(build: Callable[[], Tuple[Simulation, List[int]]], deploy, cfg: dict):
    """Build the topology and deploy the MANETKit stacks: (sim, ids, kits, seconds).

    The build is one timed piece and each node's deploy another.
    """
    clock = RefClock()
    sim, ids = clock.time(build)
    kits = deploy(sim, ids, clock, **cfg)
    return sim, ids, kits, clock.seconds()


def timed_setups(build, deploy, cfg: dict, count: int) -> List[float]:
    """Set up ``count`` times, discarding the result; reference seconds each."""
    times = []
    for _ in range(count):
        gc.collect()
        times.append(setup(build, deploy, cfg)[3])
    return times


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile.

    Defined here rather than imported from the program, so that a change
    under test cannot change how it is measured.
    """
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- data traffic ----------------------------------------------------------------


class Flows:
    """Constant-rate datagram flows with per-packet accounting.

    Each payload carries (flow, sequence), so a delivery is checked
    against the flow it belongs to: wrong endpoints or a second copy of a
    packet make the pass incorrect.
    """

    def __init__(self, sim: Simulation, specs: List[Tuple[int, int, float, float]],
                 rate: float) -> None:
        self.sim = sim
        self.specs = specs
        self.interval = 1.0 / rate
        self.sent = 0
        #: Flows whose source held a route to the destination as it sent
        #: the flow's last packet.
        self.routed = 0
        self.latencies: List[float] = []
        self.first: Dict[int, float] = {}
        self.seen = set()
        self.errors = 0
        for dst in sorted({spec[1] for spec in specs}):
            sim.node(dst).add_app_receiver(self._receiver(dst))
        for flow, (_src, _dst, start, _stop) in enumerate(specs):
            sim.scheduler.call_at(start, self._emit, flow, 0)

    def _emit(self, flow: int, seq: int) -> None:
        src, dst, start, stop = self.specs[flow]
        self.sim.node(src).send_data(dst, PAYLOAD.pack(flow, seq) + bytes(58))
        self.sent += 1
        when = start + (seq + 1) * self.interval
        if when < stop:
            self.sim.scheduler.call_at(when, self._emit, flow, seq + 1)
        elif dst in self.sim.node(src).kernel_table.destinations():
            self.routed += 1

    def _receiver(self, node_id: int):
        def on_packet(packet) -> None:
            flow, seq = PAYLOAD.unpack_from(packet.payload)
            src, dst, start, _stop = self.specs[flow]
            if (flow, seq) in self.seen or packet.src != src or dst != node_id:
                self.errors += 1
                return
            self.seen.add((flow, seq))
            now = self.sim.now
            self.latencies.append(now - packet.created_at)
            self.first.setdefault(flow, now - start)
        return on_packet


def flow_metrics(flows: Flows) -> Dict[str, float]:
    setups = sorted(flows.first.values())
    return {
        "delivery_ratio": len(flows.latencies) / flows.sent,
        "data_latency_ms_p50": percentile(flows.latencies, 0.50) * 1e3,
        "data_latency_ms_p99": percentile(flows.latencies, 0.99) * 1e3,
        "route_setup_ms_p50": statistics.median(setups) * 1e3,
    }


# -- sim passes ----------------------------------------------------------------------


def _sim_pass(seed: int, cfg: dict, deploy, specs_of, coverage, check) -> dict:
    reset_decode_cache()
    gc.collect()
    sim, ids, kits, setup_s = setup(lambda: build_grid(seed, cfg["nodes"]), deploy, cfg)
    if cfg.get("profile"):
        sim.enable_profiling()
    stream = tap_streams(sim, ids, cfg["taps"])
    flows = Flows(sim, specs_of(seed, ids, cfg), cfg["rate"])
    events, busy, truncated = run_at_reference(sim, cfg["horizon"])
    metrics = flow_metrics(flows)
    metrics["route_coverage"] = coverage(sim, ids, flows)
    metrics["control_bytes"] = float(sim.stats.total_control_bytes)
    problems = list(check(metrics))
    if truncated:
        problems.append("run truncated at its event cap")
    if flows.errors:
        problems.append(f"{flows.errors} misdelivered or duplicate packets")
    return {
        "setup_s": setup_s,
        "sim_s_per_s": cfg["horizon"] / busy,
        "metrics": metrics,
        "attempted": flows.sent,
        "failed": flows.sent if truncated else flows.sent - len(flows.latencies),
        "stream": stream,
        "ids": ids,
        "sims": [sim],
        "kits": kits,
        "problems": problems,
        "digest": digest(events, sorted(metrics.items()), flows.sent,
                         sorted(flows.first.items())),
    }


def _probe_specs(seed: int, ids: List[int], cfg: dict):
    """Cross-grid probes, left column to right column, after convergence."""
    width = _grid_width(ids)
    rng = random.Random(f"probes-{seed}")
    left = [n for n in ids if (n - ids[0]) % width == 0]
    right = [n for n in ids if (n - ids[0]) % width == width - 1]
    start, stop = cfg["probe_start"], cfg["probe_stop"]
    return [
        (rng.choice(left), rng.choice(right),
         start + i * 0.01, stop)
        for i in range(cfg["probes"])
    ]


def _grid_width(ids: List[int]) -> int:
    count = len(ids)
    height = max(int(count ** 0.5), 1)
    while count % height:
        height -= 1
    return count // height


def _dymo_specs(seed: int, ids: List[int], cfg: dict):
    """Random pairs at a fixed profile of grid distances, staggered starts.

    The flows take the ``(i + 0.5) / flows`` quantiles of the all-pairs
    distance distribution, in seeded order, each with a random pair at its
    distance: the distance mix of uniform random pairs, without letting one
    seed draw mostly short or mostly long flows.
    """
    width = _grid_width(ids)
    cell = {n: divmod(n - ids[0], width) for n in ids}
    at_distance: Dict[int, List[Tuple[int, int]]] = {}
    for a in ids:
        for b in ids:
            if a != b:
                distance = abs(cell[a][0] - cell[b][0]) + abs(cell[a][1] - cell[b][1])
                at_distance.setdefault(distance, []).append((a, b))
    distances = sorted(d for d, pairs in at_distance.items() for _ in pairs)
    profile = [distances[int((i + 0.5) / cfg["flows"] * len(distances))]
               for i in range(cfg["flows"])]
    rng = random.Random(f"flows-{seed}")
    rng.shuffle(profile)
    latest = cfg["horizon"] - cfg["flow_len"] - 1.0
    specs = []
    for i, distance in enumerate(profile):
        src, dst = rng.choice(at_distance[distance])
        start = 1.0 + (latest - 1.0) * (i + rng.random()) / cfg["flows"]
        specs.append((src, dst, start, start + cfg["flow_len"]))
    return specs


def olsr_grid_pass(seed: int, cfg: dict = OLSR_GRID) -> dict:
    def check(metrics):
        if metrics["route_coverage"] < 1.0:
            yield f"OLSR did not converge: coverage {metrics['route_coverage']:.4f}"
    return _sim_pass(seed, cfg, deploy_olsr, _probe_specs,
                     lambda sim, ids, _flows: route_coverage(sim, ids), check)


def dymo_flows_pass(seed: int, cfg: dict = DYMO_FLOWS) -> dict:
    def check(metrics):
        if metrics["route_coverage"] <= 0.0:
            yield "no DYMO source held a route at its flow's end"
    # Reactive routes exist only for pairs in use: coverage is the share of
    # flows whose source held a route to its destination at its last packet.
    return _sim_pass(seed, cfg, deploy_dymo, _dymo_specs,
                     lambda _sim, _ids, flows: flows.routed / len(flows.specs), check)


# -- replay ------------------------------------------------------------------------------


def record_olsrd(seed: int, nodes: int, horizon: float):
    """Every control payload each node receives in a seeded olsrd grid run.

    Returns (stream, ids, link latencies).  Input generation: untimed.
    """
    sim, ids = build_grid(seed, nodes)
    deploy_olsrd(sim, ids, seed=seed)
    stream: List[StreamEntry] = []
    for node_id in ids:
        def tap(payload: bytes, sender: int, node_id: int = node_id) -> None:
            stream.append((sim.now, node_id, sender, payload))
        sim.node(node_id).add_control_receiver(tap)
    sim.run(horizon)
    links = {
        (a, b): sim.medium.link_properties(a, b).latency
        for a in ids for b in sim.medium.neighbors(a)
    }
    return stream, ids, links


def stream_digest(stream: List[StreamEntry], until: float = float("inf")) -> str:
    sha = hashlib.sha256()
    for when, rx, tx, payload in stream:
        if when > until:
            break
        sha.update(struct.pack(">dII", when, rx, tx))
        sha.update(payload)
    return sha.hexdigest()


def replay(stream: List[StreamEntry], seed: int, mkit_deploy, mono_deploy,
           cfg: dict, track_routes: bool = False) -> dict:
    """Closed-loop replay of ``stream`` into MANETKit and monolith nodes.

    Both sides get the same linkless node set.  Messages go in timestamp
    order; each side's clock is advanced to the message time first
    (untimed for the per-message figure), then the node's receive entry
    is timed.  Which side goes first alternates per message.  ``mk`` and
    ``mono`` hold the reference-speed times of the packets carrying a
    ``cfg["sampled"]`` message; ``busy`` covers every message.
    """
    ids = sorted({entry[1] for entry in stream} | {entry[2] for entry in stream})
    reset_decode_cache()
    gc.collect()
    msim, _ids, kits, setup_s = setup(lambda: (build_linkless(seed, ids), ids),
                                      mkit_deploy, cfg)
    if cfg.get("profile"):
        msim.enable_profiling()
    osim = build_linkless(seed, ids)
    mono_deploy(osim, ids, seed=seed, **cfg)
    mnodes = {n: msim.node(n) for n in ids}
    onodes = {n: osim.node(n) for n in ids}
    frames = [Frame("control", payload, sender=tx, link_dst=BROADCAST, size=len(payload))
              for _when, _rx, tx, payload in stream]
    sampled = [any(m.msg_type == cfg["sampled"] for m in decode(payload).messages)
               for _when, _rx, _tx, payload in stream]
    mk_us: List[float] = []
    mono_us: List[float] = []
    advance: List[float] = []
    yards: List[float] = []
    raised = 0
    first_route: Dict[Tuple[int, int], float] = {}
    versions = {n: -1 for n in ids}
    for index, (when, rx, _tx, _payload) in enumerate(stream):
        frame = frames[index]
        a = perf()
        yardstick()
        b = perf()
        msim.run_until(when)
        c = perf()
        osim.run_until(when)
        yards.append(b - a)
        advance.append(c - b)
        mnode, onode = mnodes[rx], onodes[rx]
        if index & 1:
            a = perf()
            try:
                onode.receive_frame(frame)
            except Exception:
                raised += 1
            b = perf()
            try:
                mnode.receive_frame(frame)
            except Exception:
                raised += 1
            c = perf()
            mono_us.append(b - a)
            mk_us.append(c - b)
        else:
            a = perf()
            try:
                mnode.receive_frame(frame)
            except Exception:
                raised += 1
            b = perf()
            try:
                onode.receive_frame(frame)
            except Exception:
                raised += 1
            c = perf()
            mk_us.append(b - a)
            mono_us.append(c - b)
        if track_routes:
            table = mnode.kernel_table
            if table.version != versions[rx]:
                versions[rx] = table.version
                for dst in table.destinations():
                    if (rx, dst) not in first_route and dst != rx:
                        first_route[(rx, dst)] = when
    bad = sum(k.system.sys_forward.malformed_packets + k.system.sys_forward.unknown_messages
              for k in kits)
    mk_us = at_reference(mk_us, yards)
    mono_us = at_reference(mono_us, yards)
    return {
        "setup_s": setup_s,
        "messages": len(stream),
        "mk": [t for t, keep in zip(mk_us, sampled) if keep],
        "mono": [t for t, keep in zip(mono_us, sampled) if keep],
        "busy": sum(mk_us) + sum(at_reference(advance, yards)),
        "failed": raised + bad,
        "msim": msim,
        "osim": osim,
        "ids": ids,
        "kits": kits,
        "first_route": first_route,
    }


def message_metrics(mk: List[float], mono: List[float]) -> Dict[str, float]:
    p50 = percentile(mk, 0.50)
    return {
        "msg_us_p50": p50 * 1e6,
        "msg_us_p99": percentile(mk, 0.99) * 1e6,
        "msg_rate": len(mk) / sum(mk),
        "monolith_ratio_p50": p50 / percentile(mono, 0.50),
    }


def walk_routes(sim: Simulation, ids: List[int], links: Dict[Tuple[int, int], float]):
    """Follow kernel next hops for every ordered pair over the recorded links.

    Forwarding in the simulator is a kernel lookup per hop plus the link
    latency, so a walk gives what a datagram sent at the end of the
    replay would see: whether it arrives, and its sim-time latency.
    """
    arrived: List[float] = []
    for src in ids:
        for dst in ids:
            if src == dst:
                continue
            node, latency = src, 0.0
            for _hop in range(len(ids)):
                route = sim.node(node).kernel_table.lookup(dst)
                if route is None or (node, route.next_hop) not in links:
                    break
                latency += links[(node, route.next_hop)]
                node = route.next_hop
                if node == dst:
                    arrived.append(latency)
                    break
    return arrived


def olsr_replay_pass(seed: int, stream: List[StreamEntry], links, cfg: dict) -> dict:
    result = replay(stream, seed, deploy_olsr, deploy_olsrd, cfg, track_routes=True)
    msim, osim, ids = result["msim"], result["osim"], result["ids"]
    arrived = walk_routes(msim, ids, links)
    pairs = len(ids) * (len(ids) - 1)
    setups = sorted(result["first_route"].values())
    metrics = {
        "route_coverage": route_coverage(msim, ids),
        "delivery_ratio": len(arrived) / pairs,
        "data_latency_ms_p50": percentile(arrived, 0.50) * 1e3 if arrived else 0.0,
        "data_latency_ms_p99": percentile(arrived, 0.99) * 1e3 if arrived else 0.0,
        "route_setup_ms_p50": statistics.median(setups) * 1e3 if setups else 0.0,
        "control_bytes": float(msim.stats.total_control_bytes),
    }
    problems = []
    for side, sim in (("MANETKit", msim), ("olsrd", osim)):
        coverage = route_coverage(sim, ids)
        if coverage < 1.0:
            problems.append(f"{side} replay coverage {coverage:.4f} < 1")
    fresh = sum(k.protocol("olsr").olsr_state.topology_version for k in result["kits"])
    if fresh <= 0:
        problems.append("no replayed TC reached the topology set")
    result.update(
        metrics=metrics,
        attempted=len(stream),
        sim_s_per_s=cfg["horizon"] / result["busy"],
        problems=problems,
        sims=[msim, osim],
        digest=digest(sorted(metrics.items()), fresh),
    )
    return result
