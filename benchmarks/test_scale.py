"""Scale benchmarks — the 200-node gate plus the 500/1000-node ladder.

Selected with ``pytest benchmarks -k "scale and not ladder"`` (per-PR CI)
or ``-k scale_ladder`` (nightly); runs the scenarios used to size the
event-pipeline refactor (indexed dispatch, batched broadcast
delivery) and the incremental-route refactor (dynamic SPT repair, scoped
MPR reselection, interned decode):

* **OLSR**: nodes on a near-square grid, RFC-default HELLO/TC intervals,
  proactive churn.  This is the scheduler- and recompute-bound workload —
  every node floods HELLOs and TCs, and every received TC triggers a route
  refresh, so the run is dominated by broadcast delivery and route
  maintenance.
* **DYMO** (200-node gate only): the same grid with 8 cross-grid CBR
  flows, exercising the reactive path at scale.

All gated metrics are **deterministic** quantities (event counts, frame
counts, hit ratios for a fixed seed), so CI holds them to a tight band —
``tools/bench_check.py --tolerance 0.10 --only scale`` — without flaking
on runner speed.  Wall-clock is emitted ``info``-grade only.

The **ladder rungs** (500 and 1000 nodes) are too slow for per-PR CI; the
``scale-ladder`` workflow runs them nightly, selected via the
``SCALE_RUNG`` environment variable (comma-separated rung sizes, e.g.
``SCALE_RUNG=500,1000``).  The 500-node rung is gated against its
committed baseline; the 1000-node rung reports until its budget is proven.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import record_bench
from repro.core import ManetKit
from repro.obs.bench import BenchMetric
from repro.packetbb.packet import decode_cache_stats, reset_decode_cache
from repro.sim import Simulation
from repro.tools.scenario import parse_topology

import repro.protocols  # noqa: F401

NODES = 200
SEED = 7
DURATION = 60.0
FLOWS = 8

#: sim-seconds per ladder rung — sized so the 500-node rung converges
#: (TC information crosses the grid several times over) while staying
#: within a nightly wall-clock budget.
LADDER_DURATIONS = {500: 20.0, 1000: 10.0}


def _grid_sim(nodes=NODES):
    sim = Simulation(seed=SEED)
    # Same entry point the scenario CLI uses for --nodes N --topology grid.
    ids = parse_topology("grid", sim, nodes=nodes)
    return sim, ids


def _index_hit_ratio(sim):
    """Dispatch-index effectiveness summed over every node's manager."""
    collected = sim.obs.registry.snapshot()["collected"]
    hits = sum(v for k, v in collected.items() if "index_hits{" in k)
    misses = sum(v for k, v in collected.items() if "index_misses{" in k)
    total = hits + misses
    return hits / total if total else 0.0


def _route_calc_totals(sim):
    """Summed route_calc.* install-mode counters across all nodes."""
    totals = {"incremental": 0, "full": 0, "fallback": 0, "noop": 0}
    for key, value in sim.obs.registry.snapshot()["counters"].items():
        if key.startswith("route_calc."):
            totals[key.split("{")[0].split(".", 1)[1]] += value
    return totals


def _run_olsr_grid(nodes, duration):
    """One OLSR grid run; returns (sim, ids, executed events, wall seconds)."""
    # The decode cache is process-global: reset so its hit ratio measures
    # this run alone, deterministically.
    reset_decode_cache()
    sim, ids = _grid_sim(nodes)
    for node_id in ids:
        kit = ManetKit(sim.node(node_id))
        kit.load_protocol("mpr")
        kit.load_protocol("olsr")
    t0 = time.perf_counter()
    executed = sim.run(duration)
    wall = time.perf_counter() - t0
    return sim, ids, executed, wall


def _olsr_metrics(prefix, sim, ids, executed, wall):
    """The deterministic OLSR metric family, shared by gate and ladder."""
    corner_routes = len(sim.node(ids[0]).kernel_table)
    modes = _route_calc_totals(sim)
    recomputes = modes["incremental"] + modes["full"] + modes["fallback"]
    decode = decode_cache_stats()
    decode_total = decode["hits"] + decode["misses"]
    return corner_routes, {
        f"{prefix}.sched_events": BenchMetric(
            value=executed, unit="events", direction="lower"
        ),
        f"{prefix}.control_frames": BenchMetric(
            value=sim.stats.total_control_frames, unit="frames",
            direction="lower",
        ),
        f"{prefix}.control_bytes": BenchMetric(
            value=sim.stats.total_control_bytes, unit="B", direction="lower"
        ),
        f"{prefix}.index_hit_ratio": BenchMetric(
            value=_index_hit_ratio(sim), unit="", direction="higher"
        ),
        f"{prefix}.corner_routes": BenchMetric(
            value=corner_routes, unit="routes", direction="higher"
        ),
        # Share of route refreshes served by localized SPT repair rather
        # than full recomputation — the incremental-route contract.
        f"{prefix}.incremental_share": BenchMetric(
            value=modes["incremental"] / recomputes if recomputes else 0.0,
            unit="", direction="higher",
        ),
        f"{prefix}.full_recomputes": BenchMetric(
            value=modes["full"] + modes["fallback"], unit="installs",
            direction="lower",
        ),
        f"{prefix}.decode_hit_ratio": BenchMetric(
            value=decode["hits"] / decode_total if decode_total else 0.0,
            unit="", direction="higher",
        ),
        f"{prefix}.wall_s": BenchMetric(value=wall, unit="s", direction="info"),
    }


def test_scale_bench_emit():
    metrics = {}

    # -- OLSR: proactive flooding on the full grid --------------------------
    sim, ids, executed, olsr_wall = _run_olsr_grid(NODES, DURATION)
    corner_routes, olsr_metrics = _olsr_metrics(
        "scale.olsr", sim, ids, executed, olsr_wall
    )
    metrics.update(olsr_metrics)

    # Convergence sanity: the corner node routes to (nearly) everyone.
    assert corner_routes >= NODES - 5

    # -- DYMO: reactive discovery + cross-grid CBR traffic ------------------
    sim, ids = _grid_sim()
    for node_id in ids:
        kit = ManetKit(sim.node(node_id))
        proto = kit.load_protocol("dymo")
        # The default RREQ hop limit (NET_DIAMETER=10) cannot span a
        # 20x10 grid's ~28-hop diagonal; raise it so discovery succeeds.
        proto.configurator.update({"net_diameter": 32})
    for i in range(FLOWS):
        sim.start_cbr(
            ids[i], ids[-1 - i], interval=1.0, start_delay=1.0 + 0.1 * i
        )
    t0 = time.perf_counter()
    executed = sim.run(DURATION)
    dymo_wall = time.perf_counter() - t0
    metrics.update({
        "scale.dymo.sched_events": BenchMetric(
            value=executed, unit="events", direction="lower"
        ),
        "scale.dymo.delivery_ratio": BenchMetric(
            value=sim.stats.delivery_ratio(), unit="", direction="higher"
        ),
        "scale.dymo.wall_s": BenchMetric(
            value=dymo_wall, unit="s", direction="info"
        ),
    })
    assert sim.stats.delivery_ratio() > 0.9

    record_bench(
        "scale",
        metrics,
        meta={
            "nodes": NODES, "seed": SEED, "duration_s": DURATION,
            "flows": FLOWS,
        },
    )


def _rung_enabled(nodes):
    rungs = os.environ.get("SCALE_RUNG", "")
    return str(nodes) in {r.strip() for r in rungs.split(",") if r.strip()}


@pytest.mark.parametrize("nodes", [500, 1000])
def test_scale_ladder(nodes):
    if not _rung_enabled(nodes):
        pytest.skip(
            f"ladder rung {nodes} not selected; set SCALE_RUNG={nodes} "
            "(nightly CI does)"
        )
    duration = LADDER_DURATIONS[nodes]
    sim, ids, executed, wall = _run_olsr_grid(nodes, duration)
    prefix = f"scale{nodes}.olsr"
    corner_routes, metrics = _olsr_metrics(prefix, sim, ids, executed, wall)
    # Shorter rung durations trade convergence margin for wall-clock: the
    # 500-node rung still converges fully; the 1000-node rung must at least
    # demonstrate grid-spanning route acquisition.
    if nodes <= 500:
        assert corner_routes >= nodes - 5
    else:
        assert corner_routes >= nodes // 2
    record_bench(
        f"scale{nodes}",
        metrics,
        meta={"nodes": nodes, "seed": SEED, "duration_s": duration},
    )
