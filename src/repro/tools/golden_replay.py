"""Golden-replay harness: frozen deterministic traces for the hot path.

The event-path refactors (dispatch index, scheduler queue, batched
broadcast delivery) must be *behaviour-preserving*: a seeded run of the
paper's 5-node chain — protocol stack, fault plan, CBR traffic and all —
has to
produce a byte-identical deterministic trace export before and after.
This module pins that contract.  :func:`run_scenario` executes one
(protocol, seed) cell and returns the deterministic JSONL bytes;
``tests/golden/`` holds the frozen exports, generated on the
pre-refactor tree, and ``tests/integration/test_golden_replay.py``
compares every cell byte-for-byte.

Regenerate (only when the trace format itself legitimately changes)::

    PYTHONPATH=src python -m repro.tools.golden_replay --update

Notes on determinism: the scenario arms only the *observability* tracer
(``sim.obs.enable_tracing()``), not the scheduler's dispatch spans — the
refactor deliberately changes how many scheduler callbacks one broadcast
enqueues, which is invisible to every traced subsystem but would show up
as ``sched.dispatch`` span counts.  Everything else (medium, kernel
table, data plane, unit handlers, fault injection) is recorded.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import pathlib
from typing import Dict, List, Tuple

from repro.core import ManetKit
from repro.obs.export import trace_event_to_dict
from repro.sim import Simulation, topology
from repro.sim.faults import FaultPlan

import repro.protocols  # noqa: F401  (populates the protocol registry)

#: Directory holding the frozen exports (committed to the repository).
GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[3] / "tests" / "golden"

#: The matrix pinned by the refactor's acceptance criteria.
SEEDS: Tuple[int, ...] = (1, 2, 3)
PROTOCOLS: Tuple[str, ...] = ("olsr", "dymo", "aodv")

#: Accelerated OLSR timers (the paper's testbed configuration) so routes
#: form well inside the scenario window.
HELLO_INTERVAL = 0.5
TC_INTERVAL = 1.0

#: Scenario length in simulated seconds.
DURATION = 40.0


def golden_path(protocol: str, seed: int) -> pathlib.Path:
    return GOLDEN_DIR / f"replay_{protocol}_seed{seed}.jsonl.gz"


def load_golden(protocol: str, seed: int) -> bytes:
    """The frozen deterministic JSONL bytes for one matrix cell."""
    return gzip.decompress(golden_path(protocol, seed).read_bytes())


def build_fault_plan(ids: List[int], seed: int) -> FaultPlan:
    """Mid-chain adversity touching every tamper path the medium has."""
    plan = FaultPlan(seed=seed)
    plan.break_link(8.0, ids[1], ids[2])
    plan.restore_link(14.0, ids[1], ids[2])
    plan.corruption(18.0, duration=4.0, rate=0.3)
    plan.crash(20.0, ids[3])
    plan.duplication(24.0, duration=3.0, rate=0.3)
    plan.restart(26.0, ids[3])
    plan.set_link_loss(28.0, ids[2], ids[3], loss=0.2)
    plan.reordering(30.0, duration=3.0, rate=0.3)
    plan.set_link_loss(34.0, ids[2], ids[3], loss=0.0)
    return plan


def deploy(kit: ManetKit, protocol: str) -> None:
    if protocol == "olsr":
        kit.load_protocol("mpr", hello_interval=HELLO_INTERVAL)
        kit.load_protocol("olsr", tc_interval=TC_INTERVAL)
    else:
        kit.load_protocol(protocol)


#: The live-reconfiguration golden cell: one canonical seed, two fleet
#: switches (proactive -> reactive -> reactive) under the same chain and
#: CBR traffic, freezing the reconfiguration trace records
#: (``reconfig.switch_protocol`` spans and ``reconfig.state_transfer``)
#: byte-for-byte alongside the protocol traffic.
RECONFIG_SEED = 7
RECONFIG_DURATION = 30.0
RECONFIG_SWITCHES: Tuple[Tuple[float, str, str], ...] = (
    (12.0, "olsr", "dymo"),
    (20.0, "dymo", "aodv"),
)


def run_reconfig_scenario(seed: int = RECONFIG_SEED) -> bytes:
    """The reconfiguration cell; returns deterministic JSONL."""
    from repro.core.manetkit import PROTOCOL_REGISTRY

    sim = Simulation(seed=seed)
    sim.add_nodes(5)
    ids = sim.node_ids()
    sim.topology.apply(topology.linear_chain(ids))
    tracer = sim.obs.enable_tracing()
    kits: Dict[int, ManetKit] = {}
    for node_id in ids:
        kit = ManetKit(sim.node(node_id))
        deploy(kit, "olsr")
        kits[node_id] = kit
    sim.start_cbr(ids[0], ids[-1], interval=0.5, start_delay=5.0)
    for at, old, new in RECONFIG_SWITCHES:
        sim.run(at - sim.now)
        for node_id in ids:
            kit = kits[node_id]
            replacement = PROTOCOL_REGISTRY[new](kit.ontology)
            kit.reconfig.switch_protocol(old, replacement)
    sim.run(RECONFIG_DURATION - sim.now)
    buffer = io.StringIO()
    for event in tracer.events:
        buffer.write(json.dumps(trace_event_to_dict(event, True), sort_keys=True))
        buffer.write("\n")
    return buffer.getvalue().encode("utf-8")


def run_scenario(protocol: str, seed: int) -> bytes:
    """One seeded cell of the golden matrix; returns deterministic JSONL."""
    sim = Simulation(seed=seed)
    sim.add_nodes(5)
    ids = sim.node_ids()
    sim.topology.apply(topology.linear_chain(ids))
    # Obs tracer only — see the module docstring for why the scheduler's
    # dispatch spans stay dark.
    tracer = sim.obs.enable_tracing()
    kits: Dict[int, ManetKit] = {}
    for node_id in ids:
        kit = ManetKit(sim.node(node_id))
        deploy(kit, protocol)
        kits[node_id] = kit
    sim.install_faults(build_fault_plan(ids, seed), kits=kits)
    sim.start_cbr(ids[0], ids[-1], interval=0.5, start_delay=5.0)
    sim.run(DURATION)
    buffer = io.StringIO()
    for event in tracer.events:
        buffer.write(json.dumps(trace_event_to_dict(event, True), sort_keys=True))
        buffer.write("\n")
    return buffer.getvalue().encode("utf-8")


def regenerate(directory: pathlib.Path = GOLDEN_DIR) -> List[pathlib.Path]:
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for protocol in PROTOCOLS:
        for seed in SEEDS:
            path = directory / f"replay_{protocol}_seed{seed}.jsonl.gz"
            # mtime=0 keeps the compressed bytes reproducible, so
            # regeneration on an equivalent tree is a no-op diff.
            path.write_bytes(
                gzip.compress(run_scenario(protocol, seed), mtime=0)
            )
            written.append(path)
            print(f"[golden] wrote {path} ({path.stat().st_size} bytes)")
    path = directory / f"replay_reconfig_seed{RECONFIG_SEED}.jsonl.gz"
    path.write_bytes(gzip.compress(run_reconfig_scenario(), mtime=0))
    written.append(path)
    print(f"[golden] wrote {path} ({path.stat().st_size} bytes)")
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="regenerate the committed golden files from the current tree",
    )
    args = parser.parse_args(argv)
    if not args.update:
        parser.error("nothing to do; pass --update to regenerate goldens")
    regenerate()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
