"""Table 1 — Comparative Performance of MANETKit Protocols.

Two metrics, four implementations (paper section 6.1):

* **Time to Process Message** — wall-clock time to take one protocol
  message from receipt to completion (an OLSR TC / a DYMO RREQ) through
  each implementation's full receive path.  Micro metric for the overhead
  of MANETKit's componentisation (pytest-benchmark).
* **Route Establishment Delay** — simulated time for (OLSR) a newly
  arrived node at the end of the 5-node chain to compute a fully
  populated routing table, and (DYMO) a route discovery across the chain.
  Macro metric for control-plane performance.

Paper reference (ms):
    Time to Process Message:   olsrd 0.045 | MKit-OLSR 0.096 | DYMOUM 0.135 | MKit-DYMO 0.122
    Route Establishment Delay: olsrd 995   | MKit-OLSR 1026  | DYMOUM 37    | MKit-DYMO 27.3

Expected *shape*: the monolith wins the micro metric for OLSR (less
machinery on the path), while MANETKit-DYMO beats DYMOUM on both metrics
(DYMOUM's libipq packet path).
"""

from __future__ import annotations

import statistics
import time

import pytest

from conftest import (
    HELLO_INTERVAL,
    TC_INTERVAL,
    build_dymoum_chain,
    build_mkit_dymo_chain,
    build_mkit_olsr_chain,
    build_olsrd_chain,
    record,
)
from repro.analysis.tables import render_table
from repro.core import ManetKit
from repro.monolithic import DymoumDaemon, OlsrdDaemon
from repro.packetbb.address import Address, AddressBlock
from repro.packetbb.message import Message, MsgType
from repro.packetbb.packet import Packet, encode
from repro.packetbb.tlv import TLV, TLVBlock
from repro.protocols.common import TlvType
from repro.protocols.dymo.messages import RREQ, build_re
from repro.sim import Simulation

#: Payloads per pool, and so rounds per micro benchmark: each timed call
#: takes the next payload, and none repeats (a repeat would time the
#: duplicate-reject path instead of message processing).
POOL = 4096

_table1_rows = {}


# ---------------------------------------------------------------------------
# Payload pools: realistic, non-duplicate messages
# ---------------------------------------------------------------------------

def tc_payload_pool(originator: int, advertised: int) -> list:
    payloads = []
    for seq in range(1, POOL + 1):
        message = Message(
            MsgType.TC,
            originator=Address.from_node_id(originator),
            hop_limit=255,
            hop_count=1,
            seqnum=seq & 0xFFFF,
            tlv_block=TLVBlock([TLV.of_int(TlvType.ANSN, seq & 0xFFFF, width=2)]),
            address_blocks=[AddressBlock([Address.from_node_id(advertised)])],
        )
        payloads.append(encode(Packet([message], seqnum=seq & 0xFFFF)))
    return payloads


def rreq_payload_pool(originator: int, target: int) -> list:
    payloads = []
    for seq in range(1, POOL + 1):
        message = build_re(
            RREQ,
            target=target,
            path=[(originator, seq & 0xFFFF or 1)],
            hop_limit=10,
        )
        payloads.append(encode(Packet([message], seqnum=seq & 0xFFFF)))
    return payloads


def _isolated_pair(builder):
    """Two registered nodes with *no* links: processing without relaying
    side-effects accumulating in the event heap."""
    sim = Simulation(seed=0)
    a = sim.add_node()
    b = sim.add_node()
    return sim, a, b


# ---------------------------------------------------------------------------
# Time to Process Message (micro, wall clock)
# ---------------------------------------------------------------------------

@pytest.mark.benchmark(group="table1-time-to-process")
def test_time_to_process_tc_mkit_olsr(benchmark):
    sim, _a, b = _isolated_pair(None)
    kit = ManetKit(b)
    kit.load_protocol("mpr", hello_interval=HELLO_INTERVAL)
    kit.load_protocol("olsr", tc_interval=TC_INTERVAL)
    pool = tc_payload_pool(_a.node_id, 77)
    state = {"i": 0}

    def process():
        payload = pool[state["i"]]
        state["i"] += 1
        kit.system.sys_forward._on_wire(payload, _a.node_id)

    benchmark.pedantic(process, rounds=POOL, iterations=1)
    _table1_rows["MKit-OLSR-msg"] = benchmark.stats.stats.mean * 1000


@pytest.mark.benchmark(group="table1-time-to-process")
def test_time_to_process_tc_olsrd(benchmark):
    sim, _a, b = _isolated_pair(None)
    daemon = OlsrdDaemon(b, hello_interval=HELLO_INTERVAL, tc_interval=TC_INTERVAL)
    daemon.start()
    pool = tc_payload_pool(_a.node_id, 77)
    state = {"i": 0}

    def process():
        payload = pool[state["i"]]
        state["i"] += 1
        daemon.on_wire(payload, _a.node_id)

    benchmark.pedantic(process, rounds=POOL, iterations=1)
    _table1_rows["olsrd-msg"] = benchmark.stats.stats.mean * 1000


@pytest.mark.benchmark(group="table1-time-to-process")
def test_time_to_process_rreq_mkit_dymo(benchmark):
    sim, _a, b = _isolated_pair(None)
    kit = ManetKit(b)
    kit.load_protocol("dymo")
    pool = rreq_payload_pool(_a.node_id, b.node_id)
    state = {"i": 0}

    def process():
        payload = pool[state["i"]]
        state["i"] += 1
        kit.system.sys_forward._on_wire(payload, _a.node_id)

    benchmark.pedantic(process, rounds=POOL, iterations=1)
    _table1_rows["MKit-DYMO-msg"] = benchmark.stats.stats.mean * 1000


@pytest.mark.benchmark(group="table1-time-to-process")
def test_time_to_process_rreq_dymoum(benchmark):
    sim, _a, b = _isolated_pair(None)
    daemon = DymoumDaemon(b, processing_delay=0.0)  # measure CPU path only
    daemon.start()
    pool = rreq_payload_pool(_a.node_id, b.node_id)
    state = {"i": 0}

    def process():
        payload = pool[state["i"]]
        state["i"] += 1
        daemon.on_wire(payload, _a.node_id)

    benchmark.pedantic(process, rounds=POOL, iterations=1)
    _table1_rows["DYMOUM-msg"] = benchmark.stats.stats.mean * 1000


# ---------------------------------------------------------------------------
# Route Establishment Delay (macro, simulated time)
# ---------------------------------------------------------------------------

SEEDS = (1, 2, 3, 4, 5)


def olsr_establishment_mkit(seed: int) -> float:
    sim, ids, kits = build_mkit_olsr_chain(seed=seed)
    sim.run(15.0)
    new = sim.add_node().node_id
    kit = ManetKit(sim.node(new))
    kit.load_protocol("mpr", hello_interval=HELLO_INTERVAL)
    kit.load_protocol("olsr", tc_interval=TC_INTERVAL)
    sim.topology.add_edge(ids[-1], new)
    start = sim.now
    while sim.now - start < 60.0:
        sim.run(0.01)
        if set(kit.protocol("olsr").routing_table()) >= set(ids):
            break
    return sim.now - start


def olsr_establishment_olsrd(seed: int) -> float:
    sim, ids, daemons = build_olsrd_chain(seed=seed)
    sim.run(15.0)
    new = sim.add_node().node_id
    daemon = OlsrdDaemon(
        sim.node(new), hello_interval=HELLO_INTERVAL, tc_interval=TC_INTERVAL
    )
    daemon.start()
    sim.topology.add_edge(ids[-1], new)
    start = sim.now
    while sim.now - start < 60.0:
        sim.run(0.01)
        if set(daemon.routing_table()) >= set(ids):
            break
    return sim.now - start


def dymo_establishment(builder, seed: int) -> float:
    sim, ids, _impls = builder(seed=seed)
    sim.run(5.0)
    delivered = []
    sim.node(ids[-1]).add_app_receiver(delivered.append)
    start = sim.now
    sim.node(ids[0]).send_data(ids[-1], b"probe")
    while sim.now - start < 10.0 and not delivered:
        sim.run(0.0005)
    assert delivered, f"discovery failed (seed {seed})"
    return sim.now - start


@pytest.mark.benchmark(group="table1-route-establishment")
def test_route_establishment_delay_table(benchmark):
    means_ms = {}

    def run_all():
        measurements = {
            "olsrd": [olsr_establishment_olsrd(s) for s in SEEDS],
            "MKit-OLSR": [olsr_establishment_mkit(s) for s in SEEDS],
            "DYMOUM-0.3": [
                dymo_establishment(build_dymoum_chain, s) for s in SEEDS
            ],
            "MKit-DYMO": [
                dymo_establishment(build_mkit_dymo_chain, s) for s in SEEDS
            ],
        }
        means_ms.update(
            {
                name: statistics.mean(values) * 1000
                for name, values in measurements.items()
            }
        )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    paper = {
        "olsrd": 995.0,
        "MKit-OLSR": 1026.0,
        "DYMOUM-0.3": 37.0,
        "MKit-DYMO": 27.3,
    }
    rows = [
        [name, f"{means_ms[name]:.1f}", f"{paper[name]:.1f}"]
        for name in ("olsrd", "MKit-OLSR", "DYMOUM-0.3", "MKit-DYMO")
    ]
    text = render_table(
        "Table 1b - Route Establishment Delay (ms), mean over "
        f"{len(SEEDS)} seeds (paper values from a 3.2 GHz C testbed)",
        ["implementation", "measured", "paper"],
        rows,
    )
    micro = (
        "\n".join(
            f"  {name}: {_table1_rows[name]:.4f} ms"
            for name in sorted(_table1_rows)
        )
        if _table1_rows
        else "  (micro rows appear when the whole file runs together)"
    )
    note = (
        "\nNote: in this reproduction the micro metric shows MKit-DYMO "
        "costing more CPU per message than DYMOUM, inverting the paper's "
        "micro result; DYMOUM's real penalty was its libipq kernel/user "
        "handoff, which our substrate charges in simulated time -- where "
        "MKit-DYMO wins, as in the paper (see EXPERIMENTS.md)."
    )
    record(
        "table1_performance",
        text + "\n\nTime to Process Message (measured, ms):\n" + micro + note,
    )

    # -- shape assertions (who wins, roughly by how much) -------------------
    # DYMO establishes routes orders of magnitude faster than OLSR
    assert means_ms["MKit-DYMO"] < means_ms["MKit-OLSR"] / 5
    # MANETKit-DYMO beats DYMOUM (its libipq path costs ~1.2 ms/hop)
    assert means_ms["MKit-DYMO"] < means_ms["DYMOUM-0.3"]
    # OLSR implementations are comparable (within ~25% of each other)
    ratio = means_ms["MKit-OLSR"] / means_ms["olsrd"]
    assert 0.7 < ratio < 1.4, ratio
    # both DYMO numbers are tens of milliseconds, like the paper's testbed
    assert 5 < means_ms["MKit-DYMO"] < 100
    assert 5 < means_ms["DYMOUM-0.3"] < 100
    # micro shape: the monolithic olsrd's shorter path beats the framework
    if "olsrd-msg" in _table1_rows:
        assert _table1_rows["olsrd-msg"] < _table1_rows["MKit-OLSR-msg"]
