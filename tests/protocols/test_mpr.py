"""Tests: the MPR ManetProtocol — link sensing, selection, flooding."""

import pytest

from repro.core import ManetKit
from repro.core.unit import CFSUnit
from repro.events.registry import EventTuple
from repro.events.types import ontology
from repro.protocols.common import Willingness
from repro.protocols.mpr.calculator import MprCalculator
from repro.protocols.mpr.hysteresis import HysteresisPolicy
from repro.protocols.mpr.protocol import MprCF
from repro.protocols.mpr.state import LinkEntry, MprState
from repro.sim import Simulation, topology


def build(edges, node_count, seed=11, hello_interval=0.5):
    sim = Simulation(seed=seed)
    sim.add_nodes(node_count)
    ids = sim.node_ids()
    sim.topology.apply(edges(ids) if callable(edges) else edges)
    kits = {}
    for node_id in ids:
        kit = ManetKit(sim.node(node_id))
        kit.deploy(MprCF(ontology, hello_interval=hello_interval))
        kits[node_id] = kit
    return sim, ids, kits


def mpr_of(kit):
    return kit.protocol("mpr")


class TestLinkSensing:
    def test_symmetric_links_on_chain(self):
        sim, ids, kits = build(topology.linear_chain, 3)
        sim.run(3.0)
        assert mpr_of(kits[ids[1]]).symmetric_neighbours() == [ids[0], ids[2]]

    def test_two_hop_learning(self):
        sim, ids, kits = build(topology.linear_chain, 3)
        sim.run(3.0)
        two_hop = mpr_of(kits[ids[0]]).two_hop_map()
        assert ids[2] in two_hop[ids[1]]

    def test_link_expiry_emits_break(self):
        sim, ids, kits = build(topology.linear_chain, 2)
        sim.run(3.0)
        sim.topology.break_edge(ids[0], ids[1])
        sim.run(5.0)
        assert mpr_of(kits[ids[0]]).symmetric_neighbours() == []

    def test_willingness_advertised_and_learned(self):
        sim, ids, kits = build(topology.linear_chain, 2)
        mpr_of(kits[ids[0]]).mpr_state.own_willingness = int(Willingness.HIGH)
        sim.run(3.0)
        state = mpr_of(kits[ids[1]]).mpr_state
        assert state.willingness(ids[0]) == int(Willingness.HIGH)

    def test_power_status_drives_willingness(self):
        sim, ids, kits = build(topology.linear_chain, 2)
        kit = kits[ids[0]]
        kit.system.emit("POWER_STATUS", payload={"battery": 0.1})
        assert mpr_of(kit).mpr_state.own_willingness == int(Willingness.NEVER)
        kit.system.emit("POWER_STATUS", payload={"battery": 0.95})
        assert mpr_of(kit).mpr_state.own_willingness == int(Willingness.HIGH)


class TestSelection:
    def test_chain_middle_node_selected(self):
        sim, ids, kits = build(topology.linear_chain, 3)
        sim.run(3.0)
        # End nodes must select the middle node to reach their 2-hop.
        assert mpr_of(kits[ids[0]]).mpr_state.mpr_set == {ids[1]}
        assert mpr_of(kits[ids[2]]).mpr_state.mpr_set == {ids[1]}
        # The middle node has no strict 2-hop: empty MPR set.
        assert mpr_of(kits[ids[1]]).mpr_state.mpr_set == set()

    def test_selectors_tracked(self):
        sim, ids, kits = build(topology.linear_chain, 3)
        sim.run(5.0)
        assert set(mpr_of(kits[ids[1]]).selectors()) == {ids[0], ids[2]}

    def test_is_selector_matches_active_selectors(self):
        state = MprState()
        state.note_selector(4, until=2.0)
        state.note_selector(9, until=5.0)
        for now in (0.0, 1.999, 2.0, 4.0, 5.0, 6.0):
            active = state.active_selectors(now)
            for neighbour in (4, 9, 12):
                assert state.is_selector(neighbour, now) == (neighbour in active)

    def test_star_topology_hub_is_sole_mpr(self):
        ids = [1, 2, 3, 4, 5]
        star = [(1, i) for i in ids[1:]]
        sim, ids, kits = build(star, 5)
        sim.run(3.0)
        for leaf in ids[1:]:
            assert mpr_of(kits[leaf]).mpr_state.mpr_set == {1}

    def test_mesh_needs_no_mprs(self):
        sim, ids, kits = build(topology.full_mesh, 4)
        sim.run(3.0)
        for node_id in ids:
            assert mpr_of(kits[node_id]).mpr_state.mpr_set == set()


class TestCalculatorUnit:
    """Direct unit tests of the greedy cover on hand-built state."""

    def make_state(self, links, two_hop, willingness=None):
        state = MprState()
        for neighbour in links:
            entry = state.ensure_link(neighbour)
            entry.sym_until = 100.0
            entry.asym_until = 100.0
        state.two_hop.update(two_hop)
        if willingness:
            state.willingness_of.update(willingness)
        return state

    def test_cover_property(self):
        state = self.make_state(
            links=[1, 2, 3],
            two_hop={1: {10, 11}, 2: {11, 12}, 3: {12}},
        )
        mprs = MprCalculator().compute(state, now=0.0, self_address=0)
        covered = set()
        for neighbour in mprs:
            covered |= state.two_hop[neighbour]
        assert {10, 11, 12} <= covered

    def test_sole_cover_always_selected(self):
        state = self.make_state(
            links=[1, 2], two_hop={1: {10}, 2: {11, 12}}
        )
        mprs = MprCalculator().compute(state, 0.0, 0)
        assert mprs == {1, 2}  # each is the only cover of some node

    def test_greedy_prefers_larger_cover(self):
        state = self.make_state(
            links=[1, 2, 3],
            two_hop={1: {10, 11, 12}, 2: {10, 11}, 3: {12}},
        )
        mprs = MprCalculator().compute(state, 0.0, 0)
        assert mprs == {1}

    def test_will_never_excluded(self):
        state = self.make_state(
            links=[1, 2],
            two_hop={1: {10}, 2: {10}},
            willingness={1: int(Willingness.NEVER)},
        )
        mprs = MprCalculator().compute(state, 0.0, 0)
        assert mprs == {2}

    def test_will_always_included(self):
        state = self.make_state(
            links=[1, 2],
            two_hop={1: {10}, 2: set()},
            willingness={2: int(Willingness.ALWAYS)},
        )
        mprs = MprCalculator().compute(state, 0.0, 0)
        assert 2 in mprs

    def test_uncoverable_two_hop_tolerated(self):
        state = self.make_state(links=[1], two_hop={1: set()})
        state.two_hop[99] = {50}  # stale info from a non-neighbour
        assert MprCalculator().compute(state, 0.0, 0) == set()


class TestFlooding:
    def build_flooding_chain(self, node_count=4):
        sim, ids, kits = build(topology.linear_chain, node_count)
        for kit in kits.values():
            kit.system.load_network_driver(
                "tc-driver", [(2, "TC_IN", "TC_OUT")]
            )
            mpr_of(kit).add_flooded_type("TC_IN", "TC_OUT")
        sim.run(5.0)  # converge MPR selection
        return sim, ids, kits

    def flood_from(self, sim, ids, kits, originator_idx=0):
        from repro.packetbb.address import Address
        from repro.packetbb.message import Message, MsgType

        origin = ids[originator_idx]
        message = Message(
            MsgType.TC,
            originator=Address.from_node_id(origin),
            hop_limit=10,
            hop_count=0,
            seqnum=1,
        )
        mpr_of(kits[origin]).send_message("TC_OUT", message)
        sim.run(1.0)

    def test_flood_reaches_whole_chain(self):
        sim, ids, kits = self.build_flooding_chain()

        class Sink(CFSUnit):
            def __init__(self):
                super().__init__("tc-sink", ontology)
                self.set_event_tuple(EventTuple(["TC_IN"], []))
                self.received = []
                self.registry.register_handler("TC_IN", self.received.append)

        sink = Sink()
        sink.deployment = kits[ids[-1]]
        kits[ids[-1]].manager.register_unit(sink)
        sink.start()
        self.flood_from(sim, ids, kits)
        assert len(sink.received) == 1  # exactly one copy (dup suppression)

    def test_duplicate_suppression(self):
        sim, ids, kits = self.build_flooding_chain()
        self.flood_from(sim, ids, kits)
        forward = mpr_of(kits[ids[1]]).mpr_forward
        # each node relays a given (originator, seqnum) at most once...
        assert forward.relayed == 1
        # ...and the echo of node 2's relay back to node 1 is suppressed.
        assert forward.suppressed_duplicates >= 1

    def test_non_selector_does_not_relay(self):
        sim, ids, kits = self.build_flooding_chain(3)
        # Node 0 floods; node 2 hears via node 1's relay.  Node 2 is not a
        # relay for node 1 toward anyone new, and must not re-relay its copy
        # unless selected.
        self.flood_from(sim, ids, kits)
        end_forward = mpr_of(kits[ids[2]]).mpr_forward
        assert end_forward.relayed == 0

    def test_remove_flooded_type(self):
        sim, ids, kits = self.build_flooding_chain(3)
        mpr = mpr_of(kits[ids[1]])
        assert "TC_IN" in mpr.flooded_types()
        mpr.remove_flooded_type("TC_IN")
        assert mpr.flooded_types() == {}
        assert not mpr.event_tuple.requires("TC_IN")
        self.flood_from(sim, ids, kits)
        assert mpr.mpr_forward.relayed == 0


class TestHysteresis:
    def test_quality_rises_and_falls(self):
        policy = HysteresisPolicy(scaling=0.5, enabled=True)
        link = LinkEntry(1)
        for _ in range(5):
            policy.on_hello_received(link)
        assert link.quality > 0.8
        assert not link.pending
        for _ in range(5):
            policy.on_hello_missed(link)
        assert link.quality < 0.3
        assert link.pending

    def test_pending_blocks_symmetry(self):
        link = LinkEntry(1, sym_until=100.0, asym_until=100.0, pending=True)
        assert not link.is_symmetric(0.0)
        link.pending = False
        assert link.is_symmetric(0.0)

    def test_disabled_policy_accepts_immediately(self):
        policy = HysteresisPolicy(enabled=False)
        link = LinkEntry(1, pending=True)
        policy.on_hello_received(link)
        assert not link.pending

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HysteresisPolicy(scaling=0.0)
        with pytest.raises(ValueError):
            HysteresisPolicy(threshold_high=0.2, threshold_low=0.5)

    def test_state_roundtrip(self):
        policy = HysteresisPolicy(scaling=0.3, enabled=True)
        clone = HysteresisPolicy()
        clone.set_state(policy.get_state())
        assert clone.scaling == 0.3 and clone.enabled


class TestStateTransfer:
    def test_full_state_roundtrip(self):
        sim, ids, kits = build(topology.linear_chain, 3)
        sim.run(5.0)
        state = mpr_of(kits[ids[1]]).mpr_state
        fresh = MprState()
        fresh.set_state(state.get_state())
        assert fresh.symmetric_neighbours(sim.now) == state.symmetric_neighbours(sim.now)
        assert fresh.mpr_set == state.mpr_set
        assert fresh.two_hop == state.two_hop
