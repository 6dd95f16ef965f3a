"""Tests: OLSR — convergence, route correctness, variants."""

import networkx as nx
import pytest

from repro.core import ManetKit
from repro.events.types import ontology
from repro.protocols.olsr.fisheye import (
    FishEyeComponent,
    apply_fisheye,
    remove_fisheye,
)
from repro.protocols.olsr.power_aware import (
    PowerAwareMprCalculator,
    apply_power_aware,
    remove_power_aware,
)
from repro.protocols.olsr.state import OlsrState
from repro.sim import Simulation, topology
from repro.sim.node import BatteryModel

import repro.protocols  # noqa: F401

FAST = {"mpr": {"hello_interval": 0.5}, "olsr": {"tc_interval": 1.0}}


def build(edges_fn, node_count, seed=21, fast=True, settle=None):
    sim = Simulation(seed=seed)
    sim.add_nodes(node_count)
    ids = sim.node_ids()
    edges = edges_fn(ids) if callable(edges_fn) else edges_fn
    sim.topology.apply(edges)
    kits = {}
    for node_id in ids:
        kit = ManetKit(sim.node(node_id))
        if fast:
            kit.load_protocol("mpr", **FAST["mpr"])
            kit.load_protocol("olsr", **FAST["olsr"])
        else:
            kit.load_protocol("olsr")
        kits[node_id] = kit
    if settle:
        sim.run(settle)
    return sim, ids, kits, edges


def assert_routes_shortest(kits, ids, edges):
    """Every node's routing table must match networkx shortest paths."""
    graph = topology.to_graph(ids, edges)
    for node_id in ids:
        table = kits[node_id].protocol("olsr").routing_table()
        expected = nx.single_source_shortest_path_length(graph, node_id)
        expected.pop(node_id)
        assert set(table) == set(expected), (node_id, table)
        for destination, (next_hop, hops) in table.items():
            assert hops == expected[destination], (node_id, destination)
            # next hop must be a neighbour on some shortest path
            assert graph.has_edge(node_id, next_hop)
            assert (
                nx.shortest_path_length(graph, next_hop, destination)
                == hops - 1
            )


class TestConvergence:
    def test_chain_routes_shortest(self):
        sim, ids, kits, edges = build(topology.linear_chain, 5, settle=10.0)
        assert_routes_shortest(kits, ids, edges)

    def test_ring_routes_shortest(self):
        sim, ids, kits, edges = build(topology.ring, 6, settle=12.0)
        assert_routes_shortest(kits, ids, edges)

    def test_grid_routes_shortest(self):
        grid_edges = topology.grid(3, 3, first_id=1)
        sim, ids, kits, edges = build(grid_edges, 9, settle=15.0)
        assert_routes_shortest(kits, ids, edges)

    def test_kernel_table_mirrors_protocol_table(self):
        sim, ids, kits, _ = build(topology.linear_chain, 4, settle=10.0)
        for node_id in ids:
            kit = kits[node_id]
            table = kit.protocol("olsr").routing_table()
            for destination, (next_hop, hops) in table.items():
                kernel = kit.node.kernel_table.lookup(destination)
                assert kernel is not None
                assert kernel.next_hop == next_hop
                assert kernel.metric == hops

    def test_incremental_installs_write_kernel_deltas(self):
        sim, ids, kits, _ = build(topology.linear_chain, 5, settle=10.0)
        for node_id in ids:
            kit = kits[node_id]
            calc = kit.protocol("olsr").route_calculator
            # Convergence reroutes incrementally; those writes are deltas.
            assert 0 < calc.kernel_delta_writes <= calc.incremental_updates
            kernel = {
                route.destination: (route.next_hop, route.metric)
                for route in kit.node.kernel_table.routes()
            }
            assert kernel == kit.protocol("olsr").routing_table()

    def test_data_delivery_end_to_end(self):
        sim, ids, kits, _ = build(topology.linear_chain, 5, settle=10.0)
        got = []
        sim.node(ids[-1]).add_app_receiver(got.append)
        sim.start_cbr(ids[0], ids[-1], interval=0.2, count=10)
        sim.run(5.0)
        assert len(got) == 10
        assert sim.stats.delivery_ratio() == 1.0


class TestDynamics:
    def test_link_break_reroutes_via_ring(self):
        sim, ids, kits, edges = build(topology.ring, 5, settle=12.0)
        # break one ring edge; routes must converge to the long way round
        sim.topology.break_edge(ids[0], ids[1])
        sim.run(15.0)
        table = kits[ids[0]].protocol("olsr").routing_table()
        assert table[ids[1]][0] == ids[-1]  # now routed the other way
        assert table[ids[1]][1] == 4

    def test_node_join_learns_everyone(self):
        sim, ids, kits, _ = build(topology.linear_chain, 4, settle=10.0)
        new = sim.add_node().node_id
        kit = ManetKit(sim.node(new))
        kit.load_protocol("mpr", **FAST["mpr"])
        kit.load_protocol("olsr", **FAST["olsr"])
        sim.topology.add_edge(ids[-1], new)
        sim.run(10.0)
        assert set(kit.protocol("olsr").routing_table()) == set(ids)
        # and the old nodes learn the new one
        assert new in kits[ids[0]].protocol("olsr").routing_table()

    def test_partition_forgets_unreachable(self):
        sim, ids, kits, _ = build(topology.linear_chain, 4, settle=10.0)
        sim.topology.break_edge(ids[1], ids[2])
        sim.run(20.0)
        table = kits[ids[0]].protocol("olsr").routing_table()
        assert set(table) == {ids[1]}

    def test_triggered_tc_on_selector_change(self):
        sim, ids, kits, _ = build(topology.linear_chain, 3, settle=10.0)
        olsr = kits[ids[1]].protocol("olsr")
        emissions_before = olsr.tc_generator.emissions
        new = sim.add_node().node_id
        kit = ManetKit(sim.node(new))
        kit.load_protocol("mpr", **FAST["mpr"])
        kit.load_protocol("olsr", **FAST["olsr"])
        sim.topology.add_edge(ids[-1], new)
        sim.run(1.0)
        # selector sets changed -> triggered TCs well before the interval
        assert kits[ids[2]].protocol("olsr").tc_generator.emissions > 0
        assert olsr.tc_generator.emissions >= emissions_before


class TestOlsrStateUnit:
    def test_ansn_freshness(self):
        state = OlsrState()
        state.record_topology(5, [1, 2], ansn=10, expiry=100.0)
        assert not state.fresher_ansn(5, 9)
        assert state.fresher_ansn(5, 10)
        assert state.fresher_ansn(5, 11)

    def test_newer_ansn_supersedes(self):
        state = OlsrState()
        state.record_topology(5, [1, 2], ansn=10, expiry=100.0)
        state.record_topology(5, [3], ansn=11, expiry=100.0)
        assert state.topology_edges() == [(5, 3)]

    def test_purge(self):
        state = OlsrState()
        state.record_topology(5, [1], ansn=1, expiry=10.0)
        state.record_topology(6, [1], ansn=1, expiry=50.0)
        assert state.purge_topology(20.0) == 1
        assert state.topology_edges() == [(6, 1)]

    def test_drop_originator(self):
        state = OlsrState()
        state.record_topology(5, [1, 2], ansn=1, expiry=100.0)
        state.record_topology(6, [1], ansn=1, expiry=100.0)
        state.drop_originator(5)
        assert state.topology_edges() == [(6, 1)]

    def test_state_roundtrip(self):
        state = OlsrState()
        state.record_topology(5, [1, 2], ansn=7, expiry=100.0)
        state.ansn = 3
        state.routes = {1: (2, 2)}
        fresh = OlsrState()
        fresh.set_state(state.get_state())
        assert fresh.topology_edges() == state.topology_edges()
        assert fresh.ansn == 3
        assert fresh.routes == {1: (2, 2)}



class TestTopologyJournal:
    """Edge cases of the delta journal that incremental route repair reads."""

    @staticmethod
    def bumped(count):
        """A state whose topology version moved ``count`` times, one edge each."""
        state = OlsrState()
        for i in range(count):
            state.record_topology(5, [100 + i], ansn=i + 1, expiry=1e9)
        assert state.topology_version == count
        return state

    @staticmethod
    def assert_consecutive(state):
        versions = [entry[0] for entry in state._journal]
        assert versions == list(
            range(state._journal_floor + 1, state.topology_version + 1)
        )

    def test_current_version_is_empty(self):
        state = self.bumped(3)
        assert state.topology_deltas_since(3) == []

    def test_floor_returns_whole_journal(self):
        state = self.bumped(3)
        deltas = state.topology_deltas_since(state._journal_floor)
        assert deltas == [entry[1:] for entry in state._journal]
        assert deltas[0] == (((5, 100),), ())
        assert deltas[2] == (((5, 102),), ((5, 101),))

    def test_slice_starts_after_version(self):
        state = self.bumped(4)
        assert state.topology_deltas_since(2) == [
            (((5, 102),), ((5, 101),)),
            (((5, 103),), ((5, 102),)),
        ]

    def test_out_of_range_is_none(self):
        state = self.bumped(3)
        assert state.topology_deltas_since(4) is None
        state = self.bumped(OlsrState.JOURNAL_LIMIT + 1)
        assert state.topology_deltas_since(state._journal_floor - 1) is None

    def test_invalidation_cuts_off_consumers(self):
        state = self.bumped(3)
        state._invalidate_journal()
        for version in range(4):
            assert state.topology_deltas_since(version) is None
        assert state.topology_deltas_since(state.topology_version) == []
        state.record_topology(6, [7], ansn=1, expiry=1e9)
        self.assert_consecutive(state)
        assert state.topology_deltas_since(4) == [(((6, 7),), ())]

    def test_overflow_moves_floor(self):
        limit = OlsrState.JOURNAL_LIMIT
        state = self.bumped(limit)
        assert state._journal_floor == 0
        assert state.topology_deltas_since(0) is not None
        state.record_topology(5, [100 + limit], ansn=limit + 1, expiry=1e9)
        assert state._journal_floor == 1
        assert len(state._journal) == limit
        assert state.topology_deltas_since(0) is None
        assert len(state.topology_deltas_since(1)) == limit
        self.assert_consecutive(state)

    def test_versions_stay_consecutive(self):
        state = self.bumped(OlsrState.JOURNAL_LIMIT + 10)
        self.assert_consecutive(state)
        state.purge_topology(2e9)
        state.drop_originator(5)  # already empty: no bump
        self.assert_consecutive(state)


class TestFishEye:
    def test_insertion_rescopes_originated_tcs(self):
        sim, ids, kits, _ = build(topology.linear_chain, 3, settle=10.0)
        kit = kits[ids[1]]
        fisheye = apply_fisheye(kit, ttl_sequence=(1,))
        sim.run(5.0)
        assert fisheye.scoper.rescoped > 0
        # with TTL=1 the middle node's TCs stop reaching 2 hops away...
        # (ends still reach everyone via their own TCs about the middle)

    def test_relays_pass_through_unscoped(self):
        sim, ids, kits, _ = build(topology.linear_chain, 4, settle=10.0)
        kit = kits[ids[1]]  # a relay node
        fisheye = apply_fisheye(kit, ttl_sequence=(1,))
        sim.run(5.0)
        assert fisheye.scoper.passed_through > 0

    def test_removal_heals_wiring(self):
        sim, ids, kits, _ = build(topology.linear_chain, 3, settle=10.0)
        kit = kits[ids[1]]
        apply_fisheye(kit)
        remove_fisheye(kit)
        assert kit.manager.unit("fisheye") is None
        sim.run(5.0)
        # system still transmits TCs after removal
        assert kit.system.sys_forward.messages_sent > 0

    def test_ttl_cycle(self):
        # 3-node chain: the middle node has MPR selectors, so it emits TCs.
        sim, ids, kits, _ = build(topology.linear_chain, 3, settle=5.0)
        fisheye = apply_fisheye(kits[ids[1]], ttl_sequence=(1, 2, 8))
        sim.run(6.5)
        assert fisheye.cycle_index >= 3

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            FishEyeComponent(ontology, ttl_sequence=())

    def test_routing_still_works_under_fisheye(self):
        sim, ids, kits, edges = build(topology.linear_chain, 4, settle=10.0)
        for kit in kits.values():
            apply_fisheye(kit)  # default sequence includes full floods
        sim.run(20.0)
        table = kits[ids[0]].protocol("olsr").routing_table()
        assert set(table) == set(ids[1:])


class TestPowerAware:
    def build_diamond(self, weak_battery_node=None):
        """1 - {2,3} - 4 diamond: relay selection has a real choice."""
        sim = Simulation(seed=31)
        for i in range(4):
            battery = None
            if weak_battery_node == i + 1:
                battery = BatteryModel(
                    lambda: sim.scheduler.now, capacity=1.0, idle_rate=0.0
                )
                battery._consumed = 0.6  # start depleted
            sim.add_node(node_id=i + 1, battery=battery)
        sim.topology.apply([(1, 2), (1, 3), (2, 4), (3, 4)])
        kits = {}
        for node_id in sim.node_ids():
            kit = ManetKit(sim.node(node_id))
            kit.load_protocol("mpr", **FAST["mpr"])
            kit.load_protocol("olsr", **FAST["olsr"])
            kits[node_id] = kit
        return sim, kits

    def test_apply_replaces_components(self):
        sim, kits = self.build_diamond()
        kit = kits[1]
        apply_power_aware(kit)
        assert isinstance(
            kit.protocol("mpr").calculator, PowerAwareMprCalculator
        )
        assert kit.protocol("olsr").control.has_child("residual-power")
        assert kit.protocol("olsr").event_tuple.requires("POWER_IN")

    def test_residual_power_disseminated(self):
        sim, kits = self.build_diamond()
        for kit in kits.values():
            apply_power_aware(kit)
        sim.run(15.0)
        store = kits[4].protocol("olsr").control.child("residual-power")
        # node 4 has learned battery levels of remote node 1 (2 hops away)
        assert 1 in store.residual_of

    def test_relay_selection_avoids_depleted_node(self):
        sim, kits = self.build_diamond(weak_battery_node=2)
        for kit in kits.values():
            apply_power_aware(kit)
        sim.run(20.0)
        # node 1 must pick node 3 (healthy) over node 2 (depleted) to
        # cover node 4
        mpr_set = kits[1].protocol("mpr").mpr_state.mpr_set
        assert mpr_set == {3}

    def test_standard_calculator_indifferent(self):
        sim, kits = self.build_diamond(weak_battery_node=2)
        sim.run(20.0)
        # without the variant, both covers are equivalent; selection is by
        # deterministic tie-break, not battery
        mpr_set = kits[1].protocol("mpr").mpr_state.mpr_set
        assert len(mpr_set) == 1

    def test_unicast_paths_avoid_depleted_relay(self):
        """The [33] objective: path selection (not just relay selection)
        routes around the battery-depleted node."""
        sim, kits = self.build_diamond(weak_battery_node=2)
        for kit in kits.values():
            apply_power_aware(kit)
        sim.run(25.0)
        # standard hop-count BFS would tie-break to node 2; the
        # energy-weighted calculator must choose node 3
        table = kits[1].protocol("olsr").routing_table()
        assert table[4][0] == 3
        assert table[4][1] == 2  # hop count preserved as the metric
        # and symmetrically from the other end
        assert kits[4].protocol("olsr").routing_table()[1][0] == 3

    def test_route_calculator_swapped_and_restored(self):
        from repro.protocols.olsr.power_aware import PowerAwareRouteCalculator
        from repro.protocols.olsr.routes import RouteCalculator

        sim, kits = self.build_diamond()
        kit = kits[1]
        apply_power_aware(kit)
        assert isinstance(
            kit.protocol("olsr").route_calculator, PowerAwareRouteCalculator
        )
        remove_power_aware(kit)
        assert type(kit.protocol("olsr").route_calculator) is RouteCalculator

    def test_removal_restores_standard_behaviour(self):
        sim, kits = self.build_diamond()
        kit = kits[1]
        apply_power_aware(kit)
        remove_power_aware(kit)
        assert not kit.protocol("olsr").control.has_child("residual-power")
        assert not kit.protocol("olsr").event_tuple.requires("POWER_IN")
        assert type(kit.protocol("mpr").calculator).__name__ == "MprCalculator"
        sim.run(10.0)  # still functional
        assert kit.protocol("olsr").routing_table()

    def test_variant_costs_more_overhead(self):
        """The paper's point: the variant is a hindrance when unneeded."""
        def control_frames(power_aware):
            sim, kits = self.build_diamond()
            if power_aware:
                for kit in kits.values():
                    apply_power_aware(kit)
            sim.run(30.0)
            return sim.stats.total_control_frames

        assert control_frames(True) > control_frames(False)
