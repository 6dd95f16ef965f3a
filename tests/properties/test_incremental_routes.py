"""Property tests: incremental route/MPR computation ≡ from-scratch recompute.

The PR that introduced :mod:`repro.protocols.olsr.spt` claims *behaviour
identity*: the incrementally repaired shortest-path tree and the memoised,
delta-scoped MPR selection must produce exactly what the legacy from-scratch
code produced, for every reachable state.  These properties drive both
implementations through arbitrary delta sequences and demand equality after
every single step — a failing example shrinks to a minimal delta sequence
and is replayable from the seed hypothesis prints.

* **SPT**: random batches of edge assertions/retractions on a small
  directed multigraph, applied through :meth:`IncrementalSpt.apply`,
  checked after each batch against a verbatim reimplementation of the
  legacy sorted-adjacency FIFO BFS (which defines both the distances and
  the lexicographically-smallest-path first hops).
* **MPR**: random HELLO-shaped mutations of an :class:`MprState` (the same
  mutations the real handler performs: content-gated 2-hop replacement,
  willingness updates, link expiry, state-transfer merges), with
  :meth:`MprCalculator.select` checked after each step against a fresh
  calculator's :meth:`~MprCalculator.compute`.
* **Kernel writes**: the same SPT batches installed through
  :meth:`RouteCalculator._finish_install` (delta writes where allowed)
  and through ``replace_all`` of the sorted full table, with foreign-proto
  writes interleaved, must leave identical kernel tables and identical
  traced records.
"""

from __future__ import annotations

from collections import Counter, deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system_cf import SysState
from repro.protocols.common import Willingness
from repro.protocols.mpr.calculator import MprCalculator
from repro.protocols.mpr.state import MprState
from repro.protocols.olsr.routes import RouteCalculator
from repro.protocols.olsr.spt import IncrementalSpt, SptInconsistency
from repro.sim.kernel_table import KernelRoute, KernelRoutingTable

ROOT = 0
NODES = list(range(8))

edge_st = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
    lambda e: e[0] != e[1]
)


def reference_routes(edges, root):
    """The legacy BFS, verbatim: dest -> (first hop, hops).

    Sorted-adjacency FIFO BFS with pop-time visited checks — the original
    ``RouteCalculator.compute`` inner loop, which defines the first-hop
    tie-break the incremental engine must reproduce.
    """
    graph = {root: set()}
    for u, v in edges:
        graph.setdefault(u, set()).add(v)
        graph.setdefault(v, set())
    routes = {}
    frontier = deque(
        (neighbour, neighbour, 1) for neighbour in sorted(graph[root])
    )
    visited = {root}
    while frontier:
        node, first_hop, distance = frontier.popleft()
        if node in visited:
            continue
        visited.add(node)
        routes[node] = (first_hop, distance)
        for successor in sorted(graph.get(node, ())):
            if successor not in visited:
                frontier.append((successor, first_hop, distance + 1))
    return routes


@st.composite
def delta_batches(draw):
    """A start multiset of edges plus batches of (added, removed) deltas.

    Removals are drawn from what the running multiset can support, so every
    generated sequence is consistent (inconsistent retractions are a
    separate, deliberate test).
    """
    start = draw(st.lists(edge_st, max_size=14))
    live = Counter(start)
    batches = []
    for _ in range(draw(st.integers(1, 8))):
        added = draw(st.lists(edge_st, max_size=5))
        supported = sorted(live.elements())
        removed = []
        if supported:
            indices = draw(
                st.lists(
                    st.integers(0, len(supported) - 1),
                    max_size=min(5, len(supported)),
                    unique=True,
                )
            )
            removed = [supported[i] for i in indices]
        live.update(added)
        live.subtract(removed)
        batches.append((added, removed))
    return start, batches


@settings(max_examples=300, deadline=None)
@given(delta_batches())
def test_incremental_spt_matches_reference(data):
    start, batches = data
    engine = IncrementalSpt(ROOT)
    engine.rebuild(start)
    live = Counter(start)
    assert engine.routes == reference_routes(sorted(live.elements()), ROOT)
    for added, removed in batches:
        before = dict(engine.routes)
        changed = engine.apply(added, removed)
        live.update(added)
        live.subtract(removed)
        expected = reference_routes(sorted(live.elements()), ROOT)
        assert engine.routes == expected
        assert changed == (engine.routes != before)
        # Distances must agree with the route view (root excluded from it).
        assert engine.dist[ROOT] == 0
        assert {v: d for v, d in engine.dist.items() if v != ROOT} == {
            v: hops for v, (_fh, hops) in expected.items()
        }


@settings(max_examples=100, deadline=None)
@given(st.lists(edge_st, min_size=1, max_size=8, unique=True))
def test_retracting_unasserted_edge_raises(edges):
    engine = IncrementalSpt(ROOT)
    engine.rebuild(edges[1:])
    try:
        engine.apply([], [edges[0], edges[0]] if edges[0] in edges[1:] else [edges[0]])
    except SptInconsistency:
        pass
    else:
        raise AssertionError("over-retraction must raise SptInconsistency")


# -- kernel writes: delta path vs replace_all ---------------------------------

PROTO = "olsr"
FOREIGN = "dymo"
#: foreign destinations: OLSR-routable nodes plus one OLSR never reaches
FOREIGN_DESTS = NODES[1:] + [50]


class _Recorder:
    """Minimal enabled tracer: keeps (name, attrs) of every event."""

    enabled = True

    def __init__(self):
        self.events = []

    def event(self, name, **attrs):
        self.events.append((name, attrs))


def _traced_table():
    recorder = _Recorder()
    table = KernelRoutingTable(
        lambda: 0.0, obs=SimpleNamespace(tracer=recorder), node_id=ROOT
    )
    return table, recorder


def _calculator(table):
    """A RouteCalculator whose CF offers only what ``_finish_install`` reads."""
    sys_state = SysState(SimpleNamespace(kernel_table=table))
    cf = SimpleNamespace(
        name=PROTO,
        sys_state=lambda: sys_state,
        olsr_state=SimpleNamespace(routes={}),
    )
    return RouteCalculator(cf)


def _host_entries(table):
    return sorted(
        (r.destination, r.next_hop, r.metric, r.proto) for r in table.routes()
    )


class _ReferenceWriter:
    """Today's full write: ``replace_all`` of the sorted table, same skips."""

    def __init__(self, table):
        self.table = table
        self.last_version = None

    def install(self, routes, changed):
        if changed or self.table.version != self.last_version:
            self.table.replace_all(
                [
                    KernelRoute(dest, next_hop, metric=hops)
                    for dest, (next_hop, hops) in sorted(routes.items())
                ],
                proto=PROTO,
            )
            self.last_version = self.table.version


@st.composite
def kernel_steps(draw):
    """Start edges plus a mix of SPT batches and foreign kernel writes."""
    start = draw(st.lists(edge_st, max_size=14))
    live = Counter(start)
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["batch", "batch", "batch", "add", "del"]))
        if kind == "add":
            steps.append(("add", draw(st.sampled_from(FOREIGN_DESTS)),
                          draw(st.sampled_from(NODES[1:]))))
            continue
        if kind == "del":
            steps.append(("del", draw(st.sampled_from(FOREIGN_DESTS))))
            continue
        added = draw(st.lists(edge_st, max_size=4))
        supported = sorted(live.elements())
        removed = []
        if supported:
            indices = draw(st.lists(
                st.integers(0, len(supported) - 1),
                max_size=min(4, len(supported)), unique=True,
            ))
            removed = [supported[i] for i in indices]
        live.update(added)
        live.subtract(removed)
        steps.append(("batch", added, removed))
    return start, steps


def _drive(start, steps):
    """Run both writers over ``steps``; checks equality after every step."""
    delta_table, delta_trace = _traced_table()
    full_table, full_trace = _traced_table()
    calc = _calculator(delta_table)
    reference = _ReferenceWriter(full_table)
    engine = IncrementalSpt(ROOT)
    changed = engine.rebuild(start)
    calc._finish_install(engine.routes, changed, engine.changed)
    reference.install(engine.routes, changed)
    foreign_since_write = False
    for step in steps:
        if step[0] == "batch":
            changed = engine.apply(step[1], step[2])
            writes = delta_table.version
            deltas = calc.kernel_delta_writes
            calc._finish_install(engine.routes, changed, engine.changed)
            reference.install(engine.routes, changed)
            if delta_table.version != writes:
                # A foreign write since our last one forces replace_all;
                # otherwise an incremental change goes through the delta.
                assert calc.kernel_delta_writes == deltas + (not foreign_since_write)
                foreign_since_write = False
        else:
            before = delta_table.version
            for table in (delta_table, full_table):
                if step[0] == "add":
                    table.add_route(step[1], step[2], metric=9, proto=FOREIGN)
                else:
                    table.del_route(step[1])
            foreign_since_write |= delta_table.version != before
        assert _host_entries(delta_table) == _host_entries(full_table)
        assert delta_trace.events == full_trace.events
        assert delta_table.version == full_table.version
    return delta_table, calc


@settings(max_examples=300, deadline=None)
@given(kernel_steps())
def test_delta_kernel_writes_match_replace_all(data):
    start, steps = data
    _drive(start, steps)


def test_foreign_entry_survives_olsr_drop():
    """OLSR drops a destination a foreign proto took over: it stays foreign."""
    start = [(0, 1), (1, 2), (2, 3)]
    steps = [
        ("batch", [], []),
        ("add", 3, 1),                      # foreign proto claims 3
        ("batch", [], [(2, 3)]),            # OLSR loses 3 (replace_all)
        ("batch", [(0, 4)], []),            # delta write beside it
        ("batch", [], [(1, 2)]),            # OLSR loses 2 (delta)
    ]
    table, calc = _drive(start, steps)
    assert calc.kernel_delta_writes == 2
    assert table.lookup(3).proto == FOREIGN
    assert table.lookup(2) is None
    assert table.lookup(4).proto == PROTO


def test_apply_delta_deletes_only_own_entries():
    table, recorder = _traced_table()
    table.add_route(7, 1, proto=FOREIGN)
    table.add_route(8, 2, proto=PROTO)
    version = table.version
    table.apply_delta(PROTO, {9: (3, 2)}, {7, 8, 9})
    assert table.version == version + 1
    assert _host_entries(table) == [(7, 1, 1, FOREIGN), (9, 3, 2, PROTO)]
    assert recorder.events[-1] == ("kernel.replace_all", {
        "node": ROOT, "proto": PROTO, "routes": 1,
        "added": [(9, 3)], "removed": [8],
    })


# -- MPR selection ----------------------------------------------------------

SELF = 0
NEIGHBOURS = list(range(1, 6))
TWO_HOP_UNIVERSE = list(range(1, 12))
VALIDITY = 6.0

wills = st.sampled_from(
    [int(w) for w in (Willingness.NEVER, Willingness.LOW, Willingness.DEFAULT,
                      Willingness.HIGH, Willingness.ALWAYS)]
)


@st.composite
def mpr_ops(draw):
    kind = draw(st.sampled_from(["hello", "hello", "hello", "expire", "transfer"]))
    if kind == "hello":
        return (
            "hello",
            draw(st.sampled_from(NEIGHBOURS)),
            draw(st.booleans()),  # link symmetric?
            frozenset(draw(st.lists(st.sampled_from(TWO_HOP_UNIVERSE), max_size=5))),
            draw(wills),
        )
    if kind == "expire":
        return ("expire", draw(st.floats(0.5, 3.0)))
    return (
        "transfer",
        draw(st.sampled_from(NEIGHBOURS)),
        frozenset(draw(st.lists(st.sampled_from(TWO_HOP_UNIVERSE), max_size=4))),
    )


def apply_op(state, now, op):
    """Mutate ``state`` exactly the way the real code paths do."""
    if op[0] == "hello":
        _kind, sender, symmetric, two_hop_raw, willingness = op
        link = state.ensure_link(sender)
        link.asym_until = now + VALIDITY
        link.last_heard = now
        if symmetric:
            link.sym_until = now + VALIDITY
        two_hop = set(two_hop_raw) - {SELF}
        if state.two_hop.get(sender) != two_hop:
            state.two_hop[sender] = two_hop
            state.nhood_version += 1
        if state.willingness_of.get(sender) != willingness:
            state.willingness_of[sender] = willingness
            state.will_version += 1
        return now
    if op[0] == "expire":
        now += op[1]
        state.expire_links(now)
        return now
    _kind, sender, two_hop_raw = op
    state.set_state(
        {
            "links": {
                sender: (now + VALIDITY, now + VALIDITY, now, 0.0, False, 1.0)
            },
            "two_hop": {sender: set(two_hop_raw) - {SELF}},
        }
    )
    return now


@settings(max_examples=200, deadline=None)
@given(st.lists(mpr_ops(), min_size=1, max_size=12))
def test_mpr_select_matches_compute(ops):
    state = MprState()
    calc = MprCalculator()  # long-lived: accumulates memo + coverage cache
    now = 0.0
    for op in ops:
        now = apply_op(state, now, op)
        selected = calc.select(state, now, SELF)
        reference = MprCalculator().compute(state, now, SELF)
        assert selected == reference
        # Memoised repeat must agree too (and not alias internal state).
        again = calc.select(state, now, SELF)
        assert again == reference
        again.add(-1)
        assert calc.select(state, now, SELF) == reference
