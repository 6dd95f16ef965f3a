"""Incremental shortest-path tree maintenance for OLSR route calculation.

The full recomputation in :meth:`RouteCalculator.compute` is a BFS over the
merged routing graph (symmetric links, gated 2-hop listings, learned
topology tuples).  At scale that BFS — and the kernel-table rewrite behind
it — dominates the run: every received TC triggers a recomputation whose
cost is proportional to the *whole network*, even when the delta is one
edge.  This module keeps the shortest-path tree alive across installs and
repairs it locally, Ramalingam–Reps style: a batch of edge insertions and
deletions first identifies the affected region (vertices whose distance
may have changed), then re-settles only that region with a Dijkstra-like
relaxation seeded from its unaffected fringe, and finally repairs the
first-hop assignment level by level.

Edges are **reference counted**: the routing graph derives one arc from
several information sources at once (a symmetric link, a 2-hop listing and
a topology tuple can all assert the same arc), so an arc leaves the graph
only when its last contributor retracts it.

The maintained invariant matches the full BFS exactly.  The sorted-adjacency
FIFO BFS installs, for every reachable vertex ``v``, the first hop of the
lexicographically smallest shortest path — which satisfies the order-free
local recurrence::

    fhop(v) = min over predecessors p with dist(p) == dist(v) - 1
              of (v if p == root else fhop(p))

Because the recurrence only looks one level up, it can be repaired
incrementally in ascending-distance order, and recomputing it from scratch
in any vertex order gives the identical result — that equivalence is pinned
by the property suite in ``tests/properties/test_incremental_routes.py``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

Edge = Tuple[int, int]

_INF = float("inf")


class SptInconsistency(ValueError):
    """A delta retracted an edge the engine never saw asserted.

    Raised instead of guessing: the caller's delta bookkeeping is out of
    sync with the graph, so the only safe reaction is a full rebuild.
    """


class IncrementalSpt:
    """Dynamic single-source shortest-path tree on a unit-weight digraph."""

    __slots__ = (
        "root", "_ref", "_succ", "_pred", "dist", "fhop", "routes", "changed",
    )

    def __init__(self, root: int) -> None:
        self.root = root
        #: edge -> number of information sources currently asserting it
        self._ref: Dict[Edge, int] = {}
        self._succ: Dict[int, Set[int]] = {}
        self._pred: Dict[int, Set[int]] = {}
        #: hop distance from the root (root included, at 0)
        self.dist: Dict[int, int] = {root: 0}
        #: first hop of the lexicographically smallest shortest path
        self.fhop: Dict[int, int] = {}
        #: the installable view: dest -> (first hop, hop count).  Mutated in
        #: place so long-lived aliases (the OLSR route mirror) stay current.
        self.routes: Dict[int, Tuple[int, int]] = {}
        #: destinations whose ``routes`` entry the last batch set or
        #: removed; ``None`` after a full (re)build, meaning "everything".
        self.changed: Optional[Set[int]] = None

    # -- full (re)build -----------------------------------------------------

    def rebuild(self, edges: Iterable[Edge]) -> bool:
        """Reset the graph to ``edges`` (counted) and recompute from scratch.

        Returns whether the route view changed.
        """
        self._ref = {}
        self._succ = {}
        self._pred = {}
        for edge in edges:
            self._ref[edge] = self._ref.get(edge, 0) + 1
            self._succ.setdefault(edge[0], set()).add(edge[1])
            self._pred.setdefault(edge[1], set()).add(edge[0])
        return self._recompute()

    def _recompute(self) -> bool:
        """Full BFS for dist + per-level recurrence for fhop."""
        self.changed = None
        root = self.root
        succ = self._succ
        dist: Dict[int, int] = {root: 0}
        levels: List[List[int]] = [[root]]
        frontier = [root]
        d = 0
        while frontier:
            d += 1
            next_frontier: List[int] = []
            for u in frontier:
                for v in succ.get(u, ()):
                    if v not in dist:
                        dist[v] = d
                        next_frontier.append(v)
            if next_frontier:
                levels.append(next_frontier)
            frontier = next_frontier
        fhop: Dict[int, int] = {}
        pred = self._pred
        for level_nodes in levels[1:]:
            for v in level_nodes:
                dv = dist[v]
                best: Optional[int] = None
                for p in pred.get(v, ()):
                    if dist.get(p) == dv - 1:
                        contrib = v if p == root else fhop[p]
                        if best is None or contrib < best:
                            best = contrib
                fhop[v] = best  # type: ignore[assignment]
        new_routes = {v: (fhop[v], dist[v]) for v in dist if v != root}
        changed = new_routes != self.routes
        self.dist = dist
        self.fhop = fhop
        self.routes.clear()
        self.routes.update(new_routes)
        return changed

    # -- incremental batch update ------------------------------------------

    def apply(self, added: Iterable[Edge], removed: Iterable[Edge]) -> bool:
        """Apply one batch of edge assertions/retractions; repair locally.

        Returns whether the route view changed.  Raises
        :class:`SptInconsistency` when a retraction has no matching
        assertion (caller bookkeeping bug — rebuild instead).
        """
        # Net the batch first: an arc retracted by one source and asserted
        # by another in the same batch must not transiently disappear.
        delta: Dict[Edge, int] = {}
        for edge in added:
            delta[edge] = delta.get(edge, 0) + 1
        for edge in removed:
            delta[edge] = delta.get(edge, 0) - 1
        real_added: List[Edge] = []
        real_removed: List[Edge] = []
        rerouted: Set[int] = set()
        self.changed = rerouted
        ref = self._ref
        for edge, count in delta.items():
            if count == 0:
                continue
            new_count = ref.get(edge, 0) + count
            if new_count < 0:
                raise SptInconsistency(f"retraction of unasserted edge {edge}")
            if new_count == 0:
                del ref[edge]
                real_removed.append(edge)
                self._succ[edge[0]].discard(edge[1])
                self._pred[edge[1]].discard(edge[0])
            else:
                was_absent = edge not in ref
                ref[edge] = new_count
                if was_absent:
                    real_added.append(edge)
                    self._succ.setdefault(edge[0], set()).add(edge[1])
                    self._pred.setdefault(edge[1], set()).add(edge[0])
        if not real_added and not real_removed:
            return False

        root = self.root
        dist = self.dist
        pred = self._pred
        succ = self._succ

        # Phase 1 — affected region.  A vertex is affected when every
        # shortest-path parent it had is gone or itself affected.  Working
        # strictly in ascending-distance order makes each level's verdict
        # final before the next level consults it.
        affected: Set[int] = set()
        touched_ok: Set[int] = set()
        buckets: Dict[int, Set[int]] = {}
        for u, v in real_removed:
            dv = dist.get(v)
            if dv is not None and v != root and dist.get(u) == dv - 1:
                buckets.setdefault(dv, set()).add(v)
        while buckets:
            d = min(buckets)
            for v in buckets.pop(d):
                if v in affected or dist.get(v) != d:
                    continue
                supported = False
                for p in pred.get(v, ()):
                    if dist.get(p) == d - 1 and p not in affected:
                        supported = True
                        break
                if supported:
                    touched_ok.add(v)
                    continue
                affected.add(v)
                for w in succ.get(v, ()):
                    if w != root and dist.get(w) == d + 1:
                        buckets.setdefault(d + 1, set()).add(w)

        # Phase 2 — re-settle the affected region plus insertion-driven
        # improvements with a lazy-deletion Dijkstra (unit weights).
        for v in affected:
            del dist[v]
        heap: List[Tuple[int, int]] = []
        for v in affected:
            best = _INF
            for p in pred.get(v, ()):
                dp = dist.get(p)
                if dp is not None and dp + 1 < best:
                    best = dp + 1
            if best is not _INF:
                heap.append((best, v))
        for u, v in real_added:
            du = dist.get(u)
            if du is None or v == root:
                continue
            dv = dist.get(v)
            if dv is None or du + 1 < dv:
                heap.append((du + 1, v))
        heapq.heapify(heap)
        resettled: Set[int] = set()
        while heap:
            d, v = heapq.heappop(heap)
            known = dist.get(v)
            if known is not None and known <= d:
                continue
            dist[v] = d
            resettled.add(v)
            for w in succ.get(v, ()):
                if w == root:
                    continue
                dw = dist.get(w)
                if dw is None or dw > d + 1:
                    heapq.heappush(heap, (d + 1, w))

        routes = self.routes
        fhop = self.fhop
        dropped = affected - resettled
        for v in dropped:
            fhop.pop(v, None)
            if routes.pop(v, None) is not None:
                rerouted.add(v)

        # Phase 3 — first-hop repair, bucketed by ascending distance (the
        # recurrence for level d reads only level d-1).  Seeds: every vertex
        # whose distance was re-settled, every vertex that lost or gained an
        # in-edge, and every vertex phase 1 examined (it may have lost the
        # parent that supplied its minimal first hop).
        fbuckets: Dict[int, Set[int]] = {}

        def seed(v: int) -> None:
            dv = dist.get(v)
            if dv is not None and v != root:
                fbuckets.setdefault(dv, set()).add(v)

        for v in resettled:
            seed(v)
        for v in touched_ok:
            seed(v)
        for _u, v in real_added:
            seed(v)
        for _u, v in real_removed:
            seed(v)
        # Successors of dropped vertices lose a potential fhop contributor.
        for v in dropped:
            for w in succ.get(v, ()):
                seed(w)
        while fbuckets:
            d = min(fbuckets)
            for v in fbuckets.pop(d):
                if dist.get(v) != d:
                    continue
                best = None
                for p in pred.get(v, ()):
                    if dist.get(p) == d - 1:
                        contrib = v if p == root else fhop[p]
                        if best is None or contrib < best:
                            best = contrib
                if best is None:
                    # Unreachable after all (defensive; phase 2 settles only
                    # vertices relaxed from a live parent).
                    del dist[v]
                    fhop.pop(v, None)
                    if routes.pop(v, None) is not None:
                        rerouted.add(v)
                    continue
                entry = (best, d)
                if fhop.get(v) != best:
                    fhop[v] = best
                    routes[v] = entry
                    rerouted.add(v)
                    for w in succ.get(v, ()):
                        if w != root and dist.get(w) == d + 1:
                            fbuckets.setdefault(d + 1, set()).add(w)
                elif routes.get(v) != entry:
                    routes[v] = entry
                    rerouted.add(v)
        return bool(rerouted)
