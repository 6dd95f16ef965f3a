"""The OLSR S element: topology set, ANSN bookkeeping, route mirror."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.manet_protocol import StateComponent
from repro.protocols.common import seq_increment, seq_newer


@dataclass
class TopologyEntry:
    """One learned topology tuple: ``destination`` is reachable via
    ``last_hop`` (the TC originator)."""

    last_hop: int
    destination: int
    ansn: int
    expiry: float


class OlsrState(StateComponent):
    """S element of the OLSR CF."""

    #: Edge-delta batches retained for incremental route repair.  Consumers
    #: further behind than this (or cut off by a state transfer) rebuild
    #: from scratch instead.
    JOURNAL_LIMIT = 256

    def __init__(self) -> None:
        super().__init__("olsr-state")
        #: (last_hop, destination) -> TopologyEntry
        self.topology: Dict[Tuple[int, int], TopologyEntry] = {}
        #: freshest ANSN seen per TC originator, as (ansn, expiry).  The
        #: expiry mirrors RFC 3626's hold-time semantics: an expired record
        #: imposes no freshness constraint, so one corrupted TC carrying a
        #: wrapped-ahead ANSN cannot poison an originator forever.
        self.ansn_of: Dict[int, Tuple[int, float]] = {}
        #: freshest message seqnum per TC originator (duplicate filtering),
        #: as (seqnum, expiry) — the duplicate set ages out the same way.
        self.msg_seq_of: Dict[int, Tuple[int, float]] = {}
        #: our Advertised Neighbour Sequence Number
        self.ansn = 0
        #: the advertised (MPR selector) set as of the last TC we sent
        self.last_advertised: Set[int] = set()
        #: mirror of the routes we last installed: dest -> (next_hop, hops)
        self.routes: Dict[int, Tuple[int, int]] = {}
        #: per-originator destination index over ``topology``, kept in lock
        #: step with it — record/drop touch only one originator's edges
        #: instead of scanning the whole set.
        self._by_origin: Dict[int, Set[int]] = {}
        #: earliest expiry across the topology set; ``purge_topology`` is a
        #: no-op until the clock passes it.
        self._min_expiry: float = float("inf")
        #: bumped whenever the topology *edge set* changes.  Refreshes that
        #: only extend expiries keep the version, so route computations
        #: (which depend on edges alone) can be cached against it.
        self.topology_version = 0
        #: journal of edge deltas, one entry per version bump:
        #: (version after applying, added edges, removed edges).
        self._journal: Deque[
            Tuple[int, Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]
        ] = deque()
        #: oldest version a journal consumer can still catch up from.
        self._journal_floor = 0
        self.provide_interface("IOLSRState", "IOLSRState")

    # -- topology delta journal --------------------------------------------

    def _log_topology_delta(self, added, removed) -> None:
        """Bump the version and journal the edge delta that caused it."""
        self.topology_version += 1
        self._journal.append((self.topology_version, tuple(added), tuple(removed)))
        if len(self._journal) > self.JOURNAL_LIMIT:
            self._journal.popleft()
            self._journal_floor = self._journal[0][0] - 1

    def _invalidate_journal(self) -> None:
        """Structural invalidation (state transfer): force consumers to rebuild."""
        self.topology_version += 1
        self._journal.clear()
        self._journal_floor = self.topology_version

    def topology_deltas_since(
        self, version: int
    ) -> Optional[List[Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]]]:
        """Edge deltas taking ``version`` to the current version.

        Returns ``[]`` when already current, ``None`` when the consumer is
        too far behind (journal overflow) or the journal was invalidated by
        a state transfer — the caller must fall back to a full rebuild.
        """
        if version == self.topology_version:
            return []
        if version < self._journal_floor or version > self.topology_version:
            return None
        # Journal versions run consecutively from floor + 1, so the first
        # entry past ``version`` sits at a known index: no scan needed.
        journal = self._journal
        return [
            journal[index][1:]
            for index in range(version - self._journal_floor, len(journal))
        ]

    # -- ANSN --------------------------------------------------------------

    def bump_ansn(self) -> int:
        self.ansn = seq_increment(self.ansn)
        return self.ansn

    def fresher_ansn(self, originator: int, ansn: int, now: float = 0.0) -> bool:
        """Whether ``ansn`` is at least as fresh as the recorded one."""
        record = self.ansn_of.get(originator)
        if record is None or record[1] <= now:
            return True
        return not seq_newer(record[0], ansn)

    # -- duplicate set -----------------------------------------------------------

    def fresh_msg_seq(self, originator: int, now: float) -> "int | None":
        """The recorded message seqnum, or ``None`` if absent/expired."""
        record = self.msg_seq_of.get(originator)
        if record is None or record[1] <= now:
            return None
        return record[0]

    def note_msg_seq(self, originator: int, seqnum: int, expiry: float) -> None:
        self.msg_seq_of[originator] = (seqnum, expiry)

    # -- topology set -----------------------------------------------------------

    def record_topology(
        self, last_hop: int, destinations: List[int], ansn: int, expiry: float
    ) -> None:
        """Install the advertised set of one TC, superseding older ANSNs."""
        self.ansn_of[last_hop] = (ansn, expiry)
        topology = self.topology
        dests = self._by_origin.get(last_hop)
        if dests is None:
            dests = self._by_origin[last_hop] = set()
        stale = {
            d for d in dests if seq_newer(ansn, topology[(last_hop, d)].ansn)
        }
        advertised = set(destinations)
        # Net edge delta: stale-but-readvertised destinations cancel out.
        added_net = advertised - dests
        removed_net = stale - advertised
        if added_net or removed_net:
            self._log_topology_delta(
                [(last_hop, d) for d in added_net],
                [(last_hop, d) for d in removed_net],
            )
        for destination in stale:
            del topology[(last_hop, destination)]
        dests -= stale
        for destination in destinations:
            topology[(last_hop, destination)] = TopologyEntry(
                last_hop, destination, ansn, expiry
            )
            dests.add(destination)
        if not dests:
            del self._by_origin[last_hop]
        elif expiry < self._min_expiry:
            self._min_expiry = expiry

    def purge_topology(self, now: float) -> int:
        if now < self._min_expiry:
            return 0
        stale = [key for key, entry in self.topology.items() if entry.expiry <= now]
        for key in stale:
            del self.topology[key]
            dests = self._by_origin.get(key[0])
            if dests is not None:
                dests.discard(key[1])
                if not dests:
                    del self._by_origin[key[0]]
        if stale:
            self._log_topology_delta((), stale)
        self._min_expiry = min(
            (entry.expiry for entry in self.topology.values()),
            default=float("inf"),
        )
        return len(stale)

    def drop_originator(self, originator: int) -> None:
        dests = self._by_origin.pop(originator, None)
        if not dests:
            return
        for destination in dests:
            del self.topology[(originator, destination)]
        self._log_topology_delta((), [(originator, d) for d in dests])

    def topology_edges(self) -> List[Tuple[int, int]]:
        return sorted(self.topology.keys())

    # -- state transfer -------------------------------------------------------------

    def get_state(self) -> Dict[str, object]:
        return {
            "topology": {
                key: (e.ansn, e.expiry) for key, e in self.topology.items()
            },
            "ansn_of": dict(self.ansn_of),
            "msg_seq_of": dict(self.msg_seq_of),
            "ansn": self.ansn,
            "last_advertised": set(self.last_advertised),
            "routes": dict(self.routes),
        }

    def set_state(self, state: Dict[str, object]) -> None:
        topology = state.get("topology")
        if isinstance(topology, dict):
            for (last_hop, destination), (ansn, expiry) in topology.items():
                self.topology[(last_hop, destination)] = TopologyEntry(
                    last_hop, destination, ansn, expiry
                )
                self._by_origin.setdefault(last_hop, set()).add(destination)
                if expiry < self._min_expiry:
                    self._min_expiry = expiry
        # A transfer can rewrite any input of route computation (topology
        # edges, the route mirror), so downstream incremental consumers must
        # rebuild rather than trust their replay position.
        self._invalidate_journal()
        for attr in ("ansn_of", "msg_seq_of", "routes"):
            value = state.get(attr)
            if isinstance(value, dict):
                getattr(self, attr).update(value)
        if "ansn" in state:
            self.ansn = state["ansn"]  # type: ignore[assignment]
        advertised = state.get("last_advertised")
        if isinstance(advertised, set):
            self.last_advertised = set(advertised)
