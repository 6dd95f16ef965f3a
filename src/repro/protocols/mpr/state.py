"""The MPR S element: link set, neighbourhood, relay sets, duplicate set.

This is the largest state component in the repository (the paper notes the
same of its C counterpart, Table 3 footnote 4): several distinct tables
back the different views the protocol needs — raw links with timeouts,
symmetric neighbours with willingness, the strict 2-hop set, the MPR set we
select, the selector set that selects *us*, and the flooding duplicate set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.manet_protocol import StateComponent
from repro.protocols.common import Willingness


@dataclass
class LinkEntry:
    """One sensed link to a 1-hop neighbour."""

    neighbour: int
    asym_until: float = 0.0
    sym_until: float = 0.0
    last_heard: float = 0.0
    quality: float = 0.0      # hysteresis link quality estimate
    pending: bool = False     # hysteresis: heard but not yet trusted
    cost: float = 1.0         # power-aware variant: transmission cost

    def is_symmetric(self, now: float) -> bool:
        return self.sym_until > now and not self.pending

    def is_heard(self, now: float) -> bool:
        return self.asym_until > now

    def status(self, now: float) -> str:
        if self.is_symmetric(now):
            return "sym"
        if self.is_heard(now):
            return "asym"
        return "lost"


class MprState(StateComponent):
    """S element of the MPR CF."""

    DUP_HOLD = 30.0

    def __init__(self) -> None:
        super().__init__("mpr-state")
        self.links: Dict[int, LinkEntry] = {}
        self.willingness_of: Dict[int, int] = {}
        #: symmetric neighbour -> the set of its symmetric neighbours
        self.two_hop: Dict[int, Set[int]] = {}
        self.mpr_set: Set[int] = set()
        #: nodes that selected us as their MPR -> expiry time
        self.selectors: Dict[int, float] = {}
        #: flooding duplicate set: (originator, seqnum) -> expiry
        self.duplicates: Dict[Tuple[int, int], float] = {}
        self.own_willingness: int = int(Willingness.DEFAULT)
        #: bumped whenever link-set membership or 2-hop *content* changes —
        #: HELLOs that merely refresh expiries keep the version, so
        #: downstream computations (route tables) can be cached against it
        #: together with the momentary symmetric-neighbour set.
        self.nhood_version = 0
        #: bumped when a neighbour's advertised willingness *value* changes
        #: (kept separate from ``nhood_version`` because willingness feeds
        #: MPR selection but not route computation).
        self.will_version = 0
        self.provide_interface("IMPRState", "IMPRState")

    # -- link queries -------------------------------------------------------

    def link(self, neighbour: int) -> Optional[LinkEntry]:
        return self.links.get(neighbour)

    def ensure_link(self, neighbour: int) -> LinkEntry:
        entry = self.links.get(neighbour)
        if entry is None:
            entry = LinkEntry(neighbour)
            self.links[neighbour] = entry
        return entry

    def symmetric_neighbours(self, now: float) -> List[int]:
        return sorted(
            n for n, link in self.links.items() if link.is_symmetric(now)
        )

    def heard_neighbours(self, now: float) -> List[int]:
        return sorted(n for n, link in self.links.items() if link.is_heard(now))

    def asym_only_neighbours(self, now: float) -> List[int]:
        return sorted(
            n
            for n, link in self.links.items()
            if link.is_heard(now) and not link.is_symmetric(now)
        )

    def expire_links(self, now: float) -> List[int]:
        """Drop fully expired links; returns the lost neighbours."""
        lost = [n for n, link in self.links.items() if not link.is_heard(now)]
        for neighbour in lost:
            del self.links[neighbour]
            self.two_hop.pop(neighbour, None)
            self.willingness_of.pop(neighbour, None)
            self.mpr_set.discard(neighbour)
        if lost:
            self.nhood_version += 1
        return lost

    # -- 2-hop queries --------------------------------------------------------

    def strict_two_hop(self, now: float, self_address: int) -> Set[int]:
        """Nodes exactly two hops away through symmetric neighbours."""
        sym = set(self.symmetric_neighbours(now))
        reached: Set[int] = set()
        for neighbour in sym:
            reached |= self.two_hop.get(neighbour, set())
        return reached - sym - {self_address}

    def coverage(self, now: float, self_address: int) -> Dict[int, Set[int]]:
        """For each symmetric neighbour, which strict-2-hop nodes it covers."""
        strict = self.strict_two_hop(now, self_address)
        return {
            neighbour: (self.two_hop.get(neighbour, set()) & strict)
            for neighbour in self.symmetric_neighbours(now)
        }

    # -- selector / willingness -----------------------------------------------

    def active_selectors(self, now: float) -> List[int]:
        return sorted(n for n, until in self.selectors.items() if until > now)

    def is_selector(self, neighbour: int, now: float) -> bool:
        """Whether ``neighbour`` is in ``active_selectors(now)``, in O(1)."""
        until = self.selectors.get(neighbour)
        return until is not None and until > now

    def note_selector(self, neighbour: int, until: float) -> None:
        self.selectors[neighbour] = until

    def expire_selectors(self, now: float) -> None:
        for neighbour in [n for n, t in self.selectors.items() if t <= now]:
            del self.selectors[neighbour]

    def willingness(self, neighbour: int) -> int:
        return self.willingness_of.get(neighbour, int(Willingness.DEFAULT))

    # -- duplicate set ------------------------------------------------------------

    def is_duplicate(self, originator: int, seqnum: int, msg_type: int = 0) -> bool:
        # The key includes the message type: different generators on one
        # node use independent seqnum spaces, so a TC and a POWER message
        # from the same originator must never shadow each other.
        return (originator, msg_type, seqnum) in self.duplicates

    def note_message(
        self, originator: int, seqnum: int, now: float, msg_type: int = 0
    ) -> None:
        self.duplicates[(originator, msg_type, seqnum)] = now + self.DUP_HOLD
        if len(self.duplicates) > 4096:
            self.gc_duplicates(now)

    def gc_duplicates(self, now: float) -> None:
        for key in [k for k, t in self.duplicates.items() if t <= now]:
            del self.duplicates[key]

    def purge_duplicates(self, msg_type: int) -> None:
        """Forget one message type's flooding history.

        Called when the type's registrant is undeployed: a re-deployed
        protocol restarts its seqnum space, and the stale entries would
        otherwise suppress its first ``DUP_HOLD`` seconds of floods at
        every relay hop — a fleet-wide blackout after a live protocol
        switch.
        """
        for key in [k for k in self.duplicates if k[1] == msg_type]:
            del self.duplicates[key]

    # -- state transfer ----------------------------------------------------------

    def get_state(self) -> Dict[str, object]:
        return {
            "links": {
                n: (e.asym_until, e.sym_until, e.last_heard, e.quality,
                    e.pending, e.cost)
                for n, e in self.links.items()
            },
            "willingness_of": dict(self.willingness_of),
            "two_hop": {n: set(s) for n, s in self.two_hop.items()},
            "mpr_set": set(self.mpr_set),
            "selectors": dict(self.selectors),
            "own_willingness": self.own_willingness,
        }

    def set_state(self, state: Dict[str, object]) -> None:
        links = state.get("links")
        if isinstance(links, dict):
            for n, (asym, sym, heard, quality, pending, cost) in links.items():
                self.links[n] = LinkEntry(n, asym, sym, heard, quality, pending, cost)
        for attr in ("willingness_of", "two_hop", "mpr_set", "selectors"):
            value = state.get(attr)
            if value is not None:
                getattr(self, attr).update(value) if isinstance(
                    getattr(self, attr), dict
                ) else getattr(self, attr).update(value)
        if "own_willingness" in state:
            self.own_willingness = state["own_willingness"]  # type: ignore[assignment]
        self.nhood_version += 1
        self.will_version += 1
