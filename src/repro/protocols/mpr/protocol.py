"""The MPR CF: assembly of the Multipoint Relaying ManetProtocol.

Event tuple (paper section 5.1): the MPR instance *provides*
``HELLO_OUT``, ``NHOOD_CHANGE`` and ``MPR_CHANGE`` and *requires*
``HELLO_IN`` and ``POWER_STATUS``; protocols that use its flooding service
register additional message types at runtime
(:meth:`MprCF.add_flooded_type`), which extends the tuple and rewires the
deployment automatically.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.manet_protocol import EventHandlerComponent, ManetProtocol
from repro.events.event import Event
from repro.events.registry import EventTuple, Requirement
from repro.events.types import EventOntology
from repro.packetbb.message import Message, MsgType
from repro.protocols.mpr.calculator import MprCalculator
from repro.protocols.mpr.forward import MprForward
from repro.protocols.mpr.handlers import (
    MprHelloGenerator,
    MprHelloHandler,
    WillingnessHandler,
)
from repro.protocols.mpr.hysteresis import HysteresisPolicy
from repro.protocols.mpr.state import MprState

HELLO_INTERVAL = 2.0       # RFC 3626 default
HOLD_MULTIPLIER = 3.0      # NEIGHB_HOLD_TIME = 3 x HELLO_INTERVAL
HELLO_JITTER = 0.25        # fraction of the interval
FIRST_HELLO_DELAY = 0.1    # a joining node announces itself promptly


class _FloodRelayHandler(EventHandlerComponent):
    """Per-message-type handler feeding the MPR forwarding algorithm."""

    def __init__(self, cf: "MprCF", in_event: str, out_event: str) -> None:
        self.handles = (in_event,)
        super().__init__(f"relay[{in_event}]")
        self.cf = cf
        self.out_event = out_event
        #: numeric message types seen through this relay; purged from the
        #: duplicate set when the type is unregistered (the registrant's
        #: replacement restarts its seqnum space)
        self.msg_types_seen: set = set()

    def handle(self, event: Event) -> None:
        message = event.payload
        if isinstance(message, Message):
            self.msg_types_seen.add(message.msg_type)
        self.cf.mpr_forward.consider(event, self.out_event)


class MprCF(ManetProtocol):
    """Multipoint Relaying: link sensing, relay selection, flooding."""

    protocol_class = "service"

    def __init__(
        self,
        ontology: EventOntology,
        hello_interval: float = HELLO_INTERVAL,
        jitter: float = HELLO_JITTER,
        hysteresis_enabled: bool = False,
        name: str = "mpr",
    ) -> None:
        super().__init__(name, ontology)
        self.configurator.update(
            {
                "hello_interval": hello_interval,
                "hold_multiplier": HOLD_MULTIPLIER,
                "jitter": jitter,
            }
        )
        self.mpr_state = MprState()
        self.set_state(self.mpr_state)
        self.mpr_forward = MprForward(self)
        self.set_forward(self.mpr_forward)

        self.control.insert(HysteresisPolicy(enabled=hysteresis_enabled))
        self.control.insert(MprCalculator())

        self.add_source(
            MprHelloGenerator(self, hello_interval, jitter, FIRST_HELLO_DELAY)
        )
        self.add_handler(MprHelloHandler(self))
        self.add_handler(WillingnessHandler(self))

        self._flooded: Dict[str, str] = {}
        self._prev_sym: Set[int] = set()
        self._last_hello_trigger = -1e9
        self.set_event_tuple(
            EventTuple(
                required=["HELLO_IN", "POWER_STATUS"],
                provided=["HELLO_OUT", "NHOOD_CHANGE", "MPR_CHANGE", "LINK_BREAK"],
            )
        )

    # -- replaceable plug-ins (resolved by name so hot-swaps take effect) -------

    @property
    def hysteresis(self) -> HysteresisPolicy:
        return self.control.child("hysteresis")

    @property
    def calculator(self) -> MprCalculator:
        return self.control.child("mpr-calculator")

    # -- installation ---------------------------------------------------------

    def on_install(self, deployment) -> None:
        deployment.system.load_network_driver(
            "hello-driver", [(int(MsgType.HELLO), "HELLO_IN", "HELLO_OUT")]
        )
        deployment.system.load_power_status()

    # -- flooding service --------------------------------------------------------

    def add_flooded_type(self, in_event: str, out_event: str) -> None:
        """Register a broadcast message type for MPR flooding.

        OLSR registers ``TC_IN``/``TC_OUT``; the DYMO optimised-flooding
        variant can register its Routing Elements the same way.
        """
        if in_event in self._flooded:
            return
        self._flooded[in_event] = out_event
        self.add_handler(_FloodRelayHandler(self, in_event, out_event))
        self.set_event_tuple(
            self.event_tuple.with_required(Requirement(in_event)).with_provided(
                out_event
            )
        )

    def remove_flooded_type(self, in_event: str) -> None:
        out_event = self._flooded.pop(in_event, None)
        if out_event is None:
            return
        handler = self.remove_component(f"relay[{in_event}]")
        for msg_type in getattr(handler, "msg_types_seen", ()):
            self.mpr_state.purge_duplicates(msg_type)
        required = [r for r in self.event_tuple.required if r.name != in_event]
        provided = [
            p
            for p in self.event_tuple.provided
            if p != out_event or p in self._flooded.values()
        ]
        self.set_event_tuple(EventTuple(required, provided))

    def flooded_types(self) -> Dict[str, str]:
        return dict(self._flooded)

    # -- timing ---------------------------------------------------------------------

    def hello_interval(self) -> float:
        return self.config("hello_interval")

    def link_hold_time(self) -> float:
        return self.config("hello_interval") * self.config("hold_multiplier")

    # -- neighbourhood bookkeeping -----------------------------------------------------

    def run_housekeeping(self, now: float) -> None:
        """Expiry + hysteresis decay; called before each HELLO emission."""
        state = self.mpr_state
        for link in state.links.values():
            if now - link.last_heard > self.hello_interval() * 1.5:
                self.hysteresis.on_hello_missed(link)
        lost = state.expire_links(now)
        state.expire_selectors(now)
        state.gc_duplicates(now)
        if lost:
            for neighbour in lost:
                self.emit("LINK_BREAK", payload={"neighbour": neighbour})
        self.after_neighbourhood_update(now)

    def after_neighbourhood_update(self, now: float) -> None:
        """Detect symmetric-set / MPR-set changes and emit change events."""
        sym = set(self.mpr_state.symmetric_neighbours(now))
        if sym != self._prev_sym:
            added = sorted(sym - self._prev_sym)
            lost = sorted(self._prev_sym - sym)
            self._prev_sym = sym
            self.emit(
                "NHOOD_CHANGE",
                payload={"added": added, "lost": lost, "neighbours": set(sym)},
            )
        new_mprs = self.calculator.select(
            self.mpr_state, now, self.local_address, sym=sym
        )
        if new_mprs != self.mpr_state.mpr_set:
            self.mpr_state.mpr_set = new_mprs
            self.emit("MPR_CHANGE", payload={"mpr_set": set(new_mprs)})

    def maybe_trigger_hello(self) -> None:
        """Pull the next HELLO forward after a link-state change.

        Rate-limited triggered HELLOs accelerate link symmetry when a node
        joins (RFC 3626 permits message jitter/triggering); without them a
        new neighbour waits out full HELLO intervals at each side.
        """
        now = self.deployment.now
        if now - self._last_hello_trigger < 0.5:
            return
        self._last_hello_trigger = now
        generator = self.registry.sources().get("hello-generator")
        if generator is not None:
            generator.reschedule(0.1)

    # -- query surface (direct calls from OLSR / DYMO) ------------------------------------

    def symmetric_neighbours(self) -> List[int]:
        return self.mpr_state.symmetric_neighbours(self.deployment.now)

    def is_selector(self, neighbour: int) -> bool:
        return self.mpr_state.is_selector(neighbour, self.deployment.now)

    def selectors(self) -> List[int]:
        return self.mpr_state.active_selectors(self.deployment.now)

    def two_hop_map(self) -> Dict[int, Set[int]]:
        return {n: set(s) for n, s in self.mpr_state.two_hop.items()}
