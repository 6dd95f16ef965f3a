"""CFS units — the coarse-grained composition entities.

A *CFS unit* is a component framework that participates in the deployment's
coarse-grained event graph: the System CF at the bottom and ManetProtocol
instances stacked above it (paper section 4.2, Fig 2).  Each unit:

* declares an :class:`~repro.events.registry.EventTuple`
  (``<required-events, provided-events>``) from which the Framework
  Manager derives the wiring;
* receives events through :meth:`process_event` — always invoked under the
  unit's critical-section lock by the active concurrency model, so the
  unit's handlers run atomically (section 4.4);
* emits events into the graph with :meth:`emit`;
* may make *direct calls* to interfaces on other units for out-of-band
  purposes (e.g. reading another unit's S element), discovered dynamically
  through the interface meta-model (section 4.2, footnote 1).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.events.event import Event
from repro.events.registry import EventRegistry, EventTuple
from repro.events.types import EventOntology
from repro.opencom.framework import ComponentFramework

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manetkit import ManetKit


class CFSUnit(ComponentFramework):
    """Base class for the System CF and every ManetProtocol."""

    def __init__(self, name: str, ontology: EventOntology) -> None:
        super().__init__(name)
        self.ontology = ontology
        self.registry = EventRegistry(ontology)
        self._event_tuple = EventTuple()
        self.deployment: Optional["ManetKit"] = None
        #: events emitted before the unit was wired into a deployment
        self.undeliverable = 0
        #: events received (processed) by this unit
        self.events_processed = 0
        self.provide_interface("IPush", "IPush", target=self)
        # The fan-out point the Framework Manager wires: one binding per
        # consumer unit interested in any event this unit provides.
        self.add_receptacle("event-out", "IPush", multiple=True)

    # -- event tuple ---------------------------------------------------------

    @property
    def event_tuple(self) -> EventTuple:
        return self._event_tuple

    def set_event_tuple(self, event_tuple: EventTuple) -> None:
        """Replace the declaration and have the deployment re-derive wiring.

        This is the first (declarative) method of reconfiguration enactment
        (paper section 4.5): "updating the <required-events,
        provided-events> tuples of ManetProtocol instances enables protocol
        configurations to be rewired in a very straightforward, declarative
        manner".
        """
        # Validate names eagerly so a typo fails at declaration time.
        for req in event_tuple.required:
            self.ontology.get(req.name)
        for name in event_tuple.provided:
            self.ontology.get(name)
        self._event_tuple = event_tuple
        if self.deployment is not None:
            self.deployment.manager.rewire()

    # -- event flow -------------------------------------------------------------

    def emit(
        self,
        etype_name: str,
        payload: Any = None,
        source: Any = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Push an event into the deployment graph.

        Returns the number of units the event was delivered to (0 when the
        unit is not yet deployed, in which case the event is dropped and
        counted in :attr:`undeliverable`).
        """
        if self.deployment is None:
            self.undeliverable += 1
            return 0
        event = Event(
            self.ontology.get(etype_name),
            payload=payload,
            source=source,
            origin=self.name,
            timestamp=self.deployment.now,
            meta=meta,
        )
        return self.deployment.manager.route(self, event)

    def process_event(self, event: Event) -> None:
        """Deliver one event to this unit's handlers (called under lock).

        When the deployment's observability context has tracing enabled,
        the dispatch is wrapped in a ``unit.process`` span and its
        wall-clock duration lands in the ``unit.process_seconds``
        histogram labelled by unit and event type (the quantity behind
        the paper's "time to process message" metric).
        """
        self.events_processed += 1
        deployment = self.deployment
        obs = None if deployment is None else getattr(deployment, "obs", None)
        if obs is None:
            profiler = tracer = None
        else:
            profiler = obs.profiler
            tracer = obs.tracer
        if profiler is None and (tracer is None or not tracer.enabled):
            for handler in self.registry.handlers_for(event):
                handler(event)
            return
        if profiler is not None:
            profiler.push2("unit.process", self.name + "/" + event.etype.name)
        try:
            if tracer is not None and tracer.enabled:
                # Imported lazily: repro.protocols pulls in the protocol
                # registry, which imports this module at package-init time.
                from repro.protocols.common import handler_timer

                node = getattr(deployment, "node", None)
                timer = handler_timer(
                    obs, self.name, event.etype.name,
                    node=node.node_id if node is not None else -1,
                )
                if timer is not None:
                    with timer:
                        self.registry.dispatch(event)
                    return
            self.registry.dispatch(event)
        finally:
            if profiler is not None:
                profiler.pop()

    # -- direct calls --------------------------------------------------------------

    def direct(self, iface_type: str) -> Any:
        """Find an interface of ``iface_type`` anywhere in the deployment.

        Searches the other units (and their children) via the interface
        meta-model and returns the implementing object.  Raises if the unit
        is not deployed or nothing provides the interface.
        """
        if self.deployment is None:
            raise LookupError(f"{self.name}: not deployed; cannot resolve {iface_type}")
        return self.deployment.find_interface(iface_type, exclude=self)

    def find_local_interface(self, iface_type: str) -> Optional[Any]:
        """Search this unit and its children for an interface type."""
        iface = self.find_interface_by_type(iface_type)
        if iface is not None:
            return iface.target
        for child in self.children():
            found = child.find_interface_by_type(iface_type)
            if found is not None:
                return found.target
            if isinstance(child, ComponentFramework):
                for grandchild in child.children():
                    found = grandchild.find_interface_by_type(iface_type)
                    if found is not None:
                        return found.target
        return None

    # -- introspection ---------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "required": [
                f"{r.name}!" if r.exclusive else r.name
                for r in self._event_tuple.required
            ],
            "provided": list(self._event_tuple.provided),
            "children": self.child_names(),
            "events_processed": self.events_processed,
        }
