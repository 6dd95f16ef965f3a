"""The Framework Manager CF.

"On the basis of these event tuples, the Framework Manager automatically
generates and maintains an appropriate set of receptacle-to-interface
bindings between protocols such that, if an event e is in the
provided-event set of protocol P, and the required-event set of protocol Q,
the Framework Manager creates an OpenCom binding between
interfaces/receptacles on P and Q to enable the passage of events of type
e" (paper section 4.2).

The manager therefore owns:

* the ordered list of CFS units (System CF at the bottom, protocols above);
* the derived wiring — real OpenCom bindings for inspection plus the
  subscription table used on the hot dispatch path;
* the loop-avoidance and exclusive-receive semantics of footnote 2;
* delivery through the selected concurrency model (per-protocol dedicated
  threads override the deployment-wide model);
* the *concentrator* facade for context events (section 4.5).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.concurrency.models import ConcurrencyModel, SingleThreaded, ThreadPerProtocol
from repro.core.context import ContextConcentrator
from repro.core.unit import CFSUnit
from repro.errors import EventWiringError
from repro.events.event import Event
from repro.events.types import EventOntology, EventType
from repro.opencom.binding import Binding
from repro.opencom.framework import ComponentFramework


class FrameworkManager(ComponentFramework):
    """Derives and maintains the deployment's event wiring."""

    def __init__(self, ontology: EventOntology) -> None:
        super().__init__("framework-manager")
        self.ontology = ontology
        self._units: List[CFSUnit] = []
        # Subscription table: (consumer, required type, exclusive) per provider.
        self._subscriptions: Dict[str, List[Tuple[CFSUnit, object, bool]]] = {}
        self._wiring: List[Binding] = []
        self.model: ConcurrencyModel = SingleThreaded()
        self._dedicated: Dict[str, ThreadPerProtocol] = {}
        self.concentrator = ContextConcentrator(ontology)
        self._context_root = ontology.get("CONTEXT")
        self.rewires = 0
        self.events_routed = 0
        #: Dispatch index: provider name -> {concrete event type -> resolved
        #: target tuple}.  Exclusive-receive and loop avoidance are folded
        #: in at resolution time, so the hot path is one dict hop.  Rebuilt
        #: eagerly for declared provided types on every :meth:`rewire`;
        #: other (polymorphically emitted) types fill in lazily.
        self._route_index: Dict[str, Dict[EventType, Tuple[CFSUnit, ...]]] = {}
        #: Index effectiveness counters, published as ``dispatch.index_hits``
        #: / ``dispatch.index_misses`` through the deployment's metrics
        #: registry (pull-style, see :class:`repro.core.manetkit.ManetKit`).
        self.index_hits = 0
        self.index_misses = 0
        #: observers called as (source_name, event, [consumer names]) on
        #: every routed event — the hook tracing/telemetry attaches to.
        self._route_observers: List = []

    # -- unit management ------------------------------------------------------

    def register_unit(self, unit: CFSUnit) -> None:
        if unit in self._units:
            return
        self._units.append(unit)
        self.rewire()

    def unregister_unit(self, unit: CFSUnit) -> None:
        if unit in self._units:
            self._units.remove(unit)
            self._dedicated.pop(unit.name, None)
            self.rewire()

    def units(self) -> List[CFSUnit]:
        return list(self._units)

    def unit(self, name: str) -> Optional[CFSUnit]:
        for unit in self._units:
            if unit.name == name:
                return unit
        return None

    # -- concurrency selection ----------------------------------------------------

    def set_model(self, model: ConcurrencyModel) -> None:
        """Select the deployment-wide concurrency model (System CF choice)."""
        old = self.model
        self.model = model
        old.shutdown()

    def set_dedicated_thread(self, unit: CFSUnit, enabled: bool = True) -> None:
        """Give ``unit`` its own thread/queue (thread-per-ManetProtocol).

        Selected on a per-ManetProtocol basis and functions the same
        regardless of the deployment-wide model (paper section 4.4).
        """
        if enabled:
            dedicated = ThreadPerProtocol()
            dedicated.attach(unit)
            self._dedicated[unit.name] = dedicated
        else:
            dedicated = self._dedicated.pop(unit.name, None)
            if dedicated is not None:
                dedicated.shutdown()

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until every in-flight event has been processed."""
        done = self.model.drain(timeout)
        for dedicated in self._dedicated.values():
            done = dedicated.drain(timeout) and done
        return done

    def shutdown(self) -> None:
        self.model.shutdown()
        for dedicated in self._dedicated.values():
            dedicated.shutdown()
        self._dedicated.clear()

    # -- wiring derivation -----------------------------------------------------------

    def rewire(self) -> None:
        """(Re-)derive the wiring from the current event tuples.

        Called whenever a unit is added/removed or a tuple changes —
        "changes in topology can be automatically updated when the event
        tuples on CFS units are changed at run-time (declarative automatic
        dynamic reconfiguration)" (section 4.2).
        """
        self.rewires += 1
        for binding in self._wiring:
            binding.destroy()
        self._wiring.clear()
        self._subscriptions = {unit.name: [] for unit in self._units}
        self._route_index = {unit.name: {} for unit in self._units}

        for provider in self._units:
            bound_consumers = set()
            for provided_name in provider.event_tuple.provided:
                provided_type = self.ontology.get(provided_name)
                for consumer in self._units:
                    if consumer is provider:
                        continue  # loop avoidance (footnote 2)
                    for req in consumer.event_tuple.required:
                        required_type = self.ontology.get(req.name)
                        if provided_type.is_a(required_type):
                            self._subscriptions[provider.name].append(
                                (consumer, required_type, req.exclusive)
                            )
                            if consumer.name not in bound_consumers:
                                # One inspectable OpenCom binding per
                                # provider/consumer pair.
                                recep = provider.receptacle("event-out")
                                self._wiring.append(
                                    Binding(recep, consumer.interface("IPush"))
                                )
                                bound_consumers.add(consumer.name)

        # Pre-resolve the index for every declared provided type and reject
        # ambiguous exclusive wiring while we are at it: two distinct units
        # holding exclusive requirements over the same provided type is a
        # configuration error (footnote 2 gives the event to "the"
        # exclusive requirer — plural makes delivery order-dependent).
        for provider in self._units:
            index = self._route_index[provider.name]
            for provided_name in provider.event_tuple.provided:
                provided_type = self.ontology.get(provided_name)
                targets, exclusive_count = self._resolve_targets(
                    provider.name, provided_type
                )
                if exclusive_count > 1:
                    raise EventWiringError(
                        f"event type {provided_name!r} provided by "
                        f"{provider.name!r} has {exclusive_count} exclusive "
                        f"requirers ({', '.join(t.name for t in targets)}); "
                        "at most one unit may hold an exclusive requirement "
                        "for the same provided type"
                    )
                index[provided_type] = targets

    def _resolve_targets(
        self, source_name: str, etype: EventType
    ) -> Tuple[Tuple[CFSUnit, ...], int]:
        """Resolve delivery targets for one (provider, event type) pair.

        Replicates the routing semantics exactly: polymorphic match,
        dedup by consumer (first matching requirement classifies it),
        exclusive requirers preempting all normal ones.  Returns the
        target tuple and the number of exclusive requirers found.
        """
        normal: List[CFSUnit] = []
        exclusive: List[CFSUnit] = []
        seen = set()
        for consumer, required_type, is_exclusive in self._subscriptions[source_name]:
            if not etype.is_a(required_type):
                continue
            if consumer.name in seen:
                continue
            seen.add(consumer.name)
            (exclusive if is_exclusive else normal).append(consumer)
        if exclusive:
            return tuple(exclusive), len(exclusive)
        return tuple(normal), 0

    def add_route_observer(self, observer) -> None:
        self._route_observers.append(observer)

    def remove_route_observer(self, observer) -> None:
        if observer in self._route_observers:
            self._route_observers.remove(observer)

    def wiring(self) -> List[Binding]:
        return list(self._wiring)

    def subscription_table(self) -> Dict[str, List[Tuple[str, str, bool]]]:
        """Readable view: provider -> [(consumer, required type, exclusive)]."""
        return {
            provider: [
                (consumer.name, required_type.name, exclusive)
                for consumer, required_type, exclusive in subs
            ]
            for provider, subs in self._subscriptions.items()
        }

    # -- dispatch -----------------------------------------------------------------------

    def route(self, source: CFSUnit, event: Event) -> int:
        """Deliver ``event`` from ``source`` to every interested unit.

        Semantics (paper section 4.2 + footnote 2):

        * the source never receives its own event (loop avoidance for
          units that provide and require the same type);
        * if any eligible consumer holds an *exclusive* requirement
          matching the event, only exclusive consumers receive it;
        * otherwise all matching consumers receive it, in stack (FIFO
          registration) order, so protocols sharing an interest process
          events in the same order.
        """
        self.events_routed += 1
        index = self._route_index.get(source.name)
        if index is None:
            raise EventWiringError(
                f"unit {source.name!r} is not registered with the framework manager"
            )
        targets = index.get(event.etype)
        if targets is None:
            # A type outside the provider's declared set (e.g. a subtype
            # emitted polymorphically) — resolve once, then it is indexed.
            self.index_misses += 1
            targets, _exclusive_count = self._resolve_targets(
                source.name, event.etype
            )
            index[event.etype] = targets
        else:
            self.index_hits += 1
        if self._route_observers:
            names = [consumer.name for consumer in targets]
            for observer in self._route_observers:
                observer(source.name, event, names)
        # Read per consumer: a handler may reconfigure the delivery model.
        dedicated = self._dedicated
        for consumer in targets:
            if dedicated:
                dedicated.get(consumer.name, self.model).dispatch(consumer, event)
            else:
                self.model.dispatch(consumer, event)
        # The concentrator taps context events regardless of protocol
        # interest — it is the facade higher-level decision software reads.
        if event.etype.is_a(self._context_root):
            self.concentrator.update(event)
        return len(targets)
