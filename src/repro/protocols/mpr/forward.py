"""The MPR F element: optimised flooding.

Implements the RFC 3626 default forwarding algorithm: a broadcast control
message is retransmitted only by nodes that the previous hop selected as
multipoint relays, after duplicate suppression.  "Multipoint Relaying is
good at reducing control overhead in denser networks" (paper section 2).

Message types to flood are registered dynamically
(:meth:`~repro.protocols.mpr.protocol.MprCF.add_flooded_type`) — OLSR
registers TC, and DYMO's optimised-flooding variant can register its RE
messages the same way.  Relayed re-emissions carry ``meta["relay"]=True``
so that interposed components (e.g. the fish-eye scoper, which must only
rescope *originated* TCs) can tell them apart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.manet_protocol import ForwardComponent
from repro.events.event import Event
from repro.packetbb.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.mpr.protocol import MprCF


def _relay_copy(message: Message) -> Message:
    """A forwardable copy with hop accounting applied."""
    return Message(
        message.msg_type,
        originator=message.originator,
        hop_limit=None if message.hop_limit is None else message.hop_limit - 1,
        hop_count=None if message.hop_count is None else message.hop_count + 1,
        seqnum=message.seqnum,
        tlv_block=message.tlv_block,
        address_blocks=message.address_blocks,
    )


class MprForward(ForwardComponent):
    """Duplicate-suppressed, selector-gated flooding."""

    def __init__(self, cf: "MprCF") -> None:
        super().__init__("mpr-forward")
        self.cf = cf
        self.relayed = 0
        self.suppressed_duplicates = 0
        self.suppressed_not_selected = 0
        self.provide_interface("IMprFlood", "IMprFlood")

    def consider(self, event: Event, out_event: str) -> bool:
        """Apply the default forwarding algorithm to a received message.

        Returns ``True`` when the message was relayed.  Must run inside the
        protocol's critical section (it is called from an Event Handler).
        """
        message: Message = event.payload
        if message.originator is None or message.seqnum is None:
            return False
        originator = message.originator.node_id
        state = self.cf.mpr_state
        now = event.timestamp
        if originator == self.cf.local_address:
            return False
        if state.is_duplicate(originator, message.seqnum, message.msg_type):
            self.suppressed_duplicates += 1
            return False
        state.note_message(originator, message.seqnum, now, message.msg_type)
        sender = event.source
        if sender is None or not state.is_selector(sender, now):
            self.suppressed_not_selected += 1
            return False
        if not message.forwardable:
            return False
        if message.hop_count is not None and message.hop_count >= 255:
            # The 8-bit hop count cannot account another hop.  Reachable
            # only via corruption faults (a corrupted hop-count byte);
            # relaying would raise SerializationError and crash the run.
            return False
        self.relayed += 1
        self.cf.emit(out_event, payload=_relay_copy(message), meta={"relay": True})
        return True

    def flood(self, message: Message, out_event: str) -> None:
        """Originate a broadcast through the MPR flooding service.

        Direct-call service used by co-located components (e.g. the
        power-aware variant's ResidualPower disseminator, section 5.1).
        """
        if message.originator is not None and message.seqnum is not None:
            self.cf.mpr_state.note_message(
                message.originator.node_id,
                message.seqnum,
                self.cf.deployment.now,
                message.msg_type,
            )
        self.cf.send_message(out_event, message)
