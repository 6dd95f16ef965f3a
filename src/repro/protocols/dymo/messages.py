"""DYMO Routing Element (RE) wire format helpers.

A Routing Element carries both RREQ and RREP semantics (distinguished by
the ``RE_TYPE`` message TLV) and uses *path accumulation*: every node that
handles the element appends its own address and sequence number, so a
single RE teaches every receiver a route to every node on the path —
"path accumulation [is a technique] that can be switched on to improve a
particular property of an underlying base protocol" (paper section 2), and
is DYMO's signature difference from AODV.

Layout:

* address block 0 — ``[target]``, optionally tagged ``TARGET_SEQNUM``;
* address block 1 — the accumulated path, originator first, each index
  tagged with its node's ``ADDR_SEQNUM``;
* message TLV ``RE_TYPE`` — 0 for RREQ, 1 for RREP.

RERRs carry one address block of unreachable destinations, each index
optionally tagged with the destination's last known sequence number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.packetbb.address import Address, AddressBlock
from repro.packetbb.message import Message, MsgType
from repro.packetbb.tlv import TLV, TLVBlock
from repro.protocols.common import TlvType

RREQ = 0
RREP = 1

#: (address, seqnum) of one accumulated hop.
PathEntry = Tuple[int, int]


@dataclass
class ReInfo:
    """Parsed view of one Routing Element.

    ``hop_offsets`` carries per-index extra distance (``ADDR_HOPCOUNT``
    TLVs): normally absent, but a proxied RREP from an intermediate node
    replying on the target's behalf uses it so receivers account the true
    distance to the target rather than the positional one.
    """

    re_type: int
    target: int
    target_seqnum: Optional[int]
    path: List[PathEntry]          # originator first
    hop_limit: Optional[int]
    hop_count: Optional[int]
    hop_offsets: dict = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.hop_offsets is None:
            self.hop_offsets = {}

    def distance_to(self, index: int) -> int:
        """Hops from the receiving node to ``path[index]``'s address."""
        return len(self.path) - index + self.hop_offsets.get(index, 0)

    @property
    def originator(self) -> int:
        return self.path[0][0]

    @property
    def originator_seqnum(self) -> int:
        return self.path[0][1]

    @property
    def is_rreq(self) -> bool:
        return self.re_type == RREQ

    @property
    def is_rrep(self) -> bool:
        return self.re_type == RREP


def build_re(
    re_type: int,
    target: int,
    path: List[PathEntry],
    hop_limit: int,
    target_seqnum: Optional[int] = None,
    hop_count: int = 0,
    hop_offsets: Optional[dict] = None,
) -> Message:
    """Construct a Routing Element message."""
    if not path:
        raise ValueError("a Routing Element needs a non-empty accumulated path")
    target_block = AddressBlock([Address.from_node_id(target)])
    if target_seqnum is not None:
        target_block.tlv_block.add(
            TLV.of_int(TlvType.TARGET_SEQNUM, target_seqnum, width=2, index_start=0, index_stop=0)
        )
    path_block = AddressBlock([Address.from_node_id(a) for a, _seq in path])
    for index, (_addr, seqnum) in enumerate(path):
        path_block.tlv_block.add(
            TLV.of_int(
                TlvType.ADDR_SEQNUM, seqnum, width=2,
                index_start=index, index_stop=index,
            )
        )
    for index, offset in sorted((hop_offsets or {}).items()):
        if offset:
            path_block.tlv_block.add(
                TLV.of_int(
                    TlvType.ADDR_HOPCOUNT, offset, width=1,
                    index_start=index, index_stop=index,
                )
            )
    return Message(
        MsgType.RE,
        originator=Address.from_node_id(path[0][0]),
        hop_limit=hop_limit,
        hop_count=hop_count,
        seqnum=path[0][1] & 0xFFFF,
        tlv_block=TLVBlock([TLV.of_int(TlvType.RE_TYPE, re_type, width=1)]),
        address_blocks=[target_block, path_block],
    )


def parse_re(message: Message) -> Optional[ReInfo]:
    """Parse a Routing Element; ``None`` when structurally invalid."""
    if message.msg_type != int(MsgType.RE):
        return None
    if len(message.address_blocks) < 2:
        return None
    re_type_tlv = message.tlv_block.find(TlvType.RE_TYPE)
    if re_type_tlv is None:
        return None
    target_block, path_block = message.address_blocks[0], message.address_blocks[1]
    if not target_block.addresses or not path_block.addresses:
        return None
    target_seq_tlv = target_block.tlv_block.find(TlvType.TARGET_SEQNUM)
    addresses = path_block.addresses
    seq_tlvs = path_block.tlv_block.find_for_indices(TlvType.ADDR_SEQNUM, len(addresses))
    offset_tlvs = path_block.tlv_block.find_for_indices(TlvType.ADDR_HOPCOUNT, len(addresses))
    path: List[PathEntry] = [
        (address.node_id, seq_tlv.as_int() if seq_tlv else 0)
        for address, seq_tlv in zip(addresses, seq_tlvs)
    ]
    hop_offsets = {
        index: offset_tlv.as_int()
        for index, offset_tlv in enumerate(offset_tlvs)
        if offset_tlv is not None
    }
    return ReInfo(
        re_type=re_type_tlv.as_int(),
        target=target_block.addresses[0].node_id,
        target_seqnum=target_seq_tlv.as_int() if target_seq_tlv else None,
        path=path,
        hop_limit=message.hop_limit,
        hop_count=message.hop_count,
        hop_offsets=hop_offsets,
    )


def extend_re(message: Message, info: ReInfo, self_address: int, self_seqnum: int) -> Message:
    """A relayed copy of an RE with path accumulation applied."""
    return build_re(
        info.re_type,
        info.target,
        info.path + [(self_address, self_seqnum)],
        hop_limit=(message.hop_limit - 1) if message.hop_limit is not None else 0,
        target_seqnum=info.target_seqnum,
        hop_count=(message.hop_count + 1) if message.hop_count is not None else 1,
        hop_offsets=info.hop_offsets,  # indices unchanged by appending
    )


def critical_unsupported_tlvs(message: Message) -> List[int]:
    """TLV types in the critical-extension space we do not understand."""
    return sorted(
        {
            tlv.tlv_type
            for tlv in message.tlv_block
            if tlv.tlv_type >= int(TlvType.CRITICAL_BASE)
        }
    )


def build_rerr(
    unreachable: List[Tuple[int, Optional[int]]],
    source: int,
    hop_limit: int = 10,
) -> Message:
    """Construct a Route Error listing unreachable destinations."""
    block = AddressBlock([Address.from_node_id(a) for a, _seq in unreachable])
    for index, (_addr, seqnum) in enumerate(unreachable):
        if seqnum is not None:
            block.tlv_block.add(
                TLV.of_int(
                    TlvType.ADDR_SEQNUM, seqnum, width=2,
                    index_start=index, index_stop=index,
                )
            )
    return Message(
        MsgType.RERR,
        originator=Address.from_node_id(source),
        hop_limit=hop_limit,
        hop_count=0,
        address_blocks=[block],
    )


def parse_rerr(message: Message) -> List[Tuple[int, Optional[int]]]:
    """Unreachable (destination, seqnum?) pairs from a RERR."""
    if message.msg_type != int(MsgType.RERR) or not message.address_blocks:
        return []
    block = message.address_blocks[0]
    seq_tlvs = block.tlv_block.find_for_indices(TlvType.ADDR_SEQNUM, len(block.addresses))
    return [
        (address.node_id, seq_tlv.as_int() if seq_tlv else None)
        for address, seq_tlv in zip(block.addresses, seq_tlvs)
    ]


def build_uerr(
    offending_type: int, source: int, re_originator: int
) -> Message:
    """Construct an Unsupported-Element Error for a critical TLV."""
    return Message(
        MsgType.UERR,
        originator=Address.from_node_id(source),
        hop_limit=1,
        hop_count=0,
        tlv_block=TLVBlock(
            [TLV.of_int(TlvType.UNSUPPORTED, offending_type, width=1)]
        ),
        address_blocks=[AddressBlock([Address.from_node_id(re_originator)])],
    )
