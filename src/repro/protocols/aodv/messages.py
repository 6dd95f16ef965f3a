"""AODV message formats (RFC 3561 semantics in PacketBB clothing)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.packetbb.address import Address, AddressBlock
from repro.packetbb.message import Message, MsgType
from repro.packetbb.tlv import TLV, TLVBlock
from repro.protocols.common import TlvType


@dataclass
class RreqInfo:
    originator: int
    orig_seqnum: int
    rreq_id: int
    destination: int
    dest_seqnum: Optional[int]
    hop_count: int
    hop_limit: Optional[int]


@dataclass
class RrepInfo:
    destination: int      # the node that answers (route target)
    dest_seqnum: int
    originator: int       # the node that asked
    hop_count: int
    lifetime: float


def build_rreq(
    originator: int,
    orig_seqnum: int,
    rreq_id: int,
    destination: int,
    dest_seqnum: Optional[int],
    hop_count: int = 0,
    hop_limit: int = 10,
) -> Message:
    tlvs = TLVBlock(
        [
            TLV.of_int(TlvType.RREQ_ID, rreq_id, width=2),
            TLV.of_int(TlvType.ORIG_SEQNUM, orig_seqnum, width=2),
            TLV.of_int(TlvType.HOPCOUNT, hop_count, width=1),
        ]
    )
    if dest_seqnum is not None:
        tlvs.add(TLV.of_int(TlvType.DEST_SEQNUM, dest_seqnum, width=2))
    return Message(
        MsgType.AODV_RREQ,
        originator=Address.from_node_id(originator),
        hop_limit=hop_limit,
        hop_count=hop_count,
        seqnum=rreq_id,
        tlv_block=tlvs,
        address_blocks=[AddressBlock([Address.from_node_id(destination)])],
    )


def parse_rreq(message: Message) -> Optional[RreqInfo]:
    if message.msg_type != int(MsgType.AODV_RREQ):
        return None
    if message.originator is None or not message.address_blocks:
        return None
    rreq_id = message.tlv_block.find(TlvType.RREQ_ID)
    orig_seq = message.tlv_block.find(TlvType.ORIG_SEQNUM)
    hop_count = message.tlv_block.find(TlvType.HOPCOUNT)
    dest_seq = message.tlv_block.find(TlvType.DEST_SEQNUM)
    if rreq_id is None or orig_seq is None or hop_count is None:
        return None
    return RreqInfo(
        originator=message.originator.node_id,
        orig_seqnum=orig_seq.as_int(),
        rreq_id=rreq_id.as_int(),
        destination=message.address_blocks[0].addresses[0].node_id,
        dest_seqnum=dest_seq.as_int() if dest_seq else None,
        hop_count=hop_count.as_int(),
        hop_limit=message.hop_limit,
    )


def build_rrep(
    destination: int,
    dest_seqnum: int,
    originator: int,
    hop_count: int,
    lifetime: float,
) -> Message:
    return Message(
        MsgType.AODV_RREP,
        originator=Address.from_node_id(destination),
        hop_limit=32,
        hop_count=0,
        tlv_block=TLVBlock(
            [
                TLV.of_int(TlvType.DEST_SEQNUM, dest_seqnum, width=2),
                TLV.of_int(TlvType.HOPCOUNT, hop_count, width=1),
                TLV.of_int(TlvType.LIFETIME, int(lifetime * 1000), width=4),
            ]
        ),
        address_blocks=[AddressBlock([Address.from_node_id(originator)])],
    )


def parse_rrep(message: Message) -> Optional[RrepInfo]:
    if message.msg_type != int(MsgType.AODV_RREP):
        return None
    if message.originator is None or not message.address_blocks:
        return None
    dest_seq = message.tlv_block.find(TlvType.DEST_SEQNUM)
    hop_count = message.tlv_block.find(TlvType.HOPCOUNT)
    lifetime = message.tlv_block.find(TlvType.LIFETIME)
    if dest_seq is None or hop_count is None:
        return None
    return RrepInfo(
        destination=message.originator.node_id,
        dest_seqnum=dest_seq.as_int(),
        originator=message.address_blocks[0].addresses[0].node_id,
        hop_count=hop_count.as_int(),
        lifetime=(lifetime.as_int() / 1000.0) if lifetime else 5.0,
    )


def build_aodv_rerr(
    unreachable: List[Tuple[int, Optional[int]]], source: int
) -> Message:
    block = AddressBlock([Address.from_node_id(a) for a, _seq in unreachable])
    for index, (_addr, seqnum) in enumerate(unreachable):
        if seqnum is not None:
            block.tlv_block.add(
                TLV.of_int(TlvType.DEST_SEQNUM, seqnum, width=2,
                           index_start=index, index_stop=index)
            )
    return Message(
        MsgType.AODV_RERR,
        originator=Address.from_node_id(source),
        hop_limit=5,
        hop_count=0,
        address_blocks=[block],
    )


def parse_aodv_rerr(message: Message) -> List[Tuple[int, Optional[int]]]:
    if message.msg_type != int(MsgType.AODV_RERR) or not message.address_blocks:
        return []
    block = message.address_blocks[0]
    seq_tlvs = block.tlv_block.find_for_indices(TlvType.DEST_SEQNUM, len(block.addresses))
    return [
        (address.node_id, tlv.as_int() if tlv else None)
        for address, tlv in zip(block.addresses, seq_tlvs)
    ]
