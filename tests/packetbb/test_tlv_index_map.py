"""``TLVBlock.find_for_indices`` must agree with ``find_for_index`` everywhere.

The one-pass map is what keeps Routing Element decode linear in the
accumulated path length; these properties pin that it returns, for every
address index, exactly the TLV the per-index lookup finds — under
overlapping ranges, index-free TLVs, inverted ranges and ranges reaching
past the address count — and that DYMO's RE codec still round-trips.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packetbb.packet import Packet, decode, encode
from repro.packetbb.tlv import TLV, TLVBlock
from repro.protocols.dymo.messages import RREP, RREQ, build_re, parse_re

TYPES = (3, 4, 5)


def _inverted(tlv_type: int, start: int, stop: int) -> TLV:
    """A TLV whose range is inverted (the constructor refuses to build one)."""
    tlv = TLV(tlv_type, b"\x01", index_start=stop, index_stop=stop)
    tlv.index_start = start
    return tlv


@st.composite
def tlvs(draw):
    tlv_type = draw(st.sampled_from(TYPES))
    value = draw(st.binary(max_size=2))
    kind = draw(st.sampled_from(("indexed", "indexed", "plain", "inverted")))
    if kind == "plain":
        return TLV(tlv_type, value)
    low = draw(st.integers(0, 40))
    high = draw(st.integers(low, 60))
    if kind == "inverted" and low < high:
        return _inverted(tlv_type, high, low)
    return TLV(tlv_type, value, index_start=low, index_stop=high)


@settings(max_examples=200, deadline=None)
@given(
    block=st.lists(tlvs(), max_size=12).map(TLVBlock),
    tlv_type=st.sampled_from(TYPES + (9,)),
    count=st.integers(0, 50),
)
def test_map_equals_per_index_lookup(block, tlv_type, count):
    found = block.find_for_indices(tlv_type, count)
    assert len(found) == count
    for index in range(count):
        assert found[index] is block.find_for_index(tlv_type, index)


def test_first_covering_tlv_wins():
    wide = TLV(5, b"\x01", index_start=0, index_stop=9)
    narrow = TLV(5, b"\x02", index_start=2, index_stop=3)
    plain = TLV(5, b"\x03")
    block = TLVBlock([TLV(6, b"\x09"), narrow, _inverted(5, 7, 5), wide, plain])
    assert block.find_for_indices(5, 12) == (
        [wide] * 2 + [narrow] * 2 + [wide] * 6 + [plain] * 2
    )
    assert block.find_for_indices(5, 0) == []
    assert block.find_for_indices(7, 3) == [None, None, None]


_paths = st.lists(
    st.tuples(st.integers(0, 0x00FFFFFF), st.integers(0, 0xFFFF)),
    min_size=1, max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(
    path=_paths,
    offsets=st.dictionaries(st.integers(0, 39), st.integers(0, 255), max_size=10),
    re_type=st.sampled_from((RREQ, RREP)),
    target_seqnum=st.one_of(st.none(), st.integers(0, 0xFFFF)),
)
def test_parse_re_round_trips_build_re(path, offsets, re_type, target_seqnum):
    hop_offsets = {i: off for i, off in offsets.items() if i < len(path)}
    message = build_re(
        re_type, target=7, path=path, hop_limit=10,
        target_seqnum=target_seqnum, hop_offsets=hop_offsets,
    )
    (wire,) = decode(encode(Packet([message]))).messages
    info = parse_re(wire)
    assert info.path == path
    assert info.hop_offsets == {i: off for i, off in hop_offsets.items() if off}
    assert info.re_type == re_type
    assert info.target == 7
    assert info.target_seqnum == target_seqnum
