"""TLVs (type-length-value attributes) and TLV blocks.

TLVs carry all non-address payload in PacketBB: link codes and willingness
in HELLOs, ANSN in TCs, sequence numbers attached to accumulated addresses
in DYMO Routing Elements, residual-power advertisements, and so on.  A TLV
may optionally target a range of address indices within the enclosing
address block (``index_start``/``index_stop``), which is how per-address
attributes such as DYMO's per-hop sequence numbers are expressed.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional, Tuple

from repro.errors import ParseError, SerializationError


class TLV:
    """One type/value attribute."""

    _HAS_VALUE = 0x80
    _HAS_INDEX = 0x40

    __slots__ = ("tlv_type", "value", "index_start", "index_stop")

    def __init__(
        self,
        tlv_type: int,
        value: bytes = b"",
        index_start: Optional[int] = None,
        index_stop: Optional[int] = None,
    ) -> None:
        if not 0 <= tlv_type <= 255:
            raise SerializationError(f"TLV type out of range: {tlv_type}")
        if len(value) > 0xFFFF:
            raise SerializationError(f"TLV value too long: {len(value)} bytes")
        if (index_start is None) != (index_stop is None):
            raise SerializationError("index_start and index_stop come together")
        if index_start is not None:
            if not 0 <= index_start <= index_stop <= 255:  # type: ignore[operator]
                raise SerializationError(
                    f"bad TLV index range: [{index_start}, {index_stop}]"
                )
        self.tlv_type = tlv_type
        self.value = bytes(value)
        self.index_start = index_start
        self.index_stop = index_stop

    # -- typed-value conveniences ------------------------------------------

    #: interning pool for index-free integer TLVs — link codes and
    #: willingness values recur in every HELLO a node ever sends, so the
    #: emit hot path reuses one object per (type, value, width) instead of
    #: packing a fresh one each interval.  TLVs are immutable after
    #: construction (slots; the value is copied to ``bytes``), which makes
    #: sharing safe.  TLV only: subclasses bypass the pool.
    _int_intern: dict = {}
    _INT_INTERN_LIMIT = 4096

    @classmethod
    def of_int(
        cls,
        tlv_type: int,
        number: int,
        width: int = 4,
        index_start: Optional[int] = None,
        index_stop: Optional[int] = None,
    ) -> "TLV":
        """Build a TLV holding an unsigned big-endian integer."""
        if index_start is None and cls is TLV:
            key = (tlv_type, number, width)
            pool = cls._int_intern
            tlv = pool.get(key)
            if tlv is None:
                fmt = {1: "!B", 2: "!H", 4: "!I", 8: "!Q"}[width]
                tlv = cls(tlv_type, struct.pack(fmt, number))
                if len(pool) < cls._INT_INTERN_LIMIT:
                    pool[key] = tlv
            return tlv
        fmt = {1: "!B", 2: "!H", 4: "!I", 8: "!Q"}[width]
        return cls(
            tlv_type,
            struct.pack(fmt, number),
            index_start=index_start,
            index_stop=index_stop,
        )

    def as_int(self) -> int:
        """Decode the value as an unsigned big-endian integer."""
        return int.from_bytes(self.value, "big")

    @property
    def has_index(self) -> bool:
        return self.index_start is not None

    def covers_index(self, index: int) -> bool:
        """Whether this TLV applies to address index ``index``."""
        if self.index_start is None:
            return True
        return self.index_start <= index <= self.index_stop  # type: ignore[operator]

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TLV)
            and self.tlv_type == other.tlv_type
            and self.value == other.value
            and self.index_start == other.index_start
            and self.index_stop == other.index_stop
        )

    def __hash__(self) -> int:
        return hash((self.tlv_type, self.value, self.index_start, self.index_stop))

    def __repr__(self) -> str:
        index = (
            f" idx=[{self.index_start},{self.index_stop}]" if self.has_index else ""
        )
        return f"TLV(type={self.tlv_type}, value={self.value!r}{index})"

    # -- codec ------------------------------------------------------------------

    def serialize(self) -> bytes:
        flags = 0
        if self.value:
            flags |= self._HAS_VALUE
        if self.has_index:
            flags |= self._HAS_INDEX
        out = bytearray((self.tlv_type, flags))
        if self.has_index:
            out.append(self.index_start)  # type: ignore[arg-type]
            out.append(self.index_stop)  # type: ignore[arg-type]
        if self.value:
            out.extend(struct.pack("!H", len(self.value)))
            out.extend(self.value)
        return bytes(out)

    @classmethod
    def parse(cls, data: bytes, offset: int) -> Tuple["TLV", int]:
        if offset + 2 > len(data):
            raise ParseError("truncated TLV header")
        tlv_type = data[offset]
        flags = data[offset + 1]
        offset += 2
        index_start = index_stop = None
        if flags & cls._HAS_INDEX:
            if offset + 2 > len(data):
                raise ParseError("truncated TLV index range")
            index_start = data[offset]
            index_stop = data[offset + 1]
            offset += 2
        value = b""
        if flags & cls._HAS_VALUE:
            if offset + 2 > len(data):
                raise ParseError("truncated TLV length")
            (length,) = struct.unpack_from("!H", data, offset)
            offset += 2
            if offset + length > len(data):
                raise ParseError("truncated TLV value")
            value = data[offset : offset + length]
            offset += length
        try:
            return cls(tlv_type, value, index_start, index_stop), offset
        except SerializationError as exc:
            raise ParseError(f"invalid TLV on the wire: {exc}") from exc


class TLVBlock:
    """An ordered collection of TLVs with a byte-length framing header."""

    def __init__(self, tlvs: Iterable[TLV] = ()) -> None:
        self.tlvs: List[TLV] = list(tlvs)

    # -- collection conveniences ------------------------------------------

    def add(self, tlv: TLV) -> "TLVBlock":
        self.tlvs.append(tlv)
        return self

    def find(self, tlv_type: int) -> Optional[TLV]:
        """First TLV of the given type, or None."""
        for tlv in self.tlvs:
            if tlv.tlv_type == tlv_type:
                return tlv
        return None

    def find_all(self, tlv_type: int) -> List[TLV]:
        return [tlv for tlv in self.tlvs if tlv.tlv_type == tlv_type]

    def find_for_index(self, tlv_type: int, index: int) -> Optional[TLV]:
        """First TLV of the type whose index range covers ``index``."""
        for tlv in self.tlvs:
            if tlv.tlv_type == tlv_type and tlv.covers_index(index):
                return tlv
        return None

    def find_for_indices(self, tlv_type: int, count: int) -> List[Optional[TLV]]:
        """``find_for_index(tlv_type, i)`` for every ``i < count``, in one pass.

        Each TLV of the type claims the still-unclaimed indices it covers,
        so the first covering TLV wins, as in :meth:`find_for_index`; an
        index-free TLV covers every remaining index and ends the pass.
        """
        found: List[Optional[TLV]] = [None] * count
        for tlv in self.tlvs:
            if tlv.tlv_type != tlv_type:
                continue
            if tlv.index_start is None:
                return [tlv if hit is None else hit for hit in found]
            for index in range(tlv.index_start, min(tlv.index_stop, count - 1) + 1):
                if found[index] is None:
                    found[index] = tlv
        return found

    def __len__(self) -> int:
        return len(self.tlvs)

    def __iter__(self):
        return iter(self.tlvs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TLVBlock) and self.tlvs == other.tlvs

    def __repr__(self) -> str:
        return f"TLVBlock({self.tlvs!r})"

    # -- codec ------------------------------------------------------------

    def serialize(self) -> bytes:
        body = b"".join(tlv.serialize() for tlv in self.tlvs)
        if len(body) > 0xFFFF:
            raise SerializationError(f"TLV block too large: {len(body)} bytes")
        return struct.pack("!H", len(body)) + body

    @classmethod
    def parse(cls, data: bytes, offset: int) -> Tuple["TLVBlock", int]:
        if offset + 2 > len(data):
            raise ParseError("truncated TLV block length")
        (length,) = struct.unpack_from("!H", data, offset)
        offset += 2
        end = offset + length
        if end > len(data):
            raise ParseError("truncated TLV block body")
        tlvs = []
        while offset < end:
            tlv, offset = TLV.parse(data, offset)
            tlvs.append(tlv)
        if offset != end:
            raise ParseError("TLV block length does not match contents")
        return cls(tlvs), offset
