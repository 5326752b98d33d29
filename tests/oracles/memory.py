"""Per-byte memory primitives: what the bulk ``AddressSpace`` must match.

:class:`ScalarAddressSpace` swaps the four bulk primitives that scan or
move bytes for the one-``read``-per-byte loops they replace, so every
fault lands where these loops put it.  :func:`per_word_integrity` is the
heap's header walk done one ``read_u32`` per field.  :func:`scalar_process`
builds a process over the per-byte space.
"""

from typing import Optional

from repro.errors import HeapCorruption
from repro.memory import AddressSpace
from repro.memory.heap import (
    ALLOC_MAGIC, CANARY_VALUE, FLAG_CANARY, FREE_MAGIC, HEADER_SIZE, ChunkInfo,
)
from repro.runtime import SimProcess


class ScalarAddressSpace(AddressSpace):
    """An address space whose scans, copies and compares go byte by byte."""

    def copy_within(self, dest: int, src: int, length: int,
                    forward: bool = False) -> None:
        if forward or dest <= src:
            offsets = range(length)
        else:
            offsets = range(length - 1, -1, -1)
        for offset in offsets:
            self.write(dest + offset, self.read(src + offset, 1))

    def compare(self, s1: int, s2: int, length: int) -> int:
        for offset in range(length):
            a = self.read(s1 + offset, 1)[0]
            b = self.read(s2 + offset, 1)[0]
            if a != b:
                return a - b
        return 0

    def read_cstring(self, address: int,
                     limit: Optional[int] = None) -> bytes:
        out = bytearray()
        while limit is None or len(out) < limit:
            byte = self.read(address + len(out), 1)[0]
            if byte == 0:
                break
            out.append(byte)
        return bytes(out)

    def cstring_length(self, address: int,
                       limit: Optional[int] = None) -> int:
        return len(self.read_cstring(address, limit))


def per_word_walk(heap):
    """The chunk chain read one header field at a time."""
    space = heap.space
    chunks = []
    cursor = heap.mapping.start
    while cursor < heap._brk:
        magic = space.read_u32(cursor)
        if magic not in (ALLOC_MAGIC, FREE_MAGIC):
            raise HeapCorruption(cursor, "walk found clobbered magic")
        user_size = space.read_u32(cursor + 4)
        total = space.read_u32(cursor + 8)
        flags = space.read_u32(cursor + 12)
        if total < HEADER_SIZE or cursor + total > heap._brk:
            raise HeapCorruption(cursor, "walk found clobbered size")
        chunks.append(ChunkInfo(
            header_address=cursor, user_address=cursor + HEADER_SIZE,
            user_size=user_size, total_size=total,
            allocated=magic == ALLOC_MAGIC,
            has_canary=bool(flags & FLAG_CANARY)))
        cursor += total
    return chunks


def per_word_integrity(heap):
    """``HeapAllocator.check_integrity`` over :func:`per_word_walk`."""
    try:
        chunks = per_word_walk(heap)
    except HeapCorruption as exc:
        return [str(exc)]
    return [f"canary clobbered for chunk at {chunk.user_address:#x}"
            for chunk in chunks
            if chunk.allocated and chunk.has_canary
            and heap.space.read_u64(chunk.user_address + chunk.user_size)
            != CANARY_VALUE]


def scalar_process(**kwargs) -> SimProcess:
    """A ``SimProcess`` whose memory is a :class:`ScalarAddressSpace`.

    The subclass adds no state, so the space the process built (and its
    heap and stack share) is retyped in place.
    """
    proc = SimProcess(**kwargs)
    proc.space.__class__ = ScalarAddressSpace
    return proc
