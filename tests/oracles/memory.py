"""Per-byte memory primitives: what the bulk ``AddressSpace`` must match.

:class:`ScalarAddressSpace` swaps the four bulk primitives that scan or
move bytes for the one-``read``-per-byte loops they replace, so every
fault lands where these loops put it.  :func:`per_word_integrity` is the
heap's header walk done one ``read_u32`` per field.  :func:`scalar_process`
builds a process over the per-byte space.

:func:`compare`, :func:`cstring_length`, :func:`is_readable` and
:func:`is_writable` are the bulk ``AddressSpace`` queries no libc body
calls any more (memcmp runs through ``helpers.compare_strings``, strlen
through ``find_byte``); they live on here as test helpers, diffed
against the per-byte methods of :class:`ScalarAddressSpace`.
"""

from typing import Optional

from repro.errors import HeapCorruption, SegmentationFault
from repro.memory import AddressSpace, Perm
from repro.memory.heap import (
    ALLOC_MAGIC, CANARY_VALUE, FLAG_CANARY, FREE_MAGIC, HEADER_SIZE, ChunkInfo,
)
from repro.memory.model import first_mismatch
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


def is_readable(space: AddressSpace, address: int, length: int = 1) -> bool:
    """True when ``length`` bytes at ``address`` can be read."""
    try:
        space._resolve(address, length, Perm.READ, "read")
    except SegmentationFault:
        return False
    return True


def is_writable(space: AddressSpace, address: int, length: int = 1) -> bool:
    """True when ``length`` bytes at ``address`` can be written."""
    try:
        space._resolve(address, length, Perm.WRITE, "write")
    except SegmentationFault:
        return False
    return True


def compare(space: AddressSpace, s1: int, s2: int, length: int) -> int:
    """memcmp-style bulk compare of ``length`` bytes (no fuel accounting).

    Returns the difference of the first mismatching byte pair, or 0.
    Faults where an interleaved ``read(s1+i) / read(s2+i)`` loop would.
    """
    if length <= 0:
        return 0
    run1 = space.readable_run(s1, length)
    run2 = space.readable_run(s2, length)
    count = min(length, run1, run2)
    a = space.read_run(s1, count)
    b = space.read_run(s2, count)
    if a != b:
        index = first_mismatch(a, b)
        return a[index] - b[index]
    if count == length:
        return 0
    if run1 <= run2:
        space.read(s1 + count, 1)
    else:
        space.read(s2 + count, 1)
    raise AssertionError("compare fault replay did not fault")


def cstring_length(space: AddressSpace, address: int,
                   limit: Optional[int] = None) -> int:
    """strlen without copying (same fault behaviour as read_cstring)."""
    index, scanned = space.find_byte(address, 0, limit)
    if index is not None:
        return index
    if limit is not None and scanned >= limit:
        return limit if limit > 0 else 0
    space.read(address + scanned, 1)
    raise AssertionError("cstring fault replay did not fault")
