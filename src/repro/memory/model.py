"""Flat paged address space with mapping permissions.

This is the substrate on which the simulated C library operates.  It
reproduces the memory-protection behaviour that makes native C libraries
brittle: dereferencing an unmapped or permission-violating address raises
:class:`~repro.errors.SegmentationFault`, while in-bounds writes past the end
of an *allocation* (but inside the heap mapping) silently corrupt adjacent
data — exactly the behaviour heap-smashing attacks rely on.

Addresses are plain Python integers.  Page zero is never mappable, so any
NULL (or near-NULL) dereference faults, as on a real OS.

Bulk access paths resolve a mapping once and then work on ``Mapping.data``
slices at C speed (``bytes.find``, slice assignment,
``struct.Struct.unpack_from``), faulting at the identical address a
per-byte scan would.  The per-byte loops they replace live on as test
oracles (``tests/oracles``); the differential suite asserts byte- and
fault-address parity against them.
"""

from __future__ import annotations

import bisect
import enum
import struct
import sys
from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import BusError, SegmentationFault

PAGE_SIZE = 4096
#: Lowest mappable address; the zero page is reserved to catch NULL derefs.
MIN_ADDRESS = PAGE_SIZE
#: 32-bit style address-space ceiling (keeps addresses readable in dumps).
MAX_ADDRESS = 2 ** 32

NULL = 0

# Prepacked converters for the fixed-width accessors: struct.Struct objects
# compile the format string once and expose pack_into/unpack_from, which work
# directly on the mapping's bytearray without an intermediate bytes copy.
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I32 = struct.Struct("<i")


class Perm(enum.IntFlag):
    """Access permissions of a mapping (a subset of PROT_READ/WRITE/EXEC)."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4
    RW = READ | WRITE
    RX = READ | EXEC


def page_align(value: int) -> int:
    """Round ``value`` up to the next page boundary."""
    return (value + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


#: zero source for :meth:`AddressSpace.reset_layout`: copying from one
#: long-lived buffer is ~10x faster than from a new ``bytes(n)``, whose
#: pages the allocator maps in afresh on every call
_ZEROS = memoryview(bytes(1 << 20))

#: int values of the common permissions, for the hot loops
_PERM_READ = int(Perm.READ)
_PERM_WRITE = int(Perm.WRITE)


class Mapping:
    """A contiguous mapped region with uniform permissions."""

    __slots__ = ("start", "size", "perm", "perm_bits", "name", "data")

    def __init__(self, start: int, size: int, perm: Perm, name: str):
        self.start = start
        self.size = size
        self.perm = perm
        #: plain-int shadow of ``perm`` — the hot access loops test
        #: permissions with int ``&`` instead of enum dispatch
        self.perm_bits = int(perm)
        self.name = name
        self.data = bytearray(size)

    @property
    def end(self) -> int:
        """One past the last valid address of the mapping."""
        return self.start + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        """True when ``[address, address+length)`` lies inside the mapping."""
        return self.start <= address and address + length <= self.end

    def __repr__(self) -> str:
        return (
            f"Mapping({self.name!r}, {self.start:#x}-{self.end:#x}, "
            f"{self.perm!r})"
        )


class AddressSpace:
    """The virtual memory of one simulated process.

    Mappings are non-overlapping and kept sorted by start address.  All
    access methods raise :class:`SegmentationFault` on invalid access; a
    contiguous access must lie entirely within one mapping (crossing into an
    unmapped hole faults, as the MMU would at the page boundary).

    ``resolve_count`` counts every access resolution and ``search_count``
    counts the subset that had to bisect the mapping table — the difference
    is the hit rate of the per-permission memoized mapping, which is
    invalidated whenever ``epoch`` bumps (map/unmap/protect).
    """

    def __init__(self) -> None:
        self._mappings: List[Mapping] = []
        self._starts: List[int] = []
        #: bumped on any mapping-table or permission change
        self.epoch = 0
        #: bumped on any content write; together with ``epoch`` this lets
        #: callers memoize derived facts (string terminators, extents) and
        #: invalidate them exactly when memory could have changed
        self.mutations = 0
        #: dirty watermark: the address range covered by every content
        #: write since the last consumer reset — whoever observes a
        #: ``mutations`` change reads [dirty_lo, dirty_hi) to learn what
        #: could have changed, then resets the range.  Conservatively
        #: covers the *intended* range of partially faulting writes.
        self.dirty_lo = MAX_ADDRESS
        self.dirty_hi = 0
        # last successfully resolved mapping, keyed by required permission
        self._memo: dict = {}
        #: one-entry translation cache for :meth:`find_mapping`; string
        #: scans and bulk runs hit the same mapping almost every lookup
        self._tlb: Optional[Mapping] = None
        #: total access resolutions performed
        self.resolve_count = 0
        #: resolutions that missed the memo and searched the mapping table
        self.search_count = 0

    # ------------------------------------------------------------------
    # mapping management
    # ------------------------------------------------------------------

    def _bump_epoch(self) -> None:
        self.epoch += 1
        # layout changes also advance the content stamp so a single
        # ``mutations`` compare is a complete staleness test
        self.mutations += 1
        self._memo.clear()
        self._tlb = None

    def map_region(
        self,
        size: int,
        perm: Perm = Perm.RW,
        name: str = "anon",
        at: Optional[int] = None,
    ) -> Mapping:
        """Create a new mapping of ``size`` bytes (rounded up to pages).

        When ``at`` is None the region is placed after the highest existing
        mapping, separated by one unmapped guard page so that runaway writes
        fault rather than silently spilling into an unrelated region.
        """
        if size <= 0:
            raise ValueError("mapping size must be positive")
        size = page_align(size)
        if at is None:
            if self._mappings:
                at = page_align(self._mappings[-1].end) + PAGE_SIZE
            else:
                at = MIN_ADDRESS
        if at % PAGE_SIZE != 0:
            raise ValueError(f"mapping address {at:#x} is not page aligned")
        if at < MIN_ADDRESS or at + size > MAX_ADDRESS:
            raise ValueError(f"mapping {at:#x}+{size:#x} out of address space")
        mapping = Mapping(at, size, perm, name)
        index = bisect.bisect_left(self._starts, at)
        if index > 0 and self._mappings[index - 1].end > at:
            raise ValueError(f"mapping at {at:#x} overlaps {self._mappings[index - 1]}")
        if index < len(self._mappings) and mapping.end > self._mappings[index].start:
            raise ValueError(f"mapping at {at:#x} overlaps {self._mappings[index]}")
        self._mappings.insert(index, mapping)
        self._starts.insert(index, at)
        self._bump_epoch()
        return mapping

    def unmap(self, mapping: Mapping) -> None:
        """Remove ``mapping``; subsequent accesses to it fault."""
        index = bisect.bisect_left(self._starts, mapping.start)
        if index >= len(self._mappings) or self._mappings[index] is not mapping:
            raise ValueError(f"{mapping!r} is not mapped")
        del self._mappings[index]
        del self._starts[index]
        self._bump_epoch()

    def protect(self, mapping: Mapping, perm: Perm) -> None:
        """Change the permissions of an existing mapping (mprotect)."""
        mapping.perm = perm
        mapping.perm_bits = int(perm)
        self._bump_epoch()

    def reset_layout(self, originals: Sequence[Tuple[Mapping, int]]) -> bool:
        """Return to a zero-filled layout of just ``originals``.

        ``originals`` are ``(mapping, perm_bits)`` pairs recorded when the
        mappings were the lowest in the table and all zero, and the dirty
        watermark must still cover every content write since then.  Later
        mappings are dropped, the watermarked bytes inside ``originals``
        are zeroed, and the epoch bumps.  Returns False, changing
        nothing, when an original was unmapped or re-protected or a later
        mapping lies below one.
        """
        mappings = self._mappings
        count = len(originals)
        if len(mappings) < count:
            return False
        for (mapping, perm_bits), current in zip(originals, mappings):
            if current is not mapping or mapping.perm_bits != perm_bits:
                return False
        del mappings[count:]
        del self._starts[count:]
        lo = self.dirty_lo
        hi = self.dirty_hi
        for mapping, _ in originals:
            base = mapping.start
            end = base + mapping.size
            if lo < end and hi > base:
                start = max(lo, base) - base
                stop = min(hi, end) - base
                while start < stop:
                    step = min(stop - start, len(_ZEROS))
                    mapping.data[start:start + step] = _ZEROS[:step]
                    start += step
        self.dirty_lo = MAX_ADDRESS
        self.dirty_hi = 0
        self.resolve_count = 0
        self.search_count = 0
        self._bump_epoch()
        return True

    def mappings(self) -> Iterator[Mapping]:
        """Iterate over mappings in address order."""
        return iter(self._mappings)

    def find_mapping(self, address: int) -> Optional[Mapping]:
        """Return the mapping containing ``address``, or None."""
        mapping = self._tlb
        if mapping is not None and 0 <= address - mapping.start < mapping.size:
            return mapping
        index = bisect.bisect_right(self._starts, address) - 1
        if index < 0:
            return None
        mapping = self._mappings[index]
        if 0 <= address - mapping.start < mapping.size:
            self._tlb = mapping
            return mapping
        return None

    # ------------------------------------------------------------------
    # access checks
    # ------------------------------------------------------------------

    def _resolve(self, address: int, length: int, perm: Perm, access: str) -> Mapping:
        if length < 0:
            raise ValueError("negative access length")
        self.resolve_count += 1
        key = int(perm)
        mapping = self._memo.get(key)
        if (
            mapping is not None
            and mapping.start <= address
            and address + length <= mapping.start + mapping.size
        ):
            return mapping
        self.search_count += 1
        mapping = self.find_mapping(address)
        if mapping is None:
            raise SegmentationFault(address, access, "unmapped address")
        if not mapping.contains(address, length):
            raise SegmentationFault(
                address + (mapping.end - address),
                access,
                f"access runs off the end of {mapping.name}",
            )
        if perm and not (mapping.perm_bits & perm):
            raise SegmentationFault(
                address, access, f"{mapping.name} lacks {perm.name} permission"
            )
        self._memo[key] = mapping
        return mapping

    def is_readable(self, address: int, length: int = 1) -> bool:
        """True when ``length`` bytes at ``address`` can be read."""
        try:
            self._resolve(address, length, Perm.READ, "read")
        except SegmentationFault:
            return False
        return True

    def is_writable(self, address: int, length: int = 1) -> bool:
        """True when ``length`` bytes at ``address`` can be written."""
        try:
            self._resolve(address, length, Perm.WRITE, "write")
        except SegmentationFault:
            return False
        return True

    # ------------------------------------------------------------------
    # raw access
    # ------------------------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes; faults on an invalid or unreadable range."""
        if length == 0:
            return b""
        mapping = self._resolve(address, length, Perm.READ, "read")
        offset = address - mapping.start
        return bytes(mapping.data[offset : offset + length])

    def write(self, address: int, data: bytes) -> None:
        """Write ``data``; faults on an invalid or unwritable range."""
        if not data:
            return
        mapping = self._resolve(address, len(data), Perm.WRITE, "write")
        self.mutations += 1
        if address < self.dirty_lo:
            self.dirty_lo = address
        if address + len(data) > self.dirty_hi:
            self.dirty_hi = address + len(data)
        offset = address - mapping.start
        mapping.data[offset : offset + len(data)] = data

    def fill(self, address: int, value: int, length: int) -> None:
        """memset-style fill of ``length`` bytes with ``value``.

        Resolves once and slice-assigns into the mapping; the regression
        suite pins this at exactly one resolution per call.
        """
        if length == 0:
            return
        mapping = self._resolve(address, length, Perm.WRITE, "write")
        self.mutations += 1
        if address < self.dirty_lo:
            self.dirty_lo = address
        if address + length > self.dirty_hi:
            self.dirty_hi = address + length
        offset = address - mapping.start
        mapping.data[offset : offset + length] = bytes([value & 0xFF]) * length

    # ------------------------------------------------------------------
    # accessibility runs (cross adjacent mappings, like per-byte loops do)
    # ------------------------------------------------------------------

    def _run_forward(self, address: int, limit: Optional[int], perm: int) -> int:
        total = 0
        cursor = address
        while limit is None or total < limit:
            mapping = self.find_mapping(cursor)
            if mapping is None or not (mapping.perm_bits & perm):
                break
            total += mapping.end - cursor
            cursor = mapping.end
        if limit is not None and total > limit:
            total = limit
        return total

    def _run_backward(self, end: int, limit: Optional[int], perm: int) -> int:
        total = 0
        cursor = end
        while limit is None or total < limit:
            mapping = self.find_mapping(cursor - 1)
            if mapping is None or not (mapping.perm_bits & perm):
                break
            total += cursor - mapping.start
            cursor = mapping.start
        if limit is not None and total > limit:
            total = limit
        return total

    def readable_run(self, address: int, limit: Optional[int] = None) -> int:
        """Contiguous readable bytes starting at ``address`` (≤ ``limit``).

        Unlike :meth:`read`, the run crosses directly adjacent mappings,
        because a byte-at-a-time loop does too.
        """
        return self._run_forward(address, limit, _PERM_READ)

    def writable_run(self, address: int, limit: Optional[int] = None) -> int:
        """Contiguous writable bytes starting at ``address`` (≤ ``limit``)."""
        return self._run_forward(address, limit, _PERM_WRITE)

    def readable_run_back(self, end: int, limit: Optional[int] = None) -> int:
        """Contiguous readable bytes ending just before ``end`` (≤ ``limit``)."""
        return self._run_backward(end, limit, _PERM_READ)

    def writable_run_back(self, end: int, limit: Optional[int] = None) -> int:
        """Contiguous writable bytes ending just before ``end`` (≤ ``limit``)."""
        return self._run_backward(end, limit, _PERM_WRITE)

    # ------------------------------------------------------------------
    # bulk access (multi-mapping; faults where the per-byte loop would)
    # ------------------------------------------------------------------

    def read_run(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes crossing adjacent mappings.

        Faults at the first inaccessible byte — the address a
        ``read(cursor, 1)`` loop would report.
        """
        if length <= 0:
            return b""
        parts = []
        cursor = address
        remaining = length
        while remaining > 0:
            mapping = self.find_mapping(cursor)
            if mapping is None or not (mapping.perm_bits & _PERM_READ):
                self.read(cursor, 1)  # raises the exact per-byte fault
                raise AssertionError("read_run fault replay did not fault")
            offset = cursor - mapping.start
            take = min(remaining, mapping.size - offset)
            parts.append(bytes(mapping.data[offset : offset + take]))
            cursor += take
            remaining -= take
        return b"".join(parts)

    def write_run(self, address: int, data: bytes) -> None:
        """Write ``data`` crossing adjacent mappings (per-byte fault parity)."""
        if data:
            # counted up front: a fault partway still leaves bytes written
            self.mutations += 1
            if address < self.dirty_lo:
                self.dirty_lo = address
            if address + len(data) > self.dirty_hi:
                self.dirty_hi = address + len(data)
        cursor = address
        view = memoryview(data)
        position = 0
        remaining = len(data)
        while remaining > 0:
            mapping = self.find_mapping(cursor)
            if mapping is None or not (mapping.perm_bits & _PERM_WRITE):
                self.write(cursor, b"\x00")  # raises the exact per-byte fault
                raise AssertionError("write_run fault replay did not fault")
            offset = cursor - mapping.start
            take = min(remaining, mapping.size - offset)
            mapping.data[offset : offset + take] = view[position : position + take]
            cursor += take
            position += take
            remaining -= take

    def fill_run(self, address: int, value: int, length: int) -> None:
        """Fill ``length`` bytes crossing adjacent mappings."""
        if length > 0:
            self.mutations += 1
            if address < self.dirty_lo:
                self.dirty_lo = address
            if address + length > self.dirty_hi:
                self.dirty_hi = address + length
        cursor = address
        remaining = length
        value &= 0xFF
        while remaining > 0:
            mapping = self.find_mapping(cursor)
            if mapping is None or not (mapping.perm_bits & _PERM_WRITE):
                self.write(cursor, b"\x00")
                raise AssertionError("fill_run fault replay did not fault")
            offset = cursor - mapping.start
            take = min(remaining, mapping.size - offset)
            mapping.data[offset : offset + take] = bytes([value]) * take
            cursor += take
            remaining -= take

    def find_byte(
        self, address: int, value: int, limit: Optional[int] = None
    ) -> Tuple[Optional[int], int]:
        """Scan readable memory from ``address`` for ``value``.

        Returns ``(index, scanned)``: ``index`` is the offset of the first
        occurrence (None when absent within the accessible window) and
        ``scanned`` is how many readable bytes the scan covered — the full
        accessible run capped at ``limit`` when nothing was found.  The scan
        never faults; callers replay ``read(address + scanned, 1)`` when the
        per-byte loop would have faulted there.
        """
        value &= 0xFF
        total = 0
        cursor = address
        while limit is None or total < limit:
            mapping = self.find_mapping(cursor)
            if mapping is None or not (mapping.perm_bits & _PERM_READ):
                break
            start = cursor - mapping.start
            stop = mapping.size
            if limit is not None:
                stop = min(stop, start + (limit - total))
            idx = mapping.data.find(value, start, stop)
            if idx >= 0:
                found = total + (idx - start)
                return found, found + 1
            total += stop - start
            cursor = mapping.start + stop
            if stop < mapping.size:
                break
        if limit is not None and total > limit:
            total = limit
        return None, total

    def find_u32(
        self, address: int, value: int, limit_words: int
    ) -> Tuple[Optional[int], int]:
        """Scan for a 32-bit little-endian word at stride 4 from ``address``.

        Returns ``(index, scanned)`` in *words*.  Only words whose four bytes
        a ``read_u32`` would accept (entirely inside one readable mapping)
        are scanned; the scan stops — without faulting — at the first word
        that would fault.
        """
        value &= 0xFFFFFFFF
        total = 0
        cursor = address
        while total < limit_words:
            mapping = self.find_mapping(cursor)
            if mapping is None or not (mapping.perm_bits & _PERM_READ):
                break
            words_here = min((mapping.end - cursor) // 4, limit_words - total)
            if words_here <= 0:
                break
            offset = cursor - mapping.start
            window = array("I")
            window.frombytes(bytes(mapping.data[offset : offset + words_here * 4]))
            if sys.byteorder == "big":
                window.byteswap()
            try:
                idx = window.index(value)
            except ValueError:
                idx = -1
            if idx >= 0:
                found = total + idx
                return found, found + 1
            total += words_here
            cursor += words_here * 4
            if cursor < mapping.end:
                break
        return None, total

    def copy_within(
        self, dest: int, src: int, length: int, forward: bool = False
    ) -> None:
        """Bulk copy of ``length`` bytes from ``src`` to ``dest``.

        With ``forward=False`` this has memmove semantics (overlap safe in
        either direction, backward loop order when ``dest > src``).  With
        ``forward=True`` it reproduces a naive ascending C copy loop: a
        forward-overlapping copy smears the first ``dest - src`` bytes
        repeatedly, exactly like ``for (i...) d[i] = s[i]``.  Faults land on
        the same byte and access kind the per-byte loop would hit.
        """
        if length <= 0:
            return
        if forward or dest <= src:
            readable = self.readable_run(src, length)
            writable = self.writable_run(dest, length)
            count = min(length, readable, writable)
            if count:
                if forward and src < dest < src + count:
                    period = dest - src
                    pattern = self.read_run(src, period)
                    data = (pattern * (count // period + 1))[:count]
                else:
                    data = self.read_run(src, count)
                self.write_run(dest, data)
            if count < length:
                if readable <= writable:
                    self.read(src + count, 1)
                else:
                    self.write(dest + count, b"\x00")
                raise AssertionError("copy_within fault replay did not fault")
        else:
            # descending loop: the first access is at the highest offset, so
            # accessibility is measured from the top end downward
            readable = self.readable_run_back(src + length, length)
            writable = self.writable_run_back(dest + length, length)
            count = min(length, readable, writable)
            if count:
                data = self.read_run(src + length - count, count)
                self.write_run(dest + length - count, data)
            if count < length:
                offset = length - 1 - count
                if readable <= writable:
                    self.read(src + offset, 1)
                else:
                    self.write(dest + offset, b"\x00")
                raise AssertionError("copy_within fault replay did not fault")

    def compare(self, s1: int, s2: int, length: int) -> int:
        """memcmp-style compare of ``length`` bytes (no fuel accounting).

        Returns the difference of the first mismatching byte pair, or 0.
        Faults where an interleaved ``read(s1+i) / read(s2+i)`` loop would.
        """
        if length <= 0:
            return 0
        run1 = self.readable_run(s1, length)
        run2 = self.readable_run(s2, length)
        count = min(length, run1, run2)
        a = self.read_run(s1, count)
        b = self.read_run(s2, count)
        if a != b:
            index = first_mismatch(a, b)
            return a[index] - b[index]
        if count == length:
            return 0
        if run1 <= run2:
            self.read(s1 + count, 1)
        else:
            self.read(s2 + count, 1)
        raise AssertionError("compare fault replay did not fault")

    # ------------------------------------------------------------------
    # fixed-width access (little endian, like x86)
    # ------------------------------------------------------------------

    def read_u8(self, address: int) -> int:
        mapping = self._resolve(address, 1, Perm.READ, "read")
        return mapping.data[address - mapping.start]

    def write_u8(self, address: int, value: int) -> None:
        mapping = self._resolve(address, 1, Perm.WRITE, "write")
        self.mutations += 1
        if address < self.dirty_lo:
            self.dirty_lo = address
        if address + 1 > self.dirty_hi:
            self.dirty_hi = address + 1
        mapping.data[address - mapping.start] = value & 0xFF

    def read_u16(self, address: int) -> int:
        mapping = self._resolve(address, 2, Perm.READ, "read")
        return _U16.unpack_from(mapping.data, address - mapping.start)[0]

    def write_u16(self, address: int, value: int) -> None:
        mapping = self._resolve(address, 2, Perm.WRITE, "write")
        self.mutations += 1
        if address < self.dirty_lo:
            self.dirty_lo = address
        if address + 2 > self.dirty_hi:
            self.dirty_hi = address + 2
        _U16.pack_into(mapping.data, address - mapping.start, value & 0xFFFF)

    def read_u32(self, address: int) -> int:
        mapping = self._resolve(address, 4, Perm.READ, "read")
        return _U32.unpack_from(mapping.data, address - mapping.start)[0]

    def write_u32(self, address: int, value: int) -> None:
        mapping = self._resolve(address, 4, Perm.WRITE, "write")
        self.mutations += 1
        if address < self.dirty_lo:
            self.dirty_lo = address
        if address + 4 > self.dirty_hi:
            self.dirty_hi = address + 4
        _U32.pack_into(mapping.data, address - mapping.start, value & 0xFFFFFFFF)

    def read_u64(self, address: int) -> int:
        mapping = self._resolve(address, 8, Perm.READ, "read")
        return _U64.unpack_from(mapping.data, address - mapping.start)[0]

    def write_u64(self, address: int, value: int) -> None:
        mapping = self._resolve(address, 8, Perm.WRITE, "write")
        self.mutations += 1
        if address < self.dirty_lo:
            self.dirty_lo = address
        if address + 8 > self.dirty_hi:
            self.dirty_hi = address + 8
        _U64.pack_into(
            mapping.data, address - mapping.start, value & 0xFFFFFFFFFFFFFFFF
        )

    def read_i32(self, address: int) -> int:
        mapping = self._resolve(address, 4, Perm.READ, "read")
        return _I32.unpack_from(mapping.data, address - mapping.start)[0]

    def write_i32(self, address: int, value: int) -> None:
        # C stores truncate: keep the low 32 bits, reinterpret as signed
        value = ((value + (1 << 31)) & 0xFFFFFFFF) - (1 << 31)
        mapping = self._resolve(address, 4, Perm.WRITE, "write")
        self.mutations += 1
        if address < self.dirty_lo:
            self.dirty_lo = address
        if address + 4 > self.dirty_hi:
            self.dirty_hi = address + 4
        _I32.pack_into(mapping.data, address - mapping.start, value)

    def read_ptr(self, address: int) -> int:
        """Pointers in the simulated ABI are 8 bytes."""
        return self.read_u64(address)

    def write_ptr(self, address: int, value: int) -> None:
        self.write_u64(address, value)

    def read_aligned_u64(self, address: int) -> int:
        """Read requiring 8-byte alignment (raises BusError otherwise)."""
        if address % 8:
            raise BusError(address, 8)
        return self.read_u64(address)

    # ------------------------------------------------------------------
    # C string helpers
    # ------------------------------------------------------------------

    def read_cstring(self, address: int, limit: Optional[int] = None) -> bytes:
        """Read a NUL-terminated string starting at ``address``.

        Behaves exactly like a naive C ``strlen`` walk: if the string is not
        terminated before readable memory ends the scan faults at the
        boundary.  ``limit`` bounds the scan length (used by wrappers to
        avoid unbounded scans, not by the fragile libc itself); the scan
        stops exactly at ``limit`` and never touches the byte past it.
        """
        index, scanned = self.find_byte(address, 0, limit)
        if index is not None:
            return self.read_run(address, index)
        if limit is not None and scanned >= limit:
            return self.read_run(address, limit if limit > 0 else 0)
        self.read(address + scanned, 1)
        raise AssertionError("cstring fault replay did not fault")

    def write_cstring(self, address: int, value: bytes) -> None:
        """Write ``value`` plus a terminating NUL at ``address``."""
        self.write(address, value + b"\x00")

    def cstring_length(self, address: int, limit: Optional[int] = None) -> int:
        """strlen without copying (same fault behaviour as read_cstring)."""
        index, scanned = self.find_byte(address, 0, limit)
        if index is not None:
            return index
        if limit is not None and scanned >= limit:
            return limit if limit > 0 else 0
        self.read(address + scanned, 1)
        raise AssertionError("cstring fault replay did not fault")

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable map, in the style of /proc/<pid>/maps."""
        lines = []
        for mapping in self._mappings:
            perm = "".join(
                flag if mapping.perm & bit else "-"
                for flag, bit in (("r", Perm.READ), ("w", Perm.WRITE), ("x", Perm.EXEC))
            )
            lines.append(
                f"{mapping.start:08x}-{mapping.end:08x} {perm} {mapping.name}"
            )
        return "\n".join(lines)


#: first_mismatch compares inputs up to this long with one XOR; longer
#: ones in windows that start this size and grow fourfold
MISMATCH_WINDOW = 4096


def first_mismatch(a: bytes, b: bytes) -> int:
    """Index of the first differing byte of two unequal, equal-length strings.

    A big-int XOR finds it: the highest set bit of ``a ^ b`` (big-endian)
    sits inside the first mismatching byte.  Inputs longer than one
    window are first narrowed to the window holding the mismatch; equal
    windows are skipped by a C-speed compare, and each window is four
    times the last, so the cost follows the mismatch's index, not the
    input's length.
    """
    start = 0
    if len(a) > MISMATCH_WINDOW:
        window = MISMATCH_WINDOW
        while (start + window < len(a)
               and a[start:start + window] == b[start:start + window]):
            start += window
            window *= 4
        a = a[start:start + window]
        b = b[start:start + window]
    x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return start + len(a) - ((x.bit_length() + 7) // 8)
