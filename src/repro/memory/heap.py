"""Boundary-tag heap allocator over the simulated address space.

The allocator is deliberately glibc-like in the one respect that matters to
HEALERS: chunk metadata lives *in band*, directly in front of the user data,
so a buffer overflow from one allocation silently corrupts the header of the
next chunk.  ``free()`` and the heap-consistency walk detect such corruption
and abort, mirroring glibc's ``malloc(): corrupted top size`` behaviour —
and an attacker who overwrites a function pointer stored in the adjacent
chunk hijacks control flow before any check runs, which is exactly the heap
smashing attack of Fetzer & Xiao [3] that the HEALERS security wrapper must
stop.

Chunk layout (all fields little endian)::

    +0   u32  magic          ALLOC_MAGIC or FREE_MAGIC
    +4   u32  user_size      bytes requested by the caller
    +8   u32  total_size     header + payload area, 16-byte aligned
    +12  u32  flags          bit 0: canary present
    +16  ...  user data      (user_size bytes)
    [+16+user_size  u64 canary, when enabled]

Canaries are optional because they are a *protection policy* layered on by
the HEALERS security wrapper, not a property of the brittle base libc; see
the ablation benchmark for the two protection variants.
"""

from __future__ import annotations

import struct
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    CanaryViolation,
    DoubleFree,
    HeapCorruption,
    InvalidFree,
)
from repro.memory.model import AddressSpace, Mapping, Perm

HEADER_SIZE = 16
CHUNK_ALIGN = 16
MIN_SPLIT = 32

ALLOC_MAGIC = 0xA110CA7E
FREE_MAGIC = 0xF4EEF4EE
CANARY_VALUE = 0xDEADC0DEDEADC0DE
CANARY_SIZE = 8

FLAG_CANARY = 0x1

#: one-shot codecs for the in-band metadata; unpacking a whole header (or
#: canary) straight from the mapping buffer replaces four ``read_u32``
#: round-trips per chunk on the integrity-walk hot path
_HEADER = struct.Struct("<IIII")
_CANARY = struct.Struct("<Q")


def _align(value: int, alignment: int = CHUNK_ALIGN) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


@dataclass
class HeapStats:
    """Running counters maintained by the allocator."""

    malloc_calls: int = 0
    free_calls: int = 0
    realloc_calls: int = 0
    failed_allocations: int = 0
    bytes_in_use: int = 0
    peak_bytes_in_use: int = 0
    live_chunks: int = 0
    repairs: int = 0
    quarantined_chunks: int = 0


@dataclass
class RepairReport:
    """What :meth:`HeapAllocator.repair` did to restore consistency."""

    #: human-readable description of each rewrite/quarantine performed
    actions: List[str] = field(default_factory=list)
    #: user addresses taken out of circulation (their data survives, but
    #: the chunk is never handed out again and ``free()`` on it no-ops)
    quarantined: List[int] = field(default_factory=list)
    #: post-repair integrity verdict (False = corruption we could not fix)
    clean: bool = True

    @property
    def repaired(self) -> bool:
        return bool(self.actions)


@dataclass
class ChunkInfo:
    """Decoded view of one chunk header (diagnostics / integrity walk)."""

    header_address: int
    user_address: int
    user_size: int
    total_size: int
    allocated: bool
    has_canary: bool


class HeapAllocator:
    """First-fit free-list allocator with in-band corruptible metadata."""

    #: chaos-engineering hooks, class-level None so the hot path pays one
    #: attribute read; armed per instance by the fault injector
    fault_hook: Optional[Callable[[], bool]] = None
    post_alloc_hook: Optional[Callable[[int, int], None]] = None

    def __init__(
        self,
        space: AddressSpace,
        size: int = 1 << 20,
        canaries: bool = False,
        name: str = "[heap]",
    ):
        self.space = space
        self.mapping: Mapping = space.map_region(size, Perm.RW, name)
        self.canaries = canaries
        #: bumped whenever the live-allocation set can change (malloc,
        #: free, quarantine); pairs with ``AddressSpace.mutations`` so
        #: extent/terminator memos know when their bounds went stale
        self.mutations = 0
        self.reset()

    def reset(self) -> None:
        """Forget every chunk and statistic: the state of an empty heap.

        The mapping's bytes are the caller's to zero; ``mutations``
        keeps counting up so no memo keyed on it survives.
        """
        self.mutations += 1
        self.stats = HeapStats()
        #: top of the allocated area; everything above is wilderness
        self._brk = self.mapping.start
        #: free chunks by header address -> total size (mirror of in-memory
        #: state, used for first-fit search; the in-memory magic remains the
        #: source of truth for corruption detection)
        self._free: Dict[int, int] = {}
        #: header addresses of free chunks, kept sorted so first-fit walks
        #: ascending addresses without re-sorting per malloc
        self._free_order: List[int] = []
        #: live allocations user_address -> user_size (the allocator's own
        #: view; HEALERS' wrapper keeps an equivalent external size table)
        self._live: Dict[int, int] = {}
        #: user addresses of live allocations, kept sorted; since live
        #: chunks never overlap, a bisect finds the only candidate that
        #: can contain an interior pointer in O(log n)
        self._live_order: List[int] = []
        #: out-of-band shadow of live in-band headers, header address ->
        #: (user_size, total, flags); the in-band copy stays the detection
        #: ground truth, the shadow is the *repair* ground truth
        self._chunks: Dict[int, Tuple[int, int, int]] = {}
        #: chunks removed from circulation after corruption, header ->
        #: shadow header; never reused, never freeable
        self._quarantined: Dict[int, Tuple[int, int, int]] = {}

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the user address or 0 (NULL).

        ``malloc(0)`` returns a unique minimal allocation, as glibc does.
        """
        self.stats.malloc_calls += 1
        self.mutations += 1
        self.space.mutations += 1
        hook = self.fault_hook
        if hook is not None and hook():
            self.stats.failed_allocations += 1
            return 0
        if size < 0:
            self.stats.failed_allocations += 1
            return 0
        payload = size + (CANARY_SIZE if self.canaries else 0)
        total = _align(HEADER_SIZE + max(payload, 1))
        taken = self._take_free_chunk(total)
        if taken is None:
            header = self._extend_brk(total)
            if header is None:
                self.stats.failed_allocations += 1
                return 0
        else:
            header, total = taken
        self._write_header(header, size, total, allocated=True)
        user = header + HEADER_SIZE
        if self.canaries:
            self.space.write_u64(user + size, CANARY_VALUE)
        if user not in self._live:
            insort(self._live_order, user)
        self._live[user] = size
        self._chunks[header] = (
            size, total, FLAG_CANARY if self.canaries else 0
        )
        self.stats.live_chunks += 1
        self.stats.bytes_in_use += size
        self.stats.peak_bytes_in_use = max(
            self.stats.peak_bytes_in_use, self.stats.bytes_in_use
        )
        post = self.post_alloc_hook
        if post is not None:
            post(user, size)
        return user

    def reliable_malloc(self, size: int) -> int:
        """``malloc`` with the injection hooks suspended.

        For harness-level helper allocations (string literals, callback
        scaffolding) that model static program data: they sit below the
        interposition boundary, so no wrapper could ever contain a fault
        injected into them — chaos there would only measure noise.
        """
        hook, post = self.fault_hook, self.post_alloc_hook
        self.fault_hook = None
        self.post_alloc_hook = None
        try:
            return self.malloc(size)
        finally:
            self.fault_hook = hook
            self.post_alloc_hook = post

    def calloc(self, count: int, size: int) -> int:
        """Allocate and zero ``count * size`` bytes (with overflow check)."""
        if count < 0 or size < 0:
            return 0
        total = count * size
        if total > self.mapping.size:
            return 0
        user = self.malloc(total)
        if user:
            self.space.fill(user, 0, total)
        return user

    def realloc(self, address: int, size: int) -> int:
        """Resize an allocation, moving it when necessary."""
        self.stats.realloc_calls += 1
        if address == 0:
            return self.malloc(size)
        if size == 0:
            self.free(address)
            return 0
        old_size = self._validated_user_size(address)
        new = self.malloc(size)
        if new == 0:
            return 0
        data = self.space.read(address, min(old_size, size))
        self.space.write(new, data)
        self.free(address)
        return new

    def free(self, address: int) -> None:
        """Release an allocation; detects double/invalid free and corruption."""
        self.stats.free_calls += 1
        self.mutations += 1
        self.space.mutations += 1
        if address == 0:
            return
        header = address - HEADER_SIZE
        if self._quarantined and header in self._quarantined:
            return  # quarantined chunks are out of circulation for good
        if not self.mapping.contains(header, HEADER_SIZE):
            raise InvalidFree(address)
        # the containment check above guarantees the whole header is
        # inside the heap mapping, so one read replaces four
        magic, user_size, total, flags = _HEADER.unpack(
            self.space.read(header, HEADER_SIZE)
        )
        if magic == FREE_MAGIC:
            raise DoubleFree(address)
        if magic != ALLOC_MAGIC:
            raise HeapCorruption(address, "chunk header magic clobbered")
        if header + total > self._brk or total < HEADER_SIZE:
            raise HeapCorruption(address, "chunk size field clobbered")
        if flags & FLAG_CANARY:
            if self.space.read_u64(address + user_size) != CANARY_VALUE:
                raise CanaryViolation(address)
        self.space.write_u32(header, FREE_MAGIC)
        self._chunks.pop(header, None)
        self._free_insert(header, total)
        self._coalesce(header)
        actual = self._live.pop(address, None)
        if actual is not None:
            self._live_discard(address)
            self.stats.bytes_in_use -= actual
            self.stats.live_chunks -= 1

    # ------------------------------------------------------------------
    # introspection (used by the HEALERS security wrapper)
    # ------------------------------------------------------------------

    def allocation_size(self, address: int) -> Optional[int]:
        """User size of the allocation starting at ``address``, or None."""
        return self._live.get(address)

    def allocation_containing(self, address: int) -> Optional[Tuple[int, int]]:
        """(user_address, user_size) of the live chunk containing ``address``.

        Returns None when ``address`` does not fall inside any live
        allocation's user area.  This is the query the security wrapper
        uses to bound writes through interior pointers; live chunks never
        overlap, so the bisect predecessor is the only candidate.
        """
        order = self._live_order
        index = bisect_right(order, address) - 1
        if index < 0:
            return None
        user = order[index]
        size = self._live[user]
        if user <= address < user + max(size, 1):
            return (user, size)
        return None

    def writable_bytes_from(self, address: int) -> Optional[int]:
        """Bytes from ``address`` to the end of its live allocation."""
        found = self.allocation_containing(address)
        if found is None:
            return None
        user, size = found
        return user + size - address

    def live_allocations(self) -> Dict[int, int]:
        """Snapshot of user_address -> user_size for live chunks."""
        return dict(self._live)

    def walk(self) -> List[ChunkInfo]:
        """Walk the chunk chain from the heap base using in-band headers.

        Raises :class:`HeapCorruption` when a header is unreadable as a
        chunk, mirroring a failed glibc consistency assertion.
        """
        chunks: List[ChunkInfo] = []
        cursor = self.mapping.start
        base = self.mapping.start
        data = self.mapping.data
        readable = bool(self.mapping.perm & Perm.READ)
        while cursor < self._brk:
            offset = cursor - base
            if readable and offset + HEADER_SIZE <= self.mapping.size:
                magic, user_size, total, flags = _HEADER.unpack_from(
                    data, offset
                )
                if magic not in (ALLOC_MAGIC, FREE_MAGIC):
                    raise HeapCorruption(cursor, "walk found clobbered magic")
            else:
                # per-word reads replay the exact fault when a clobbered
                # size pushed the cursor off the readable mapping
                magic = self.space.read_u32(cursor)
                if magic not in (ALLOC_MAGIC, FREE_MAGIC):
                    raise HeapCorruption(cursor, "walk found clobbered magic")
                user_size = self.space.read_u32(cursor + 4)
                total = self.space.read_u32(cursor + 8)
                flags = self.space.read_u32(cursor + 12)
            if total < HEADER_SIZE or cursor + total > self._brk:
                raise HeapCorruption(cursor, "walk found clobbered size")
            chunks.append(
                ChunkInfo(
                    header_address=cursor,
                    user_address=cursor + HEADER_SIZE,
                    user_size=user_size,
                    total_size=total,
                    allocated=magic == ALLOC_MAGIC,
                    has_canary=bool(flags & FLAG_CANARY),
                )
            )
            cursor += total
        return chunks

    def check_integrity(self) -> List[str]:
        """Non-raising integrity check: list of corruption descriptions.

        One pass over the mapping buffer fuses the header walk and the
        canary sweep with no per-chunk allocations; an unreadable heap
        mapping or a header cut off at its end falls back to
        :meth:`_walk_integrity`, whose reads fault where the walk would.
        """
        if not (self.mapping.perm & Perm.READ):
            return self._walk_integrity()
        base = self.mapping.start
        data = self.mapping.data
        limit = self.mapping.size
        brk = self._brk
        unpack_header = _HEADER.unpack_from
        canaried: List[Tuple[int, int]] = []
        cursor = base
        while cursor < brk:
            offset = cursor - base
            if offset + HEADER_SIZE > limit:
                return self._walk_integrity()  # replays the faulting read
            magic, user_size, total, flags = unpack_header(data, offset)
            if magic not in (ALLOC_MAGIC, FREE_MAGIC):
                return [str(HeapCorruption(cursor,
                                           "walk found clobbered magic"))]
            if total < HEADER_SIZE or cursor + total > brk:
                return [str(HeapCorruption(cursor,
                                           "walk found clobbered size"))]
            if magic == ALLOC_MAGIC and flags & FLAG_CANARY:
                canaried.append((cursor + HEADER_SIZE, user_size))
            cursor += total
        # canaries are checked only after the whole chain validated, as in
        # the reference path (a later clobbered header wins)
        problems: List[str] = []
        for user, user_size in canaried:
            offset = user + user_size - base
            if 0 <= offset and offset + CANARY_SIZE <= limit:
                canary = _CANARY.unpack_from(data, offset)[0]
            else:
                # a clobbered user_size can point the canary off the
                # mapping; the plain read faults exactly as before
                canary = self.space.read_u64(user + user_size)
            if canary != CANARY_VALUE:
                problems.append(
                    f"canary clobbered for chunk at {user:#x}"
                )
        return problems

    def _walk_integrity(self) -> List[str]:
        """Integrity check over :meth:`walk` chunk objects (the fallback
        that replays faulting header and canary reads)."""
        problems: List[str] = []
        try:
            chunks = self.walk()
        except HeapCorruption as exc:
            return [str(exc)]
        for chunk in chunks:
            if chunk.allocated and chunk.has_canary:
                canary = self.space.read_u64(
                    chunk.user_address + chunk.user_size
                )
                if canary != CANARY_VALUE:
                    problems.append(
                        f"canary clobbered for chunk at {chunk.user_address:#x}"
                    )
        return problems

    # ------------------------------------------------------------------
    # self-healing (the recovery subsystem's repair surface)
    # ------------------------------------------------------------------

    def quarantine(self, address: int) -> bool:
        """Take the live allocation at ``address`` out of circulation.

        The chunk's header and canary are rewritten from the shadow copy
        so the chain walks clean, its user data is left untouched (the
        application may still hold the pointer), but the allocator never
        reuses it: it leaves the live set, ``free()`` on it becomes a
        no-op, and it never re-enters the free list.  This is the repair
        policy's containment unit for a corrupted allocation.
        """
        size = self._live.pop(address, None)
        if size is None:
            return False
        self.mutations += 1
        self.space.mutations += 1
        self._live_discard(address)
        header = address - HEADER_SIZE
        shadow = self._chunks.pop(header, None)
        if shadow is None:  # pragma: no cover - shadow mirrors _live
            payload = size + (CANARY_SIZE if self.canaries else 0)
            shadow = (size, _align(HEADER_SIZE + max(payload, 1)),
                      FLAG_CANARY if self.canaries else 0)
        self._quarantined[header] = shadow
        user_size, total, flags = shadow
        self._write_header(header, user_size, total, allocated=True)
        if flags & FLAG_CANARY:
            self.space.write_u64(address + user_size, CANARY_VALUE)
        self.stats.bytes_in_use -= size
        self.stats.live_chunks -= 1
        self.stats.quarantined_chunks += 1
        return True

    def repair(self, quarantine: bool = True) -> RepairReport:
        """Rewrite corrupted in-band metadata from the shadow copies.

        Every chunk between the heap base and the break is exactly one of
        live (shadowed in ``_chunks``), quarantined, or free (mirrored in
        ``_free``), so the entire chain can be reconstructed without
        trusting a single in-band byte.  Headers that disagree with their
        shadow are rewritten; an allocated chunk whose canary was
        clobbered is quarantined (``quarantine=True``, the recovery
        policy's default — the overflow wrote *into* it, so its tail is
        suspect) or has the canary restored in place.

        Returns a :class:`RepairReport`; ``report.clean`` re-runs
        :meth:`check_integrity` after the rewrites.
        """
        report = RepairReport()
        expected: List[Tuple[int, int, int, int, bool]] = []
        for header, (user_size, total, flags) in self._chunks.items():
            expected.append((header, user_size, total, flags, True))
        for header, (user_size, total, flags) in self._quarantined.items():
            expected.append((header, user_size, total, flags, True))
        for header, total in self._free.items():
            expected.append((header, 0, total, 0, False))
        expected.sort()
        for header, user_size, total, flags, allocated in expected:
            if not self.mapping.contains(header, HEADER_SIZE):
                continue  # pragma: no cover - shadows never leave the map
            magic, in_size, in_total, in_flags = _HEADER.unpack(
                self.space.read(header, HEADER_SIZE)
            )
            if allocated:
                if (magic, in_size, in_total, in_flags) != (
                    ALLOC_MAGIC, user_size, total, flags
                ):
                    self._write_header(header, user_size, total,
                                       allocated=True)
                    report.actions.append(
                        f"rewrote header of chunk at {header:#x}"
                    )
                user = header + HEADER_SIZE
                if flags & FLAG_CANARY and self.mapping.contains(
                    user + user_size, CANARY_SIZE
                ):
                    canary = self.space.read_u64(user + user_size)
                    if canary != CANARY_VALUE:
                        if quarantine and user in self._live:
                            self.quarantine(user)
                            report.quarantined.append(user)
                            report.actions.append(
                                f"quarantined chunk at {user:#x} "
                                f"(canary clobbered)"
                            )
                        else:
                            self.space.write_u64(user + user_size,
                                                 CANARY_VALUE)
                            report.actions.append(
                                f"rewrote canary of chunk at {user:#x}"
                            )
            else:
                # free chunks carry stale user_size/flags by design
                # (``free`` rewrites only the magic), so just magic and
                # the size field participate in integrity
                if magic != FREE_MAGIC or in_total != total:
                    self._write_header(header, 0, total, allocated=False)
                    report.actions.append(
                        f"rewrote free-chunk header at {header:#x}"
                    )
        self.stats.repairs += len(report.actions)
        report.clean = not self.check_integrity()
        return report

    def quarantined_addresses(self) -> List[int]:
        """User addresses currently under quarantine (sorted)."""
        return sorted(header + HEADER_SIZE for header in self._quarantined)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _validated_user_size(self, address: int) -> int:
        header = address - HEADER_SIZE
        if not self.mapping.contains(header, HEADER_SIZE):
            raise InvalidFree(address)
        if self.space.read_u32(header) != ALLOC_MAGIC:
            raise HeapCorruption(address, "realloc of invalid chunk")
        return self.space.read_u32(header + 4)

    def _free_insert(self, header: int, total: int) -> None:
        if header not in self._free:
            insort(self._free_order, header)
        self._free[header] = total

    def _free_discard(self, header: int) -> None:
        del self._free[header]
        index = bisect_right(self._free_order, header) - 1
        del self._free_order[index]

    def _live_discard(self, user: int) -> None:
        index = bisect_right(self._live_order, user) - 1
        del self._live_order[index]

    def _take_free_chunk(self, total: int) -> Optional[Tuple[int, int]]:
        """First-fit search; returns (header, actual_total) or None.

        ``_free_order`` is maintained sorted (insort on free/split), so the
        walk visits ascending header addresses — the same placement order
        the previous per-malloc ``sorted()`` produced — without an O(n log n)
        re-sort on every allocation.

        Oversized free chunks are split when the remainder is big enough to
        hold a future allocation; otherwise the whole chunk is handed out.
        """
        for header in self._free_order:
            available = self._free[header]
            if available >= total:
                self._free_discard(header)
                if available - total >= MIN_SPLIT:
                    remainder = header + total
                    self._write_header(
                        remainder, 0, available - total, allocated=False
                    )
                    self._free_insert(remainder, available - total)
                    return (header, total)
                return (header, available)
        return None

    def _extend_brk(self, total: int) -> Optional[int]:
        if self._brk + total > self.mapping.end:
            return None
        header = self._brk
        self._brk += total
        return header

    def _write_header(
        self, header: int, user_size: int, total: int, allocated: bool
    ) -> None:
        flags = FLAG_CANARY if (allocated and self.canaries) else 0
        magic = ALLOC_MAGIC if allocated else FREE_MAGIC
        self.space.write(header, _HEADER.pack(magic, user_size, total, flags))

    def _coalesce(self, header: int) -> None:
        """Merge the freed chunk with adjacent free chunks; if the merged
        chunk abuts the wilderness, give it back to the wilderness."""
        total = self._free[header]
        self._free_discard(header)
        # merge backward: only the bisect predecessor can end exactly at
        # this header (free chunks never overlap)
        index = bisect_right(self._free_order, header) - 1
        if index >= 0:
            other = self._free_order[index]
            other_total = self._free[other]
            if other + other_total == header:
                self._free_discard(other)
                header = other
                total += other_total
        # merge forward
        follower = header + total
        while follower in self._free:
            follower_total = self._free[follower]
            self._free_discard(follower)
            total += follower_total
            follower = header + total
        if header + total == self._brk:
            self._brk = header
        else:
            self._free_insert(header, total)
            self._write_header(header, 0, total, allocated=False)
