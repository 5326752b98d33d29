"""Simulated process: address space + heap + stack + errno + fuel.

A :class:`SimProcess` stands in for the OS process that HEALERS' native
fault-injection harness forks for each probe.  It owns all mutable runtime
state, so every probe can start from a pristine process — the isolation a
fork-per-probe harness provides.  Like a deferred fork server, a
campaign does not pay for a new process, or new golden arguments, each
time: it checkpoints a process once its goldens are built
(:meth:`SimProcess.checkpoint`), and :meth:`SimProcess.restore` returns
it to that state after each probe; a new process is built only when
restore cannot prove that.

Fuel is the deterministic replacement for a wall-clock watchdog: simulated
libc loops consume one unit per byte processed, and exceeding the budget
raises :class:`~repro.errors.OutOfFuel`, which the sandbox classifies as a
HANG.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import OutOfFuel, ProcessExit, SegmentationFault
from repro.memory import AddressSpace, CallStack, HeapAllocator, Perm
from repro.memory.model import _PERM_WRITE
from repro.runtime.filesystem import SimFileSystem


#: 2003-01-01 00:00:00 UTC — the paper's publication year, where the
#: simulated wall clock of every process starts
SIM_EPOCH = 1041379200


class Errno:
    """POSIX errno values used by the simulated libc."""

    EPERM = 1
    ENOENT = 2
    EINTR = 4
    EIO = 5
    EBADF = 9
    ENOMEM = 12
    EACCES = 13
    EFAULT = 14
    EEXIST = 17
    EINVAL = 22
    ENFILE = 23
    EMFILE = 24
    ENOSPC = 28
    EPIPE = 32
    EDOM = 33
    ERANGE = 34
    ENAMETOOLONG = 36
    EOVERFLOW = 75

    #: upper bound used by profiling wrappers when bucketing by errno,
    #: mirroring MAX_ERRNO in the generated code of Fig. 3
    MAX_ERRNO = 128

    _NAMES: Dict[int, str] = {}

    @classmethod
    def name(cls, value: int) -> str:
        """Symbolic name for an errno value (or ``errno_<n>``)."""
        if not cls._NAMES:
            cls._NAMES = {
                v: k
                for k, v in vars(cls).items()
                if k.isupper() and isinstance(v, int) and k != "MAX_ERRNO"
            }
        return cls._NAMES.get(value, f"errno_{value}")


class _Checkpoint:
    """What :meth:`SimProcess.restore` checks against and returns to."""

    __slots__ = ("space", "heap", "stack", "fs", "layout", "heap_state",
                 "files", "fields")

    def __init__(self, process: "SimProcess",
                 previous: Optional["_Checkpoint"]):
        if process.stack.frames:
            raise ValueError("cannot checkpoint inside a call frame")
        self.space = process.space
        self.heap = process.heap
        self.stack = process.stack
        self.fs = process.fs
        #: the mappings, their perms and the bytes that may be non-zero
        self.layout = process.space.checkpoint(
            previous.layout if previous is not None else ())
        self.heap_state = process.heap.state()
        self.files = process.fs.copy()
        # every per-run field but the two restore requires to be None,
        # the tables last; named one by one as restore runs per probe
        p = process
        self.fields = (
            p._rodata_cursor, p._data_cursor, p._text_cursor, p.errno,
            p.fuel, p._fuel_used, p.exit_status, p.rand_state,
            p._strtok_state, p.sim_time, p._interned.copy(),
            p.environ.copy(), p._environ_ptrs.copy(), p._callbacks.copy(),
            p._time_statics.copy(), p._std_files.copy())


class SimProcess:
    """One simulated process instance.

    Parameters mirror what matters for the experiments: heap/stack sizes,
    whether allocator canaries and stack protection are on (security-wrapper
    policies), and the fuel budget (None = unlimited, for normal app runs).
    """

    def __init__(
        self,
        heap_size: int = 1 << 20,
        stack_size: int = 256 * 1024,
        heap_canaries: bool = False,
        stack_protect: bool = False,
        fuel: Optional[int] = None,
        environ: Optional[Dict[str, str]] = None,
    ):
        self.space = AddressSpace()
        #: read-only segment for interned string literals
        self.rodata = self.space.map_region(256 * 1024, Perm.READ, "[rodata]")
        #: writable data segment for statics (environ block, wrapper state)
        self.data = self.space.map_region(256 * 1024, Perm.RW, "[data]")
        self.heap = HeapAllocator(self.space, heap_size, canaries=heap_canaries)
        self.stack = CallStack(self.space, stack_size, protect=stack_protect)
        #: executable region backing simulated function pointers
        self.text = self.space.map_region(64 * 1024, Perm.RX, "[text]")
        self._rodata_cursor = self.rodata.start
        self._interned: Dict[bytes, int] = {}
        self._data_cursor = self.data.start
        self.errno = 0
        self.fuel = fuel
        self._fuel_used = 0
        self.exit_status: Optional[int] = None
        #: optional :class:`repro.robust.checks.CheckMemo` consulted by the
        #: wrapper check primitives; installed by the fused serving image,
        #: None everywhere else (the primitives then run unmemoized)
        self.check_memo = None
        #: optional ``(function, violation_kind)`` callback fired by the
        #: recovery ``degrade`` action; the serving layer's circuit
        #: breaker listens here, None everywhere else
        self.degrade_hook: Optional[Callable[[str, str], None]] = None
        self.environ: Dict[str, str] = dict(environ or {})
        self._environ_ptrs: Dict[str, int] = {}
        #: in-memory filesystem + FILE stream table (stdio family)
        self.fs = SimFileSystem()
        self._text_cursor = self.text.start
        self._callbacks: Dict[int, Callable] = {}
        #: PRNG state for rand()/srand()
        self.rand_state = 1
        #: the C library's hidden statics: strtok's saved cursor, the
        #: time functions' static buffers, the standard streams' FILE
        #: structs and the simulated wall clock
        self._strtok_state = 0
        self._time_statics: Dict[str, int] = {}
        self._std_files: Dict[int, int] = {}
        self.sim_time = SIM_EPOCH
        #: the one state :meth:`restore` returns to: this pristine one
        #: until :meth:`checkpoint` moves it
        self._target = _Checkpoint(self, None)

    def checkpoint(self) -> None:
        """Make the current state the one :meth:`restore` returns to.

        The deferred fork server: a campaign builds a function's golden
        arguments once, checkpoints, and restores each later probe of it
        here.  Memory is saved as each mapping's window of possibly
        non-zero bytes (:meth:`AddressSpace.checkpoint`); the allocator
        tables, file system and per-run fields, the C library's statics
        included, are copied.  No call frame may be live.
        """
        self._target = _Checkpoint(self, self._target)

    def restore(self) -> bool:
        """Return the process to its latest checkpoint, or to the state
        its constructor left when there is none.

        The fork-server half of probe isolation: instead of building a
        new process per probe, a campaign restores the previous one.
        Only what the last run could have touched is reset: each
        checkpointed mapping's write window is zeroed and its saved
        bytes copied back, mappings added since are dropped, the stack
        starts over with a new canary, and the allocator, file system
        and every per-run field return to their checkpointed values.
        ``epoch`` and ``mutations`` keep counting up, so no stamp-keyed
        memo can carry over.

        Returns False, leaving the process as it was, when it cannot
        prove the result equal to the checkpoint: a check memo or
        degrade hook is installed, an allocator or file-system fault
        hook is armed, a checkpointed mapping was unmapped or
        re-protected, or the space, heap, stack or file system was
        rebound.  The caller then builds a new process.
        """
        target = self._target
        heap = self.heap
        if (self.space is not target.space
                or heap is not target.heap
                or self.stack is not target.stack
                or self.fs is not target.fs
                or self.check_memo is not None
                or self.degrade_hook is not None
                or heap.fault_hook is not None
                or heap.post_alloc_hook is not None
                or self.fs.fault_hook is not None
                or not self.space.reset_layout(target.layout)):
            return False
        heap.set_state(target.heap_state)
        self.stack.reset()
        self.fs = target.fs = target.files.copy()
        (self._rodata_cursor, self._data_cursor, self._text_cursor,
         self.errno, self.fuel, self._fuel_used, self.exit_status,
         self.rand_state, self._strtok_state, self.sim_time,
         *tables) = target.fields
        (self._interned, self.environ, self._environ_ptrs, self._callbacks,
         self._time_statics, self._std_files) = [t.copy() for t in tables]
        return True

    # ------------------------------------------------------------------
    # simulated function pointers
    # ------------------------------------------------------------------

    def register_callback(self, fn: Callable) -> int:
        """Assign a code address to a Python callable.

        The address lands in the executable [text] mapping; calling through
        any other address simulates a jump to garbage and faults.
        """
        address = self._text_cursor
        if address + 16 > self.text.end:
            raise MemoryError("text segment exhausted")
        self._text_cursor += 16
        self._callbacks[address] = fn
        return address

    def resolve_callback(self, address: int) -> Callable:
        """Callable behind a simulated function pointer.

        Raises :class:`SegmentationFault` for NULL or non-code addresses —
        an indirect call through a corrupted pointer.
        """
        fn = self._callbacks.get(address)
        if fn is None:
            raise SegmentationFault(address, "exec", "call through invalid function pointer")
        return fn

    # ------------------------------------------------------------------
    # fuel
    # ------------------------------------------------------------------

    def consume(self, units: int = 1) -> None:
        """Burn ``units`` of fuel; raises OutOfFuel past the budget."""
        self._fuel_used += units
        if self.fuel is not None and self._fuel_used > self.fuel:
            raise OutOfFuel(self._fuel_used)

    def fuel_headroom(self) -> Optional[int]:
        """Units left before the budget trips (None = unlimited).

        Bulk libc paths use this to clamp their side effects to what the
        equivalent unit-at-a-time loop would have completed before running
        out of fuel.
        """
        if self.fuel is None:
            return None
        return max(self.fuel - self._fuel_used, 0)

    def consume_metered(self, units: int) -> None:
        """Burn ``units`` of fuel as ``units`` successive :meth:`consume` calls.

        A single ``consume(units)`` would overshoot the recorded usage when
        the budget trips mid-batch; this stops the meter at the first unit
        past the budget so ``OutOfFuel.consumed`` matches the scalar loop
        exactly.
        """
        if units <= 0:
            return
        if self.fuel is not None and self._fuel_used + units > self.fuel:
            self._fuel_used = self.fuel + 1
            raise OutOfFuel(self._fuel_used)
        self._fuel_used += units

    def claim_write(self, address: int, count: int):
        """Draw and record a ``count``-byte (>= 1) write at ``address``
        paid one unit per byte, and return the ``(data, offset)`` to
        assign it into; None, with no side effect, unless the write lies
        inside one writable mapping and the fuel headroom covers it.
        """
        data, offset, available = self.space.span(address, _PERM_WRITE)
        if available < count or (self.fuel is not None
                                 and self._fuel_used + count > self.fuel):
            return None
        self._fuel_used += count
        self.space.note_write(address, count)
        return data, offset

    @property
    def fuel_used(self) -> int:
        """Total fuel consumed so far."""
        return self._fuel_used

    # ------------------------------------------------------------------
    # allocation convenience
    # ------------------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Shorthand for ``self.heap.malloc``."""
        return self.heap.malloc(size)

    def free(self, address: int) -> None:
        """Shorthand for ``self.heap.free``."""
        self.heap.free(address)

    def alloc_bytes(self, data: bytes) -> int:
        """malloc a buffer holding ``data`` exactly (no terminator).

        Uses the fault-exempt allocation path: these helpers stand in
        for data a real binary carries statically, so chaos injection
        does not apply to them.
        """
        address = self.heap.reliable_malloc(max(len(data), 1))
        if address and data:
            self.space.write(address, data)
        return address

    def alloc_cstring(self, value: bytes) -> int:
        """malloc a buffer holding ``value`` plus a NUL terminator."""
        address = self.heap.reliable_malloc(len(value) + 1)
        if address:
            self.space.write_cstring(address, value)
        return address

    def alloc_buffer(self, size: int, fill: int = 0) -> int:
        """malloc ``size`` zero-filled (or ``fill``-filled) bytes."""
        address = self.heap.reliable_malloc(size)
        if address and size:
            self.space.fill(address, fill, size)
        return address

    def intern_cstring(self, value: bytes) -> int:
        """Place ``value`` in the read-only segment (a string literal)."""
        cached = self._interned.get(value)
        if cached is not None:
            return cached
        needed = len(value) + 1
        if self._rodata_cursor + needed > self.rodata.end:
            raise MemoryError("rodata segment exhausted")
        address = self._rodata_cursor
        # write through the mapping directly: rodata is not CPU-writable
        # (still counted as a content mutation for memo invalidation)
        self.space.note_write(address, needed, self.rodata)
        offset = address - self.rodata.start
        self.rodata.data[offset : offset + len(value)] = value
        self.rodata.data[offset + len(value)] = 0
        self._rodata_cursor += needed
        self._interned[value] = address
        return address

    def static_alloc(self, size: int, align: int = 16) -> int:
        """Carve ``size`` bytes out of the writable data segment."""
        cursor = (self._data_cursor + align - 1) & ~(align - 1)
        if cursor + size > self.data.end:
            raise MemoryError("data segment exhausted")
        self._data_cursor = cursor + size
        return cursor

    # ------------------------------------------------------------------
    # strings
    # ------------------------------------------------------------------

    def read_cstring(self, address: int, limit: Optional[int] = None) -> bytes:
        """Read a NUL-terminated string (delegates to the address space)."""
        return self.space.read_cstring(address, limit)

    # ------------------------------------------------------------------
    # environment & exit
    # ------------------------------------------------------------------

    def getenv_ptr(self, name: str) -> int:
        """Pointer to the value of environment variable ``name`` (0 if unset).

        Values are materialised in the data segment on first lookup, so the
        returned pointer stays valid, as getenv(3) guarantees.
        """
        if name not in self.environ:
            return 0
        if name not in self._environ_ptrs:
            value = self.environ[name].encode()
            address = self.static_alloc(len(value) + 1, align=1)
            self.space.write_cstring(address, value)
            self._environ_ptrs[name] = address
        return self._environ_ptrs[name]

    def setenv(self, name: str, value: str) -> None:
        """Set an environment variable (invalidates any cached pointer)."""
        self.environ[name] = value
        self._environ_ptrs.pop(name, None)

    def exit(self, status: int = 0) -> None:
        """Terminate the simulated process."""
        self.exit_status = status
        raise ProcessExit(status)
