"""Simulated <stdlib.h> family.

Covers allocation (delegating to the process heap), numeric conversion,
integer arithmetic, searching/sorting with user callbacks, the PRNG, the
environment, and process termination.  Conversion functions scan their
input with naive byte loops (NULL or unterminated input faults/hangs);
``qsort``/``bsearch`` jump through their comparator pointer with no
validation, so a garbage function pointer faults like an indirect call to
a non-code address.
"""

from __future__ import annotations

from repro.errors import Aborted, OutOfFuel
from repro.libc import helpers
from repro.libc.registry import (
    LibcRegistry,
    libc_function,
    null_on_error,
)
from repro.memory.model import _PERM_READ, _PERM_WRITE
from repro.runtime.process import Errno, SimProcess

INT_MIN = -(2 ** 31)
INT_MAX = 2 ** 31 - 1
LONG_MIN = -(2 ** 63)
LONG_MAX = 2 ** 63 - 1
ULONG_MAX = 2 ** 64 - 1
RAND_MAX = 2 ** 31 - 1


def register(reg: LibcRegistry) -> None:
    """Register the stdlib family into ``reg``."""

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    @libc_function(reg, "void *malloc(size_t size)",
                   header="stdlib.h", category="alloc",
                   error_detector=null_on_error)
    def malloc(proc: SimProcess, size: int) -> int:
        """Allocate size bytes; NULL with ENOMEM on exhaustion."""
        proc.consume()
        address = proc.heap.malloc(size)
        if address == 0:
            proc.errno = Errno.ENOMEM
        return address

    @libc_function(reg, "void *calloc(size_t nmemb, size_t size)",
                   header="stdlib.h", category="alloc",
                   error_detector=null_on_error)
    def calloc(proc: SimProcess, nmemb: int, size: int) -> int:
        """Allocate and zero nmemb*size bytes (overflow checked first)."""
        proc.consume()
        address = proc.heap.calloc(nmemb, size)
        if address == 0:
            proc.errno = Errno.ENOMEM
        else:
            proc.consume(max(nmemb * size, 1))  # the zeroing loop
        return address

    @libc_function(reg, "void *realloc(void *ptr, size_t size)",
                   header="stdlib.h", category="alloc",
                   error_detector=null_on_error)
    def realloc(proc: SimProcess, ptr: int, size: int) -> int:
        """Resize an allocation; invalid ptr aborts (heap consistency)."""
        proc.consume()
        address = proc.heap.realloc(ptr, size)
        if address == 0 and size != 0:
            proc.errno = Errno.ENOMEM
        return address

    @libc_function(reg, "void free(void *ptr)",
                   header="stdlib.h", category="alloc")
    def free(proc: SimProcess, ptr: int) -> int:
        """Release an allocation; double/invalid free aborts."""
        proc.consume()
        proc.heap.free(ptr)
        return 0

    # ------------------------------------------------------------------
    # integer arithmetic
    # ------------------------------------------------------------------

    @libc_function(reg, "int abs(int j)", header="stdlib.h", category="math")
    def abs_(proc: SimProcess, j: int) -> int:
        """|j|; INT_MIN overflows back to INT_MIN, as in two's complement."""
        proc.consume()
        if j == INT_MIN:
            return INT_MIN
        return -j if j < 0 else j

    @libc_function(reg, "long labs(long j)", header="stdlib.h", category="math")
    def labs(proc: SimProcess, j: int) -> int:
        """|j| for long."""
        proc.consume()
        if j == LONG_MIN:
            return LONG_MIN
        return -j if j < 0 else j

    @libc_function(reg, "long long llabs(long long j)",
                   header="stdlib.h", category="math")
    def llabs(proc: SimProcess, j: int) -> int:
        """|j| for long long."""
        proc.consume()
        if j == LONG_MIN:
            return LONG_MIN
        return -j if j < 0 else j

    @libc_function(reg, "int div_quot(int numer, int denom)",
                   header="stdlib.h", category="math")
    def div_quot(proc: SimProcess, numer: int, denom: int) -> int:
        """Quotient field of div(); division by zero traps (SIGFPE)."""
        proc.consume()
        quotient = int(numer / denom)  # C truncates toward zero
        return quotient

    @libc_function(reg, "int div_rem(int numer, int denom)",
                   header="stdlib.h", category="math")
    def div_rem(proc: SimProcess, numer: int, denom: int) -> int:
        """Remainder field of div(); division by zero traps (SIGFPE)."""
        proc.consume()
        return numer - int(numer / denom) * denom

    # ------------------------------------------------------------------
    # numeric conversion
    # ------------------------------------------------------------------

    @libc_function(reg, "int atoi(const char *nptr)",
                   header="stdlib.h", category="convert")
    def atoi(proc: SimProcess, nptr: int) -> int:
        """Convert initial digits; no error reporting (silent on garbage)."""
        value = _strtol_scan(proc, nptr, 10)[0]
        return helpers.int_result(value, 32)

    @libc_function(reg, "long atol(const char *nptr)",
                   header="stdlib.h", category="convert")
    def atol(proc: SimProcess, nptr: int) -> int:
        """Convert initial digits to long."""
        value = _strtol_scan(proc, nptr, 10)[0]
        return helpers.int_result(value, 64)

    @libc_function(reg, "long long atoll(const char *nptr)",
                   header="stdlib.h", category="convert")
    def atoll(proc: SimProcess, nptr: int) -> int:
        """Convert initial digits to long long."""
        value = _strtol_scan(proc, nptr, 10)[0]
        return helpers.int_result(value, 64)

    @libc_function(reg,
                   "long strtol(const char *nptr, char **endptr, int base)",
                   header="stdlib.h", category="convert")
    def strtol(proc: SimProcess, nptr: int, endptr: int, base: int) -> int:
        """Conversion with overflow clamping, errno and end pointer."""
        if base != 0 and not (2 <= base <= 36):
            proc.errno = Errno.EINVAL
            if endptr:
                proc.space.write_ptr(endptr, nptr)
            return 0
        value, end = _strtol_scan(proc, nptr, base)
        if endptr:
            proc.space.write_ptr(endptr, end)
        if value > LONG_MAX:
            proc.errno = Errno.ERANGE
            return LONG_MAX
        if value < LONG_MIN:
            proc.errno = Errno.ERANGE
            return LONG_MIN
        return value

    @libc_function(reg,
                   "unsigned long strtoul(const char *nptr, char **endptr, int base)",
                   header="stdlib.h", category="convert")
    def strtoul(proc: SimProcess, nptr: int, endptr: int, base: int) -> int:
        """Unsigned conversion with ERANGE clamping."""
        if base != 0 and not (2 <= base <= 36):
            proc.errno = Errno.EINVAL
            if endptr:
                proc.space.write_ptr(endptr, nptr)
            return 0
        value, end = _strtol_scan(proc, nptr, base)
        if endptr:
            proc.space.write_ptr(endptr, end)
        if abs(value) > ULONG_MAX:
            proc.errno = Errno.ERANGE
            return ULONG_MAX
        return value & ULONG_MAX

    @libc_function(reg, "double atof(const char *nptr)",
                   header="stdlib.h", category="convert")
    def atof(proc: SimProcess, nptr: int) -> float:
        """Convert initial float text; silent on garbage."""
        return _strtod_scan(proc, nptr)[0]

    @libc_function(reg, "double strtod(const char *nptr, char **endptr)",
                   header="stdlib.h", category="convert")
    def strtod(proc: SimProcess, nptr: int, endptr: int) -> float:
        """Float conversion with end pointer."""
        value, end = _strtod_scan(proc, nptr)
        if endptr:
            proc.space.write_ptr(endptr, end)
        return value

    # ------------------------------------------------------------------
    # search / sort
    # ------------------------------------------------------------------

    @libc_function(reg,
                   "void qsort(void *base, size_t nmemb, size_t size, "
                   "int (*compar)(const void *, const void *))",
                   header="stdlib.h", category="algorithm")
    def qsort(proc: SimProcess, base: int, nmemb: int, size: int,
              compar: int) -> int:
        """In-place sort; calls through the comparator pointer blindly."""
        if nmemb == 0:
            return 0
        comparator = proc.resolve_callback(compar)
        if size > 0:
            elements = _gather(proc, base, nmemb, size)
        else:
            # no element bytes to move in bulk: the copy-in loop draws one
            # unit per element and reads whatever a size of 0 or less reads
            elements = []
            for index in range(nmemb):
                proc.consume()
                elements.append(proc.space.read(base + index * size, size))
        scratch = proc.heap.malloc(max(size, 1) * 2)
        if scratch == 0:
            proc.errno = Errno.ENOMEM
            return 0
        # both scratch elements go through one span resolved here and are
        # recorded as one write (counted as the two it is); a comparator
        # that maps or protects memory moves the epoch and sends the rest
        # of the sort back through ``space.write``
        space = proc.space
        both = 2 * size
        data, first, room = space.span(scratch, _PERM_WRITE)
        epoch = space.epoch if 0 < both <= room else -1
        mapping = space.find_mapping(scratch)
        note_write = space.note_write
        second = first + size
        end = second + size
        scratch_b = scratch + size
        fuel = proc.fuel
        try:
            import functools

            def cmp(a: bytes, b: bytes) -> int:
                proc._fuel_used += 1  # proc.consume(), inline
                if fuel is not None and proc._fuel_used > fuel:
                    raise OutOfFuel(proc._fuel_used)
                if space.epoch == epoch:
                    note_write(scratch, both, mapping)
                    space.mutations += 1
                    data[first:second] = a
                    data[second:end] = b
                else:
                    space.write(scratch, a)
                    space.write(scratch_b, b)
                return comparator(proc, scratch, scratch_b)

            elements.sort(key=functools.cmp_to_key(cmp))
        finally:
            proc.heap.free(scratch)
        if size > 0:
            _scatter(proc, base, elements, size)
            return 0
        for index, element in enumerate(elements):
            proc.consume()
            proc.space.write(base + index * size, element)
        return 0

    @libc_function(reg,
                   "void *bsearch(const void *key, const void *base, "
                   "size_t nmemb, size_t size, "
                   "int (*compar)(const void *, const void *))",
                   header="stdlib.h", category="algorithm",
                   error_detector=null_on_error)
    def bsearch(proc: SimProcess, key: int, base: int, nmemb: int,
                size: int, compar: int) -> int:
        """Binary search over a sorted array."""
        comparator = proc.resolve_callback(compar)
        lo, hi = 0, nmemb
        while lo < hi:
            proc.consume()
            mid = (lo + hi) // 2
            candidate = base + mid * size
            result = comparator(proc, key, candidate)
            if result == 0:
                return candidate
            if result < 0:
                hi = mid
            else:
                lo = mid + 1
        return 0

    # ------------------------------------------------------------------
    # PRNG
    # ------------------------------------------------------------------

    @libc_function(reg, "int rand(void)", header="stdlib.h", category="misc")
    def rand_(proc: SimProcess) -> int:
        """glibc-style TYPE_0 linear congruential generator."""
        proc.consume()
        proc.rand_state = (proc.rand_state * 1103515245 + 12345) & 0x7FFFFFFF
        return proc.rand_state

    @libc_function(reg, "void srand(unsigned int seed)",
                   header="stdlib.h", category="misc")
    def srand(proc: SimProcess, seed: int) -> int:
        """Seed the PRNG."""
        proc.consume()
        proc.rand_state = seed & 0xFFFFFFFF
        return 0

    # ------------------------------------------------------------------
    # environment / termination
    # ------------------------------------------------------------------

    @libc_function(reg, "char *getenv(const char *name)",
                   header="stdlib.h", category="env",
                   error_detector=null_on_error)
    def getenv(proc: SimProcess, name: int) -> int:
        """Pointer to the variable's value, or NULL."""
        text = proc.read_cstring(name).decode(errors="replace")
        for _ in text:
            proc.consume()
        return proc.getenv_ptr(text)

    @libc_function(reg, "int setenv(const char *name, const char *value, int overwrite)",
                   header="stdlib.h", category="env")
    def setenv(proc: SimProcess, name: int, value: int, overwrite: int) -> int:
        """Set an environment variable."""
        key = proc.read_cstring(name).decode(errors="replace")
        if not key or "=" in key:
            proc.errno = Errno.EINVAL
            return -1
        if key in proc.environ and not overwrite:
            return 0
        proc.setenv(key, proc.read_cstring(value).decode(errors="replace"))
        return 0

    @libc_function(reg, "void exit(int status)",
                   header="stdlib.h", category="process")
    def exit_(proc: SimProcess, status: int) -> int:
        """Terminate the process with the given status."""
        proc.exit(status & 0xFF)
        return 0  # unreachable

    @libc_function(reg, "void abort(void)",
                   header="stdlib.h", category="process")
    def abort_(proc: SimProcess) -> int:
        """Raise SIGABRT."""
        raise Aborted("abort() called")


def _strtol_scan(proc: SimProcess, nptr: int, base: int):
    """Shared integer-scan loop: skips space, handles sign/prefix/digits.

    Returns (value, end_pointer).  Reads byte-at-a-time with fuel, so NULL
    pointers fault and unterminated digit runs burn fuel.
    """
    cursor = nptr
    while True:
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
        if byte not in (0x20, 0x09, 0x0A, 0x0B, 0x0C, 0x0D):
            break
        cursor += 1
    sign = 1
    if byte in (0x2B, 0x2D):
        sign = -1 if byte == 0x2D else 1
        cursor += 1
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
    if base in (0, 16) and byte == 0x30:
        nxt = proc.space.read(cursor + 1, 1)[0]
        if nxt in (0x58, 0x78):
            probe = proc.space.read(cursor + 2, 1)[0]
            if _digit_value(probe) is not None and _digit_value(probe) < 16:
                base = 16
                cursor += 2
                byte = probe
        elif base == 0:
            base = 8
    if base == 0:
        base = 10
    value = 0
    digits = 0
    while True:
        digit = _digit_value(byte)
        if digit is None or digit >= base:
            break
        value = value * base + digit
        digits += 1
        cursor += 1
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
    if digits == 0:
        return (0, nptr)
    return (sign * value, cursor)


def _digit_value(byte: int):
    if 0x30 <= byte <= 0x39:
        return byte - 0x30
    if 0x41 <= byte <= 0x5A:
        return byte - 0x41 + 10
    if 0x61 <= byte <= 0x7A:
        return byte - 0x61 + 10
    return None


def _strtod_scan(proc: SimProcess, nptr: int):
    """Float scan: optional sign, digits, fraction, exponent."""
    cursor = nptr
    while True:
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
        if byte not in (0x20, 0x09, 0x0A, 0x0B, 0x0C, 0x0D):
            break
        cursor += 1
    start = cursor
    text = bytearray()
    if byte in (0x2B, 0x2D):
        text.append(byte)
        cursor += 1
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
    seen_digits = False
    seen_dot = False
    while True:
        if 0x30 <= byte <= 0x39:
            seen_digits = True
            text.append(byte)
        elif byte == 0x2E and not seen_dot:
            seen_dot = True
            text.append(byte)
        else:
            break
        cursor += 1
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
    if seen_digits and byte in (0x45, 0x65):
        mark = cursor
        exp = bytearray([byte])
        cursor += 1
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
        if byte in (0x2B, 0x2D):
            exp.append(byte)
            cursor += 1
            proc.consume()
            byte = proc.space.read(cursor, 1)[0]
        exp_digits = False
        while 0x30 <= byte <= 0x39:
            exp_digits = True
            exp.append(byte)
            cursor += 1
            proc.consume()
            byte = proc.space.read(cursor, 1)[0]
        if exp_digits:
            text.extend(exp)
        else:
            cursor = mark
    if not seen_digits:
        return (0.0, nptr)
    del start
    return (float(text.decode()), cursor)


# ----------------------------------------------------------------------
# qsort's element loops in bulk
# ----------------------------------------------------------------------

def _whole_elements(proc: SimProcess, base: int, nmemb: int, size: int,
                    perm: int) -> int:
    """Leading elements a one-element ``read``/``write`` accepts.

    Each element access must lie inside one mapping with ``perm``, so an
    element straddling two adjacent mappings stops the run.
    """
    space = proc.space
    count = 0
    cursor = base
    while count < nmemb:
        mapping = space.find_mapping(cursor)
        if mapping is None or not (mapping.perm_bits & perm):
            break
        count = min(nmemb, count + (mapping.end - cursor) // size)
        cursor = base + count * size
        if cursor < mapping.end:
            break
    return count


def _stop_index(proc: SimProcess, nmemb: int, size: int,
                reachable: int) -> int:
    """The element an element loop drawing ``consume(size)`` stops at.

    The loop stops at that element's ``consume`` when the budget trips
    there, else at its access, which faults; ``nmemb`` means the loop
    runs to completion.
    """
    stop = min(nmemb, reachable)
    headroom = proc.fuel_headroom()
    if headroom is not None:
        stop = min(stop, headroom // size)
    return stop


def _gather(proc: SimProcess, base: int, nmemb: int, size: int) -> list:
    """qsort's copy-in loop: ``consume(size)``, then read one element.

    ``consume`` is not metered, so a budget that trips mid-loop records
    the whole element's units past the budget, as the loop does.
    """
    space = proc.space
    reachable = _whole_elements(proc, base, nmemb, size, _PERM_READ)
    stop = _stop_index(proc, nmemb, size, reachable)
    if stop < nmemb:
        proc.consume((stop + 1) * size)
        space.read(base + stop * size, size)
        raise AssertionError("qsort replay neither tripped nor faulted")
    proc.consume(nmemb * size)
    data = space.read_run(base, nmemb * size)
    return [data[offset : offset + size]
            for offset in range(0, nmemb * size, size)]


def _scatter(proc: SimProcess, base: int, elements: list, size: int) -> None:
    """qsort's copy-out loop: ``consume(size)``, then write one element."""
    space = proc.space
    nmemb = len(elements)
    reachable = _whole_elements(proc, base, nmemb, size, _PERM_WRITE)
    stop = _stop_index(proc, nmemb, size, reachable)
    if stop:
        space.write_run(base, b"".join(elements[:stop]))
    if stop < nmemb:
        proc.consume((stop + 1) * size)
        space.write(base + stop * size, elements[stop])
        raise AssertionError("qsort replay neither tripped nor faulted")
    proc.consume(nmemb * size)
