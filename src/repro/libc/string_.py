"""Simulated <string.h> (plus <strings.h>) family.

Implementations follow the C standard's *documented* behaviour and inherit
the C standard's *undocumented* fragility: NULL or garbage pointers are
dereferenced, unterminated strings are scanned off the end of their
buffer, and destination bounds are never checked.  The HEALERS pipeline
exists to discover and contain exactly these behaviours, so hardening them
here would invalidate the reproduction.
"""

from __future__ import annotations

from repro.libc import helpers
from repro.libc.registry import LibcRegistry, libc_function, null_on_error
from repro.memory.model import _PERM_READ
from repro.runtime.process import Errno, SimProcess

_ERRNO_MESSAGES = {
    0: b"Success",
    Errno.EPERM: b"Operation not permitted",
    Errno.ENOENT: b"No such file or directory",
    Errno.EIO: b"Input/output error",
    Errno.EBADF: b"Bad file descriptor",
    Errno.ENOMEM: b"Cannot allocate memory",
    Errno.EACCES: b"Permission denied",
    Errno.EFAULT: b"Bad address",
    Errno.EINVAL: b"Invalid argument",
    Errno.ERANGE: b"Numerical result out of range",
    Errno.EDOM: b"Numerical argument out of domain",
}


def register(reg: LibcRegistry) -> None:
    """Register the string family into ``reg``."""

    @libc_function(reg, "size_t strlen(const char *s)",
                   header="string.h", category="string")
    def strlen(proc: SimProcess, s: int) -> int:
        """Length of the NUL-terminated string at s."""
        return helpers.scan_string_length(proc, s)

    @libc_function(reg, "size_t strnlen(const char *s, size_t maxlen)",
                   header="string.h", category="string")
    def strnlen(proc: SimProcess, s: int, maxlen: int) -> int:
        """Length of s, scanning at most maxlen bytes."""
        return helpers.scan_string_length_bounded(proc, s, maxlen)

    @libc_function(reg, "char *strcpy(char *dest, const char *src)",
                   header="string.h", category="string")
    def strcpy(proc: SimProcess, dest: int, src: int) -> int:
        """Copy src (including NUL) into dest; no bounds check."""
        helpers.copy_string(proc, dest, src)
        return dest

    @libc_function(reg, "char *stpcpy(char *dest, const char *src)",
                   header="string.h", category="string")
    def stpcpy(proc: SimProcess, dest: int, src: int) -> int:
        """Like strcpy but returns a pointer to dest's terminating NUL."""
        copied = helpers.copy_string(proc, dest, src)
        return dest + copied

    @libc_function(reg, "char *strncpy(char *dest, const char *src, size_t n)",
                   header="string.h", category="string")
    def strncpy(proc: SimProcess, dest: int, src: int, n: int) -> int:
        """Copy at most n bytes; pads dest with NULs to length n."""
        space = proc.space
        if n <= 0:
            return dest
        if src < dest < src + n:
            # overlapping forward copy re-reads freshly written bytes; only
            # the loop itself reproduces that faithfully
            _bytewise_strncpy(proc, dest, src, n)
            return dest
        data, offset, available = space.span(src, _PERM_READ)
        nul = data.find(0, offset, offset + min(n, available))
        if nul >= 0 or available >= n:
            copy_n = n if nul < 0 else nul - offset + 1
            target = proc.claim_write(dest, n)
            if target is not None:
                buffer, base = target
                buffer[base:base + copy_n] = data[offset:offset + copy_n]
                buffer[base + copy_n:base + n] = bytes(n - copy_n)
                return dest
        index, scanned = space.find_byte(src, 0, n)
        if index is not None:
            copy_n, read_ok = index + 1, True
        elif scanned >= n:
            copy_n, read_ok = n, True
        else:
            copy_n, read_ok = scanned, False  # read faults at src + scanned
        writable = space.writable_run(dest, n)
        complete = read_ok and writable >= n
        if complete:
            stop = n
        elif not read_ok and copy_n <= writable:
            stop = copy_n  # the read at src + copy_n faults
        else:
            stop = writable  # the write at dest + writable faults
        headroom = proc.fuel_headroom()
        side = stop if headroom is None else min(stop, headroom)
        copied = min(side, copy_n)
        if copied:
            space.write_run(dest, space.read_run(src, copied))
        if side > copied:
            space.fill_run(dest + copied, 0, side - copied)
        if complete:
            proc.consume_metered(n)
            return dest
        proc.consume_metered(stop + 1)
        if not read_ok and copy_n <= writable:
            space.read(src + copy_n, 1)
        else:
            space.write(dest + writable, b"\x00")
        raise AssertionError("strncpy fault replay did not fault")

    @libc_function(reg, "char *strcat(char *dest, const char *src)",
                   header="string.h", category="string")
    def strcat(proc: SimProcess, dest: int, src: int) -> int:
        """Append src to dest; no bounds check."""
        end = dest + helpers.scan_string_length(proc, dest)
        helpers.copy_string(proc, end, src)
        return dest

    @libc_function(reg, "char *strncat(char *dest, const char *src, size_t n)",
                   header="string.h", category="string")
    def strncat(proc: SimProcess, dest: int, src: int, n: int) -> int:
        """Append at most n bytes of src to dest, then a NUL."""
        end = dest + helpers.scan_string_length(proc, dest)
        offset = 0
        while offset < n:
            proc.consume()
            byte = proc.space.read(src + offset, 1)[0]
            if byte == 0:
                break
            proc.space.write(end + offset, bytes([byte]))
            offset += 1
        proc.space.write(end + offset, b"\x00")
        return dest

    @libc_function(reg, "int strcmp(const char *s1, const char *s2)",
                   header="string.h", category="string")
    def strcmp(proc: SimProcess, s1: int, s2: int) -> int:
        """Lexicographic comparison."""
        return helpers.compare_strings(proc, s1, s2)

    @libc_function(reg, "int strncmp(const char *s1, const char *s2, size_t n)",
                   header="string.h", category="string")
    def strncmp(proc: SimProcess, s1: int, s2: int, n: int) -> int:
        """Comparison over at most n bytes."""
        return helpers.compare_strings(proc, s1, s2, limit=n)

    @libc_function(reg, "int strcasecmp(const char *s1, const char *s2)",
                   header="strings.h", category="string")
    def strcasecmp(proc: SimProcess, s1: int, s2: int) -> int:
        """Case-insensitive comparison."""
        return helpers.compare_strings(proc, s1, s2, fold_case=True)

    @libc_function(reg,
                   "int strncasecmp(const char *s1, const char *s2, size_t n)",
                   header="strings.h", category="string")
    def strncasecmp(proc: SimProcess, s1: int, s2: int, n: int) -> int:
        """Case-insensitive comparison over at most n bytes."""
        return helpers.compare_strings(proc, s1, s2, limit=n, fold_case=True)

    @libc_function(reg, "int strcoll(const char *s1, const char *s2)",
                   header="string.h", category="string")
    def strcoll(proc: SimProcess, s1: int, s2: int) -> int:
        """Locale-aware comparison (C locale: same as strcmp)."""
        return helpers.compare_strings(proc, s1, s2)

    @libc_function(reg, "char *strchr(const char *s, int c)",
                   header="string.h", category="string",
                   error_detector=null_on_error)
    def strchr(proc: SimProcess, s: int, c: int) -> int:
        """First occurrence of (char)c in s, or NULL."""
        space = proc.space
        # only the bytes up to the terminator can hold the target; the
        # loop tests it before the terminator, so a tie goes to the target
        data, offset, available = space.span(s, _PERM_READ)
        nul = data.find(0, offset, offset + available)
        if nul >= 0:
            hit = data.find(c & 0xFF, offset, nul + 1)
            proc.consume_metered((nul if hit < 0 else hit) - offset + 1)
            return 0 if hit < 0 else s + hit - offset
        # unterminated in its first mapping: the run helpers cross into
        # the next one and replay the fault
        nul, scanned = space.find_byte(s, 0)
        hit, _ = space.find_byte(s, c, scanned)
        if hit is not None:
            proc.consume_metered(hit + 1)
            return s + hit
        if nul is not None:
            proc.consume_metered(nul + 1)
            return 0
        proc.consume_metered(scanned + 1)
        space.read(s + scanned, 1)
        raise AssertionError("strchr fault replay did not fault")

    @libc_function(reg, "char *strrchr(const char *s, int c)",
                   header="string.h", category="string",
                   error_detector=null_on_error)
    def strrchr(proc: SimProcess, s: int, c: int) -> int:
        """Last occurrence of (char)c in s, or NULL."""
        target = c & 0xFF
        space = proc.space
        nul, scanned = space.find_byte(s, 0)
        if nul is None:
            proc.consume_metered(scanned + 1)
            space.read(s + scanned, 1)
            raise AssertionError("strrchr fault replay did not fault")
        proc.consume_metered(nul + 1)
        if target == 0:
            return s + nul
        position = space.read_run(s, nul).rfind(target)
        return s + position if position >= 0 else 0

    @libc_function(reg, "char *strstr(const char *haystack, const char *needle)",
                   header="string.h", category="string",
                   error_detector=null_on_error)
    def strstr(proc: SimProcess, haystack: int, needle: int) -> int:
        """First occurrence of needle in haystack, or NULL."""
        needle_bytes = helpers.read_string(proc, needle)
        if not needle_bytes:
            return haystack
        return _bulk_strstr(proc, haystack, needle_bytes)

    @libc_function(reg, "size_t strspn(const char *s, const char *accept)",
                   header="string.h", category="string")
    def strspn(proc: SimProcess, s: int, accept: int) -> int:
        """Length of the initial segment of s made of accept's bytes."""
        accept_set = set(helpers.read_string(proc, accept))
        return _bulk_span(proc, s, accept_set, True)[0]

    @libc_function(reg, "size_t strcspn(const char *s, const char *reject)",
                   header="string.h", category="string")
    def strcspn(proc: SimProcess, s: int, reject: int) -> int:
        """Length of the initial segment of s free of reject's bytes."""
        reject_set = set(helpers.read_string(proc, reject))
        return _bulk_span(proc, s, reject_set, False)[0]

    @libc_function(reg, "char *strpbrk(const char *s, const char *accept)",
                   header="string.h", category="string",
                   error_detector=null_on_error)
    def strpbrk(proc: SimProcess, s: int, accept: int) -> int:
        """First byte of s that is in accept, or NULL."""
        accept_set = set(helpers.read_string(proc, accept))
        index, hit = _bulk_span(proc, s, accept_set, False)
        return s + index if hit else 0

    @libc_function(reg, "char *strdup(const char *s)",
                   header="string.h", category="string",
                   error_detector=null_on_error)
    def strdup(proc: SimProcess, s: int) -> int:
        """malloc'd copy of s; NULL with ENOMEM on exhaustion."""
        length = helpers.scan_string_length(proc, s)
        copy = proc.heap.malloc(length + 1)
        if copy == 0:
            proc.errno = Errno.ENOMEM
            return 0
        helpers.copy_string(proc, copy, s)
        return copy

    @libc_function(reg, "char *strndup(const char *s, size_t n)",
                   header="string.h", category="string",
                   error_detector=null_on_error)
    def strndup(proc: SimProcess, s: int, n: int) -> int:
        """malloc'd copy of at most n bytes of s, always terminated."""
        length = helpers.scan_string_length_bounded(proc, s, n)
        copy = proc.heap.malloc(length + 1)
        if copy == 0:
            proc.errno = Errno.ENOMEM
            return 0
        proc.space.write(copy, proc.space.read(s, length))
        proc.space.write(copy + length, b"\x00")
        return copy

    @libc_function(reg, "char *strtok(char *str, const char *delim)",
                   header="string.h", category="string",
                   error_detector=null_on_error)
    def strtok(proc: SimProcess, str_: int, delim: int) -> int:
        """Stateful tokeniser (state lives in the process, like libc's)."""
        return _strtok_impl(proc, str_, delim, save_ptr=None)

    @libc_function(reg,
                   "char *strtok_r(char *str, const char *delim, char **saveptr)",
                   header="string.h", category="string",
                   error_detector=null_on_error)
    def strtok_r(proc: SimProcess, str_: int, delim: int, saveptr: int) -> int:
        """Re-entrant tokeniser; saveptr is dereferenced unconditionally."""
        return _strtok_impl(proc, str_, delim, save_ptr=saveptr)

    @libc_function(reg, "void *memcpy(void *dest, const void *src, size_t n)",
                   header="string.h", category="memory")
    def memcpy(proc: SimProcess, dest: int, src: int, n: int) -> int:
        """Copy n bytes; overlap is undefined (we copy forward)."""
        helpers.copy_bytes_forward(proc, dest, src, n)
        return dest

    @libc_function(reg, "void *memmove(void *dest, const void *src, size_t n)",
                   header="string.h", category="memory")
    def memmove(proc: SimProcess, dest: int, src: int, n: int) -> int:
        """Overlap-safe copy of n bytes."""
        if dest > src:
            helpers.copy_bytes_backward(proc, dest, src, n)
        else:
            helpers.copy_bytes_forward(proc, dest, src, n)
        return dest

    @libc_function(reg, "void *memset(void *s, int c, size_t n)",
                   header="string.h", category="memory")
    def memset(proc: SimProcess, s: int, c: int, n: int) -> int:
        """Fill n bytes with (unsigned char)c."""
        if n <= 0:
            return s
        target = proc.claim_write(s, n)
        if target is not None:
            buffer, base = target
            buffer[base:base + n] = bytes([c & 0xFF]) * n
            return s
        space = proc.space
        writable = space.writable_run(s, n)
        headroom = proc.fuel_headroom()
        if writable >= n:
            side = n if headroom is None else min(n, headroom)
            if side:
                space.fill_run(s, c & 0xFF, side)
            proc.consume_metered(n)
            return s
        side = writable if headroom is None else min(writable, headroom)
        if side:
            space.fill_run(s, c & 0xFF, side)
        proc.consume_metered(writable + 1)
        space.write(s + writable, b"\x00")
        raise AssertionError("memset fault replay did not fault")

    @libc_function(reg, "int memcmp(const void *s1, const void *s2, size_t n)",
                   header="string.h", category="memory")
    def memcmp(proc: SimProcess, s1: int, s2: int, n: int) -> int:
        """Compare n bytes."""
        return helpers.compare_strings(proc, s1, s2, limit=n,
                                       stop_at_nul=False)

    @libc_function(reg, "void *memchr(const void *s, int c, size_t n)",
                   header="string.h", category="memory",
                   error_detector=null_on_error)
    def memchr(proc: SimProcess, s: int, c: int, n: int) -> int:
        """First occurrence of (unsigned char)c in the first n bytes."""
        target = c & 0xFF
        if n <= 0:
            return 0
        space = proc.space
        index, scanned = space.find_byte(s, target, n)
        if index is not None:
            proc.consume_metered(index + 1)
            return s + index
        if scanned >= n:
            proc.consume_metered(n)
            return 0
        proc.consume_metered(scanned + 1)
        space.read(s + scanned, 1)
        raise AssertionError("memchr fault replay did not fault")

    @libc_function(reg, "char *strerror(int errnum)",
                   header="string.h", category="string")
    def strerror(proc: SimProcess, errnum: int) -> int:
        """Message string for an errno value (interned, read-only)."""
        message = _ERRNO_MESSAGES.get(errnum)
        if message is None:
            message = b"Unknown error %d" % errnum
        return proc.intern_cstring(message)


def _bytewise_strncpy(proc: SimProcess, dest: int, src: int, n: int) -> None:
    offset = 0
    terminated = False
    while offset < n:
        proc.consume()
        if terminated:
            proc.space.write(dest + offset, b"\x00")
        else:
            byte = proc.space.read(src + offset, 1)[0]
            proc.space.write(dest + offset, bytes([byte]))
            if byte == 0:
                terminated = True
        offset += 1


def _haystack(proc: SimProcess, s: int):
    """Prefetch the bytes a one-unit-per-byte scan of ``s`` can reach.

    Returns ``(data, terminated)``: the non-NUL bytes before the
    terminator, or before the first unreadable byte or the fuel headroom
    (the loop draws one unit before each read, so it never reads the
    byte at the headroom).
    """
    space = proc.space
    index, scanned = space.find_byte(s, 0, proc.fuel_headroom())
    if index is not None:
        return space.read_run(s, index), True
    return space.read_run(s, scanned), False


def _scan_ended(proc: SimProcess, s: int, span: int, terminated: bool):
    """Charge a scan that ran through ``span`` bytes without stopping.

    At a terminator the loop stops after ``span + 1`` units; otherwise
    its next unit trips the budget or its next read faults.
    """
    proc.consume_metered(span + 1)
    if not terminated:
        proc.space.read(s + span, 1)
        raise AssertionError("scan fault replay did not fault")


def _bulk_strstr(proc: SimProcess, haystack: int, needle_bytes: bytes) -> int:
    """strstr's first-byte scan as a haystack prefetch plus ``bytes.find``.

    The loop reads ``len(needle)`` bytes with one ``read`` at each
    first-byte match; that read faults when the window leaves its
    mapping.  A candidate whose window lies inside the prefetch and
    inside one mapping is decided by the prefetched bytes; the others
    (near a mapping edge or the prefetch end) replay the loop's read.
    """
    space = proc.space
    data, terminated = _haystack(proc, haystack)
    span = len(data)
    size = len(needle_bytes)
    first = needle_bytes[0]
    # segment ends: the prefetch end and every mapping edge inside it
    edges = []
    cursor = haystack
    while cursor < haystack + span:
        cursor = space.find_mapping(cursor).end
        edges.append(min(cursor, haystack + span) - haystack)
    start = 0
    for edge in edges:
        safe = edge - size + 1  # candidates before this fit the segment
        if safe > start:
            found = data.find(needle_bytes, start, edge)
            if found >= 0:
                proc.consume_metered(found + 1)
                return haystack + found
        position = data.find(first, max(start, safe), edge)
        while position >= 0:
            candidate = haystack + position
            mapping = space.find_mapping(candidate)
            if candidate + size > mapping.end:
                proc.consume_metered(position + 1)
                space.read(candidate, size)
                raise AssertionError("strstr fault replay did not fault")
            offset = candidate - mapping.start
            if mapping.data[offset : offset + size] == needle_bytes:
                proc.consume_metered(position + 1)
                return candidate
            position = data.find(first, position + 1, edge)
        start = edge
    _scan_ended(proc, haystack, span, terminated)
    return 0


def _bulk_span(proc: SimProcess, s: int, charset, accept: bool):
    """The strspn/strcspn/strpbrk scan over a prefetched run.

    Stops at the terminator or at the first byte whose membership in
    ``charset`` differs from ``accept``.  Returns ``(index, hit)``:
    ``hit`` is True when a non-NUL byte stopped the scan.
    """
    data, terminated = _haystack(proc, s)
    skip = bytes(charset) if accept else bytes(
        byte for byte in range(1, 256) if byte not in charset)
    index = len(data) - len(data.lstrip(skip))
    if index < len(data):
        proc.consume_metered(index + 1)
        return index, True
    _scan_ended(proc, s, index, terminated)
    return index, False


def _strtok_impl(proc: SimProcess, str_: int, delim: int, save_ptr) -> int:
    """Common strtok/strtok_r body.

    For plain strtok the continuation pointer is stored on the process
    object (global state, like libc's hidden static); for strtok_r it is
    read from and written through ``save_ptr`` with no validation.
    """
    if save_ptr is None:
        cursor = str_ if str_ != 0 else proc._strtok_state
    else:
        cursor = str_ if str_ != 0 else proc.space.read_ptr(save_ptr)
    if cursor == 0:
        return 0
    delim_set = set(helpers.read_string(proc, delim))
    # skip leading delimiters
    while True:
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
        if byte == 0:
            _store_strtok_state(proc, save_ptr, 0)
            return 0
        if byte not in delim_set:
            break
        cursor += 1
    token = cursor
    while True:
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
        if byte == 0:
            _store_strtok_state(proc, save_ptr, 0)
            return token
        if byte in delim_set:
            proc.space.write(cursor, b"\x00")
            _store_strtok_state(proc, save_ptr, cursor + 1)
            return token
        cursor += 1


def _store_strtok_state(proc: SimProcess, save_ptr, value: int) -> None:
    if save_ptr is None:
        proc._strtok_state = value
    else:
        proc.space.write_ptr(save_ptr, value)
