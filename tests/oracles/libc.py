"""Per-byte libc bodies: the loops the vectorized bodies must match.

Each loop draws one fuel unit and makes one ``read``/``write`` per byte
(or wide character) in the C loop's order; loops the runtime still runs
for shapes its bulk paths defer are reused from ``repro.libc``.
:func:`scalar_registry` swaps every body in :data:`BODIES` for its loop;
the bodies it keeps reach bulk code only through :data:`HELPERS`.
"""

import functools

from repro.libc import standard_registry
from repro.libc.helpers import _bytewise_copy_string, _fold, int_result
from repro.libc.stdio_ import (
    STDIN_INDEX, STDOUT_INDEX, _bytewise_format_into, stream_index_of,
)
from repro.libc.string_ import _bytewise_strncpy
from repro.libc.time_ import _bytewise_strftime_scan, read_tm
from repro.libc.wchar_ import (
    WCHAR_SIZE, _bytewise_wcscpy, _bytewise_wcsncpy, read_wchar,
)
from repro.robust.checks import writable_extent
from repro.runtime.process import Errno
from repro.telemetry import SecurityEvent


def scan_string_length(proc, address):
    return scan_string_length_bounded(proc, address, None)


def scan_string_length_bounded(proc, address, maxlen):
    length = 0
    while maxlen is None or length < maxlen:
        proc.consume()
        if proc.space.read(address + length, 1)[0] == 0:
            return length
        length += 1
    return maxlen


def copy_bytes_forward(proc, dest, src, count):
    for offset in range(count):
        proc.consume()
        proc.space.write(dest + offset, proc.space.read(src + offset, 1))


def copy_bytes_backward(proc, dest, src, count):
    for offset in range(count - 1, -1, -1):
        proc.consume()
        proc.space.write(dest + offset, proc.space.read(src + offset, 1))


def compare_strings(proc, left, right, limit=None, fold_case=False):
    offset = 0
    while limit is None or offset < limit:
        proc.consume()
        a = proc.space.read(left + offset, 1)[0]
        b = proc.space.read(right + offset, 1)[0]
        if fold_case:
            a, b = _fold(a), _fold(b)
        if a != b:
            return a - b
        if a == 0:
            return 0
        offset += 1
    return 0


def read_string(proc, address):
    return proc.space.read_run(address, scan_string_length(proc, address))


#: ``repro.libc.helpers`` bulk helper -> its loop
HELPERS = {
    "scan_string_length": scan_string_length,
    "scan_string_length_bounded": scan_string_length_bounded,
    "copy_string": _bytewise_copy_string,
    "copy_bytes_forward": copy_bytes_forward,
    "copy_bytes_backward": copy_bytes_backward,
    "compare_strings": compare_strings,
    "read_string": read_string,
}


def _scan(proc, s, stop):
    """Address and value of the first byte that is NUL or ``stop``s."""
    cursor = s
    while True:
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
        if byte == 0 or stop(byte):
            return cursor, byte
        cursor += 1


def strchr(proc, s, c):
    cursor, byte = _scan(proc, s, lambda byte: byte == c & 0xFF)
    return cursor if byte == c & 0xFF else 0


def strrchr(proc, s, c):
    found = 0
    cursor = s
    while True:
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
        if byte == c & 0xFF:
            found = cursor
        if byte == 0:
            return found
        cursor += 1


def strstr(proc, haystack, needle):
    size = scan_string_length(proc, needle)
    if size == 0:
        return haystack
    needle_bytes = proc.space.read(needle, size)
    cursor = haystack
    while True:
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
        if byte == 0:
            return 0
        if (byte == needle_bytes[0]
                and proc.space.read(cursor, size) == needle_bytes):
            return cursor
        cursor += 1


def _span(proc, s, charset_at, accept):
    """Where strspn (``accept``) or strcspn/strpbrk stop, and the byte."""
    charset = set(proc.space.read(
        charset_at, scan_string_length(proc, charset_at)))
    return _scan(proc, s, lambda byte: (byte in charset) != accept)


def strpbrk(proc, s, accept):
    cursor, byte = _span(proc, s, accept, False)
    return cursor if byte else 0


def memmove(proc, dest, src, n):
    if dest > src:
        copy_bytes_backward(proc, dest, src, n)
    else:
        copy_bytes_forward(proc, dest, src, n)
    return dest


def memset(proc, s, c, n):
    for offset in range(n):
        proc.consume()
        proc.space.write(s + offset, bytes([c & 0xFF]))
    return s


def memcmp(proc, s1, s2, n):
    for offset in range(n):
        proc.consume()
        a = proc.space.read(s1 + offset, 1)[0]
        b = proc.space.read(s2 + offset, 1)[0]
        if a != b:
            return a - b
    return 0


def memchr(proc, s, c, n):
    for offset in range(n):
        proc.consume()
        if proc.space.read(s + offset, 1)[0] == c & 0xFF:
            return s + offset
    return 0


def fprintf(proc, stream, fmt, *args):
    index = stream_index_of(proc, stream)
    return _bytewise_format_into(
        proc, fmt, list(args), writer=lambda chunk: proc.fs.write(index, chunk))


def gets(proc, s):
    cursor = s
    read_any = False
    while True:
        proc.consume()
        data = proc.fs.read(STDIN_INDEX, 1)
        if not data:
            break
        read_any = True
        if data == b"\n":
            break
        proc.space.write(cursor, data)
        cursor += 1
    if not read_any:
        return 0
    proc.space.write(cursor, b"\x00")
    return s


def fgets(proc, s, size, stream):
    index = stream_index_of(proc, stream)
    cursor = s
    read_any = False
    while cursor - s < size - 1:
        proc.consume()
        data = proc.fs.read(index, 1)
        if data is None:
            proc.errno = Errno.EBADF
            return 0
        if not data:
            break
        read_any = True
        proc.space.write(cursor, data)
        cursor += 1
        if data == b"\n":
            break
    if not read_any:
        return 0
    proc.space.write(cursor, b"\x00")
    return s


def wcslen(proc, s):
    length = 0
    while read_wchar(proc, s + length * WCHAR_SIZE) != 0:
        length += 1
    return length


def wcscmp(proc, s1, s2):
    offset = 0
    while True:
        a = read_wchar(proc, s1 + offset)
        b = read_wchar(proc, s2 + offset)
        if a != b:
            return int_result(a - b, 32)
        if a == 0:
            return 0
        offset += WCHAR_SIZE


def wcschr(proc, s, c):
    cursor = s
    while True:
        value = read_wchar(proc, cursor)
        if value == c & 0xFFFFFFFF:
            return cursor
        if value == 0:
            return 0
        cursor += WCHAR_SIZE


def qsort(proc, base, nmemb, size, compar):
    if nmemb == 0:
        return 0
    comparator = proc.resolve_callback(compar)
    elements = []
    for index in range(nmemb):
        proc.consume(size if size > 0 else 1)
        elements.append(proc.space.read(base + index * size, size))
    scratch = proc.heap.malloc(max(size, 1) * 2)
    if scratch == 0:
        proc.errno = Errno.ENOMEM
        return 0

    def cmp(a, b):
        proc.consume()
        proc.space.write(scratch, a)
        proc.space.write(scratch + size, b)
        return comparator(proc, scratch, scratch + size)

    try:
        elements.sort(key=functools.cmp_to_key(cmp))
    finally:
        proc.heap.free(scratch)
    for index, element in enumerate(elements):
        proc.consume(size if size > 0 else 1)
        proc.space.write(base + index * size, element)
    return 0


def strftime(proc, s, max_, fmt, tm):
    rendered = _bytewise_strftime_scan(proc, fmt, read_tm(proc, tm))
    if len(rendered) + 1 > max_:
        return 0
    for offset, byte in enumerate(rendered):
        proc.consume()
        proc.space.write(s + offset, bytes([byte]))
    proc.space.write(s + len(rendered), b"\x00")
    return len(rendered)


#: registry name -> the loop its bulk body replaces
BODIES = {
    "strlen": lambda proc, s: scan_string_length(proc, s),
    "strnlen": scan_string_length_bounded,
    "strcpy": lambda proc, dest, src: (
        _bytewise_copy_string(proc, dest, src), dest)[1],
    "stpcpy": lambda proc, dest, src: (
        dest + _bytewise_copy_string(proc, dest, src)),
    "strncpy": lambda proc, dest, src, n: (
        _bytewise_strncpy(proc, dest, src, n), dest)[1],
    "strcmp": lambda proc, s1, s2: compare_strings(proc, s1, s2),
    "strcoll": lambda proc, s1, s2: compare_strings(proc, s1, s2),
    "strncmp": lambda proc, s1, s2, n: compare_strings(proc, s1, s2, n),
    "strcasecmp": lambda proc, s1, s2: compare_strings(
        proc, s1, s2, fold_case=True),
    "strncasecmp": lambda proc, s1, s2, n: compare_strings(
        proc, s1, s2, n, fold_case=True),
    "strchr": strchr,
    "strrchr": strrchr,
    "strstr": strstr,
    "strspn": lambda proc, s, accept: _span(proc, s, accept, True)[0] - s,
    "strcspn": lambda proc, s, reject: _span(proc, s, reject, False)[0] - s,
    "strpbrk": strpbrk,
    "memcpy": lambda proc, dest, src, n: (
        copy_bytes_forward(proc, dest, src, n), dest)[1],
    "memmove": memmove,
    "memset": memset,
    "memcmp": memcmp,
    "memchr": memchr,
    "sprintf": lambda proc, str_, fmt, *args: _bytewise_format_into(
        proc, fmt, list(args), out_address=str_),
    "snprintf": lambda proc, str_, size, fmt, *args: _bytewise_format_into(
        proc, fmt, list(args), limit=size,
        out_address=str_ if size > 0 else None),
    "printf": lambda proc, fmt, *args: _bytewise_format_into(
        proc, fmt, list(args),
        writer=lambda chunk: proc.fs.write(STDOUT_INDEX, chunk)),
    "fprintf": fprintf,
    "gets": gets,
    "fgets": fgets,
    "wcslen": wcslen,
    "wcscpy": _bytewise_wcscpy,
    "wcsncpy": _bytewise_wcsncpy,
    "wcscmp": wcscmp,
    "wcschr": wcschr,
    "qsort": qsort,
    "strftime": strftime,
}


def scalar_registry():
    """``standard_registry()`` with each bulk body replaced by its loop."""
    registry = standard_registry()
    for name, loop in BODIES.items():
        registry[name].impl = loop
    return registry


def safe_gets(frame, state, emit, violation_found):
    """``repro.security.guard._safe_gets`` with its byte loop."""
    proc = frame.process
    dest = frame.args[0] if frame.args else 0
    capacity = state.size_table.get(dest)
    if capacity is None:
        capacity = writable_extent(proc, dest)
    if capacity <= 0:
        violation_found(frame, "gets() destination is not writable",
                        "unsafe_gets")
        return
    frame.skip_call = True
    cursor = dest
    read_any = discarded = False
    while True:
        data = proc.fs.read(STDIN_INDEX, 1)
        if not data:
            break
        read_any = True
        if data == b"\n":
            break
        if cursor - dest < capacity - 1:
            proc.space.write(cursor, data)
            cursor += 1
        else:
            discarded = True  # drop overflow bytes instead of writing them
    if not read_any:
        frame.ret = 0
        return
    proc.space.write(cursor, b"\x00")
    if discarded:
        emit(SecurityEvent(function="gets",
                           reason=f"input truncated to {capacity - 1} bytes",
                           terminated=False))
    frame.ret = dest
