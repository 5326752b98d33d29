"""Simulated <stdio.h> family.

Streams are ``FILE *`` heap allocations holding a magic number and an
index into the process's stream table (see
:mod:`repro.runtime.filesystem`); a garbage ``FILE *`` is dereferenced and
faults or fails the magic check, as glibc's ``_IO_FILE`` vtable access
would.

The formatting engine supports the printf subset that C-library workloads
actually use — including ``%n``, which the security wrapper's
format-string policy must be able to block, and unbounded ``sprintf``/
``gets``, the canonical overflow vectors.
"""

from __future__ import annotations

from typing import List

from repro.errors import SegmentationFault
from repro.libc import helpers
from repro.libc.registry import (
    LibcRegistry,
    libc_function,
    negative_on_error,
    null_on_error,
)
from repro.memory.model import _PERM_READ, _PERM_WRITE
from repro.runtime.filesystem import (
    FILE_MAGIC,
    FILE_STRUCT_SIZE,
    STDIN_INDEX,
    STDOUT_INDEX,
)
from repro.runtime.process import Errno, SimProcess

EOF = -1


# ----------------------------------------------------------------------
# FILE* plumbing
# ----------------------------------------------------------------------

def make_file_struct(proc: SimProcess, stream_index: int) -> int:
    """Allocate a FILE structure bound to ``stream_index``."""
    address = proc.heap.malloc(FILE_STRUCT_SIZE)
    if address == 0:
        return 0
    proc.space.write_u32(address, FILE_MAGIC)
    proc.space.write_u32(address + 4, stream_index)
    proc.space.write_u32(address + 8, 0)
    proc.space.write_u32(address + 12, 0)
    return address


def stream_index_of(proc: SimProcess, file_ptr: int) -> int:
    """Dereference a FILE*; faults on garbage, like vtable access would."""
    magic = proc.space.read_u32(file_ptr)
    if magic != FILE_MAGIC:
        # glibc chases _IO_jump_t through the corrupted struct and faults
        raise SegmentationFault(file_ptr, "read", "not a FILE structure")
    return proc.space.read_u32(file_ptr + 4)


def std_stream(proc: SimProcess, which: int) -> int:
    """FILE* for stdin/stdout/stderr, created lazily per process."""
    cache = proc._std_files
    if which not in cache:
        cache[which] = make_file_struct(proc, which)
    return cache[which]


# ----------------------------------------------------------------------
# printf engine
# ----------------------------------------------------------------------

def format_into(proc: SimProcess, fmt: int, args: List, limit=None,
                out_address=None, writer=None) -> int:
    """Render a printf format.

    Either writes bytes at ``out_address`` (sprintf semantics: unbounded
    unless ``limit``) or hands chunks to ``writer`` (fprintf semantics).
    Returns the number of bytes that *would* have been produced, per C99
    snprintf.  Supports ``%d %i %u %x %X %o %c %s %p %f %g %e %%`` and
    ``%n``, with ``-``/``0`` flags, width, precision and ``l``/``ll``/``z``
    length modifiers.

    The engine renders from a prefetched copy of the format with chunked
    emission, under any fuel budget: same bytes, same fuel, same
    ``OutOfFuel`` and fault addresses as the per-byte loop below, which
    runs only for the few format shapes the prefetch cannot represent.
    """
    result = _bulk_format_into(proc, fmt, args, limit, out_address, writer)
    if result is not None:
        return result
    return _bytewise_format_into(proc, fmt, args, limit, out_address, writer)


def _bytewise_format_into(proc: SimProcess, fmt: int, args: List, limit=None,
                          out_address=None, writer=None, resume=None) -> int:
    """Per-byte printf engine (exact fuel/fault interleaving).

    :func:`_bulk_format_into` defers to it for a directive cut off at
    the end of the readable format, and hands the rest of a call over
    to it after a write onto format bytes not yet read.

    ``resume`` is ``(cursor, produced, arg_index, pending)``: the state
    at which the bulk engine hands over, ``pending`` being the rendered
    bytes of the current directive that are still to be emitted.
    """
    produced = 0
    arg_index = 0
    cursor = fmt

    def emit(chunk: bytes) -> None:
        nonlocal produced
        for byte in chunk:
            proc.consume()
            if writer is not None:
                writer(bytes([byte]))
            elif out_address is not None:
                if limit is None or produced < limit - 1:
                    proc.space.write(out_address + produced, bytes([byte]))
            produced += 1

    if resume is not None:
        cursor, produced, arg_index, pending = resume
        emit(pending)
    while True:
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
        cursor += 1
        if byte == 0:
            break
        if byte != 0x25:  # '%'
            emit(bytes([byte]))
            continue
        spec, cursor = _parse_spec(proc, cursor)
        if spec.conversion == "%":
            emit(b"%")
            continue
        if spec.conversion == "n":
            if arg_index >= len(args):
                raise SegmentationFault(0, "read", "va_arg past end of arguments")
            proc.space.write_i32(args[arg_index], produced)
            arg_index += 1
            continue
        if arg_index >= len(args):
            # reading a missing vararg picks up garbage; in practice
            # printf with too few arguments reads a wild stack slot
            raise SegmentationFault(0, "read", "va_arg past end of arguments")
        value = args[arg_index]
        arg_index += 1
        emit(_render(proc, spec, value))
    if out_address is not None and (limit is None or limit > 0):
        terminator_at = out_address + min(produced, (limit - 1) if limit else produced)
        proc.space.write(terminator_at, b"\x00")
    return produced


class _Spec:
    __slots__ = ("flags", "width", "precision", "length", "conversion")

    def __init__(self):
        self.flags = ""
        self.width = 0
        self.precision = None
        self.length = ""
        self.conversion = ""


def _parse_spec(proc: SimProcess, cursor: int):
    spec = _Spec()
    while True:
        byte = proc.space.read(cursor, 1)[0]
        if chr(byte) in "-0+ #":
            spec.flags += chr(byte)
            cursor += 1
        else:
            break
    while 0x30 <= byte <= 0x39:
        spec.width = spec.width * 10 + (byte - 0x30)
        cursor += 1
        byte = proc.space.read(cursor, 1)[0]
    if byte == 0x2E:  # '.'
        cursor += 1
        spec.precision = 0
        byte = proc.space.read(cursor, 1)[0]
        while 0x30 <= byte <= 0x39:
            spec.precision = spec.precision * 10 + (byte - 0x30)
            cursor += 1
            byte = proc.space.read(cursor, 1)[0]
    while chr(byte) in "lhzq":
        spec.length += chr(byte)
        cursor += 1
        byte = proc.space.read(cursor, 1)[0]
    spec.conversion = chr(byte)
    cursor += 1
    return spec, cursor


def _parse_spec_bytes(data: bytes, index: int, stop: int):
    """:func:`_parse_spec` over a prefetched buffer.

    Returns ``(spec, next_index)``, or None when parsing would read at
    or past ``stop`` (the terminator) — the per-byte loop then runs on
    beyond the NUL, so the caller must fall back to it.
    """
    spec = _Spec()
    if index >= stop:
        return None
    byte = data[index]
    while chr(byte) in "-0+ #":
        spec.flags += chr(byte)
        index += 1
        if index >= stop:
            return None
        byte = data[index]
    while 0x30 <= byte <= 0x39:
        spec.width = spec.width * 10 + (byte - 0x30)
        index += 1
        if index >= stop:
            return None
        byte = data[index]
    if byte == 0x2E:  # '.'
        index += 1
        spec.precision = 0
        if index >= stop:
            return None
        byte = data[index]
        while 0x30 <= byte <= 0x39:
            spec.precision = spec.precision * 10 + (byte - 0x30)
            index += 1
            if index >= stop:
                return None
            byte = data[index]
    while chr(byte) in "lhzq":
        spec.length += chr(byte)
        index += 1
        if index >= stop:
            return None
        byte = data[index]
    spec.conversion = chr(byte)
    return spec, index + 1


def _bulk_read_string(proc: SimProcess, address: int, precision) -> bytes:
    """:func:`_read_string_fuelled` with one scan and one fuel draw.

    The loop draws one unit before each byte it reads, so it never reads
    a byte at or past the fuel headroom; the scan stops there too.
    """
    space = proc.space
    bound = precision
    headroom = proc.fuel_headroom()
    if headroom is not None and (bound is None or headroom < bound):
        bound = headroom
    index, scanned = space.find_byte(address, 0, bound)
    if index is not None:
        # terminator found: the loop consumed once per data byte plus
        # once for the terminator read
        proc.consume_metered(index + 1)
        return space.read_run(address, index)
    if precision is not None and scanned >= precision:
        # precision cap reached before any terminator
        proc.consume_metered(precision + 1)
        return space.read_run(address, precision)
    # ran off readable memory, or reached the headroom: consume up to the
    # faulting read (the budget trips first at the headroom), then raise
    # the exact fault the per-byte loop would have raised
    proc.consume_metered(scanned + 1)
    space.read(address + scanned, 1)
    raise AssertionError("%s fault replay did not fault")


def _bulk_format_into(proc: SimProcess, fmt: int, args: List, limit,
                      out_address, writer):
    """Chunked printf engine; None means "use the per-byte loop".

    Byte/fuel/fault parity with :func:`_bytewise_format_into` under any
    budget.  The format is prefetched up to its terminator, or up to the
    first unreadable byte, where the engine renders the readable prefix
    and then replays the loop's faulting read.  Every unit the loop
    would draw is drawn with ``consume_metered``, and each emission is
    clamped to the bytes the loop would have finished before its budget
    trips or its first faulting write.  A directive cut off at the end
    of the prefetch (the loop would parse past the NUL or fault
    mid-directive) defers, before any side effect.  A write onto format
    bytes the loop has yet to read (a destination overlapping the
    format, a ``%n`` into it) hands the rest of the call to the loop,
    resumed at the state reached.
    """
    space = proc.space
    fmt_data, fmt_offset, fmt_room = space.span(fmt, _PERM_READ)
    nul = fmt_data.find(0, fmt_offset, fmt_offset + fmt_room)
    if nul >= 0:
        terminator = end = nul - fmt_offset
        data = bytes(fmt_data[fmt_offset:nul])
    else:
        # unterminated in its first mapping: the run helpers cross on
        terminator, readable = space.find_byte(fmt, 0)
        end = readable if terminator is None else terminator
        data = space.read_run(fmt, end)
    probe = data.find(0x25)
    while probe >= 0:
        parsed = _parse_spec_bytes(data, probe + 1, end)
        if parsed is None:
            return None
        probe = data.find(0x25, parsed[1])
    produced = 0
    arg_index = 0
    # the destination's span: emissions inside its first mapping write
    # there in place, the rest take the run helpers
    out_data, out_base, out_room = (
        space.span(out_address, _PERM_WRITE) if out_address is not None
        else (b"", 0, 0))

    def emit(chunk: bytes, stride: int) -> bool:
        """Emit ``chunk`` drawing ``stride`` units per byte.

        The loop's side effect for byte ``j`` follows unit
        ``stride * (j + 1)``: a literal byte draws its scan unit and then
        its emit unit (stride 2), rendered text only emit units (1).
        False, before any side effect, when a write would land on format
        bytes the loop has yet to read: the prefetch would go stale, so
        the per-byte loop takes over from there.
        """
        nonlocal produced
        count = len(chunk)
        headroom = proc.fuel_headroom()
        done = count if headroom is None else min(count, headroom // stride)
        if writer is not None:
            if done:
                writer(chunk[:done])
        elif out_address is not None:
            window = count if limit is None else max(
                0, min(count, (limit - 1) - produced))
            side = min(window, done)
            if side:
                target = out_address + produced
                if (target <= fmt + end
                        and fmt + position < target + side):
                    return False
                if produced + side <= out_room:
                    space.note_write(target, side)
                    start = out_base + produced
                    out_data[start:start + side] = chunk[:side]
                else:
                    writable = space.writable_run(target, side)
                    if writable < side:
                        if writable:
                            space.write_run(target, chunk[:writable])
                        proc.consume_metered(stride * (writable + 1))
                        space.write(target + writable, b"\x00")
                        raise AssertionError(
                            "format fault replay did not fault")
                    space.write_run(target, chunk[:side])
        proc.consume_metered(stride * count)
        produced += count
        return True

    def hand_over(pending: bytes) -> int:
        return _bytewise_format_into(
            proc, fmt, args, limit, out_address, writer,
            resume=(fmt + position, produced, arg_index, pending))

    position = 0
    while position < end:
        percent = data.find(0x25, position)
        stop = end if percent < 0 else percent
        if stop > position:
            if not emit(data[position:stop], 2):
                return hand_over(b"")
            position = stop
        if percent < 0:
            break
        proc.consume_metered(1)  # the scan unit for '%'
        spec, position = _parse_spec_bytes(data, percent + 1, end)
        if spec.conversion == "n":
            if arg_index >= len(args):
                raise SegmentationFault(
                    0, "read", "va_arg past end of arguments")
            target = args[arg_index]
            space.write_i32(target, produced)
            arg_index += 1
            if target <= fmt + end and fmt + position < target + 4:
                return hand_over(b"")
            continue
        if spec.conversion == "%":
            chunk = b"%"
        else:
            if arg_index >= len(args):
                raise SegmentationFault(
                    0, "read", "va_arg past end of arguments")
            value = args[arg_index]
            arg_index += 1
            if spec.conversion == "s" and int(value) != 0:
                raw = _bulk_read_string(proc, int(value), spec.precision)
                chunk = _finish_text(spec, raw.decode("latin-1"))
            else:
                chunk = _render(proc, spec, value)
        if not emit(chunk, 1):
            return hand_over(chunk)
    proc.consume_metered(1)  # the terminator read, or the faulting one
    if terminator is None:
        space.read(fmt + end, 1)
        raise AssertionError("format fault replay did not fault")
    if out_address is not None and (limit is None or limit > 0):
        terminator_at = out_address + min(
            produced, (limit - 1) if limit else produced)
        space.write(terminator_at, b"\x00")
    return produced


def _render(proc: SimProcess, spec: _Spec, value) -> bytes:
    conv = spec.conversion
    if conv in "di":
        text = str(int(value))
    elif conv == "u":
        text = str(helpers.to_unsigned(int(value)))
    elif conv == "x":
        text = format(helpers.to_unsigned(int(value)), "x")
    elif conv == "X":
        text = format(helpers.to_unsigned(int(value)), "X")
    elif conv == "o":
        text = format(helpers.to_unsigned(int(value)), "o")
    elif conv == "c":
        text = chr(int(value) & 0xFF)
    elif conv == "p":
        text = hex(int(value))
    elif conv in "feEgG":
        number = float(value)
        precision = 6 if spec.precision is None else spec.precision
        if conv in "fF":
            text = f"{number:.{precision}f}"
        elif conv in "eE":
            text = f"{number:.{precision}{conv}}"
        else:
            text = f"{number:.{precision or 1}g}"
    elif conv == "s":
        if int(value) == 0:
            text = "(null)"  # glibc's famous leniency
        else:
            raw = _read_string_fuelled(proc, int(value), spec.precision)
            text = raw.decode("latin-1")
    else:
        text = "%" + conv
    return _finish_text(spec, text)


def _finish_text(spec: _Spec, text: str) -> bytes:
    """Apply %s precision truncation and width padding, then encode."""
    conv = spec.conversion
    if conv == "s" and spec.precision is not None:
        text = text[: spec.precision]
    if spec.width > len(text):
        pad = spec.width - len(text)
        if "-" in spec.flags:
            text = text + " " * pad
        elif "0" in spec.flags and conv not in "sc":
            text = "0" * pad + text
        else:
            text = " " * pad + text
    return text.encode("latin-1")


def _read_string_fuelled(proc: SimProcess, address: int, precision) -> bytes:
    out = bytearray()
    cursor = address
    while True:
        proc.consume()
        if precision is not None and len(out) >= precision:
            return bytes(out)
        byte = proc.space.read(cursor, 1)[0]
        if byte == 0:
            return bytes(out)
        out.append(byte)
        cursor += 1


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------

def _line_into(proc: SimProcess, index: int, s: int, take: int,
               extra_read: bool, keep: bool) -> int:
    """The run-based tail of gets and fgets: store the next ``take``
    bytes of stream ``index`` at ``s`` and a NUL, and return ``s``.

    The loop draws one unit per byte and one more for ``extra_read``,
    the read after the data (the newline gets drops, or the read that
    sets EOF).  Without ``keep`` it read nothing, stores no NUL and
    returns NULL.  A destination fault or budget trip is replayed where
    the loop meets it.
    """
    space = proc.space
    fs = proc.fs
    units = take + 1 if extra_read else take
    writable = space.writable_run(s, take)
    headroom = proc.fuel_headroom()
    if writable < take:
        fault_units = writable + 1
        advance = fault_units if headroom is None or headroom >= fault_units else headroom
        data = fs.read(index, advance) if advance else b""
        side = min(writable, advance)
        if side:
            space.write_run(s, data[:side])
        proc.consume_metered(fault_units)
        space.write(s + writable, b"\x00")
        raise AssertionError("line fault replay did not fault")
    if headroom is not None and headroom < units:
        data = fs.read(index, headroom) if headroom else b""
        if data:
            space.write_run(s, data)
        proc.consume_metered(units)
        raise AssertionError("line fuel replay did not trip")
    data = fs.read(index, take) if take else b""
    if data:
        space.write_run(s, data)
    if extra_read:
        fs.read(index, 1)
    proc.consume_metered(units)
    if not keep:
        return 0
    space.write(s + take, b"\x00")
    return s


def register(reg: LibcRegistry) -> None:
    """Register the stdio family into ``reg``."""

    @libc_function(reg, "int sprintf(char *str, const char *format, ...)",
                   header="stdio.h", category="stdio")
    def sprintf(proc: SimProcess, str_: int, format_: int, *args) -> int:
        """Unbounded formatted write into str (the overflow vector)."""
        return format_into(proc, format_, list(args), out_address=str_)

    @libc_function(reg,
                   "int snprintf(char *str, size_t size, const char *format, ...)",
                   header="stdio.h", category="stdio")
    def snprintf(proc: SimProcess, str_: int, size: int, format_: int,
                 *args) -> int:
        """Bounded formatted write; returns would-be length."""
        return format_into(proc, format_, list(args),
                           limit=size, out_address=str_ if size > 0 else None)

    @libc_function(reg, "int printf(const char *format, ...)",
                   header="stdio.h", category="stdio")
    def printf(proc: SimProcess, format_: int, *args) -> int:
        """Formatted write to stdout."""
        return format_into(
            proc, format_, list(args),
            writer=lambda chunk: proc.fs.write(STDOUT_INDEX, chunk),
        )

    @libc_function(reg, "int fprintf(void *stream, const char *format, ...)",
                   header="stdio.h", category="stdio")
    def fprintf(proc: SimProcess, stream: int, format_: int, *args) -> int:
        """Formatted write to a stream."""
        index = stream_index_of(proc, stream)
        fs = proc.fs
        if fs.fault_hook is None or index < 3:
            writer = lambda chunk: fs.write(index, chunk)
        else:
            # an armed hook decides once per write call on a file: write
            # byte by byte, as the per-byte loop does, so each byte draws
            # its own fault decision
            def writer(chunk: bytes) -> None:
                for offset in range(len(chunk)):
                    fs.write(index, chunk[offset:offset + 1])
        return format_into(proc, format_, list(args), writer=writer)

    @libc_function(reg, "int puts(const char *s)",
                   header="stdio.h", category="stdio",
                   error_detector=negative_on_error)
    def puts(proc: SimProcess, s: int) -> int:
        """Write s and a newline to stdout."""
        data = helpers.read_string(proc, s)
        proc.fs.write(STDOUT_INDEX, data + b"\n")
        return len(data) + 1

    @libc_function(reg, "int putchar(int c)",
                   header="stdio.h", category="stdio")
    def putchar(proc: SimProcess, c: int) -> int:
        """Write one character to stdout."""
        proc.consume()
        proc.fs.write(STDOUT_INDEX, bytes([c & 0xFF]))
        return c & 0xFF

    @libc_function(reg, "char *gets(char *s)",
                   header="stdio.h", category="stdio",
                   error_detector=null_on_error)
    def gets(proc: SimProcess, s: int) -> int:
        """Read a line from stdin with *no* bound — the classic CVE."""
        fs = proc.fs
        if fs.peek(STDIN_INDEX, 1) is None:
            proc.consume_metered(1)
            fs.read(STDIN_INDEX, 1)
            return 0
        offset = 0
        newline = False
        while True:
            chunk = fs.peek(STDIN_INDEX, 4096, offset)
            position = chunk.find(b"\n")
            if position >= 0:
                linelen = offset + position
                newline = True
                break
            if len(chunk) < 4096:
                linelen = offset + len(chunk)
                break
            offset += 4096
        # one fuel unit per loop iteration: linelen data bytes plus the
        # newline (or the empty read that flags EOF), one per byte a
        # stored line takes with its NUL
        keep = linelen > 0 or newline
        target = proc.claim_write(s, linelen + 1) if keep else None
        if target is not None:
            buffer, base = target
            if linelen:
                buffer[base:base + linelen] = fs.read(STDIN_INDEX, linelen)
            buffer[base + linelen] = 0
            fs.read(STDIN_INDEX, 1)  # the newline, or the read setting EOF
            return s
        return _line_into(proc, STDIN_INDEX, s, linelen, True, keep)

    @libc_function(reg, "char *fgets(char *s, int size, void *stream)",
                   header="stdio.h", category="stdio",
                   error_detector=null_on_error)
    def fgets(proc: SimProcess, s: int, size: int, stream: int) -> int:
        """Bounded line read (the safe replacement wrappers substitute)."""
        index = stream_index_of(proc, stream)
        if size <= 0:
            return 0
        want = size - 1
        if want == 0:
            return 0
        fs = proc.fs
        window = fs.peek(index, want)
        if window is None:
            proc.consume_metered(1)
            fs.read(index, 1)  # reproduces the error-flag side effect
            proc.errno = Errno.EBADF
            return 0
        position = window.find(b"\n")
        if position >= 0:
            take = position + 1
            eof_hit = False
        else:
            take = len(window)
            eof_hit = take < want
        return _line_into(proc, index, s, take, eof_hit, take > 0)

    @libc_function(reg, "void *fopen(const char *path, const char *mode)",
                   header="stdio.h", category="stdio",
                   error_detector=null_on_error)
    def fopen(proc: SimProcess, path: int, mode: int) -> int:
        """Open a file; NULL with errno on failure."""
        path_text = proc.read_cstring(path).decode(errors="replace")
        mode_text = proc.read_cstring(mode).decode(errors="replace")
        proc.consume(len(path_text) + 1)
        index = proc.fs.open(path_text, mode_text)
        if index is None:
            proc.errno = (
                Errno.EINVAL if not mode_text or mode_text[0] not in "rwa"
                else Errno.ENOENT
            )
            return 0
        file_ptr = make_file_struct(proc, index)
        if file_ptr == 0:
            proc.errno = Errno.ENOMEM
        return file_ptr

    @libc_function(reg, "int fclose(void *stream)",
                   header="stdio.h", category="stdio",
                   error_detector=negative_on_error)
    def fclose(proc: SimProcess, stream: int) -> int:
        """Close a stream and release its FILE structure."""
        index = stream_index_of(proc, stream)
        ok = proc.fs.close(index)
        proc.space.write_u32(stream, 0)  # poison the magic
        proc.heap.free(stream)
        if not ok:
            proc.errno = Errno.EBADF
            return EOF
        return 0

    @libc_function(reg,
                   "size_t fread(void *ptr, size_t size, size_t nmemb, void *stream)",
                   header="stdio.h", category="stdio")
    def fread(proc: SimProcess, ptr: int, size: int, nmemb: int,
              stream: int) -> int:
        """Read up to size*nmemb bytes into ptr."""
        index = stream_index_of(proc, stream)
        if size == 0 or nmemb == 0:
            return 0
        data = proc.fs.read(index, size * nmemb)
        if data is None:
            proc.errno = Errno.EBADF
            return 0
        proc.consume(max(len(data), 1))
        proc.space.write(ptr, data)
        return len(data) // size

    @libc_function(reg,
                   "size_t fwrite(const void *ptr, size_t size, size_t nmemb, void *stream)",
                   header="stdio.h", category="stdio")
    def fwrite(proc: SimProcess, ptr: int, size: int, nmemb: int,
               stream: int) -> int:
        """Write size*nmemb bytes from ptr."""
        index = stream_index_of(proc, stream)
        if size == 0 or nmemb == 0:
            return 0
        total = size * nmemb
        data = proc.space.read(ptr, total)
        proc.consume(total)
        written = proc.fs.write(index, data)
        if written is None:
            proc.errno = Errno.EBADF
            return 0
        return written // size

    @libc_function(reg, "int fputs(const char *s, void *stream)",
                   header="stdio.h", category="stdio",
                   error_detector=negative_on_error)
    def fputs(proc: SimProcess, s: int, stream: int) -> int:
        """Write s to a stream."""
        index = stream_index_of(proc, stream)
        length = helpers.scan_string_length(proc, s)
        written = proc.fs.write(index, proc.space.read(s, length))
        if written is None:
            proc.errno = Errno.EBADF
            return EOF
        return written

    @libc_function(reg, "int fgetc(void *stream)",
                   header="stdio.h", category="stdio")
    def fgetc(proc: SimProcess, stream: int) -> int:
        """Read one character; EOF at end."""
        index = stream_index_of(proc, stream)
        proc.consume()
        data = proc.fs.read(index, 1)
        if not data:
            return EOF
        return data[0]

    @libc_function(reg, "int fputc(int c, void *stream)",
                   header="stdio.h", category="stdio")
    def fputc(proc: SimProcess, c: int, stream: int) -> int:
        """Write one character."""
        index = stream_index_of(proc, stream)
        proc.consume()
        written = proc.fs.write(index, bytes([c & 0xFF]))
        if written is None:
            proc.errno = Errno.EBADF
            return EOF
        return c & 0xFF

    @libc_function(reg, "int feof(void *stream)",
                   header="stdio.h", category="stdio")
    def feof(proc: SimProcess, stream: int) -> int:
        """Nonzero after a read hit end-of-file."""
        index = stream_index_of(proc, stream)
        proc.consume()
        entry = proc.fs.stream(index)
        return 1 if entry is not None and entry.eof else 0

    @libc_function(reg, "int ferror(void *stream)",
                   header="stdio.h", category="stdio")
    def ferror(proc: SimProcess, stream: int) -> int:
        """Nonzero after a stream error."""
        index = stream_index_of(proc, stream)
        proc.consume()
        entry = proc.fs.stream(index)
        return 1 if entry is not None and entry.error else 0

    @libc_function(reg, "int remove(const char *path)",
                   header="stdio.h", category="stdio",
                   error_detector=negative_on_error)
    def remove_(proc: SimProcess, path: int) -> int:
        """Delete a file; -1 with ENOENT when missing."""
        text = proc.read_cstring(path).decode(errors="replace")
        proc.consume(len(text) + 1)
        if text not in proc.fs.files:
            proc.errno = Errno.ENOENT
            return -1
        del proc.fs.files[text]
        return 0

    @libc_function(reg, "int rename(const char *old, const char *new)",
                   header="stdio.h", category="stdio",
                   error_detector=negative_on_error)
    def rename_(proc: SimProcess, old: int, new: int) -> int:
        """Rename a file; -1 with ENOENT when missing."""
        old_text = proc.read_cstring(old).decode(errors="replace")
        new_text = proc.read_cstring(new).decode(errors="replace")
        proc.consume(len(old_text) + len(new_text) + 2)
        if old_text not in proc.fs.files:
            proc.errno = Errno.ENOENT
            return -1
        proc.fs.files[new_text] = proc.fs.files.pop(old_text)
        return 0
