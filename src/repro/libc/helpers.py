"""Shared low-level primitives for the simulated libc.

These helpers are intentionally *naive*: they mimic the tight byte loops of
a real C library with no argument validation.  Every byte touched consumes
one unit of process fuel, so an unterminated scan either faults at a
mapping boundary (CRASH) or exhausts its fuel (HANG) — the two failure
modes fault injection must provoke and the wrappers must prevent.

The implementations are *vectorized*: they resolve the accessible extent
once, perform the copy/scan/compare as one C-speed slice operation, and
then replay the exact fuel accounting and faulting access the byte loop
would have performed.  The byte loops themselves are test oracles
(``tests/oracles``), which the differential suite diffs these against for
byte- and fault-address parity.  Only strcpy's overlapping copy, whose
loop reads back bytes it has just written, still runs a byte loop.
"""

from __future__ import annotations

import sys
from array import array
from typing import Optional

from repro.memory.model import AddressSpace, Perm, _PERM_READ, first_mismatch
from repro.runtime.process import SimProcess


def scan_string_length(proc: SimProcess, address: int) -> int:
    """strlen-style scan; faults/hangs exactly like the C loop would."""
    space = proc.space
    index, scanned = space.find_byte(address, 0)
    if index is not None:
        proc.consume_metered(index + 1)
        return index
    proc.consume_metered(scanned + 1)
    space.read(address + scanned, 1)
    raise AssertionError("strlen fault replay did not fault")


def scan_string_length_bounded(proc: SimProcess, address: int, maxlen: int) -> int:
    """strnlen-style scan: stops at the terminator or at ``maxlen`` bytes."""
    if maxlen <= 0:
        return maxlen
    space = proc.space
    index, scanned = space.find_byte(address, 0, maxlen)
    if index is not None:
        proc.consume_metered(index + 1)
        return index
    if scanned >= maxlen:
        proc.consume_metered(maxlen)
        return maxlen
    proc.consume_metered(scanned + 1)
    space.read(address + scanned, 1)
    raise AssertionError("strnlen fault replay did not fault")


def read_string(proc: SimProcess, address: int) -> bytes:
    """The bytes of the string at ``address``, scanned like strlen
    (through one span when it ends inside its first mapping)."""
    data, offset, available = proc.space.span(address, _PERM_READ)
    end = data.find(0, offset, offset + available)
    if end >= 0:
        proc.consume_metered(end - offset + 1)
        return bytes(data[offset:end])
    return proc.space.read_run(address, scan_string_length(proc, address))


def _bulk_copy(
    proc: SimProcess, dest: int, src: int, count: int, units: Optional[int] = None
) -> None:
    """Copy ``count`` accessible bytes, clamped to the fuel headroom, then
    meter ``units`` consumes (defaults to ``count``).

    The clamp keeps side effects identical to a loop that ran out of fuel
    mid-copy; ``consume_metered`` then raises the same ``OutOfFuel``.
    """
    space = proc.space
    headroom = proc.fuel_headroom()
    side = count if headroom is None else min(count, headroom)
    if side > 0:
        space.write_run(dest, space.read_run(src, side))
    proc.consume_metered(count if units is None else units)


def copy_string(proc: SimProcess, dest: int, src: int) -> int:
    """strcpy-style byte loop; returns bytes copied excluding the NUL."""
    space = proc.space
    source = space.span(src, _PERM_READ)
    data, offset, available = source
    nul = data.find(0, offset, offset + available)
    if nul >= 0 and not src < dest <= src + nul - offset and _span_copy(
            proc, dest, source, nul - offset + 1):
        return nul - offset
    index, scanned = space.find_byte(src, 0)
    span = (index + 1) if index is not None else scanned + 1
    if src < dest < src + span:
        # the destination lands inside the bytes still being scanned, so the
        # loop reads back data it has already overwritten — defer to it
        return _bytewise_copy_string(proc, dest, src)
    if index is not None:
        total = index + 1
        writable = space.writable_run(dest, total)
        if writable >= total:
            _bulk_copy(proc, dest, src, total)
            return index
        _bulk_copy(proc, dest, src, writable, units=writable + 1)
        space.write(dest + writable, b"\x00")
        raise AssertionError("strcpy fault replay did not fault")
    writable = space.writable_run(dest, scanned + 1)
    processed = min(scanned, writable)
    _bulk_copy(proc, dest, src, processed, units=processed + 1)
    if scanned <= writable:
        space.read(src + scanned, 1)
    else:
        space.write(dest + writable, b"\x00")
    raise AssertionError("strcpy fault replay did not fault")


def _span_copy(proc: SimProcess, dest: int, source, count: int) -> bool:
    """Copy ``count`` bytes from the read span ``source`` to ``dest``
    as one memmove-like slice (see :meth:`SimProcess.claim_write`);
    False, with no side effect, when either range leaves its mapping
    or the fuel headroom does not cover ``count``."""
    data, offset, available = source
    if available < count:
        return False
    target = proc.claim_write(dest, count)
    if target is None:
        return False
    buffer, base = target
    buffer[base:base + count] = data[offset:offset + count]
    return True


def _bytewise_copy_string(proc: SimProcess, dest: int, src: int) -> int:
    copied = 0
    while True:
        proc.consume()
        byte = proc.space.read(src + copied, 1)[0]
        proc.space.write(dest + copied, bytes([byte]))
        if byte == 0:
            return copied
        copied += 1


def copy_bytes_forward(proc: SimProcess, dest: int, src: int, count: int) -> None:
    """memcpy-style loop (forward, byte-at-a-time, fuel-metered)."""
    if count <= 0:
        return
    space = proc.space
    # a forward overlap smears the loop's first ``dest - src`` bytes,
    # which a slice copy does not
    if not src < dest < src + count and _span_copy(
            proc, dest, space.span(src, _PERM_READ), count):
        return
    readable = space.readable_run(src, count)
    writable = space.writable_run(dest, count)
    complete = min(count, readable, writable)
    headroom = proc.fuel_headroom()
    side = complete if headroom is None else min(complete, headroom)
    if side > 0:
        space.copy_within(dest, src, side, forward=True)
    if complete >= count:
        proc.consume_metered(count)
        return
    proc.consume_metered(complete + 1)
    if readable <= writable:
        space.read(src + complete, 1)
    else:
        space.write(dest + complete, b"\x00")
    raise AssertionError("memcpy fault replay did not fault")


def copy_bytes_backward(proc: SimProcess, dest: int, src: int, count: int) -> None:
    """memmove's tail-first loop, which it runs only when dest > src."""
    if count <= 0:
        return
    space = proc.space
    if _span_copy(proc, dest, space.span(src, _PERM_READ), count):
        return
    readable = space.readable_run_back(src + count, count)
    writable = space.writable_run_back(dest + count, count)
    complete = min(count, readable, writable)
    headroom = proc.fuel_headroom()
    side = complete if headroom is None else min(complete, headroom)
    if side > 0:
        space.copy_within(dest + count - side, src + count - side, side)
    if complete >= count:
        proc.consume_metered(count)
        return
    proc.consume_metered(complete + 1)
    offset = count - 1 - complete
    if readable <= writable:
        space.read(src + offset, 1)
    else:
        space.write(dest + offset, b"\x00")
    raise AssertionError("memmove fault replay did not fault")


def compare_strings(proc: SimProcess, left: int, right: int,
                    limit: Optional[int] = None, fold_case: bool = False,
                    stop_at_nul: bool = True) -> int:
    """strcmp/strncmp/strcasecmp core (memcmp's with ``stop_at_nul``
    off); returns the C-style difference.  Windows inside both spans
    are sliced in place, the rest read through the run helpers."""
    space = proc.space
    left_data, left_base, left_room = space.span(left, _PERM_READ)
    right_data, right_base, right_room = space.span(right, _PERM_READ)
    inside = min(left_room, right_room)
    offset = 0
    chunk = 512
    while True:
        if limit is not None and offset >= limit:
            proc.consume_metered(offset)
            return 0
        cap = chunk
        if limit is not None:
            cap = min(cap, limit - offset)
        if offset < inside:
            window = min(cap, inside - offset)
            a = left_data[left_base + offset:left_base + offset + window]
            b = right_data[right_base + offset:right_base + offset + window]
        else:
            left_run = space.readable_run(left + offset, cap)
            right_run = space.readable_run(right + offset, cap)
            window = min(left_run, right_run)
            if window == 0:
                proc.consume_metered(offset + 1)
                if left_run == 0:
                    space.read(left + offset, 1)
                else:
                    space.read(right + offset, 1)
                raise AssertionError("strcmp fault replay did not fault")
            a = space.read_run(left + offset, window)
            b = space.read_run(right + offset, window)
        if fold_case:
            a = a.translate(_FOLD_TABLE)
            b = b.translate(_FOLD_TABLE)
        if a == b:
            terminator = a.find(0) if stop_at_nul else -1
            if terminator >= 0:
                proc.consume_metered(offset + terminator + 1)
                return 0
        else:
            mismatch = first_mismatch(a, b)
            terminator = a.find(0, 0, mismatch) if stop_at_nul else -1
            if terminator >= 0:
                proc.consume_metered(offset + terminator + 1)
                return 0
            proc.consume_metered(offset + mismatch + 1)
            return a[mismatch] - b[mismatch]
        offset += window
        chunk *= 4


def _fold(byte: int) -> int:
    if 0x41 <= byte <= 0x5A:
        return byte + 0x20
    return byte


_FOLD_TABLE = bytes(_fold(i) for i in range(256))


# ----------------------------------------------------------------------
# wide-character (4-byte) scan windows
# ----------------------------------------------------------------------

def wide_window(space: AddressSpace, address: int, limit_chars: int):
    """Readable 4-byte characters starting at ``address``.

    Returns ``(chars, data)`` where ``data`` holds ``chars * 4`` bytes.  The
    window stops (without faulting) at the first character a ``read_u32``
    would reject — including a 1–3 byte tail inside a mapping, which faults
    even when an adjacent mapping follows.
    """
    chars = 0
    parts = []
    cursor = address
    while chars < limit_chars:
        mapping = space.find_mapping(cursor)
        if mapping is None or not (mapping.perm_bits & int(Perm.READ)):
            break
        here = min((mapping.end - cursor) // 4, limit_chars - chars)
        if here <= 0:
            break
        offset = cursor - mapping.start
        parts.append(bytes(mapping.data[offset : offset + here * 4]))
        chars += here
        cursor += here * 4
        if cursor < mapping.end:
            break
    return chars, b"".join(parts)


def wide_writable_chars(space: AddressSpace, address: int, limit_chars: int) -> int:
    """How many 4-byte characters from ``address`` a ``write_u32`` accepts."""
    chars = 0
    cursor = address
    while chars < limit_chars:
        mapping = space.find_mapping(cursor)
        if mapping is None or not (mapping.perm_bits & int(Perm.WRITE)):
            break
        here = min((mapping.end - cursor) // 4, limit_chars - chars)
        if here <= 0:
            break
        chars += here
        cursor += here * 4
        if cursor < mapping.end:
            break
    return chars


def find_word(data: bytes, value: int) -> Optional[int]:
    """Index (in words) of the first little-endian u32 equal to ``value``."""
    words = array("I")
    words.frombytes(data)
    if sys.byteorder == "big":
        words.byteswap()
    try:
        return words.index(value & 0xFFFFFFFF)
    except ValueError:
        return None


def to_signed(value: int, bits: int = 32) -> int:
    """Interpret an unsigned machine word as a signed integer."""
    sign = 1 << (bits - 1)
    mask = (1 << bits) - 1
    value &= mask
    return value - (1 << bits) if value & sign else value


def to_unsigned(value: int, bits: int = 64) -> int:
    """Truncate a Python int to an unsigned machine word."""
    return value & ((1 << bits) - 1)


def int_result(value: int, bits: int = 32) -> int:
    """Wrap a computed integer the way a C int return would."""
    return to_signed(to_unsigned(value, bits), bits)
