"""Simulated <time.h> family.

Calendar math is implemented from first principles (Hinnant's
civil-from-days algorithms), not delegated to Python's datetime, so the
simulated functions have exactly the behaviours the C ones do:

* ``gmtime``/``localtime`` return a pointer to a **shared static
  ``struct tm``** — the classic non-reentrancy (a second call clobbers
  the first result);
* ``asctime`` formats into a **26-byte static buffer**; a ``struct tm``
  with a five-digit year overflows it (the documented glibc hazard,
  CVE-2009-ish class).  The "static" buffers are modelled as one-time
  heap allocations so that such overflows corrupt observable allocator
  metadata instead of vanishing into a data segment;
* ``strftime`` is a bounded formatter returning 0 when the result does
  not fit.

The simulated clock is deterministic: it starts at the 2003-01-01 epoch
(the paper's year) and advances one second per ``time()`` call.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.libc.registry import LibcRegistry, libc_function, null_on_error
from repro.runtime.process import SIM_EPOCH, SimProcess

#: struct tm layout: nine consecutive i32 fields, as on 32-bit glibc
TM_FIELDS = ("tm_sec", "tm_min", "tm_hour", "tm_mday", "tm_mon",
             "tm_year", "tm_wday", "tm_yday", "tm_isdst")
TM_SIZE = 4 * len(TM_FIELDS)

ASCTIME_BUFFER = 26

_WDAY = ("Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat")
_MON = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
        "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


# ----------------------------------------------------------------------
# civil calendar algorithms (Hinnant)
# ----------------------------------------------------------------------

def days_from_civil(year: int, month: int, day: int) -> int:
    """Days since 1970-01-01 for a proleptic Gregorian date."""
    year -= month <= 2
    era = (year if year >= 0 else year - 399) // 400
    yoe = year - era * 400
    doy = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def civil_from_days(days: int) -> Tuple[int, int, int]:
    """(year, month, day) from days since 1970-01-01."""
    days += 719468
    era = (days if days >= 0 else days - 146096) // 146097
    doe = days - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    year = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + (3 if mp < 10 else -9)
    return (year + (month <= 2), month, day)


def is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _break_down(timestamp: int) -> dict:
    days, rem = divmod(timestamp, 86400)
    hour, rem = divmod(rem, 3600)
    minute, sec = divmod(rem, 60)
    year, month, day = civil_from_days(days)
    yday = days - days_from_civil(year, 1, 1)
    wday = (days + 4) % 7  # 1970-01-01 was a Thursday
    return {
        "tm_sec": sec, "tm_min": minute, "tm_hour": hour,
        "tm_mday": day, "tm_mon": month - 1, "tm_year": year - 1900,
        "tm_wday": wday, "tm_yday": yday, "tm_isdst": 0,
    }


# ----------------------------------------------------------------------
# struct tm in simulated memory
# ----------------------------------------------------------------------

def write_tm(proc: SimProcess, address: int, fields: dict) -> None:
    for index, name in enumerate(TM_FIELDS):
        proc.space.write_i32(address + 4 * index, fields.get(name, 0))


def read_tm(proc: SimProcess, address: int) -> dict:
    return {
        name: proc.space.read_i32(address + 4 * index)
        for index, name in enumerate(TM_FIELDS)
    }


def _static_buffer(proc: SimProcess, key: str, size: int) -> int:
    """The function's 'static' buffer: one heap allocation per process.

    glibc places these in .data; allocating them once on the heap keeps
    the same aliasing semantics while making overflows observable to the
    allocator's consistency checks.
    """
    cache = proc._time_statics
    if key not in cache:
        cache[key] = proc.heap.malloc(size)
    return cache[key]


def _render_asctime(fields: dict) -> bytes:
    year = fields["tm_year"] + 1900
    wday = _WDAY[fields["tm_wday"] % 7]
    mon = _MON[fields["tm_mon"] % 12]
    return (
        f"{wday} {mon} {fields['tm_mday']:2d} "
        f"{fields['tm_hour']:02d}:{fields['tm_min']:02d}:"
        f"{fields['tm_sec']:02d} {year}\n"
    ).encode()


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------

def register(reg: LibcRegistry) -> None:
    """Register the time family into ``reg``."""

    @libc_function(reg, "time_t time(time_t *tloc)",
                   header="time.h", category="time")
    def time_(proc: SimProcess, tloc: int) -> int:
        """Simulated wall clock; also stored through tloc when non-NULL."""
        proc.consume()
        now = proc.sim_time
        proc.sim_time = now + 1
        if tloc != 0:
            proc.space.write_u64(tloc, now)
        return now

    @libc_function(reg, "double difftime(time_t time1, time_t time0)",
                   header="time.h", category="time")
    def difftime(proc: SimProcess, time1: int, time0: int) -> float:
        """Seconds elapsed between two calendar times."""
        proc.consume()
        return float(time1 - time0)

    @libc_function(reg, "struct tm *gmtime(const time_t *timep)",
                   header="time.h", category="time",
                   error_detector=null_on_error)
    def gmtime(proc: SimProcess, timep: int) -> int:
        """Broken-down UTC time in the shared static struct tm."""
        timestamp = proc.space.read_u64(timep)  # derefs blindly
        proc.consume()
        result = _static_buffer(proc, "tm", TM_SIZE)
        if result == 0:
            return 0
        write_tm(proc, result, _break_down(timestamp))
        return result

    @libc_function(reg, "struct tm *localtime(const time_t *timep)",
                   header="time.h", category="time",
                   error_detector=null_on_error)
    def localtime(proc: SimProcess, timep: int) -> int:
        """Local time (the simulated TZ is UTC): same static struct."""
        return gmtime(proc, timep)

    @libc_function(reg, "time_t mktime(struct tm *tm)",
                   header="time.h", category="time")
    def mktime(proc: SimProcess, tm: int) -> int:
        """Calendar time from broken-down time (normalising fields)."""
        fields = read_tm(proc, tm)
        proc.consume(TM_SIZE)
        days = days_from_civil(fields["tm_year"] + 1900,
                               fields["tm_mon"] + 1, fields["tm_mday"])
        timestamp = (days * 86400 + fields["tm_hour"] * 3600
                     + fields["tm_min"] * 60 + fields["tm_sec"])
        # C normalises the struct on the way out
        write_tm(proc, tm, _break_down(timestamp))
        return timestamp

    @libc_function(reg, "char *asctime(const struct tm *tm)",
                   header="time.h", category="time",
                   error_detector=null_on_error)
    def asctime(proc: SimProcess, tm: int) -> int:
        """Render into the 26-byte static buffer — with the documented
        hazard: out-of-range fields (a 5+ digit year) overflow it."""
        fields = read_tm(proc, tm)
        text = _render_asctime(fields)
        buffer = _static_buffer(proc, "asctime", ASCTIME_BUFFER)
        if buffer == 0:
            return 0
        cursor = buffer
        for byte in text:  # no bound: the C bug, faithfully
            proc.consume()
            proc.space.write(cursor, bytes([byte]))
            cursor += 1
        proc.space.write(cursor, b"\x00")
        return buffer

    @libc_function(reg, "char *ctime(const time_t *timep)",
                   header="time.h", category="time",
                   error_detector=null_on_error)
    def ctime(proc: SimProcess, timep: int) -> int:
        """asctime(localtime(timep)), sharing both static buffers."""
        tm_ptr = gmtime(proc, timep)
        if tm_ptr == 0:
            return 0
        return asctime(proc, tm_ptr)

    @libc_function(reg,
                   "size_t strftime(char *s, size_t max, "
                   "const char *format, const struct tm *tm)",
                   header="time.h", category="time")
    def strftime(proc: SimProcess, s: int, max_: int, format_: int,
                 tm: int) -> int:
        """Bounded time formatter; returns 0 when the result overflows."""
        fields = read_tm(proc, tm)
        space = proc.space
        rendered = _bulk_strftime_scan(proc, format_, fields)
        if rendered is None:
            rendered = _bytewise_strftime_scan(proc, format_, fields)
        count = len(rendered)
        if count + 1 > max_:
            return 0  # per C99: contents undefined, we write nothing
        # one unit before each byte's write: clamp the run to the
        # headroom and to the first unwritable byte
        writable = space.writable_run(s, count)
        headroom = proc.fuel_headroom()
        reach = min(count, writable)
        side = reach if headroom is None else min(reach, headroom)
        if side:
            space.write_run(s, rendered[:side])
        if writable < count:
            proc.consume_metered(writable + 1)
            space.write(s + writable, b"\x00")
            raise AssertionError("strftime fault replay did not fault")
        proc.consume_metered(count)
        space.write(s + count, b"\x00")
        return count

    @libc_function(reg, "clock_t clock(void)",
                   header="time.h", category="time")
    def clock(proc: SimProcess) -> int:
        """Processor time: the fuel the process has burned."""
        proc.consume()
        return proc.fuel_used


def _bytewise_strftime_scan(proc: SimProcess, fmt: int, fields: dict) -> bytes:
    """The per-byte format scan; :func:`_bulk_strftime_scan` defers to
    it when a ``%`` is the last byte before the terminator or before
    unreadable memory."""
    out: List[bytes] = []
    cursor = fmt
    while True:
        proc.consume()
        byte = proc.space.read(cursor, 1)[0]
        cursor += 1
        if byte == 0:
            break
        if byte != 0x25:  # '%'
            out.append(bytes([byte]))
            continue
        conv = chr(proc.space.read(cursor, 1)[0])
        cursor += 1
        out.append(_strftime_conv(conv, fields))
    return b"".join(out)


def _bulk_strftime_scan(proc: SimProcess, fmt: int, fields: dict):
    """:func:`_bytewise_strftime_scan` over a prefetched format.

    The scan has no side effect but fuel, so it renders first and then
    draws one unit per loop iteration (a literal byte, a directive, the
    terminator read) at once.  None defers to the loop: a ``%`` as the
    last byte makes it read its conversion from the terminator or from
    unreadable memory.
    """
    space = proc.space
    terminator, readable = space.find_byte(fmt, 0)
    end = readable if terminator is None else terminator
    data = space.read_run(fmt, end)
    pieces = []
    units = 1  # the terminator read, or the faulting one
    position = 0
    while True:
        percent = data.find(0x25, position)
        stop = end if percent < 0 else percent
        pieces.append(data[position:stop])
        units += stop - position
        if percent < 0:
            break
        if percent + 1 >= end:
            return None
        pieces.append(_strftime_conv(chr(data[percent + 1]), fields))
        units += 1
        position = percent + 2
    proc.consume_metered(units)
    if terminator is None:
        space.read(fmt + end, 1)
        raise AssertionError("strftime fault replay did not fault")
    return b"".join(pieces)


def _strftime_conv(conv: str, fields: dict) -> bytes:
    year = fields["tm_year"] + 1900
    table = {
        "Y": str(year),
        "y": f"{year % 100:02d}",
        "m": f"{fields['tm_mon'] % 12 + 1:02d}",
        "d": f"{fields['tm_mday']:02d}",
        "e": f"{fields['tm_mday']:2d}",
        "H": f"{fields['tm_hour']:02d}",
        "M": f"{fields['tm_min']:02d}",
        "S": f"{fields['tm_sec']:02d}",
        "j": f"{fields['tm_yday'] + 1:03d}",
        "a": _WDAY[fields["tm_wday"] % 7],
        "b": _MON[fields["tm_mon"] % 12],
        "n": "\n",
        "t": "\t",
        "%": "%",
    }
    return table.get(conv, "%" + conv).encode()
