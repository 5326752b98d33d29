"""Simulated <wchar.h> / <wctype.h> family.

Wide characters are 4 bytes (glibc's ``wchar_t``).  ``wctrans`` is the
function the paper's Fig. 3 wraps, so it is reproduced carefully: it maps
a *name string* to a transformation descriptor, returning 0 for unknown
names — and dereferences its argument without checking, so ``wctrans(NULL)``
is a crash the fault injector finds.
"""

from __future__ import annotations

from repro.libc import helpers
from repro.libc.registry import LibcRegistry, libc_function, null_on_error
from repro.memory.model import first_mismatch
from repro.runtime.process import SimProcess

WCHAR_SIZE = 4

#: transformation descriptors returned by wctrans()
TRANS_TOLOWER = 1
TRANS_TOUPPER = 2

#: classification descriptors returned by wctype()
_WCTYPE_NAMES = {
    b"alnum": 1,
    b"alpha": 2,
    b"blank": 3,
    b"cntrl": 4,
    b"digit": 5,
    b"graph": 6,
    b"lower": 7,
    b"print": 8,
    b"punct": 9,
    b"space": 10,
    b"upper": 11,
    b"xdigit": 12,
}


def read_wchar(proc: SimProcess, address: int) -> int:
    """Read one wchar_t (consumes fuel like the byte loops do)."""
    proc.consume()
    return proc.space.read_u32(address)


def _find_terminator(space, address: int, limit_chars=None):
    """Locate the zero word of a wide string via chunked bulk windows.

    Returns ``(index, scanned)`` in characters: ``index`` is the terminator
    position (None if absent) and ``scanned`` is how many characters were
    reachable — at ``scanned`` the next ``read_u32`` would fault (or the
    ``limit_chars`` bound was hit).
    """
    total = 0
    chunk = 256
    while limit_chars is None or total < limit_chars:
        cap = chunk
        if limit_chars is not None:
            cap = min(cap, limit_chars - total)
        chars, data = helpers.wide_window(space, address + total * WCHAR_SIZE, cap)
        index = helpers.find_word(data, 0)
        if index is not None:
            return total + index, total + index + 1
        total += chars
        if chars < cap:
            break
        chunk *= 4
    return None, total


def _bytewise_wcscpy(proc: SimProcess, dest: int, src: int) -> int:
    offset = 0
    while True:
        value = read_wchar(proc, src + offset)
        proc.space.write_u32(dest + offset, value)
        if value == 0:
            return dest
        offset += WCHAR_SIZE


def _bytewise_wcsncpy(proc: SimProcess, dest: int, src: int, n: int) -> int:
    terminated = False
    for index in range(n):
        if terminated:
            proc.consume()
            proc.space.write_u32(dest + index * WCHAR_SIZE, 0)
        else:
            value = read_wchar(proc, src + index * WCHAR_SIZE)
            proc.space.write_u32(dest + index * WCHAR_SIZE, value)
            if value == 0:
                terminated = True
    return dest


def register(reg: LibcRegistry) -> None:
    """Register the wide-character family into ``reg``."""

    @libc_function(reg, "size_t wcslen(const wchar_t *s)",
                   header="wchar.h", category="wide")
    def wcslen(proc: SimProcess, s: int) -> int:
        """Length of a wide string in characters."""
        space = proc.space
        index, scanned = _find_terminator(space, s)
        if index is not None:
            proc.consume_metered(index + 1)
            return index
        proc.consume_metered(scanned + 1)
        space.read_u32(s + scanned * WCHAR_SIZE)
        raise AssertionError("wcslen fault replay did not fault")

    @libc_function(reg, "wchar_t *wcscpy(wchar_t *dest, const wchar_t *src)",
                   header="wchar.h", category="wide")
    def wcscpy(proc: SimProcess, dest: int, src: int) -> int:
        """Copy a wide string including its terminator; no bounds check."""
        space = proc.space
        index, scanned = _find_terminator(space, src)
        span = (index + 1) if index is not None else scanned + 1
        if src < dest < src + span * WCHAR_SIZE:
            # the loop reads back characters it has just written
            return _bytewise_wcscpy(proc, dest, src)
        headroom = proc.fuel_headroom()
        if index is not None:
            need = index + 1
            writable = helpers.wide_writable_chars(space, dest, need)
            if writable >= need:
                side = need if headroom is None else min(need, headroom)
                if side:
                    space.write_run(dest, space.read_run(src, side * WCHAR_SIZE))
                proc.consume_metered(need)
                return dest
            side = writable if headroom is None else min(writable, headroom)
            if side:
                space.write_run(dest, space.read_run(src, side * WCHAR_SIZE))
            proc.consume_metered(writable + 1)
            space.write_u32(dest + writable * WCHAR_SIZE, 0)
            raise AssertionError("wcscpy fault replay did not fault")
        writable = helpers.wide_writable_chars(space, dest, scanned + 1)
        processed = min(scanned, writable)
        side = processed if headroom is None else min(processed, headroom)
        if side:
            space.write_run(dest, space.read_run(src, side * WCHAR_SIZE))
        proc.consume_metered(processed + 1)
        if scanned <= writable:
            space.read_u32(src + scanned * WCHAR_SIZE)
        else:
            space.write_u32(dest + writable * WCHAR_SIZE, 0)
        raise AssertionError("wcscpy fault replay did not fault")

    @libc_function(reg,
                   "wchar_t *wcsncpy(wchar_t *dest, const wchar_t *src, size_t n)",
                   header="wchar.h", category="wide")
    def wcsncpy(proc: SimProcess, dest: int, src: int, n: int) -> int:
        """Copy at most n wide characters, padding with L'\\0'."""
        if n <= 0:
            return dest
        space = proc.space
        if src < dest < src + n * WCHAR_SIZE:
            # the loop reads back characters it has just written
            return _bytewise_wcsncpy(proc, dest, src, n)
        index, scanned = _find_terminator(space, src, n)
        if index is not None:
            copy_chars, read_ok = index + 1, True
        elif scanned >= n:
            copy_chars, read_ok = n, True
        else:
            copy_chars, read_ok = scanned, False
        writable = helpers.wide_writable_chars(space, dest, n)
        headroom = proc.fuel_headroom()
        if read_ok and writable >= n:
            side = n if headroom is None else min(n, headroom)
            copied = min(side, copy_chars)
            if copied:
                space.write_run(dest, space.read_run(src, copied * WCHAR_SIZE))
            if side > copied:
                space.fill_run(
                    dest + copied * WCHAR_SIZE, 0, (side - copied) * WCHAR_SIZE
                )
            proc.consume_metered(n)
            return dest
        if not read_ok and copy_chars <= writable:
            fault_char = copy_chars
        else:
            fault_char = writable
        side = fault_char if headroom is None else min(fault_char, headroom)
        copied = min(side, copy_chars)
        if copied:
            space.write_run(dest, space.read_run(src, copied * WCHAR_SIZE))
        if side > copied:
            space.fill_run(
                dest + copied * WCHAR_SIZE, 0, (side - copied) * WCHAR_SIZE
            )
        proc.consume_metered(fault_char + 1)
        if not read_ok and copy_chars <= writable:
            space.read_u32(src + copy_chars * WCHAR_SIZE)
        else:
            space.write_u32(dest + writable * WCHAR_SIZE, 0)
        raise AssertionError("wcsncpy fault replay did not fault")

    @libc_function(reg, "int wcscmp(const wchar_t *s1, const wchar_t *s2)",
                   header="wchar.h", category="wide")
    def wcscmp(proc: SimProcess, s1: int, s2: int) -> int:
        """Lexicographic wide-string comparison."""
        space = proc.space
        # the loop burns two fuel units per character (one per read_wchar)
        offset = 0
        chunk = 256
        while True:
            chars1, data1 = helpers.wide_window(
                space, s1 + offset * WCHAR_SIZE, chunk
            )
            chars2, data2 = helpers.wide_window(
                space, s2 + offset * WCHAR_SIZE, chunk
            )
            window = min(chars1, chars2)
            if window == 0:
                if chars1 == 0:
                    proc.consume_metered(2 * offset + 1)
                    space.read_u32(s1 + offset * WCHAR_SIZE)
                else:
                    proc.consume_metered(2 * offset + 2)
                    space.read_u32(s2 + offset * WCHAR_SIZE)
                raise AssertionError("wcscmp fault replay did not fault")
            a = data1[: window * WCHAR_SIZE]
            b = data2[: window * WCHAR_SIZE]
            if a == b:
                terminator = helpers.find_word(a, 0)
                if terminator is not None:
                    proc.consume_metered(2 * (offset + terminator) + 2)
                    return 0
            else:
                mismatch = first_mismatch(a, b) // WCHAR_SIZE
                terminator = helpers.find_word(a[: mismatch * WCHAR_SIZE], 0)
                if terminator is not None:
                    proc.consume_metered(2 * (offset + terminator) + 2)
                    return 0
                value1 = int.from_bytes(
                    a[mismatch * WCHAR_SIZE : (mismatch + 1) * WCHAR_SIZE], "little"
                )
                value2 = int.from_bytes(
                    b[mismatch * WCHAR_SIZE : (mismatch + 1) * WCHAR_SIZE], "little"
                )
                proc.consume_metered(2 * (offset + mismatch) + 2)
                return helpers.int_result(value1 - value2, 32)
            offset += window
            chunk *= 4

    @libc_function(reg, "wchar_t *wcschr(const wchar_t *s, wchar_t c)",
                   header="wchar.h", category="wide",
                   error_detector=null_on_error)
    def wcschr(proc: SimProcess, s: int, c: int) -> int:
        """First occurrence of c in the wide string s, or NULL."""
        space = proc.space
        target = c & 0xFFFFFFFF
        offset = 0
        chunk = 256
        while True:
            chars, data = helpers.wide_window(space, s + offset * WCHAR_SIZE, chunk)
            hit = helpers.find_word(data, target)
            nul = hit if target == 0 else helpers.find_word(data, 0)
            # the loop tests the target before the terminator
            if hit is not None and (nul is None or hit <= nul):
                proc.consume_metered(offset + hit + 1)
                return s + (offset + hit) * WCHAR_SIZE
            if nul is not None:
                proc.consume_metered(offset + nul + 1)
                return 0
            offset += chars
            if chars < chunk:
                proc.consume_metered(offset + 1)
                space.read_u32(s + offset * WCHAR_SIZE)
                raise AssertionError("wcschr fault replay did not fault")
            chunk *= 4

    @libc_function(reg, "wctrans_t wctrans(const char *name)",
                   header="wctype.h", category="wide",
                   error_detector=null_on_error)
    def wctrans(proc: SimProcess, name: int) -> int:
        """Descriptor for a named transformation; 0 for unknown names.

        This is the function shown wrapped in the paper's Fig. 3.
        """
        length = helpers.scan_string_length(proc, name)
        text = proc.space.read(name, length)
        if text == b"tolower":
            return TRANS_TOLOWER
        if text == b"toupper":
            return TRANS_TOUPPER
        return 0

    @libc_function(reg, "wint_t towctrans(wint_t wc, wctrans_t desc)",
                   header="wctype.h", category="wide")
    def towctrans(proc: SimProcess, wc: int, desc: int) -> int:
        """Apply a transformation descriptor from wctrans()."""
        proc.consume()
        if desc == TRANS_TOLOWER:
            return wc + 0x20 if 0x41 <= wc <= 0x5A else wc
        if desc == TRANS_TOUPPER:
            return wc - 0x20 if 0x61 <= wc <= 0x7A else wc
        return wc

    @libc_function(reg, "wctype_t wctype(const char *name)",
                   header="wctype.h", category="wide",
                   error_detector=null_on_error)
    def wctype(proc: SimProcess, name: int) -> int:
        """Descriptor for a named character class; 0 for unknown names."""
        length = helpers.scan_string_length(proc, name)
        return _WCTYPE_NAMES.get(proc.space.read(name, length), 0)

    @libc_function(reg, "int iswctype(wint_t wc, wctype_t desc)",
                   header="wctype.h", category="wide")
    def iswctype(proc: SimProcess, wc: int, desc: int) -> int:
        """Test wc against a class descriptor from wctype()."""
        proc.consume()
        if not (0 <= wc <= 0x10FFFF):
            return 0
        char = chr(wc)
        tests = {
            1: char.isalnum(),
            2: char.isalpha(),
            3: char in " \t",
            4: wc < 0x20 or wc == 0x7F,
            5: char.isdigit(),
            6: char.isprintable() and char != " ",
            7: char.islower(),
            8: char.isprintable(),
            9: not char.isalnum() and char.isprintable() and char != " ",
            10: char.isspace(),
            11: char.isupper(),
            12: char in "0123456789abcdefABCDEF",
        }
        return 1 if tests.get(desc, False) else 0

    @libc_function(reg, "wint_t towupper(wint_t wc)",
                   header="wctype.h", category="wide")
    def towupper(proc: SimProcess, wc: int) -> int:
        """Wide uppercase conversion (ASCII range)."""
        proc.consume()
        return wc - 0x20 if 0x61 <= wc <= 0x7A else wc

    @libc_function(reg, "wint_t towlower(wint_t wc)",
                   header="wctype.h", category="wide")
    def towlower(proc: SimProcess, wc: int) -> int:
        """Wide lowercase conversion (ASCII range)."""
        proc.consume()
        return wc + 0x20 if 0x41 <= wc <= 0x5A else wc

    @libc_function(reg, "int iswalpha(wint_t wc)",
                   header="wctype.h", category="wide")
    def iswalpha(proc: SimProcess, wc: int) -> int:
        """Nonzero when wc is alphabetic."""
        proc.consume()
        return 1 if 0 <= wc <= 0x10FFFF and chr(wc).isalpha() else 0

    @libc_function(reg, "int iswdigit(wint_t wc)",
                   header="wctype.h", category="wide")
    def iswdigit(proc: SimProcess, wc: int) -> int:
        """Nonzero when wc is a decimal digit."""
        proc.consume()
        return 1 if 0x30 <= wc <= 0x39 else 0
