"""Tests for the simulated <stdlib.h> family."""

import pytest

from repro.errors import (
    Aborted,
    DoubleFree,
    ProcessExit,
    SegmentationFault,
)
from repro.libc import standard_registry
from repro.memory import Perm
from repro.runtime import Errno, SimProcess


@pytest.fixture(scope="module")
def libc():
    return standard_registry()


@pytest.fixture
def proc():
    return SimProcess()


class TestAllocation:
    def test_malloc_free_roundtrip(self, libc, proc):
        ptr = libc["malloc"](proc, 64)
        assert ptr != 0
        assert proc.heap.allocation_size(ptr) == 64
        libc["free"](proc, ptr)
        assert proc.heap.allocation_size(ptr) is None

    def test_malloc_exhaustion_sets_enomem(self, libc):
        proc = SimProcess(heap_size=8192)
        assert libc["malloc"](proc, 1 << 30) == 0
        assert proc.errno == Errno.ENOMEM

    def test_calloc_zeroes(self, libc, proc):
        ptr = libc["calloc"](proc, 8, 8)
        assert proc.space.read(ptr, 64) == b"\x00" * 64

    def test_realloc_grows_preserving(self, libc, proc):
        ptr = libc["malloc"](proc, 8)
        proc.space.write(ptr, b"12345678")
        bigger = libc["realloc"](proc, ptr, 64)
        assert proc.space.read(bigger, 8) == b"12345678"

    def test_double_free_aborts(self, libc, proc):
        ptr = libc["malloc"](proc, 8)
        libc["free"](proc, ptr)
        with pytest.raises(DoubleFree):
            libc["free"](proc, ptr)

    def test_free_null_ok(self, libc, proc):
        libc["free"](proc, 0)


class TestIntegerMath:
    @pytest.mark.parametrize("fn", ["abs", "labs", "llabs"])
    def test_abs_family(self, libc, proc, fn):
        assert libc[fn](proc, -5) == 5
        assert libc[fn](proc, 5) == 5
        assert libc[fn](proc, 0) == 0

    def test_abs_int_min_overflow(self, libc, proc):
        # two's complement: abs(INT_MIN) == INT_MIN
        assert libc["abs"](proc, -(2 ** 31)) == -(2 ** 31)

    def test_div_truncates_toward_zero(self, libc, proc):
        assert libc["div_quot"](proc, 7, 2) == 3
        assert libc["div_quot"](proc, -7, 2) == -3
        assert libc["div_rem"](proc, -7, 2) == -1

    def test_div_by_zero_traps(self, libc, proc):
        with pytest.raises(ZeroDivisionError):
            libc["div_quot"](proc, 1, 0)


class TestConversion:
    @pytest.mark.parametrize("text,expected", [
        (b"42", 42), (b"  -17", -17), (b"+8", 8), (b"123abc", 123),
        (b"abc", 0), (b"", 0), (b"-0", 0),
    ])
    def test_atoi(self, libc, proc, text, expected):
        assert libc["atoi"](proc, proc.alloc_cstring(text)) == expected

    def test_atoi_null_crashes(self, libc, proc):
        with pytest.raises(SegmentationFault):
            libc["atoi"](proc, 0)

    def test_strtol_endptr(self, libc, proc):
        text = proc.alloc_cstring(b"  1234xyz")
        endptr = proc.alloc_buffer(8)
        assert libc["strtol"](proc, text, endptr, 10) == 1234
        end = proc.space.read_ptr(endptr)
        assert proc.read_cstring(end) == b"xyz"

    def test_strtol_no_digits_endptr_is_nptr(self, libc, proc):
        text = proc.alloc_cstring(b"zzz")
        endptr = proc.alloc_buffer(8)
        assert libc["strtol"](proc, text, endptr, 10) == 0
        assert proc.space.read_ptr(endptr) == text

    def test_strtol_hex_prefix(self, libc, proc):
        assert libc["strtol"](proc, proc.alloc_cstring(b"0x1f"), 0, 0) == 31
        assert libc["strtol"](proc, proc.alloc_cstring(b"0x1f"), 0, 16) == 31

    def test_strtol_octal_auto(self, libc, proc):
        assert libc["strtol"](proc, proc.alloc_cstring(b"0755"), 0, 0) == 0o755

    def test_strtol_invalid_base(self, libc, proc):
        text = proc.alloc_cstring(b"10")
        assert libc["strtol"](proc, text, 0, 1) == 0
        assert proc.errno == Errno.EINVAL

    def test_strtol_overflow_clamps(self, libc, proc):
        text = proc.alloc_cstring(b"99999999999999999999999999")
        assert libc["strtol"](proc, text, 0, 10) == 2 ** 63 - 1
        assert proc.errno == Errno.ERANGE

    def test_strtoul(self, libc, proc):
        assert libc["strtoul"](proc, proc.alloc_cstring(b"18"), 0, 10) == 18

    @pytest.mark.parametrize("text,expected", [
        (b"3.5", 3.5), (b"-2.25e2", -225.0), (b"  .5", 0.5),
        (b"1e", 1.0), (b"nope", 0.0),
    ])
    def test_strtod(self, libc, proc, text, expected):
        assert libc["strtod"](proc, proc.alloc_cstring(text), 0) == expected

    def test_atof(self, libc, proc):
        assert libc["atof"](proc, proc.alloc_cstring(b"2.5x")) == 2.5


class TestQsortBsearch:
    def _sorted_array(self, libc, proc, values):
        data = bytes(values)
        base = proc.alloc_bytes(data)
        comparator = proc.register_callback(
            lambda p, a, b: p.space.read(a, 1)[0] - p.space.read(b, 1)[0]
        )
        libc["qsort"](proc, base, len(values), 1, comparator)
        return base, comparator

    def test_qsort_sorts(self, libc, proc):
        base, _ = self._sorted_array(libc, proc, [9, 1, 8, 2, 7, 3])
        assert list(proc.space.read(base, 6)) == [1, 2, 3, 7, 8, 9]

    def test_qsort_stability_of_size(self, libc, proc):
        # 4-byte elements sorted by first byte
        values = b"\x03AAA\x01BBB\x02CCC"
        base = proc.alloc_bytes(values)
        comparator = proc.register_callback(
            lambda p, a, b: p.space.read(a, 1)[0] - p.space.read(b, 1)[0]
        )
        libc["qsort"](proc, base, 3, 4, comparator)
        assert proc.space.read(base, 12) == b"\x01BBB\x02CCC\x03AAA"

    @staticmethod
    def _recorded_sort(sort, protect_after=None):
        """Run ``sort`` (runtime or oracle qsort) with a comparator that
        records, per comparison, the stamp delta, the watermark and the
        scratch bytes it sees, then empties the watermark; after
        ``protect_after`` comparisons it makes the heap read-only."""
        proc = SimProcess()
        space = proc.space
        base = proc.alloc_bytes(b"\x05AA\x01BB\x04CC\x02DD\x03EE")
        seen = []
        last = [space.mutations]

        def comparator(p, a, b):
            seen.append((space.mutations - last[0], space.dirty_lo,
                         space.dirty_hi, space.read(a, 6)))
            space.dirty_lo, space.dirty_hi = 2 ** 32, 0
            if len(seen) == protect_after:
                space.protect(proc.heap.mapping, Perm.READ)
            last[0] = space.mutations
            return space.read_u8(a) - space.read_u8(b)

        compar = proc.register_callback(comparator)
        try:
            sort(proc, base, 5, 3, compar)
            outcome = space.read(base, 15)
        except SegmentationFault as exc:
            outcome = (exc.address, exc.access)
        return seen, outcome

    def test_qsort_scratch_span_matches_two_writes(self, libc):
        """One resolved span stamps and watermarks each comparison's
        scratch exactly as the oracle's two ``space.write`` calls do."""
        from tests.oracles.libc import qsort as oracle_qsort

        assert self._recorded_sort(libc["qsort"]) == \
            self._recorded_sort(oracle_qsort)

    def test_qsort_comparator_moving_the_epoch_drops_the_span(self, libc):
        """A comparator that re-protects the scratch's mapping sends the
        next scratch write back through ``space.write``, which faults."""
        from tests.oracles.libc import qsort as oracle_qsort

        runtime = self._recorded_sort(libc["qsort"], protect_after=2)
        assert runtime == self._recorded_sort(oracle_qsort, protect_after=2)
        assert runtime[1][1] == "write" and len(runtime[0]) == 2

    def test_qsort_zero_elements(self, libc, proc):
        base = proc.alloc_buffer(4)
        libc["qsort"](proc, base, 0, 1, 0)  # comparator never resolved

    def test_qsort_bad_comparator_crashes(self, libc, proc):
        base = proc.alloc_bytes(b"ba")
        with pytest.raises(SegmentationFault):
            libc["qsort"](proc, base, 2, 1, 0xBAD)

    def test_bsearch_finds(self, libc, proc):
        base, comparator = self._sorted_array(libc, proc, [5, 3, 9, 1])
        key = proc.alloc_bytes(bytes([9]))
        found = libc["bsearch"](proc, key, base, 4, 1, comparator)
        assert found != 0
        assert proc.space.read(found, 1) == b"\x09"

    def test_bsearch_missing_returns_null(self, libc, proc):
        base, comparator = self._sorted_array(libc, proc, [5, 3, 9, 1])
        key = proc.alloc_bytes(bytes([4]))
        assert libc["bsearch"](proc, key, base, 4, 1, comparator) == 0


class TestRand:
    def test_rand_deterministic_after_srand(self, libc):
        a = SimProcess()
        b = SimProcess()
        libc["srand"](a, 42)
        libc["srand"](b, 42)
        assert [libc["rand"](a) for _ in range(5)] == \
               [libc["rand"](b) for _ in range(5)]

    def test_rand_in_range(self, libc, proc):
        for _ in range(100):
            value = libc["rand"](proc)
            assert 0 <= value <= 2 ** 31 - 1


class TestEnvProcess:
    def test_getenv_missing_returns_null(self, libc, proc):
        assert libc["getenv"](proc, proc.alloc_cstring(b"NOPE")) == 0

    def test_setenv_then_getenv(self, libc, proc):
        libc["setenv"](proc, proc.alloc_cstring(b"HOME"),
                       proc.alloc_cstring(b"/root"), 1)
        ptr = libc["getenv"](proc, proc.alloc_cstring(b"HOME"))
        assert proc.read_cstring(ptr) == b"/root"

    def test_setenv_no_overwrite(self, libc, proc):
        name = proc.alloc_cstring(b"X")
        libc["setenv"](proc, name, proc.alloc_cstring(b"1"), 1)
        libc["setenv"](proc, name, proc.alloc_cstring(b"2"), 0)
        assert proc.read_cstring(libc["getenv"](proc, name)) == b"1"

    def test_setenv_invalid_name(self, libc, proc):
        assert libc["setenv"](proc, proc.alloc_cstring(b"A=B"),
                              proc.alloc_cstring(b"x"), 1) == -1
        assert proc.errno == Errno.EINVAL

    def test_exit_raises_process_exit(self, libc, proc):
        with pytest.raises(ProcessExit) as info:
            libc["exit"](proc, 3)
        assert info.value.status == 3
        assert proc.exit_status == 3

    def test_abort_raises(self, libc, proc):
        with pytest.raises(Aborted):
            libc["abort"](proc)
