"""Tests for the paged address space (repro.memory.model)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BusError, SegmentationFault
from repro.memory import PAGE_SIZE, AddressSpace, Perm, page_align
from repro.memory.model import MISMATCH_WINDOW, first_mismatch
from tests.oracles import ScalarAddressSpace


@pytest.fixture
def space():
    return AddressSpace()


class TestMapping:
    def test_map_region_rounds_to_pages(self, space):
        mapping = space.map_region(100)
        assert mapping.size == PAGE_SIZE

    def test_regions_do_not_start_at_zero(self, space):
        mapping = space.map_region(PAGE_SIZE)
        assert mapping.start >= PAGE_SIZE

    def test_sequential_regions_have_guard_gap(self, space):
        first = space.map_region(PAGE_SIZE)
        second = space.map_region(PAGE_SIZE)
        assert second.start >= first.end + PAGE_SIZE

    def test_explicit_placement(self, space):
        mapping = space.map_region(PAGE_SIZE, at=0x10000)
        assert mapping.start == 0x10000

    def test_overlapping_placement_rejected(self, space):
        space.map_region(PAGE_SIZE, at=0x10000)
        with pytest.raises(ValueError):
            space.map_region(PAGE_SIZE, at=0x10000)

    def test_unaligned_placement_rejected(self, space):
        with pytest.raises(ValueError):
            space.map_region(PAGE_SIZE, at=0x10001)

    def test_zero_size_rejected(self, space):
        with pytest.raises(ValueError):
            space.map_region(0)

    def test_unmap_makes_region_fault(self, space):
        mapping = space.map_region(PAGE_SIZE)
        space.write(mapping.start, b"x")
        space.unmap(mapping)
        with pytest.raises(SegmentationFault):
            space.read(mapping.start, 1)

    def test_find_mapping(self, space):
        mapping = space.map_region(PAGE_SIZE)
        assert space.find_mapping(mapping.start) is mapping
        assert space.find_mapping(mapping.end - 1) is mapping
        assert space.find_mapping(mapping.end) is None
        assert space.find_mapping(0) is None


class TestAccessFaults:
    def test_null_read_faults(self, space):
        with pytest.raises(SegmentationFault) as info:
            space.read(0, 1)
        assert info.value.address == 0

    def test_near_null_read_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.read(16, 1)

    def test_unmapped_read_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.read(0x500000, 4)

    def test_read_runs_off_end_of_mapping(self, space):
        mapping = space.map_region(PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            space.read(mapping.end - 2, 4)

    def test_write_to_readonly_faults(self, space):
        mapping = space.map_region(PAGE_SIZE, perm=Perm.READ)
        space.read(mapping.start, 4)
        with pytest.raises(SegmentationFault) as info:
            space.write(mapping.start, b"boom")
        assert info.value.access == "write"

    def test_read_from_writeonly_faults(self, space):
        mapping = space.map_region(PAGE_SIZE, perm=Perm.WRITE)
        with pytest.raises(SegmentationFault):
            space.read(mapping.start, 1)

    def test_protect_changes_permissions(self, space):
        mapping = space.map_region(PAGE_SIZE, perm=Perm.READ)
        space.protect(mapping, Perm.RW)
        space.write(mapping.start, b"ok")
        assert space.read(mapping.start, 2) == b"ok"

    def test_zero_length_access_never_faults(self, space):
        assert space.read(0, 0) == b""
        space.write(0, b"")

    def test_is_readable_is_writable(self, space):
        mapping = space.map_region(PAGE_SIZE, perm=Perm.READ)
        assert space.is_readable(mapping.start)
        assert not space.is_writable(mapping.start)
        assert not space.is_readable(0)


class TestScalars:
    def test_u8_roundtrip(self, space):
        m = space.map_region(PAGE_SIZE)
        space.write_u8(m.start, 0xAB)
        assert space.read_u8(m.start) == 0xAB

    def test_u32_little_endian(self, space):
        m = space.map_region(PAGE_SIZE)
        space.write_u32(m.start, 0x11223344)
        assert space.read(m.start, 4) == b"\x44\x33\x22\x11"

    def test_u64_roundtrip(self, space):
        m = space.map_region(PAGE_SIZE)
        space.write_u64(m.start, 0xDEADBEEFCAFEF00D)
        assert space.read_u64(m.start) == 0xDEADBEEFCAFEF00D

    def test_i32_sign(self, space):
        m = space.map_region(PAGE_SIZE)
        space.write_i32(m.start, -5)
        assert space.read_i32(m.start) == -5
        assert space.read_u32(m.start) == 0xFFFFFFFB

    def test_truncation_on_write(self, space):
        m = space.map_region(PAGE_SIZE)
        space.write_u8(m.start, 0x1FF)
        assert space.read_u8(m.start) == 0xFF

    def test_aligned_u64_requires_alignment(self, space):
        m = space.map_region(PAGE_SIZE)
        with pytest.raises(BusError):
            space.read_aligned_u64(m.start + 3)


class TestCStrings:
    def test_roundtrip(self, space):
        m = space.map_region(PAGE_SIZE)
        space.write_cstring(m.start, b"hello")
        assert space.read_cstring(m.start) == b"hello"

    def test_empty_string(self, space):
        m = space.map_region(PAGE_SIZE)
        space.write_cstring(m.start, b"")
        assert space.read_cstring(m.start) == b""
        assert space.cstring_length(m.start) == 0

    def test_unterminated_string_faults_at_boundary(self, space):
        m = space.map_region(PAGE_SIZE)
        space.fill(m.start, 0x41, m.size)
        with pytest.raises(SegmentationFault):
            space.read_cstring(m.start)

    def test_limit_stops_scan(self, space):
        m = space.map_region(PAGE_SIZE)
        space.fill(m.start, 0x41, m.size)
        assert space.read_cstring(m.start, limit=10) == b"A" * 10
        assert space.cstring_length(m.start, limit=10) == 10

    def test_length_matches_read(self, space):
        m = space.map_region(PAGE_SIZE)
        space.write_cstring(m.start, b"abcdef")
        assert space.cstring_length(m.start) == 6


class TestDiagnostics:
    def test_describe_lists_mappings(self, space):
        space.map_region(PAGE_SIZE, perm=Perm.READ, name="[rodata]")
        space.map_region(PAGE_SIZE, perm=Perm.RW, name="[heap]")
        text = space.describe()
        assert "[rodata]" in text and "[heap]" in text
        assert "r-" in text and "rw" in text

    def test_page_align(self):
        assert page_align(0) == 0
        assert page_align(1) == PAGE_SIZE
        assert page_align(PAGE_SIZE) == PAGE_SIZE
        assert page_align(PAGE_SIZE + 1) == 2 * PAGE_SIZE


class TestVectorizedSubstrate:
    """Regressions for the bulk-op rewrite: resolve economy, memo
    invalidation and exact limit semantics."""

    def test_bulk_ops_resolve_once(self, space):
        m = space.map_region(PAGE_SIZE)
        before = space.resolve_count
        space.fill(m.start, 0x41, m.size)
        assert space.resolve_count == before + 1
        before = space.resolve_count
        space.write(m.start, b"B" * 256)
        assert space.resolve_count == before + 1
        before = space.resolve_count
        space.read(m.start, 256)
        assert space.resolve_count == before + 1

    def test_memo_serves_repeat_hits_without_search(self, space):
        m = space.map_region(PAGE_SIZE)
        space.write_u32(m.start, 7)
        space.read_u32(m.start)  # warm the memo for READ
        before = space.search_count
        for offset in range(0, 64, 4):
            space.read_u32(m.start + offset)
        assert space.search_count == before

    def test_memo_invalidated_by_unmap(self, space):
        m = space.map_region(PAGE_SIZE)
        space.read(m.start, 4)  # memoize
        epoch = space.epoch
        space.unmap(m)
        assert space.epoch > epoch
        with pytest.raises(SegmentationFault):
            space.read(m.start, 4)

    def test_memo_invalidated_by_protect(self, space):
        m = space.map_region(PAGE_SIZE)
        space.write(m.start, b"x")  # memoize WRITE
        space.protect(m, Perm.READ)
        with pytest.raises(SegmentationFault) as exc:
            space.write(m.start, b"y")
        assert "WRITE" in str(exc.value)
        assert space.read(m.start, 1) == b"x"

    def test_cstring_limit_reads_nothing_past_limit(self, space):
        """A limit-bounded scan must not touch the byte after the limit —
        even when that byte is unmapped (the scan stops first)."""
        m = space.map_region(PAGE_SIZE)
        space.fill(m.start, 0x41, m.size)
        start = m.end - 10
        assert space.read_cstring(start, limit=10) == b"A" * 10
        assert space.cstring_length(start, limit=10) == 10
        assert space.read_cstring(start, limit=0) == b""
        assert space.cstring_length(start, limit=-3) == 0

    def test_scalar_backend_matches_on_limit_edge(self):
        for space_type in (ScalarAddressSpace, AddressSpace):
            space = space_type()
            m = space.map_region(PAGE_SIZE)
            space.fill(m.start, 0x41, m.size)
            start = m.end - 10
            assert space.read_cstring(start, limit=10) == b"A" * 10


#: where first_mismatch's windows start: 0, then each window four times
#: the one before it
_WINDOW_EDGES = [0, MISMATCH_WINDOW, MISMATCH_WINDOW * 5,
                 MISMATCH_WINDOW * 21]


@st.composite
def mismatched_pair(draw):
    """Two equal-length byte strings differing first at a chosen index."""
    near_edges = [edge + delta for edge in _WINDOW_EDGES
                  for delta in (-1, 0, 1) if edge + delta > 0]
    length = draw(st.one_of(st.sampled_from(near_edges),
                            st.integers(1, _WINDOW_EDGES[-1] + 2)))
    special = [i for i in [0, length - 1]
               + [edge + delta for edge in _WINDOW_EDGES
                  for delta in (-1, 0, 1)] if 0 <= i < length]
    index = draw(st.one_of(st.sampled_from(special),
                           st.integers(0, length - 1)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = rng.randbytes(length)
    b = bytearray(a)
    b[index] ^= draw(st.integers(1, 255))
    if index + 1 < length and draw(st.booleans()):
        # a later difference must not move the answer
        later = draw(st.integers(index + 1, length - 1))
        b[later] ^= 0xFF
    return a, bytes(b)


@settings(max_examples=150, deadline=None)
@given(pair=mismatched_pair())
def test_first_mismatch_matches_a_naive_scan(pair):
    a, b = pair
    expected = next(i for i in range(len(a)) if a[i] != b[i])
    assert first_mismatch(a, b) == expected
