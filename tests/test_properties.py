"""Property-based tests (hypothesis) for core invariants."""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SegmentationFault
from repro.headers import parse_prototype
from repro.libc import standard_registry
from repro.memory import AddressSpace, HeapAllocator, PAGE_SIZE
from repro.objfile import SimELF, build_executable, build_shared_object
from repro.profiling import ProfileDocument
from repro.runtime import SimProcess
from repro.wrappers.state import WrapperState
from tests.oracles import cstring_length

COMMON = settings(max_examples=60,
                  suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# heap allocator invariants
# ----------------------------------------------------------------------

@st.composite
def heap_operations(draw):
    """A sequence of (op, argument) heap operations."""
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("malloc"), st.integers(0, 512)),
            st.tuples(st.just("free"), st.integers(0, 31)),
            st.tuples(st.just("realloc"), st.integers(0, 256)),
        ),
        min_size=1, max_size=40,
    ))
    return ops


class TestHeapProperties:
    @COMMON
    @given(heap_operations())
    def test_allocator_invariants(self, ops):
        """After any malloc/free/realloc sequence:
        - live allocations never overlap,
        - the chunk walk parses cleanly,
        - stats stay consistent with the live set."""
        space = AddressSpace()
        heap = HeapAllocator(space, size=1 << 17)
        live = []
        for op, arg in ops:
            if op == "malloc":
                ptr = heap.malloc(arg)
                if ptr:
                    live.append((ptr, arg))
            elif op == "free" and live:
                ptr, _ = live.pop(arg % len(live))
                heap.free(ptr)
            elif op == "realloc" and live:
                index = arg % len(live)
                ptr, _ = live[index]
                moved = heap.realloc(ptr, arg)
                if moved:
                    live[index] = (moved, arg)
                else:
                    live.pop(index)
        # no overlap
        spans = sorted((p, p + max(s, 1)) for p, s in live)
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start
        # walk parses and agrees on the live set
        walked_live = {c.user_address for c in heap.walk() if c.allocated}
        assert {p for p, _ in live} <= walked_live
        assert heap.stats.live_chunks == len(heap.live_allocations())

    @COMMON
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=20))
    def test_malloc_contents_independent(self, sizes):
        """Writing each allocation's full extent never bleeds into others."""
        space = AddressSpace()
        heap = HeapAllocator(space, size=1 << 18)
        ptrs = []
        for index, size in enumerate(sizes):
            ptr = heap.malloc(size)
            assert ptr
            space.fill(ptr, index & 0xFF, size)
            ptrs.append((ptr, size, index & 0xFF))
        for ptr, size, fill in ptrs:
            assert space.read(ptr, size) == bytes([fill]) * size
        assert heap.check_integrity() == []

    @COMMON
    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_realloc_preserves_prefix(self, old_size, new_size):
        space = AddressSpace()
        heap = HeapAllocator(space, size=1 << 18)
        ptr = heap.malloc(old_size)
        data = bytes(i & 0xFF for i in range(old_size))
        space.write(ptr, data)
        moved = heap.realloc(ptr, new_size)
        keep = min(old_size, new_size)
        if moved:
            assert space.read(moved, keep) == data[:keep]


# ----------------------------------------------------------------------
# address space
# ----------------------------------------------------------------------

class TestAddressSpaceProperties:
    @COMMON
    @given(st.binary(min_size=0, max_size=200), st.integers(0, 100))
    def test_write_read_roundtrip(self, data, offset):
        space = AddressSpace()
        mapping = space.map_region(PAGE_SIZE)
        address = mapping.start + offset
        space.write(address, data)
        assert space.read(address, len(data)) == data

    @COMMON
    @given(st.binary(min_size=0, max_size=100).filter(lambda b: 0 not in b))
    def test_cstring_roundtrip(self, text):
        proc = SimProcess()
        ptr = proc.alloc_cstring(text)
        assert proc.read_cstring(ptr) == text
        assert cstring_length(proc.space, ptr) == len(text)

    @COMMON
    @given(st.integers(0, 2 ** 32 - 1))
    def test_unmapped_reads_always_fault(self, address):
        space = AddressSpace()
        with pytest.raises(SegmentationFault):
            space.read(address, 1)


# ----------------------------------------------------------------------
# libc against Python reference semantics
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def libc():
    return standard_registry()


TEXT = st.binary(min_size=0, max_size=64).filter(lambda b: 0 not in b)


class TestLibcProperties:
    @COMMON
    @given(TEXT)
    def test_strlen_matches_len(self, libc, text):
        proc = SimProcess()
        assert libc["strlen"](proc, proc.alloc_cstring(text)) == len(text)

    @COMMON
    @given(TEXT, TEXT)
    def test_strcmp_sign_matches_python(self, libc, a, b):
        proc = SimProcess()
        result = libc["strcmp"](proc, proc.alloc_cstring(a),
                                proc.alloc_cstring(b))
        expected = (a > b) - (a < b)
        assert (result > 0) - (result < 0) == expected

    @COMMON
    @given(TEXT, TEXT)
    def test_strcat_is_concatenation(self, libc, a, b):
        proc = SimProcess()
        dest = proc.alloc_buffer(len(a) + len(b) + 1)
        proc.space.write_cstring(dest, a)
        libc["strcat"](proc, dest, proc.alloc_cstring(b))
        assert proc.read_cstring(dest) == a + b

    @COMMON
    @given(TEXT, TEXT)
    def test_strstr_matches_find(self, libc, haystack, needle):
        proc = SimProcess()
        h = proc.alloc_cstring(haystack)
        result = libc["strstr"](proc, h, proc.alloc_cstring(needle))
        expected = haystack.find(needle)
        if expected < 0:
            assert result == 0
        else:
            assert result == h + expected

    @COMMON
    @given(st.integers(-(2 ** 31), 2 ** 31 - 1))
    def test_atoi_matches_int_parse(self, libc, value):
        proc = SimProcess()
        assert libc["atoi"](proc,
                            proc.alloc_cstring(str(value).encode())) == value

    @COMMON
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=32))
    def test_qsort_matches_sorted(self, libc, values):
        proc = SimProcess()
        base = proc.alloc_bytes(bytes(values))
        comparator = proc.register_callback(
            lambda p, x, y: p.space.read(x, 1)[0] - p.space.read(y, 1)[0]
        )
        libc["qsort"](proc, base, len(values), 1, comparator)
        assert list(proc.space.read(base, len(values))) == sorted(values)

    @COMMON
    @given(st.binary(min_size=0, max_size=64), st.binary(min_size=0,
                                                         max_size=64))
    def test_memcmp_matches_python(self, libc, a, b):
        proc = SimProcess()
        n = min(len(a), len(b))
        pa = proc.alloc_bytes(a or b"\x00")
        pb = proc.alloc_bytes(b or b"\x00")
        result = libc["memcmp"](proc, pa, pb, n)
        expected = (a[:n] > b[:n]) - (a[:n] < b[:n])
        assert (result > 0) - (result < 0) == expected

    @COMMON
    @given(st.integers(0, 2 ** 31 - 1), st.text(
        alphabet=string.ascii_letters + string.digits + " _", max_size=12))
    def test_sprintf_d_s_matches_python_format(self, libc, number, text):
        proc = SimProcess()
        buf = proc.alloc_buffer(256)
        s = proc.alloc_cstring(text.encode())
        libc["sprintf"](proc, buf, proc.alloc_cstring(b"%d:%s"), number, s)
        assert proc.read_cstring(buf) == f"{number}:{text}".encode()


# ----------------------------------------------------------------------
# parsers and documents round-trip
# ----------------------------------------------------------------------

from repro.headers.parser import DEFAULT_TYPEDEFS

_RESERVED = DEFAULT_TYPEDEFS | {
    "const", "void", "int", "char", "long", "short", "float", "double",
    "unsigned", "signed", "struct", "union", "enum", "extern", "static",
    "inline", "typedef", "volatile", "restrict",
}

IDENT = st.text(alphabet=string.ascii_lowercase + "_",
                min_size=1, max_size=10).filter(
                    lambda s: s not in _RESERVED)

CTYPE = st.sampled_from([
    "int", "char *", "const char *", "void *", "size_t", "unsigned long",
    "char **", "double", "long long",
])


class TestParserProperties:
    @COMMON
    @given(IDENT, st.lists(st.tuples(IDENT, CTYPE), max_size=4,
                           unique_by=lambda t: t[0]))
    def test_prototype_declare_parse_roundtrip(self, name, params):
        from repro.headers.model import Parameter, Prototype, scalar
        from repro.headers.parser import parse_prototype as parse

        proto = Prototype(
            name=name,
            return_type=scalar("int"),
            params=[Parameter(p, _ctype_of(t)) for p, t in params],
        )
        parsed = parse(proto.declare())
        assert parsed.name == proto.name
        assert [p.name for p in parsed.params] == [p for p, _ in params]
        assert [p.ctype for p in parsed.params] == \
            [p.ctype for p in proto.params]

    @COMMON
    @given(st.lists(IDENT, min_size=0, max_size=8, unique=True),
           st.lists(IDENT, min_size=0, max_size=8, unique=True))
    def test_simelf_roundtrip(self, needed, undefined):
        image = build_executable("/bin/x", needed=needed,
                                 undefined=undefined)
        parsed = SimELF.parse(image.serialize(), path="/bin/x")
        assert parsed.needed == needed
        assert parsed.undefined == sorted(set(undefined))

    @COMMON
    @given(st.lists(IDENT, min_size=1, max_size=10, unique=True))
    def test_shared_object_roundtrip(self, defined):
        image = build_shared_object("/lib/x.so", "x.so", defined)
        parsed = SimELF.parse(image.serialize())
        assert parsed.defined == sorted(set(defined))

    @COMMON
    @given(st.dictionaries(IDENT, st.tuples(st.integers(0, 10 ** 6),
                                            st.integers(0, 10 ** 9)),
                           max_size=8))
    def test_profile_document_roundtrip(self, counters):
        state = WrapperState()
        for name, (calls, nanos) in counters.items():
            state.calls[name] = calls
            state.exectime_ns[name] = nanos
        document = ProfileDocument.from_state(state, "app", "profiling")
        parsed = ProfileDocument.from_xml(document.to_xml())
        assert parsed.total_calls == document.total_calls
        assert parsed.total_exectime_ns == document.total_exectime_ns


def _ctype_of(spelling: str):
    proto = parse_prototype(f"void f({spelling} x)")
    return proto.params[0].ctype


# ----------------------------------------------------------------------
# derivation invariants
# ----------------------------------------------------------------------

class TestDerivationProperties:
    @COMMON
    @given(st.lists(
        st.tuples(st.integers(0, 3), st.booleans()),
        min_size=1, max_size=20,
    ))
    def test_derived_rank_is_minimal_and_clean(self, probes):
        """The derived type has no failures at or above its rank, and every
        weaker rank (if any) has at least one failure."""
        from repro.errors import Outcome
        from repro.injection.campaign import Probe, ProbeRecord
        from repro.robust import derive_parameter
        from repro.runtime import ProbeResult

        records = [
            ProbeRecord(
                probe=Probe(function="f", param_index=0, param_name="p",
                            chain="cstring_in", value_label=f"v{i}",
                            max_rank=rank),
                result=ProbeResult(
                    outcome=Outcome.CRASH if failed else Outcome.PASS),
            )
            for i, (rank, failed) in enumerate(probes)
        ]
        derivation = derive_parameter(records, "p", "cstring_in", "char *")
        if derivation.robust_type is not None:
            rank = derivation.robust_type.rank
            assert not any(
                r.failed for r in records if r.probe.max_rank >= rank
            )
            for weaker in range(rank):
                satisfying = [r for r in records
                              if r.probe.max_rank >= weaker]
                assert not satisfying or any(r.failed for r in satisfying)
        else:
            top = 3
            satisfying = [r for r in records if r.probe.max_rank >= top]
            assert not satisfying or any(r.failed for r in satisfying)
