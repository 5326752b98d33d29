"""Differential fuzzing: the per-byte oracles vs the vectorized runtime.

The vectorized memory paths (bulk ``AddressSpace`` primitives, the
slice-based libc bodies built on them, the heap's fused integrity sweep
and the security wrapper's bounded ``gets``) must be pure performance
transformations of the byte-at-a-time loops kept in ``tests/oracles``.
Hypothesis drives the runtime and the oracle with identical scenes —
random payloads laid across mapping boundaries, adjacent mappings with
weaker permissions, guard holes, tight fuel budgets — and compares
everything observable: return values, bytes left in memory, the
exception *type and constructor arguments* (fault address, access kind,
detail, fuel counter), ``errno``, fuel used and stream positions.
"""

import itertools
import types

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulatorError
from repro.injection import Campaign
from repro.libc import helpers, standard_registry
from repro.libc.stdio_ import make_file_struct
from repro.libc.time_ import _break_down, write_tm
from repro.manpages import load_corpus
from repro.memory import PAGE_SIZE, AddressSpace, Perm
from repro.runtime import SimProcess
from repro.security.guard import _safe_gets
from repro.wrappers.microgen import CallFrame
from tests.oracles import (
    BODIES, HELPERS, ScalarAddressSpace, compare, cstring_length,
    per_word_integrity, per_word_walk, safe_gets, scalar_process,
    scalar_registry,
)

BASE = 0x40000
SCENE = 0x4000000  # far above the auto-placed process segments

#: permission of the page directly after the first one: fully writable,
#: read-only (bulk writes must fault exactly where the loop did), or a
#: hole (scans crossing the boundary hit unmapped memory)
FOLLOWER = st.sampled_from([Perm.RW, Perm.READ, None])

COMMON = settings(max_examples=60,
                  suppress_health_check=[HealthCheck.too_slow],
                  deadline=None)

libc_registry = standard_registry()
scalar_libc = scalar_registry()


def capture(fn):
    """Run ``fn`` recording the outcome: value or exception type + args."""
    try:
        return ("ret", fn())
    except SimulatorError as exc:
        return ("exc", type(exc).__name__, exc.args)


def plant(space, address, blob):
    """Write ``blob`` straight into the backing buffer (ignores perms)."""
    cursor = address
    remaining = memoryview(blob)
    while len(remaining):
        mapping = space.find_mapping(cursor)
        if mapping is None:
            break
        offset = cursor - mapping.start
        step = min(len(remaining), mapping.size - offset)
        mapping.data[offset:offset + step] = remaining[:step]
        cursor += step
        remaining = remaining[step:]


def twin_spaces(follower, payload_at, payload):
    pair = []
    for space_type in (ScalarAddressSpace, AddressSpace):
        space = space_type()
        space.map_region(PAGE_SIZE, Perm.RW, "first", at=BASE)
        if follower is not None:
            space.map_region(PAGE_SIZE, follower, "second",
                             at=BASE + PAGE_SIZE)
        plant(space, payload_at, payload)
        pair.append(space)
    return pair


def snapshot(space):
    parts = []
    for start in (BASE, BASE + PAGE_SIZE):
        mapping = space.find_mapping(start)
        parts.append(bytes(mapping.data) if mapping is not None else None)
    return parts


def assert_spaces_agree(reference, vectorized, outcome_ref, outcome_vec):
    assert outcome_vec == outcome_ref
    assert snapshot(vectorized) == snapshot(reference)


class TestAddressSpaceParity:
    @given(
        follower=FOLLOWER,
        tail=st.integers(1, 80),
        payload=st.binary(min_size=0, max_size=160),
        limit=st.one_of(st.none(), st.integers(-2, 120)),
    )
    @COMMON
    def test_cstring_scans(self, follower, tail, payload, limit):
        start = BASE + PAGE_SIZE - tail
        reference, vectorized = twin_spaces(follower, start, payload)
        ref = capture(lambda: reference.read_cstring(start, limit))
        vec = capture(lambda: vectorized.read_cstring(start, limit))
        assert_spaces_agree(reference, vectorized, ref, vec)
        ref = capture(lambda: reference.cstring_length(start, limit))
        vec = capture(lambda: cstring_length(vectorized, start, limit))
        assert_spaces_agree(reference, vectorized, ref, vec)

    @given(
        follower=FOLLOWER,
        tail=st.integers(0, 80),
        payload=st.binary(min_size=0, max_size=160),
        length=st.integers(0, 200),
        value=st.integers(0, 255),
    )
    @COMMON
    def test_bulk_fill_and_rw(self, follower, tail, payload, length, value):
        start = BASE + PAGE_SIZE - tail if tail else BASE
        reference, vectorized = twin_spaces(follower, start, payload)
        for thunk in (
            lambda s: s.fill(start, value, length),
            lambda s: s.write(start, bytes([value]) * length),
            lambda s: s.read(start, length),
        ):
            ref = capture(lambda: thunk(reference))
            vec = capture(lambda: thunk(vectorized))
            assert_spaces_agree(reference, vectorized, ref, vec)
        ref = capture(lambda: reference.compare(BASE, start, length))
        vec = capture(lambda: compare(vectorized, BASE, start, length))
        assert_spaces_agree(reference, vectorized, ref, vec)

    @given(
        follower=FOLLOWER,
        payload=st.binary(min_size=0, max_size=200),
        dest_off=st.integers(0, 4200),
        src_off=st.integers(0, 4200),
        length=st.integers(0, 160),
        forward=st.booleans(),
    )
    @COMMON
    def test_copy_within(self, follower, payload, dest_off, src_off,
                         length, forward):
        reference, vectorized = twin_spaces(follower, BASE, payload)
        ref = capture(lambda: reference.copy_within(
            BASE + dest_off, BASE + src_off, length, forward=forward))
        vec = capture(lambda: vectorized.copy_within(
            BASE + dest_off, BASE + src_off, length, forward=forward))
        assert_spaces_agree(reference, vectorized, ref, vec)

    @given(
        follower=st.sampled_from([Perm.RW, Perm.READ]),
        payload=st.binary(min_size=0, max_size=160),
        tail=st.integers(1, 80),
    )
    @COMMON
    def test_scans_after_remap(self, follower, payload, tail):
        """Unmap/protect between scans: the memo must never serve stale
        mappings, so both backends keep faulting identically."""
        start = BASE + PAGE_SIZE - tail
        reference, vectorized = twin_spaces(follower, start, payload)
        for space in (reference, vectorized):
            space.read_cstring(BASE, 16)  # warm any memo
            second = space.find_mapping(BASE + PAGE_SIZE)
            space.protect(second, Perm.NONE)
        ref = capture(lambda: reference.read_cstring(start))
        vec = capture(lambda: vectorized.read_cstring(start))
        assert_spaces_agree(reference, vectorized, ref, vec)
        for space in (reference, vectorized):
            space.unmap(space.find_mapping(BASE + PAGE_SIZE))
        ref = capture(lambda: reference.cstring_length(start))
        vec = capture(lambda: cstring_length(vectorized, start))
        assert_spaces_agree(reference, vectorized, ref, vec)


class TestHeapParity:
    @given(
        sizes=st.lists(st.integers(0, 200), min_size=1, max_size=12),
        frees=st.lists(st.integers(0, 11), max_size=6),
        clobbers=st.lists(st.tuples(st.integers(0, 1 << 16),
                                    st.integers(0, 255)), max_size=4),
        perm=st.sampled_from([Perm.RW, Perm.RW, Perm.NONE]),
    )
    @COMMON
    def test_integrity_sweep(self, sizes, frees, clobbers, perm):
        """The fused sweep and the chunk walk report what the per-word
        header walk does: the same defects, or the same fault."""
        proc = SimProcess(heap_canaries=True)
        heap = proc.heap
        users = [heap.malloc(size) for size in sizes]
        for index in frees:
            if index < len(users) and users[index]:
                heap.free(users[index])
                users[index] = 0
        span = heap._brk - heap.mapping.start
        for offset, value in clobbers:
            if span:
                heap.mapping.data[offset % span] = value
        proc.space.protect(heap.mapping, perm)
        assert capture(heap.check_integrity) == \
            capture(lambda: per_word_integrity(heap))
        assert capture(heap.walk) == capture(lambda: per_word_walk(heap))


# ----------------------------------------------------------------------
# libc bodies over twin processes
# ----------------------------------------------------------------------

def scene_procs(follower, blobs, fs_hook=None):
    """Processes over the two-page scene: the per-byte reference, the
    vectorized twin, and a per-byte spare that measures the call's need.

    ``blobs`` maps an address to bytes planted there (crossing into the
    second page when it is mapped).  ``fs_hook``, when given, builds a
    fresh filesystem fault hook for each process.
    """
    procs = []
    for make in (scalar_process, SimProcess, scalar_process):
        proc = make()
        if fs_hook is not None:
            proc.fs.fault_hook = fs_hook()
        proc.space.map_region(PAGE_SIZE, Perm.RW, "scene", at=SCENE)
        if follower is not None:
            proc.space.map_region(PAGE_SIZE, follower, "scene2",
                                  at=SCENE + PAGE_SIZE)
        for address, blob in blobs.items():
            plant(proc.space, address, blob)
        procs.append(proc)
    return procs


def twin_procs(fuel, follower, payload):
    """The reference and vectorized processes with ``payload`` ending at
    the first page's edge and every call under the ``fuel`` budget."""
    at = SCENE + PAGE_SIZE - len(payload) if payload else SCENE
    pair = scene_procs(follower, {at: payload})[:2]
    for proc in pair:
        proc.fuel = fuel
    return pair


def proc_snapshot(proc):
    parts = []
    for start in (SCENE, SCENE + PAGE_SIZE):
        mapping = proc.space.find_mapping(start)
        parts.append(bytes(mapping.data) if mapping is not None else None)
    return parts


def run_call(proc, libc, name, args):
    outcome = capture(lambda: libc[name](proc, *args))
    return (outcome, proc.errno, proc.fuel_used)


def assert_procs_agree(reference, vectorized, ref, vec):
    assert vec == ref
    assert proc_snapshot(vectorized) == proc_snapshot(reference)
    assert vectorized.fs._stdin_pos == reference.fs._stdin_pos


STR_CALLS = st.sampled_from([
    "strlen", "strcpy", "strncpy", "strcmp", "strncmp", "strcasecmp",
    "strchr", "strrchr", "memcpy", "memmove", "memset", "memcmp",
    "memchr", "strnlen",
])


class TestLibcParity:
    @given(
        fuel=st.one_of(st.none(), st.integers(0, 50)),
        follower=FOLLOWER,
        payload=st.binary(min_size=1, max_size=120),
        name=STR_CALLS,
        tail=st.integers(1, 90),
        span=st.integers(0, 90),
        value=st.integers(0, 255),
    )
    # pinned: a strchr scan that meets neither its target nor a
    # terminator before the hole, so the fault replay's address is
    # compared on every run (random scenes rarely draw one)
    @example(fuel=None, follower=None, payload=b"A" * 16, name="strchr",
             tail=8, span=0, value=ord("z"))
    # pinned: calls that leave the span path for the run helpers — a
    # strcmp whose strings agree up to the first page's edge and are
    # decided in the adjacent mapping, and a memcpy inside one mapping
    # whose budget runs out mid-copy
    @example(fuel=None, follower=Perm.RW, payload=b"A" * (PAGE_SIZE - 32),
             name="strcmp", tail=8, span=0, value=0)
    @example(fuel=5, follower=Perm.RW, payload=b"C" * 40, name="memcpy",
             tail=60, span=20, value=0)
    # pinned: a strchr miss whose terminator ends the scan long before
    # the mapping does
    @example(fuel=None, follower=None, payload=b"abc\x00def", name="strchr",
             tail=7, span=0, value=ord("z"))
    # pinned: strchr for the terminator itself, which the loop finds
    # as its target
    @example(fuel=None, follower=None, payload=b"abc\x00def", name="strchr",
             tail=7, span=0, value=0)
    @COMMON
    def test_string_family(self, fuel, follower, payload, name, tail,
                           span, value):
        reference, vectorized = twin_procs(fuel, follower, payload)
        edge = SCENE + PAGE_SIZE - tail
        inner = SCENE + 32
        if name in ("strlen",):
            args = (edge,)
        elif name == "strnlen":
            args = (edge, span)
        elif name in ("strcpy",):
            args = (inner, edge)
        elif name == "strncpy":
            args = (inner, edge, span)
        elif name in ("strcmp", "strcasecmp"):
            args = (inner, edge)
        elif name == "strncmp":
            args = (inner, edge, span)
        elif name in ("strchr", "strrchr", "memchr"):
            args = (edge, value) if name != "memchr" else (edge, value, span)
        elif name in ("memcpy", "memmove"):
            args = (edge, inner, span)
        elif name == "memset":
            args = (edge, value, span)
        else:  # memcmp
            args = (inner, edge, span)
        ref = run_call(reference, scalar_libc, name, args)
        vec = run_call(vectorized, libc_registry, name, args)
        assert_procs_agree(reference, vectorized, ref, vec)

    @given(
        fuel=st.one_of(st.none(), st.integers(0, 50)),
        follower=FOLLOWER,
        length=st.integers(0, 40),
        room=st.integers(1, 48),
    )
    # pinned: the copy ends exactly at the first page's end (the span
    # path's last fit), and one byte past it (the run helpers' fault)
    @example(fuel=None, follower=None, length=9, room=10)
    @example(fuel=None, follower=None, length=10, room=10)
    @COMMON
    def test_strcpy_dest_at_mapping_end(self, fuel, follower, length, room):
        """strcpy into a destination ``room`` bytes before the first
        page's end: the copy stops inside, at or past the mapping."""
        src = SCENE + 256
        dest = SCENE + PAGE_SIZE - room
        reference, vectorized = scene_procs(
            follower, {src: b"s" * length + b"\x00"})[:2]
        for proc in (reference, vectorized):
            proc.fuel = fuel
        ref = run_call(reference, scalar_libc, "strcpy", (dest, src))
        vec = run_call(vectorized, libc_registry, "strcpy", (dest, src))
        assert_procs_agree(reference, vectorized, ref, vec)

    @given(
        fuel=st.one_of(st.none(), st.integers(0, 60)),
        follower=FOLLOWER,
        words=st.lists(st.integers(0, 0xFFFFFFFF), min_size=0, max_size=24),
        name=st.sampled_from(["wcslen", "wcscpy", "wcsncpy", "wcscmp",
                              "wcschr"]),
        tail_chars=st.integers(1, 24),
        misalign=st.integers(0, 3),
        span=st.integers(0, 24),
        target=st.integers(0, 0xFFFF),
    )
    @COMMON
    def test_wide_family(self, fuel, follower, words, name, tail_chars,
                         misalign, span, target):
        payload = b"".join(w.to_bytes(4, "little") for w in words)
        reference, vectorized = twin_procs(fuel, follower, payload)
        edge = SCENE + PAGE_SIZE - tail_chars * 4 - misalign
        inner = SCENE + 64
        if name == "wcslen":
            args = (edge,)
        elif name == "wcscpy":
            args = (inner, edge)
        elif name == "wcsncpy":
            args = (inner, edge, span)
        elif name == "wcscmp":
            args = (inner, edge)
        else:  # wcschr
            args = (edge, target)
        ref = run_call(reference, scalar_libc, name, args)
        vec = run_call(vectorized, libc_registry, name, args)
        assert_procs_agree(reference, vectorized, ref, vec)

    @given(
        fuel=st.one_of(st.none(), st.integers(0, 40)),
        stdin=st.binary(min_size=0, max_size=120),
        newline_at=st.one_of(st.none(), st.integers(0, 120)),
        tail=st.integers(1, 90),
        size=st.integers(-1, 90),
        use_stdin_gets=st.booleans(),
    )
    @COMMON
    def test_stdio_family(self, fuel, stdin, newline_at, tail, size,
                          use_stdin_gets):
        if newline_at is not None:
            stdin = stdin[:newline_at] + b"\n" + stdin[newline_at:]
        # the stream is opened with unlimited fuel; only the call under
        # test runs against the budget
        reference, vectorized = twin_procs(None, Perm.READ, b"")
        for proc in (reference, vectorized):
            proc.fs.feed_stdin(stdin)
            proc.fs.add_file("/in.txt", stdin)
        dest = SCENE + PAGE_SIZE - tail
        if use_stdin_gets:
            for proc in (reference, vectorized):
                proc.fuel = fuel
            ref = run_call(reference, scalar_libc, "gets", (dest,))
            vec = run_call(vectorized, libc_registry, "gets", (dest,))
        else:
            streams = []
            for proc in (reference, vectorized):
                streams.append(libc_registry["fopen"](
                    proc, proc.alloc_cstring(b"/in.txt"),
                    proc.alloc_cstring(b"r")))
                if fuel is not None:
                    proc.fuel = proc.fuel_used + fuel
            assert streams[0] == streams[1]
            ref = run_call(reference, scalar_libc, "fgets",
                           (dest, size, streams[0]))
            vec = run_call(vectorized, libc_registry, "fgets",
                           (dest, size, streams[1]))
            ref_stream = reference.fs.stream(3)
            vec_stream = vectorized.fs.stream(3)
            if ref_stream is not None and vec_stream is not None:
                assert (vec_stream.position, vec_stream.eof,
                        vec_stream.error) == \
                       (ref_stream.position, ref_stream.eof,
                        ref_stream.error)
        assert_procs_agree(reference, vectorized, ref, vec)


# ----------------------------------------------------------------------
# security wrapper: bounded gets
# ----------------------------------------------------------------------

class _GuardState:
    def __init__(self):
        self.size_table = {}


class TestSafeGetsParity:
    @given(
        stdin=st.binary(min_size=0, max_size=120),
        newline_at=st.one_of(st.none(), st.integers(0, 120)),
        capacity=st.integers(1, 64),
        table_capacity=st.one_of(st.none(), st.integers(1, 200)),
    )
    @COMMON
    def test_safe_gets(self, stdin, newline_at, capacity, table_capacity):
        if newline_at is not None:
            stdin = stdin[:newline_at] + b"\n" + stdin[newline_at:]
        results = []
        for make, gets in ((scalar_process, safe_gets),
                           (SimProcess, _safe_gets)):
            proc = make()
            proc.fs.feed_stdin(stdin)
            dest = proc.alloc_buffer(capacity)
            state = _GuardState()
            if table_capacity is not None:
                state.size_table[dest] = table_capacity
            events = []
            violations = []
            frame = CallFrame(proc, "gets", (dest,))
            outcome = capture(lambda: gets(
                frame, state, events.append,
                lambda f, reason: violations.append(reason)))
            span = max(capacity, table_capacity or 0) + 1
            results.append((
                outcome, frame.ret == dest,
                [event.reason for event in events], violations,
                proc.fs._stdin_pos,
                proc.space.read(dest, span),
                proc.fuel_used,
            ))
        assert results[0] == results[1]


# ----------------------------------------------------------------------
# budget-aware bulk bodies: printf family, strstr, the span scans,
# qsort and strftime under random fuel budgets
# ----------------------------------------------------------------------

#: a budget pick: None runs unlimited, an int picks a budget in
#: ``[0, need + 1]`` where ``need`` is the fuel the call takes
#: unlimited, so draws land mid-literal-run, mid-%s, mid-scan,
#: mid-gather and mid-scatter as often as past the end
BUDGET = st.one_of(st.none(), st.integers(0, 1 << 20))

FMT_PIECES = st.sampled_from([
    b"a", b"Hello, ", b"x" * 37, b"%d", b"%i", b"%-6d", b"%05x", b"%lu",
    b"%c", b"%%", b"%s", b"%.3s", b"%8s", b"%-9s", b"%n", b"%p", b"%u",
])
#: the pieces that render neither digits nor '%'
TEXT_PIECES = {b"a", b"Hello, ", b"x" * 37, b"%c", b"%s", b"%n"}
#: a last piece that cuts a directive off at the end of the format
FMT_TAIL = st.sampled_from([b""] * 6 + [b"%", b"%-", b"%l", b"%5."])


def observe(proc, outcome):
    """Everything a bulk body could change, for the parity assert."""
    return (outcome, proc.errno, proc.fuel_used, proc_snapshot(proc),
            bytes(proc.fs.stdout),
            {path: bytes(data) for path, data in proc.fs.files.items()})


def run_budgeted(procs, pick, call):
    """Run ``call(proc, libc)`` on the twins under the picked budget,
    the per-byte ones with the oracle registry; both views.

    The budget is armed last, so only the call under test runs
    against it.
    """
    reference, vectorized, spare = procs
    if pick is not None:
        before = spare.fuel_used
        capture(lambda: call(spare, scalar_libc))
        need = spare.fuel_used - before
        for proc in (reference, vectorized):
            proc.fuel = proc.fuel_used + pick % (need + 2)
    return [observe(proc, capture(lambda: call(proc, libc)))
            for proc, libc in ((reference, scalar_libc),
                               (vectorized, libc_registry))]


BULK = settings(COMMON, max_examples=100)


class TestBudgetedBulkParity:
    #: (function, where sprintf's destination goes): onto the format
    #: (writes the loop reads back), near the page edge (writes run off
    #: it), or anywhere in the page; fprintf's "hook" lane arms a
    #: filesystem fault hook that fails some of its write calls
    @pytest.mark.parametrize("name,dest_kind", [
        ("sprintf", "format"), ("sprintf", "edge"), ("sprintf", "page"),
        ("snprintf", "format"), ("snprintf", "edge"), ("printf", None),
        ("fprintf", None), ("fprintf", "hook"),
    ])
    @given(
        fuel=BUDGET,
        follower=FOLLOWER,
        pieces=st.lists(FMT_PIECES, min_size=1, max_size=10),
        tail_piece=FMT_TAIL,
        fmt_at_edge=st.booleans(),
        dest_shift=st.integers(0, PAGE_SIZE - 1),
        limit=st.integers(0, 300),
        arg_picks=st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 4, 5]),
                           min_size=10, max_size=10),
        short=st.sampled_from([10, 10, 10, 0, 2, 5]),
        text=st.binary(min_size=0, max_size=60),
    )
    @BULK
    def test_printf_family(self, name, dest_kind, fuel, follower, pieces,
                           tail_piece, fmt_at_edge, dest_shift, limit,
                           arg_picks, short, text):
        def place(pieces):
            fmt = b"".join(pieces) + tail_piece
            # at the edge, no terminator in the first page: the scan
            # runs into the second page (zeros, read-only, or a hole)
            fmt_at = (SCENE + PAGE_SIZE - len(fmt) if fmt_at_edge
                      else SCENE + 64)
            if dest_kind == "format":
                dest = fmt_at - 8 + dest_shift % 48
            elif dest_kind == "edge":
                dest = SCENE + PAGE_SIZE - 1 - dest_shift % 40
            else:
                dest = SCENE + dest_shift
            return fmt, fmt_at, dest

        fmt, fmt_at, dest = place(pieces)
        string_at = SCENE + 1024
        # %s strings (terminated, running off the page, NULL), %n
        # targets (into the format itself, unmapped) and a plain int;
        # ``short`` sometimes leaves directives without an argument
        choices = [string_at, SCENE + PAGE_SIZE - len(text), 0, fmt_at + 3,
                   SCENE + 3 * PAGE_SIZE, 7]
        if dest <= fmt_at + len(fmt):
            # the loop parses what it writes over its own format, so
            # rendered digits or '%' would become directives with
            # unbounded widths: keep both out of everything emitted
            pieces = [piece if piece in TEXT_PIECES else b"%s"
                      for piece in pieces]
            text = text.translate(None, b"0123456789%")
            fmt, fmt_at, dest = place(pieces)
            choices = [string_at, 0, SCENE + 3 * PAGE_SIZE, 7] * 2
        args = [choices[pick] for pick in arg_picks[:short]]
        blobs = {fmt_at: fmt if fmt_at_edge else fmt + b"\x00",
                 string_at: text.replace(b"\x00", b"") + b"\x00"}
        if not fmt_at_edge:
            blobs[SCENE + PAGE_SIZE - len(text)] = text
        fs_hook = None
        if dest_kind == "hook":
            period = dest_shift % 6 + 2
            fs_hook = lambda: failing_writes(period)
        procs = scene_procs(follower, blobs, fs_hook)
        streams = []
        for proc in procs:
            index = proc.fs.open("/out.txt", "w")
            streams.append(make_file_struct(proc, index))
        assert streams[0] == streams[1] == streams[2]
        if name == "sprintf":
            call = lambda proc, libc: libc["sprintf"](proc, dest, fmt_at,
                                                      *args)
        elif name == "snprintf":
            call = lambda proc, libc: libc["snprintf"](proc, dest, limit,
                                                       fmt_at, *args)
        elif name == "printf":
            call = lambda proc, libc: libc["printf"](proc, fmt_at, *args)
        else:
            call = lambda proc, libc: libc["fprintf"](proc, streams[0],
                                                      fmt_at, *args)
        reference, vectorized = run_budgeted(procs, fuel, call)
        assert vectorized == reference

    @pytest.mark.parametrize("name",
                             ["strstr", "strspn", "strcspn", "strpbrk"])
    @given(
        fuel=BUDGET,
        follower=FOLLOWER,
        haystack=st.lists(st.sampled_from(b"aabbc"), min_size=0,
                          max_size=120).map(bytes),
        nul_at=st.one_of(st.none(), st.integers(0, 130)),
        needle=st.lists(st.sampled_from(b"abc"), min_size=0,
                        max_size=4).map(bytes),
        tail=st.integers(1, 130),
    )
    @BULK
    def test_scan_family(self, name, fuel, follower, haystack, nul_at,
                         needle, tail):
        """Haystacks end at, cross, or run off the first page's edge,
        so needle-wide reads at a match can fault across it."""
        if nul_at is not None:
            haystack = haystack[:nul_at] + b"\x00" + haystack[nul_at:]
        start = SCENE + PAGE_SIZE - tail
        needle_at = SCENE + 512
        blobs = {start: haystack, needle_at: needle + b"\x00"}
        procs = scene_procs(follower, blobs)
        reference, vectorized = run_budgeted(
            procs, fuel, lambda proc, libc: libc[name](proc, start, needle_at))
        assert vectorized == reference

    @given(
        fuel=BUDGET,
        follower=FOLLOWER,
        items=st.binary(min_size=0, max_size=120),
        nmemb=st.integers(0, 40),
        size=st.integers(0, 9),
        tail=st.integers(0, 140),
    )
    @BULK
    def test_qsort(self, fuel, follower, items, nmemb, size, tail):
        """Element arrays straddle the page edge; budgets trip in the
        gather, between comparator calls and in the scatter."""
        base = SCENE + PAGE_SIZE - tail
        procs = scene_procs(follower, {base: items})
        comparators = [proc.register_callback(_first_byte_order)
                       for proc in procs]
        assert comparators[0] == comparators[1] == comparators[2]
        reference, vectorized = run_budgeted(
            procs, fuel, lambda proc, libc: libc["qsort"](
                proc, base, nmemb, size, comparators[0]))
        assert vectorized == reference

    @given(
        fuel=BUDGET,
        follower=FOLLOWER,
        pieces=st.lists(st.sampled_from([
            b"at ", b"x" * 23, b"%Y", b"%m", b"%d", b"%H:%M:%S", b"%a",
            b"%b", b"%j", b"%%", b"%q"]), min_size=0, max_size=10),
        tail_piece=st.sampled_from([b"", b"", b"%"]),
        fmt_at_edge=st.booleans(),
        dest_tail=st.integers(1, 200),
        max_=st.integers(0, 260),
        stamp=st.integers(0, 2 ** 31 - 1),
    )
    @BULK
    def test_strftime(self, fuel, follower, pieces, tail_piece, fmt_at_edge,
                      dest_tail, max_, stamp):
        fmt = b"".join(pieces) + tail_piece
        if fmt_at_edge:
            fmt_at = SCENE + PAGE_SIZE - len(fmt)
            blobs = {fmt_at: fmt}
        else:
            fmt_at = SCENE + 64
            blobs = {fmt_at: fmt + b"\x00"}
        procs = scene_procs(follower, blobs)
        tm_at = SCENE + 1024
        for proc in procs:
            write_tm(proc, tm_at, _break_down(stamp))
        dest = SCENE + PAGE_SIZE - dest_tail
        reference, vectorized = run_budgeted(
            procs, fuel, lambda proc, libc: libc["strftime"](
                proc, dest, max_, fmt_at, tm_at))
        assert vectorized == reference


def _first_byte_order(proc, left, right):
    return proc.space.read(left, 1)[0] - proc.space.read(right, 1)[0]


def failing_writes(period):
    """A filesystem fault hook failing every ``period``-th file write."""
    writes = itertools.count(1)
    return lambda op, index: op == "write" and next(writes) % period == 0


# ----------------------------------------------------------------------
# the same parity over the campaign's own probes
# ----------------------------------------------------------------------

def _sweep(campaign):
    rows = []
    for name in sorted(BODIES):
        for probe, value in campaign.probe_plan(name):
            execution = campaign.execute_probe(probe, value)
            result = execution.result
            if result is None:
                rows.append((probe, execution.setup_error))
                continue
            exc = result.exception
            rows.append((probe, execution.setup_error, result.outcome,
                         result.errno, result.fuel_used, type(exc),
                         None if exc is None else exc.args))
    return rows


class TestCampaignParity:
    def test_every_planned_probe_matches_the_scalar_backend(
            self, monkeypatch):
        """Each probe of every body the oracle replaces, run in a
        budgeted probe process, ends identically on the runtime and on
        the per-byte oracle (its registry over its address space)."""
        corpus = load_corpus()
        vectorized = _sweep(Campaign(libc_registry, manpages=corpus))
        monkeypatch.setattr("repro.injection.campaign.SimProcess",
                            scalar_process)
        reference = _sweep(Campaign(scalar_libc, manpages=corpus))
        assert len(vectorized) == len(reference) == 764
        for got, want in zip(vectorized, reference):
            assert got == want


# ----------------------------------------------------------------------
# every bulk body and helper has a per-byte oracle
# ----------------------------------------------------------------------

#: what marks a bulk path: fuel drawn for a whole run in one step, or a
#: side effect clamped to the fuel headroom
BULK_MARKS = {"consume_metered", "fuel_headroom"}


def _code_names(fn):
    names = set()
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes.extend(const for const in code.co_consts
                     if isinstance(const, types.CodeType))
    return names


def _reaches_bulk(fn, seen=None):
    """True when ``fn``, or a function of its own module that it calls,
    runs a bulk path."""
    seen = set() if seen is None else seen
    if fn in seen:
        return False
    seen.add(fn)
    names = _code_names(fn)
    if names & BULK_MARKS:
        return True
    callees = [fn.__globals__.get(name) for name in names]
    callees += [cell.cell_contents for cell in fn.__closure__ or ()]
    return any(_reaches_bulk(callee, seen) for callee in callees
               if isinstance(callee, types.FunctionType)
               and callee.__module__ == fn.__module__)


class TestOracleCoverage:
    def test_replaced_bodies_are_pinned(self):
        assert set(BODIES) == {
            "fgets", "fprintf", "gets", "memchr", "memcmp", "memcpy",
            "memmove", "memset", "printf", "qsort", "snprintf", "sprintf",
            "stpcpy", "strcasecmp", "strchr", "strcmp", "strcoll", "strcpy",
            "strcspn", "strftime", "strlen", "strncasecmp", "strncmp",
            "strncpy", "strnlen", "strpbrk", "strrchr", "strspn", "strstr",
            "wcschr", "wcscmp", "wcscpy", "wcslen", "wcsncpy",
        }
        assert all(scalar_libc[name].impl is BODIES[name]
                   for name in BODIES)

    def test_every_bulk_body_has_an_oracle(self):
        """A body with a bulk path of its own must be replaced; the rest
        reach bulk code only through the helpers below."""
        bulk = {function.name for function in libc_registry
                if _reaches_bulk(function.impl)}
        assert bulk - set(BODIES) == set()

    def test_every_bulk_helper_has_an_oracle(self):
        bulk = {name for name, value in vars(helpers).items()
                if isinstance(value, types.FunctionType)
                and value.__module__ == helpers.__name__
                and not name.startswith("_") and _reaches_bulk(value)}
        assert bulk == set(HELPERS)
