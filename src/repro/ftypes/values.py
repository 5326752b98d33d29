"""Test-value generators for each robust-type chain.

For every parameter the injector enumerates a dictionary of test values in
the Ballista style: each value carries the *strictest* rung of its chain
that it satisfies (``max_rank``).  Satisfaction is upward closed, so a
value participates in the verdict of every rung at or below its
``max_rank`` (see :mod:`repro.robust.derivation`).

Values are materialised lazily against the probe's pristine process via a
:class:`~repro.ftypes.context.ProbeContext`, because pointers only mean
something inside one process's address space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.ftypes.chains import ROLE_CHAINS, chain_for_ctype
from repro.ftypes.context import GOLDEN_TEXT, WCHAR_SIZE, ProbeContext
from repro.headers.model import Parameter
from repro.manpages.model import ParamRole

Builder = Callable[[ProbeContext, Parameter], Any]

INT_MIN = -(2 ** 31)
INT_MAX = 2 ** 31 - 1
LONG_MIN = -(2 ** 63)
LONG_MAX = 2 ** 63 - 1
SIZE_MAX = 2 ** 64 - 1
EOF = -1

#: size of the "huge" unterminated region used to provoke hangs (large
#: enough to exhaust the probe fuel before the mapping boundary faults)
HUGE_REGION = 1 << 17


@dataclass(frozen=True)
class TestValue:
    """One injectable argument value."""

    label: str
    max_rank: int
    build: Builder

    def materialize(self, ctx: ProbeContext, param: Parameter) -> Any:
        return self.build(ctx, param)


def _const(value: Any) -> Builder:
    return lambda ctx, param: value


def _cstring_like(format_chain: bool) -> List[TestValue]:
    """Values for cstring_in (and, with two extra rungs, format_string)."""
    term = 4 if format_chain else 3  # rank of 'terminated_string'
    top = 4 if format_chain else 3   # rank of the strictest rung
    values = [
        TestValue("null", 1, _const(0)),
        TestValue("near_null", 0, _const(16)),
        TestValue("unmapped_pointer", 0,
                  lambda ctx, p: ctx.unmapped_address()),
        TestValue("odd_wild_pointer", 0, _const(0x7FFFFFF1)),
        TestValue("unterminated_page", 2,
                  lambda ctx, p: ctx.map_filled(4096)),
        TestValue("unterminated_huge", 2,
                  lambda ctx, p: ctx.map_filled(HUGE_REGION)),
        TestValue("empty_string", top,
                  lambda ctx, p: ctx.process.alloc_cstring(b"")),
        TestValue("plain_string", top,
                  lambda ctx, p: ctx.process.alloc_cstring(b"probe value")),
        TestValue("readonly_string", top,
                  lambda ctx, p: ctx.process.intern_cstring(b"rodata probe")),
        TestValue("long_string", top,
                  lambda ctx, p: ctx.process.alloc_cstring(b"x" * 2048)),
        # contains a '%' byte: as a *format* it has unmatched directives,
        # so in the format chain it only reaches the terminated rung
        TestValue("binary_string", term - 1 if format_chain else top,
                  lambda ctx, p: ctx.process.alloc_cstring(
                      bytes(range(1, 128)))),
        TestValue("dangling_string", 2,
                  lambda ctx, p: ctx.freed_pointer(content=b"dangling")),
    ]
    if format_chain:
        values += [
            TestValue("fmt_unmatched_int", term - 1,
                      lambda ctx, p: ctx.process.alloc_cstring(b"v=%d")),
            TestValue("fmt_unmatched_string", term - 1,
                      lambda ctx, p: ctx.process.alloc_cstring(b"s=%s")),
            TestValue("fmt_percent_n", term - 1,
                      lambda ctx, p: ctx.process.alloc_cstring(b"count%n!")),
            TestValue("fmt_many_x", term - 1,
                      lambda ctx, p: ctx.process.alloc_cstring(b"%x" * 16)),
            TestValue("fmt_plain", top,
                      lambda ctx, p: ctx.process.alloc_cstring(b"no specs")),
            TestValue("fmt_escaped_percent", top,
                      lambda ctx, p: ctx.process.alloc_cstring(b"100%%")),
        ]
    return values


def _writable_buffer(ctx: ProbeContext, param: Parameter, capacity: int,
                     seed: bytes = b"") -> int:
    """Edge-placed writable buffer so one-byte overruns fault (no silent
    corruption hiding an undersized destination from the classifier)."""
    capacity = max(capacity, 1)
    if seed and capacity < len(seed) + 1:
        seed = seed[: max(capacity - 1, 0)]
    return ctx.edge_buffer(capacity, seed=seed + b"\x00" if not seed else seed)


def _cstring_out(inout: bool) -> List[TestValue]:
    """Values for cstring_out; inout variants pre-seed dest content."""
    seed = b"seed" if inout else b""

    def sized(factor: float, minimum: int = 1) -> Builder:
        def build(ctx: ProbeContext, param: Parameter) -> int:
            required = ctx.required_bytes(param)
            capacity = max(int(required * factor), minimum)
            return _writable_buffer(ctx, param, capacity, seed)
        return build

    return [
        TestValue("null", 1, _const(0)),
        TestValue("near_null", 0, _const(16)),
        TestValue("unmapped_pointer", 0,
                  lambda ctx, p: ctx.unmapped_address()),
        TestValue("readonly_destination", 1,
                  lambda ctx, p: ctx.process.intern_cstring(b"ro")),
        TestValue("one_byte_buffer", 2, sized(0.0, minimum=1)),
        TestValue("half_required", 2,
                  lambda ctx, p: _writable_buffer(
                      ctx, p, max(ctx.required_bytes(p) // 2, 2), seed)),
        TestValue("exact_required", 3,
                  lambda ctx, p: _writable_buffer(
                      ctx, p, ctx.required_bytes(p), seed)),
        TestValue("double_required", 3,
                  lambda ctx, p: _writable_buffer(
                      ctx, p, ctx.required_bytes(p) * 2, seed)),
    ]


def _buffer_values(writable: bool) -> List[TestValue]:
    def region(factor: float) -> Builder:
        def build(ctx: ProbeContext, param: Parameter) -> int:
            role = ctx.role_of(param)
            extent = ctx.declared_extent(role)
            capacity = max(int(extent * factor), 1)
            return ctx.edge_buffer(capacity)
        return build

    values = [
        TestValue("null", 1, _const(0)),
        TestValue("near_null", 0, _const(16)),
        TestValue("unmapped_pointer", 0,
                  lambda ctx, p: ctx.unmapped_address()),
        TestValue("undersized_area", 2, region(0.25)),
        TestValue("exact_extent", 3, region(1.0)),
        TestValue("double_extent", 3, region(2.0)),
        TestValue("dangling_area", 2,
                  lambda ctx, p: ctx.freed_pointer(size=256)),
    ]
    if writable:
        values.append(
            TestValue("readonly_area", 1,
                      lambda ctx, p: ctx.process.intern_cstring(b"ro-area"))
        )
    else:
        values.append(
            TestValue("readonly_exact", 3,
                      lambda ctx, p: _readonly_extent(ctx, p))
        )
    return values


def _readonly_extent(ctx: ProbeContext, param: Parameter) -> int:
    role = ctx.role_of(param)
    extent = ctx.declared_extent(role)
    return ctx.process.intern_cstring(b"r" * max(extent, 1))


def _wstring_in() -> List[TestValue]:
    def wstring(text: str) -> Builder:
        def build(ctx: ProbeContext, param: Parameter) -> int:
            proc = ctx.process
            address = proc.alloc_buffer((len(text) + 1) * WCHAR_SIZE)
            for index, char in enumerate(text):
                proc.space.write_u32(address + index * WCHAR_SIZE, ord(char))
            proc.space.write_u32(address + len(text) * WCHAR_SIZE, 0)
            return address
        return build

    return [
        TestValue("null", 1, _const(0)),
        TestValue("unmapped_pointer", 0,
                  lambda ctx, p: ctx.unmapped_address()),
        TestValue("unterminated_page", 2,
                  lambda ctx, p: ctx.map_filled(4096, byte=0x42)),
        TestValue("unterminated_huge", 2,
                  lambda ctx, p: ctx.map_filled(HUGE_REGION, byte=0x42)),
        TestValue("empty_wstring", 3, wstring("")),
        TestValue("plain_wstring", 3, wstring("wide probe")),
        TestValue("long_wstring", 3, wstring("w" * 512)),
    ]


def _wstring_out() -> List[TestValue]:
    def sized(factor: float, minimum: int = WCHAR_SIZE) -> Builder:
        def build(ctx: ProbeContext, param: Parameter) -> int:
            required = ctx.required_bytes(param)
            capacity = max(int(required * factor), minimum)
            return ctx.edge_buffer(capacity, seed=b"\x00\x00\x00\x00")
        return build

    return [
        TestValue("null", 1, _const(0)),
        TestValue("unmapped_pointer", 0,
                  lambda ctx, p: ctx.unmapped_address()),
        TestValue("readonly_destination", 1,
                  lambda ctx, p: ctx.process.intern_cstring(b"ro-wide")),
        TestValue("one_wchar_buffer", 2, sized(0.0)),
        TestValue("half_required", 2, sized(0.5)),
        TestValue("exact_required", 3, sized(1.0)),
        TestValue("double_required", 3, sized(2.0)),
    ]


def _out_ptr_values() -> List[TestValue]:
    return [
        TestValue("null", 1, _const(0)),
        TestValue("unmapped_pointer", 0,
                  lambda ctx, p: ctx.unmapped_address()),
        TestValue("readonly_slot", 0,
                  lambda ctx, p: ctx.process.intern_cstring(b"12345678")),
        TestValue("valid_slot", 2,
                  lambda ctx, p: ctx.process.alloc_buffer(16)),
    ]


def _heap_ptr_values() -> List[TestValue]:
    return [
        TestValue("null", 2, _const(0)),
        TestValue("unmapped_pointer", 0,
                  lambda ctx, p: ctx.unmapped_address()),
        TestValue("rodata_pointer", 0,
                  lambda ctx, p: ctx.process.intern_cstring(b"not-heap")),
        TestValue("interior_pointer", 1,
                  lambda ctx, p: ctx.process.heap.malloc(64) + 8),
        TestValue("already_freed", 1,
                  lambda ctx, p: ctx.freed_pointer()),
        TestValue("live_allocation", 2,
                  lambda ctx, p: ctx.process.heap.malloc(64)),
    ]


def _file_values() -> List[TestValue]:
    def closed_file(ctx: ProbeContext, param: Parameter) -> int:
        from repro.libc.stdio_ import make_file_struct

        proc = ctx.process
        proc.fs.add_file("/tmp/closed", b"x")
        index = proc.fs.open("/tmp/closed", "r")
        file_ptr = make_file_struct(proc, index)
        proc.fs.close(index)
        proc.space.write_u32(file_ptr, 0)  # fclose poisons the magic
        return file_ptr

    def open_file(ctx: ProbeContext, param: Parameter) -> int:
        from repro.libc.stdio_ import make_file_struct

        proc = ctx.process
        proc.fs.add_file("/tmp/open", b"contents\n")
        index = proc.fs.open("/tmp/open", "r+")
        return make_file_struct(proc, index)

    return [
        TestValue("null", 0, _const(0)),
        TestValue("unmapped_pointer", 0,
                  lambda ctx, p: ctx.unmapped_address()),
        TestValue("heap_garbage_struct", 1,
                  lambda ctx, p: ctx.process.alloc_buffer(16, fill=0x5A)),
        TestValue("closed_stream", 1, closed_file),
        TestValue("open_stream", 2, open_file),
    ]


def _callback_values() -> List[TestValue]:
    from repro.ftypes.context import _byte_comparator

    return [
        TestValue("null", 0, _const(0)),
        TestValue("unmapped_pointer", 0,
                  lambda ctx, p: ctx.unmapped_address()),
        TestValue("data_pointer", 0,
                  lambda ctx, p: ctx.process.heap.malloc(16)),
        TestValue("valid_function", 1,
                  lambda ctx, p: ctx.process.register_callback(
                      _byte_comparator)),
    ]


def _int_values() -> List[TestValue]:
    return [
        TestValue(label, 0, _const(value))
        for label, value in (
            ("int_min", INT_MIN), ("minus_one", -1), ("zero", 0),
            ("one", 1), ("int_max", INT_MAX), ("long_max", LONG_MAX),
            ("long_min", LONG_MIN),
        )
    ]


def _uchar_eof_values() -> List[TestValue]:
    return [
        TestValue("int_min", 0, _const(INT_MIN)),
        TestValue("minus_two", 0, _const(-2)),
        TestValue("eof", 1, _const(EOF)),
        TestValue("zero", 1, _const(0)),
        TestValue("letter", 1, _const(ord("A"))),
        TestValue("max_uchar", 1, _const(255)),
        TestValue("just_past_uchar", 0, _const(256)),
        TestValue("large_positive", 0, _const(0x10000)),
        TestValue("int_max", 0, _const(INT_MAX)),
    ]


def _nonzero_values() -> List[TestValue]:
    return [
        TestValue("zero", 0, _const(0)),
        TestValue("int_min", 1, _const(INT_MIN)),
        TestValue("minus_one", 1, _const(-1)),
        TestValue("one", 1, _const(1)),
        TestValue("int_max", 1, _const(INT_MAX)),
    ]


def _size_values() -> List[TestValue]:
    def bound_of(ctx: ProbeContext, param: Parameter) -> int:
        """Extent of the smallest golden buffer this size governs."""
        if ctx.manpage is None:
            return 64
        bounds = []
        for role in ctx.manpage.roles.values():
            if role.size_param == param.name or role.size_mul == param.name:
                capacity = ctx.capacities.get(role.name)
                if capacity is not None:
                    other = 1
                    if role.size_mul and role.size_param != param.name:
                        other = ctx.golden.get(role.size_mul, 1)
                    elif role.size_mul == param.name:
                        other = ctx.golden.get(role.size_param, 1)
                    if role.role in ("out_wbuffer", "out_wstring"):
                        other *= WCHAR_SIZE  # extent counted in wide chars
                    bounds.append(capacity // max(other, 1))
        return min(bounds) if bounds else 64

    def rel(factor: float, rank: int, offset: int = 0) -> TestValue:
        label = f"bound_x{factor:g}{'+1' if offset else ''}"
        return TestValue(
            label, rank,
            lambda ctx, p: max(int(bound_of(ctx, p) * factor) + offset, 0),
        )

    return [
        TestValue("zero", 1, _const(0)),
        TestValue("one", 1, _const(1)),
        rel(0.5, 1),
        rel(1.0, 1),
        rel(1.0, 0, offset=1),
        rel(4.0, 0),
        TestValue("two_to_31", 0, _const(2 ** 31)),
        TestValue("size_max", 0, _const(SIZE_MAX)),
        TestValue("minus_one_as_size", 0, _const(SIZE_MAX)),
    ]


def _float_values() -> List[TestValue]:
    nan = float("nan")
    inf = float("inf")
    return [
        TestValue(label, 0, _const(value))
        for label, value in (
            ("zero", 0.0), ("one", 1.0), ("minus_one", -1.0),
            ("pi_ish", 3.14159), ("huge", 1e308), ("tiny", 5e-324),
            ("negative_huge", -1e308), ("nan", nan), ("inf", inf),
            ("minus_inf", -inf),
        )
    ]


def _base_values() -> List[TestValue]:
    return [
        TestValue("minus_one", 0, _const(-1)),
        TestValue("one", 0, _const(1)),
        TestValue("thirty_seven", 0, _const(37)),
        TestValue("int_max", 0, _const(INT_MAX)),
        TestValue("auto_base", 1, _const(0)),
        TestValue("binary", 1, _const(2)),
        TestValue("decimal", 1, _const(10)),
        TestValue("hex", 1, _const(16)),
        TestValue("base36", 1, _const(36)),
    ]


_CHAIN_VALUES: dict = {
    "cstring_in": lambda: _cstring_like(format_chain=False),
    "format_string": lambda: _cstring_like(format_chain=True),
    "cstring_out": lambda: _cstring_out(inout=False),
    "cstring_inout": lambda: _cstring_out(inout=True),
    "buffer_in": lambda: _buffer_values(writable=False),
    "buffer_out": lambda: _buffer_values(writable=True),
    "out_ptr": _out_ptr_values,
    "heap_ptr": _heap_ptr_values,
    "file": _file_values,
    "callback": _callback_values,
    "int_any": _int_values,
    "int_uchar_eof": _uchar_eof_values,
    "int_nonzero": _nonzero_values,
    "size": _size_values,
    "base": _base_values,
    "float_any": _float_values,
    "wstring_in": _wstring_in,
    "wstring_out": _wstring_out,
}


def chain_id_for(param: Parameter, role: Optional[ParamRole]) -> str:
    """Chain id for a parameter, preferring the manual-page role."""
    if role is not None:
        return ROLE_CHAINS[role.role]
    return chain_for_ctype(param.ctype)[0].chain


def test_values_for(param: Parameter,
                    role: Optional[ParamRole]) -> List[TestValue]:
    """The test-value dictionary for one parameter."""
    chain_id = chain_id_for(param, role)
    if role is not None and role.role == "inout_string":
        chain_id = "cstring_inout"
    return list(_chain_values(chain_id))


@functools.lru_cache(maxsize=None)
def _chain_values(chain_id: str) -> Tuple[TestValue, ...]:
    """A chain's dictionary, built once: its values hold no state."""
    return tuple(_CHAIN_VALUES[chain_id]())
