"""Probe context: golden argument vectors for fault-injection probes.

A probe varies *one* parameter while the others hold "golden" (known
valid) values, so a failure is attributable to the varied parameter.  The
golden values are derived from the manual-page roles: an ``in_string``
parameter gets a valid terminated string, an ``out_buffer`` gets a
writable region larger than its declared extent, a ``size`` parameter
gets a value consistent with the buffers it governs, and so on.

The context also answers the *relational* questions the strcpy example
poses: :meth:`ProbeContext.required_bytes` computes how much capacity an
output parameter needs given the golden values of the other arguments.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.headers.model import Parameter, Prototype
from repro.manpages.model import ManPage, ParamRole
from repro.memory.model import Perm
from repro.runtime.process import SimProcess

#: golden text for in_string parameters
GOLDEN_TEXT = b"Hello, HEALERS!"
#: golden wide text (codepoints stored as u32)
GOLDEN_WTEXT = "Wide!"
#: golden stdin line fed to gets()/fgets() probes
GOLDEN_STDIN = b"stdin input line\n"
#: default buffer capacity when nothing relates to the parameter
DEFAULT_EXTENT = 64
#: minimum golden buffer capacity; generous so that probing *another*
#: parameter (e.g. a long but valid src string) never overflows a golden
#: destination — failures must be attributable to the varied parameter
GOLDEN_CAPACITY = 4096
#: golden value for size parameters not tied to a specific buffer
DEFAULT_SIZE = 32
#: path of the golden file present in every probe filesystem
GOLDEN_PATH = b"/etc/golden.conf"

WCHAR_SIZE = 4

#: one period of the in_buffer fill pattern ``(i * 7 + 3) % 256``; the
#: sequence repeats every 256 bytes because 7 * 256 is 0 mod 256
_IN_BUFFER_PERIOD = bytes((i * 7 + 3) % 256 for i in range(256))


class ProbeContext:
    """Materialises and tracks one probe's argument state."""

    def __init__(self, process: SimProcess, prototype: Prototype,
                 manpage: Optional[ManPage] = None):
        self.process = process
        self.prototype = prototype
        self.manpage = manpage
        #: param name -> golden value
        self.golden: Dict[str, Any] = {}
        #: param name -> byte capacity of the buffer materialised for it
        self.capacities: Dict[str, int] = {}
        #: param name -> the text the golden string holds (for size_from)
        self.texts: Dict[str, bytes] = {}
        #: extra variadic arguments passed after the fixed parameters
        self.varargs: List[Any] = []

    # ------------------------------------------------------------------
    # role lookup
    # ------------------------------------------------------------------

    def role_of(self, param: Parameter) -> Optional[ParamRole]:
        if self.manpage is None:
            return None
        return self.manpage.role_of(param.name)

    def _sized_params(self) -> Dict[str, int]:
        """Golden values for size-ish parameters, chosen consistently.

        A size parameter that appears as ``size_param`` of a buffer with a
        ``size_mul`` companion gets 8 (count) while the companion gets 4
        (element size); a plain ``size_param`` gets DEFAULT_SIZE.
        """
        values: Dict[str, int] = {}
        if self.manpage is None:
            return values
        for role in self.manpage.roles.values():
            if role.size_param:
                if role.size_mul:
                    values[role.size_param] = 8
                    values[role.size_mul] = 4
                else:
                    values.setdefault(role.size_param, DEFAULT_SIZE)
        return values

    # ------------------------------------------------------------------
    # golden construction
    # ------------------------------------------------------------------

    def build_goldens(self) -> None:
        """Materialise a fully valid argument vector."""
        proc = self.process
        proc.fs.add_file(GOLDEN_PATH.decode(), b"golden file contents\n")
        proc.fs.feed_stdin(GOLDEN_STDIN)
        sized = self._sized_params()
        for param in self.prototype.params:
            role = self.role_of(param)
            role_name = role.role if role else self._fallback_role(param)
            self.golden[param.name] = self._golden_for(
                param, role, role_name, sized
            )

    def _fallback_role(self, param: Parameter) -> str:
        ctype = param.ctype
        if ctype.function_pointer:
            return "callback"
        if ctype.is_char_pointer:
            return "in_string" if ctype.const else "out_string"
        if ctype.is_wide_char_pointer:
            return "in_wstring" if ctype.const else "out_wstring"
        if ctype.pointer_depth >= 2:
            return "out_ptr"
        if ctype.is_pointer:
            return "in_buffer" if ctype.const else "out_buffer"
        return "any_int"

    def _golden_for(self, param: Parameter, role: Optional[ParamRole],
                    role_name: str, sized: Dict[str, int]) -> Any:
        proc = self.process
        name = param.name
        if role_name in ("in_string", "opt_in_string"):
            self.texts[name] = GOLDEN_TEXT
            return proc.alloc_cstring(GOLDEN_TEXT)
        if role_name == "path":
            self.texts[name] = GOLDEN_PATH
            return proc.alloc_cstring(GOLDEN_PATH)
        if role_name == "mode":
            self.texts[name] = b"r"
            return proc.alloc_cstring(b"r")
        if role_name == "format":
            # a conversion-free format keeps golden probes vararg-free
            self.texts[name] = b"healers golden format"
            return proc.alloc_cstring(b"healers golden format")
        if role_name in ("out_string", "inout_string", "out_buffer",
                         "in_buffer", "out_wstring", "out_wbuffer"):
            return self._golden_buffer(param, role, role_name, sized)
        if role_name == "in_wstring":
            self.texts[name] = GOLDEN_WTEXT.encode()
            return self._alloc_wstring(GOLDEN_WTEXT)
        if role_name in ("out_ptr", "opt_out_ptr"):
            slot = proc.alloc_buffer(16)
            self.capacities[name] = 16
            return slot
        if role_name == "heap_ptr":
            ptr = proc.heap.malloc(DEFAULT_SIZE)
            self.capacities[name] = DEFAULT_SIZE
            return ptr
        if role_name == "callback":
            return proc.register_callback(_byte_comparator)
        if role_name == "file":
            return self._golden_file()
        if role_name == "size":
            return sized.get(name, DEFAULT_SIZE)
        if role_name == "uchar_or_eof":
            return ord("A")
        if role_name == "wide_char":
            return ord("B")
        if role_name == "desc":
            return 1
        if role_name == "errnum":
            return 22
        if role_name == "nonzero_int":
            return 3
        if role_name == "base":
            return 10
        if role_name == "real":
            return 1.5
        return 7  # any_int and friends

    def _golden_buffer(self, param: Parameter, role: Optional[ParamRole],
                       role_name: str, sized: Dict[str, int]) -> int:
        proc = self.process
        extent = self.declared_extent(role, sized)
        if role_name == "out_wbuffer":
            extent *= WCHAR_SIZE
        capacity = max(extent * 2, GOLDEN_CAPACITY)
        address = proc.alloc_buffer(capacity)
        self.capacities[param.name] = capacity
        if role_name == "inout_string":
            proc.space.write_cstring(address, b"seed")
            self.texts[param.name] = b"seed"
        elif role_name == "in_buffer":
            repeats = capacity // len(_IN_BUFFER_PERIOD) + 1
            proc.space.write(address,
                             (_IN_BUFFER_PERIOD * repeats)[:capacity])
        elif role_name == "out_wstring":
            proc.space.write_u32(address, 0)
        return address

    def _alloc_wstring(self, text: str) -> int:
        proc = self.process
        address = proc.alloc_buffer((len(text) + 1) * WCHAR_SIZE)
        for index, char in enumerate(text):
            proc.space.write_u32(address + index * WCHAR_SIZE, ord(char))
        proc.space.write_u32(address + len(text) * WCHAR_SIZE, 0)
        return address

    def _golden_file(self) -> int:
        from repro.libc.stdio_ import make_file_struct

        proc = self.process
        index = proc.fs.open(GOLDEN_PATH.decode(), "r")
        assert index is not None
        return make_file_struct(proc, index)

    # ------------------------------------------------------------------
    # relational sizes
    # ------------------------------------------------------------------

    def declared_extent(self, role: Optional[ParamRole],
                        sized: Optional[Dict[str, int]] = None) -> int:
        """Bytes (or elements) a buffer's declared size parameters imply."""
        if role is None:
            return DEFAULT_EXTENT
        sized = sized if sized is not None else self._sized_params()
        extent = DEFAULT_EXTENT
        if role.size_param:
            extent = self.golden.get(role.size_param,
                                     sized.get(role.size_param, DEFAULT_SIZE))
            if role.size_mul:
                extent *= self.golden.get(role.size_mul,
                                          sized.get(role.size_mul, 1))
        if role.size_from and role.size_from in self.texts:
            extent = max(extent, len(self.texts[role.size_from]) + 1)
        if role.min_size:
            extent = max(extent, role.min_size)
        return max(int(extent), 1)

    def required_bytes(self, param: Parameter) -> int:
        """Capacity an output parameter must provide, given the goldens."""
        role = self.role_of(param)
        role_name = role.role if role else self._fallback_role(param)
        if role is not None and role.size_from:
            source_text = self.texts.get(role.size_from, GOLDEN_TEXT)
            required = len(source_text) + 1
            if role_name == "inout_string":
                required += len(self.texts.get(param.name, b""))
            if role_name in ("out_wstring", "out_wbuffer"):
                required *= WCHAR_SIZE  # extents counted in wide characters
            return required
        if role is not None and (role.size_param or role.min_size):
            extent = self.declared_extent(role)
            if role_name in ("out_wstring", "out_wbuffer"):
                extent *= WCHAR_SIZE
            return extent
        if role_name == "out_string":
            # gets()-style: must hold the stdin line
            return len(GOLDEN_STDIN) + 1
        if role_name == "out_wstring":
            return (len(GOLDEN_WTEXT) + 1) * WCHAR_SIZE
        if role_name == "inout_string":
            return len(self.texts.get(param.name, b"")) + len(GOLDEN_TEXT) + 1
        return DEFAULT_EXTENT

    # ------------------------------------------------------------------
    # building blocks for test values
    # ------------------------------------------------------------------

    def edge_buffer(self, capacity: int, seed: bytes = b"",
                    perm: Perm = Perm.RW) -> int:
        """A buffer of exactly ``capacity`` bytes ending at a mapping edge.

        Any access one byte past the buffer faults immediately, so an
        overflowing callee produces a deterministic CRASH instead of
        silent corruption — the same page-boundary placement trick
        Ballista-style harnesses use to make bounds violations observable.
        """
        capacity = max(capacity, 1)
        mapping = self.process.space.map_region(capacity, perm, "[edge]")
        address = mapping.end - capacity
        if seed:
            offset = address - mapping.start
            mapping.data[offset : offset + len(seed)] = seed
            if len(seed) < capacity:
                mapping.data[offset + len(seed)] = 0
        return address

    def map_filled(self, size: int, byte: int = 0x41,
                   perm: Perm = Perm.RW) -> int:
        """A dedicated mapping completely filled with ``byte`` (no NUL)."""
        mapping = self.process.space.map_region(size, perm, "[probe]")
        offset = 0
        # write through the mapping to bypass CPU permission checks
        mapping.data[:] = bytes([byte]) * mapping.size
        del offset
        return mapping.start

    def unmapped_address(self) -> int:
        """An address guaranteed to be in an unmapped guard hole."""
        last = list(self.process.space.mappings())[-1]
        return last.end + 4096

    def freed_pointer(self, size: int = DEFAULT_SIZE,
                      content: bytes = b"stale") -> int:
        """Pointer to a chunk that has been freed (dangling but mapped)."""
        proc = self.process
        ptr = proc.heap.malloc(size)
        proc.space.write_cstring(ptr, content)
        proc.heap.free(ptr)
        return ptr


def _byte_comparator(proc: SimProcess, left: int, right: int) -> int:
    """Golden qsort/bsearch comparator: compare first bytes."""
    return proc.space.read_u8(left) - proc.space.read_u8(right)
