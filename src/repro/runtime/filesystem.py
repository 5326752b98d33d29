"""In-memory filesystem and FILE-stream table for the simulated libc.

The stdio family needs files to operate on; a native HEALERS run uses the
real filesystem, here a per-process in-memory tree stands in.  ``FILE *``
values handed to applications are real heap allocations holding a magic
number and a stream index, so that stdio functions exhibit C-faithful
fragility: passing a garbage ``FILE *`` dereferences it and either faults
or fails the magic check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

FILE_MAGIC = 0xF11E0001
FILE_STRUCT_SIZE = 16  # u32 magic, u32 stream index, u32 flags, u32 pad

#: stream indices for the standard streams
STDIN_INDEX = 0
STDOUT_INDEX = 1
STDERR_INDEX = 2


@dataclass
class OpenStream:
    """State of one open stream."""

    path: str
    mode: str
    position: int = 0
    eof: bool = False
    error: bool = False
    closed: bool = False

    @property
    def readable(self) -> bool:
        return "r" in self.mode or "+" in self.mode

    @property
    def writable(self) -> bool:
        return any(flag in self.mode for flag in "wa+")


@dataclass
class SimFileSystem:
    """Flat in-memory file store plus the process's open-stream table."""

    #: chaos-injection hook (a plain class attribute, not a field): when
    #: set to ``hook(op, index) -> bool``, a True return fails that
    #: file-stream read/write as an I/O error (``stream.error`` set,
    #: ``None`` returned).  Only streams with index >= 3 are eligible —
    #: the standard streams stay deterministic for the scalar/vector
    #: differential suites.
    fault_hook = None

    files: Dict[str, bytearray] = field(default_factory=dict)
    streams: List[Optional[OpenStream]] = field(default_factory=list)
    #: captured writes to stdout/stderr (inspectable by tests and demos)
    stdout: bytearray = field(default_factory=bytearray)
    stderr: bytearray = field(default_factory=bytearray)
    stdin: bytearray = field(default_factory=bytearray)
    _stdin_pos: int = 0

    def __post_init__(self) -> None:
        self.streams = [
            OpenStream(path="<stdin>", mode="r"),
            OpenStream(path="<stdout>", mode="w"),
            OpenStream(path="<stderr>", mode="w"),
        ]

    def copy(self) -> "SimFileSystem":
        """An independent copy, without a fault hook."""
        clone = object.__new__(SimFileSystem)  # no default streams to drop
        clone.files = {path: bytearray(data)
                       for path, data in self.files.items()}
        clone.streams = [s and OpenStream(s.path, s.mode, s.position, s.eof,
                                          s.error, s.closed)
                         for s in self.streams]
        clone.stdout, clone.stderr, clone.stdin, clone._stdin_pos = (
            bytearray(self.stdout), bytearray(self.stderr),
            bytearray(self.stdin), self._stdin_pos)
        return clone

    # ------------------------------------------------------------------
    # file store
    # ------------------------------------------------------------------

    def add_file(self, path: str, content: bytes) -> None:
        """Create (or replace) a file."""
        self.files[path] = bytearray(content)

    def read_file(self, path: str) -> bytes:
        """Whole-file contents (KeyError when missing)."""
        return bytes(self.files[path])

    def exists(self, path: str) -> bool:
        return path in self.files

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------

    def open(self, path: str, mode: str) -> Optional[int]:
        """Open a stream; returns its index or None on failure."""
        primary = mode[0] if mode else ""
        if primary not in ("r", "w", "a"):
            return None
        if primary == "r" and path not in self.files:
            return None
        if primary == "w":
            self.files[path] = bytearray()
        if primary == "a" and path not in self.files:
            self.files[path] = bytearray()
        stream = OpenStream(path=path, mode=mode)
        if primary == "a":
            stream.position = len(self.files[path])
        self.streams.append(stream)
        return len(self.streams) - 1

    def stream(self, index: int) -> Optional[OpenStream]:
        """Look up a stream by index; None for invalid/closed indices."""
        if 0 <= index < len(self.streams):
            stream = self.streams[index]
            if stream is not None and not stream.closed:
                return stream
        return None

    def close(self, index: int) -> bool:
        """Close a stream; False when the index is invalid."""
        stream = self.stream(index)
        if stream is None:
            return False
        stream.closed = True
        return True

    def read(self, index: int, count: int) -> Optional[bytes]:
        """Read up to ``count`` bytes from a stream (None = invalid stream)."""
        stream = self.stream(index)
        if stream is None or not stream.readable:
            return None
        if index == STDIN_INDEX:
            data = bytes(self.stdin[self._stdin_pos : self._stdin_pos + count])
            self._stdin_pos += len(data)
            if not data:
                stream.eof = True
            return data
        hook = self.fault_hook
        if hook is not None and index >= 3 and hook("read", index):
            stream.error = True
            return None
        content = self.files.get(stream.path)
        if content is None:
            stream.error = True
            return None
        data = bytes(content[stream.position : stream.position + count])
        stream.position += len(data)
        if not data:
            stream.eof = True
        return data

    def peek(self, index: int, count: int, offset: int = 0) -> Optional[bytes]:
        """Look ahead up to ``count`` bytes at ``offset`` past the position.

        Pure lookahead: never advances the stream and never touches the
        ``eof``/``error`` flags — bulk line scans use it to find the newline,
        then :meth:`read` to consume exactly the bytes the byte-at-a-time
        loop would have, with identical flag side effects.
        """
        stream = self.stream(index)
        if stream is None or not stream.readable:
            return None
        if index == STDIN_INDEX:
            start = self._stdin_pos + offset
            return bytes(self.stdin[start : start + count])
        content = self.files.get(stream.path)
        if content is None:
            return None
        start = stream.position + offset
        return bytes(content[start : start + count])

    def write(self, index: int, data: bytes) -> Optional[int]:
        """Write to a stream; returns bytes written (None = invalid)."""
        stream = self.stream(index)
        if stream is None or not stream.writable:
            return None
        if index == STDOUT_INDEX:
            self.stdout.extend(data)
            return len(data)
        if index == STDERR_INDEX:
            self.stderr.extend(data)
            return len(data)
        hook = self.fault_hook
        if hook is not None and index >= 3 and hook("write", index):
            stream.error = True
            return None
        content = self.files.setdefault(stream.path, bytearray())
        end = stream.position + len(data)
        if end > len(content):
            content.extend(b"\x00" * (end - len(content)))
        content[stream.position : end] = data
        stream.position = end
        return len(data)

    def feed_stdin(self, data: bytes) -> None:
        """Append bytes that subsequent stdin reads will return."""
        self.stdin.extend(data)

    def drain_stdin(self) -> int:
        """Discard un-consumed stdin; returns the bytes dropped.

        The serving supervisor calls this after a request dies
        mid-read, so a half-consumed line cannot bleed into the next
        request's input.
        """
        dropped = len(self.stdin) - self._stdin_pos
        self._stdin_pos = len(self.stdin)
        return dropped

    def stdout_text(self) -> str:
        """Captured stdout decoded for assertions/demos."""
        return self.stdout.decode(errors="replace")
