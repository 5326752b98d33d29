"""Tests for the simulated process runtime and probe sandbox."""

import gc
import weakref

import pytest

from repro.errors import (
    Outcome,
    OutOfFuel,
    ProcessExit,
    SegmentationFault,
)
from repro.runtime import Errno, ProbeResult, Sandbox, SimProcess
from repro.runtime.filesystem import SimFileSystem


class TestSimProcess:
    def test_fresh_process_has_standard_mappings(self):
        proc = SimProcess()
        names = {m.name for m in proc.space.mappings()}
        assert {"[rodata]", "[data]", "[heap]", "[stack]", "[text]"} <= names

    def test_alloc_cstring_roundtrip(self):
        proc = SimProcess()
        ptr = proc.alloc_cstring(b"hello")
        assert proc.read_cstring(ptr) == b"hello"
        assert proc.heap.allocation_size(ptr) == 6

    def test_intern_cstring_deduplicates(self):
        proc = SimProcess()
        a = proc.intern_cstring(b"same")
        b = proc.intern_cstring(b"same")
        assert a == b

    def test_interned_strings_are_read_only(self):
        proc = SimProcess()
        ptr = proc.intern_cstring(b"ro")
        with pytest.raises(SegmentationFault):
            proc.space.write(ptr, b"x")

    def test_static_alloc_is_writable_and_aligned(self):
        proc = SimProcess()
        a = proc.static_alloc(10)
        b = proc.static_alloc(10)
        assert a % 16 == 0 and b % 16 == 0 and b > a
        proc.space.write(a, b"0123456789")

    def test_fuel_exhaustion(self):
        proc = SimProcess(fuel=10)
        for _ in range(10):
            proc.consume()
        with pytest.raises(OutOfFuel):
            proc.consume()

    def test_unlimited_fuel(self):
        proc = SimProcess()
        proc.consume(10 ** 9)
        assert proc.fuel_used == 10 ** 9

    def test_exit_records_status(self):
        proc = SimProcess()
        with pytest.raises(ProcessExit):
            proc.exit(7)
        assert proc.exit_status == 7

    def test_environ_lookup(self):
        proc = SimProcess(environ={"PATH": "/bin"})
        ptr = proc.getenv_ptr("PATH")
        assert proc.read_cstring(ptr) == b"/bin"
        assert proc.getenv_ptr("PATH") == ptr  # stable pointer
        assert proc.getenv_ptr("MISSING") == 0

    def test_setenv_invalidates_pointer(self):
        proc = SimProcess(environ={"X": "1"})
        first = proc.getenv_ptr("X")
        proc.setenv("X", "2")
        second = proc.getenv_ptr("X")
        assert proc.read_cstring(second) == b"2"
        assert first != second


class TestCallbacks:
    def test_register_and_resolve(self):
        proc = SimProcess()
        marker = []
        address = proc.register_callback(lambda p: marker.append(1))
        proc.resolve_callback(address)(proc)
        assert marker == [1]

    def test_addresses_live_in_text_mapping(self):
        proc = SimProcess()
        address = proc.register_callback(lambda p: None)
        assert proc.text.contains(address)

    def test_unknown_address_faults(self):
        proc = SimProcess()
        with pytest.raises(SegmentationFault):
            proc.resolve_callback(0)
        with pytest.raises(SegmentationFault):
            proc.resolve_callback(proc.heap.malloc(8))

    def test_distinct_addresses(self):
        proc = SimProcess()
        a = proc.register_callback(lambda p: 1)
        b = proc.register_callback(lambda p: 2)
        assert a != b
        assert proc.resolve_callback(b)(proc) == 2


class TestSandbox:
    def test_pass(self):
        sandbox = Sandbox()
        proc = SimProcess()
        result = sandbox.run(proc, lambda: 42)
        assert result.outcome == Outcome.PASS
        assert result.value == 42
        assert not result.failed

    def test_crash_classification(self):
        sandbox = Sandbox()
        proc = SimProcess()
        result = sandbox.run(proc, lambda: proc.space.read(0, 1))
        assert result.outcome == Outcome.CRASH
        assert result.failed

    def test_hang_classification(self):
        sandbox = Sandbox()
        proc = SimProcess(fuel=5)
        result = sandbox.run(proc, lambda: proc.consume(10))
        assert result.outcome == Outcome.HANG

    def test_abort_classification(self):
        from repro.errors import Aborted

        sandbox = Sandbox()
        proc = SimProcess()

        def aborts():
            raise Aborted("test")

        assert sandbox.run(proc, aborts).outcome == Outcome.ABORT

    def test_errno_change_is_error(self):
        sandbox = Sandbox()
        proc = SimProcess()

        def sets_errno():
            proc.errno = Errno.EINVAL
            return -1

        assert sandbox.run(proc, sets_errno).outcome == Outcome.ERROR

    def test_error_detector(self):
        sandbox = Sandbox()
        proc = SimProcess()
        result = sandbox.run(proc, lambda: 0,
                             error_detector=lambda value, errno: value == 0)
        assert result.outcome == Outcome.ERROR

    def test_exit_zero_is_pass(self):
        sandbox = Sandbox()
        proc = SimProcess()
        assert sandbox.run(proc, lambda: proc.exit(0)).outcome == Outcome.PASS

    def test_exit_nonzero_is_error(self):
        sandbox = Sandbox()
        proc = SimProcess()
        assert sandbox.run(proc, lambda: proc.exit(1)).outcome == Outcome.ERROR

    def test_zero_division_is_crash(self):
        sandbox = Sandbox()
        proc = SimProcess()
        assert sandbox.run(proc, lambda: 1 // 0).outcome == Outcome.CRASH

    def test_fuel_accounting(self):
        sandbox = Sandbox()
        proc = SimProcess()
        result = sandbox.run(proc, lambda: proc.consume(7))
        assert result.fuel_used == 7

    def test_stored_fault_does_not_pin_the_process(self):
        """A result keeps its exception, but not the probe's frames:
        they would hold the whole address space alive with it."""
        proc = SimProcess()
        alive = weakref.ref(proc)
        result = Sandbox().run(proc, lambda: proc.space.read(0, 1))
        del proc
        gc.collect()
        assert isinstance(result.exception, SegmentationFault)
        assert alive() is None


class TestOutcome:
    def test_severity_ordering(self):
        ordered = [Outcome.PASS, Outcome.ERROR, Outcome.SILENT,
                   Outcome.ABORT, Outcome.HANG, Outcome.CRASH]
        severities = [o.severity for o in ordered]
        assert severities == sorted(severities)
        assert len(set(severities)) == len(severities)

    def test_failure_classes(self):
        assert not Outcome.PASS.is_robustness_failure
        assert not Outcome.ERROR.is_robustness_failure
        for outcome in (Outcome.SILENT, Outcome.ABORT, Outcome.HANG,
                        Outcome.CRASH):
            assert outcome.is_robustness_failure

    def test_probe_result_describe(self):
        result = ProbeResult(outcome=Outcome.PASS)
        assert "pass" in result.describe()


class TestFileSystem:
    def test_standard_streams_exist(self):
        fs = SimFileSystem()
        assert fs.stream(0) is not None
        assert fs.stream(1) is not None
        assert fs.stream(2) is not None

    def test_open_read(self):
        fs = SimFileSystem()
        fs.add_file("/f", b"abcdef")
        index = fs.open("/f", "r")
        assert fs.read(index, 3) == b"abc"
        assert fs.read(index, 10) == b"def"
        assert fs.read(index, 1) == b""
        assert fs.stream(index).eof

    def test_open_missing_read_fails(self):
        fs = SimFileSystem()
        assert fs.open("/missing", "r") is None

    def test_write_mode_truncates(self):
        fs = SimFileSystem()
        fs.add_file("/f", b"old contents")
        index = fs.open("/f", "w")
        fs.write(index, b"new")
        assert fs.read_file("/f") == b"new"

    def test_write_to_readonly_stream_fails(self):
        fs = SimFileSystem()
        fs.add_file("/f", b"x")
        index = fs.open("/f", "r")
        assert fs.write(index, b"y") is None

    def test_closed_stream_is_invalid(self):
        fs = SimFileSystem()
        fs.add_file("/f", b"x")
        index = fs.open("/f", "r")
        assert fs.close(index)
        assert fs.stream(index) is None
        assert not fs.close(index)

    def test_stdout_capture(self):
        fs = SimFileSystem()
        fs.write(1, b"out")
        fs.write(2, b"err")
        assert fs.stdout_text() == "out"
        assert bytes(fs.stderr) == b"err"

    def test_stdin_feeding(self):
        fs = SimFileSystem()
        fs.feed_stdin(b"ab")
        assert fs.read(0, 1) == b"a"
        assert fs.read(0, 5) == b"b"
        assert fs.read(0, 1) == b""
