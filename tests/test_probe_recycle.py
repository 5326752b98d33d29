"""Checkpointed probe processes against fresh ones.

A campaign keeps one probe process per thread, checkpointed once the
golden arguments of the function it probes are built, and restores it
to that checkpoint before each later probe of the function
(``Campaign.probe_process``).  The oracle is a freshly built
``SimProcess(fuel=...)`` on which ``ProbeContext.build_goldens`` just
ran: every probe must return the same result on the restored process as
on the oracle, and leave the same memory, heap, file system, errno and
fuel behind.  The stamps (``epoch``, ``mutations``), the resolution
counters and the stack canary seed are the only state allowed to
differ.
"""

import copy
import functools
import gc
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HeapCorruption
from repro.ftypes import ProbeContext
from repro.ftypes import TestValue as Value  # not a test class
from repro.injection import Campaign, ProbeExecutor, campaign_to_xml
from repro.libc import standard_registry
from repro.manpages import load_corpus
from repro.memory import (
    PAGE_SIZE, AddressSpace, CallStack, HeapAllocator, Mapping,
)
from repro.robust.checks import CheckMemo
from repro.runtime import SimProcess
from repro.runtime.filesystem import SimFileSystem

ORIGINAL_MAPPINGS = ["[rodata]", "[data]", "[heap]", "[stack]", "[text]"]

#: the probes whose state a restored process must not carry over:
#: static buffers, PRNG, clock, streams, sort scratch, environment, and
#: the edge_buffer / map_filled mappings of pointer test values
SLICE = ["strtok", "srand", "time", "strftime", "localtime", "fopen",
         "fgets", "fclose", "qsort", "setenv", "getenv", "strcpy",
         "memcpy", "sprintf", "realloc", "free"]

#: process fields that are sub-objects compared on their own, or
#: restore's own bookkeeping
_NOT_FIELDS = {"space", "heap", "stack", "fs", "rodata", "data", "text",
               "_target", "_callbacks"}


@pytest.fixture(scope="module")
def registry():
    return standard_registry()


@pytest.fixture(scope="module")
def manpages():
    return load_corpus()


def fresh_goldens(campaign, function):
    """The oracle: a new process with the function's goldens built."""
    process = SimProcess(fuel=campaign.fuel)
    context = ProbeContext(process, function.prototype,
                           campaign.manpages.get(function.name))
    context.build_goldens()
    return process, context


class FreshCampaign(Campaign):
    """The oracle campaign: a new process and new goldens per probe."""

    def probe_process(self, function):
        self.last, context = fresh_goldens(self, function)
        return self.last, context


class WatchedCampaign(Campaign):
    """The runtime path, remembering the process each probe ran in and
    optionally checking each restored process before the probe."""

    last = None
    recycled = 0
    check = None

    def probe_process(self, function):
        previous = self.last
        self.last, context = super().probe_process(function)
        if self.last is previous:
            self.recycled += 1
        if self.check is not None:
            self.check(function, self.last, context)
        return self.last, context


def observe_result(execution):
    result = execution.result
    if result is None:
        return ("setup", execution.setup_error)
    exc = result.exception
    return (result.outcome, repr(result.value), result.errno,
            result.fuel_used, type(exc).__name__ if exc else None,
            str(exc) if exc else "")


def observe_process(proc, contents=True):
    try:
        walk = proc.heap.walk()
    except HeapCorruption as exc:
        walk = str(exc)
    return {
        "mappings": [(m.start, m.size, m.perm_bits, m.name,
                      m.data if contents else None)
                     for m in proc.space.mappings()],
        "heap": walk,
        "live": proc.heap.live_allocations(),
        "heap_stats": proc.heap.stats,
        "heap_free": (proc.heap._brk, proc.heap._free,
                      proc.heap._free_order, proc.heap._chunks,
                      proc.heap._quarantined),
        "stack": (proc.stack.sp, proc.stack.frames),
        "fs": proc.fs,
        "callbacks": sorted(proc._callbacks),
        "errno": proc.errno,
        "fuel_used": proc.fuel_used,
        "fields": {name: value for name, value in vars(proc).items()
                   if name not in _NOT_FIELDS},
    }


def assert_same_process(recycled, fresh, where):
    left = observe_process(recycled)
    right = observe_process(fresh)
    for key in left:
        assert left[key] == right[key], (where, key)


def assert_same_context(recycled, fresh, where):
    for table in ("golden", "capacities", "texts", "varargs"):
        assert getattr(recycled, table) == getattr(fresh, table), \
            (where, table)


#: the attributes of a new process; restore resets declared fields and
#: deletes none, so a probe that hangs a new one on the process shows here
FRESH_FIELDS = frozenset(vars(SimProcess()))


def assert_pristine(proc):
    assert set(vars(proc)) == FRESH_FIELDS
    mappings = list(proc.space.mappings())
    assert [m.name for m in mappings] == ORIGINAL_MAPPINGS
    for mapping in mappings:
        assert mapping.data == bytes(mapping.size), mapping.name
    assert proc.heap.walk() == []
    assert proc.fs == SimFileSystem()
    assert proc.errno == 0 and proc.fuel_used == 0


def reaches(root, kinds, budget=100_000):
    """True when ``root`` reaches an instance of ``kinds`` by reference.

    Types and modules are not followed, and a function only through its
    closure cells, so the walk stays inside the object's own data.
    """
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert len(seen) < budget, "reference walk did not terminate"
        if isinstance(obj, kinds):
            return True
        if isinstance(obj, (type, types.ModuleType)):
            continue
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            continue
        stack.extend(gc.get_referents(obj))
    return False


def probed_functions(registry):
    return [name for name in registry.names()
            if registry[name].prototype.params]


class TestFullRegistry:
    def test_every_probe_matches_a_fresh_process(self, registry, manpages):
        recycled = WatchedCampaign(registry, manpages=manpages)
        fresh = FreshCampaign(registry, manpages=manpages)

        def check(function, process, context):
            # the restored process and context equal new goldens
            oracle, oracle_context = fresh_goldens(fresh, function)
            assert_same_process(process, oracle, function.name)
            assert_same_context(context, oracle_context, function.name)

        recycled.check = check
        executions = []
        units = probed_functions(registry)
        for name in units:
            for probe, value in recycled.probe_plan(name):
                execution = recycled.execute_probe(probe, value)
                expected = fresh.execute_probe(probe, value)
                assert observe_result(execution) == \
                    observe_result(expected), probe
                executions.append(execution)
        # only the first probe of each function builds a process
        assert recycled.recycled == len(executions) - len(units)
        assert len(executions) == 1644
        # a stored result keeps no simulator state alive
        kinds = (SimProcess, AddressSpace, Mapping, HeapAllocator, CallStack)
        for execution in executions:
            assert not reaches(execution, kinds), execution.probe

    def test_campaign_xml_matches_the_fresh_oracle(self, registry, manpages):
        oracle = campaign_to_xml(
            FreshCampaign(registry, manpages=manpages).run())
        serial = campaign_to_xml(Campaign(registry, manpages=manpages).run())
        assert serial == oracle

    def test_thread_backend_xml_byte_identical_to_serial(self, registry,
                                                         manpages):
        serial = campaign_to_xml(Campaign(registry, manpages=manpages).run())
        threaded = ProbeExecutor(Campaign(registry, manpages=manpages),
                                 jobs=2, backend="thread").run()
        assert campaign_to_xml(threaded) == serial

    def test_goldens_are_built_once_per_function(self, registry, manpages,
                                                 monkeypatch):
        builds = []
        build = ProbeContext.build_goldens

        def counted(context):
            builds.append(context.prototype.name)
            build(context)

        monkeypatch.setattr(ProbeContext, "build_goldens", counted)
        campaign = Campaign(registry, manpages=manpages)
        result = ProbeExecutor(campaign, backend="serial").run()
        assert result.total_probes == 1644
        assert builds == probed_functions(registry)
        assert len(builds) == 103


@functools.lru_cache(maxsize=None)
def slice_setup():
    """Registry, man pages and the slice's probe plans, built once."""
    registry = standard_registry()
    manpages = load_corpus()
    campaign = Campaign(registry, manpages=manpages)
    plans = {name: campaign.probe_plan(name) for name in SLICE}
    return registry, manpages, plans


def run_and_compare(steps):
    """Run ``steps`` on the checkpointed path and on fresh goldens,
    comparing the result and the whole process after every probe."""
    registry, manpages, _ = slice_setup()
    recycled = WatchedCampaign(registry, manpages=manpages)
    fresh = FreshCampaign(registry, manpages=manpages)
    for index, (probe, value) in enumerate(steps):
        got = observe_result(recycled.execute_probe(probe, value))
        want = observe_result(fresh.execute_probe(probe, value))
        assert got == want, (index, probe)
        assert_same_process(recycled.last, fresh.last, (index, probe))


@st.composite
def within_one_function(draw):
    _, _, plans = slice_setup()
    plan = plans[draw(st.sampled_from(SLICE))]
    return draw(st.lists(st.sampled_from(plan), min_size=1, max_size=12))


@st.composite
def across_functions(draw):
    _, _, plans = slice_setup()
    everything = [entry for name in SLICE for entry in plans[name]]
    return draw(st.lists(st.sampled_from(everything), min_size=1,
                         max_size=12))


@settings(max_examples=40, deadline=None)
@given(steps=st.one_of(within_one_function(), across_functions()))
def test_random_sequences_match_fresh_processes(steps):
    run_and_compare(steps)


def _arm_heap_fault(proc):
    proc.heap.fault_hook = lambda: False


def _arm_post_alloc(proc):
    proc.heap.post_alloc_hook = lambda user, size: None


def _arm_fs_fault(proc):
    proc.fs.fault_hook = lambda op, index: False


def _install_check_memo(proc):
    proc.check_memo = CheckMemo(proc)


def _install_degrade_hook(proc):
    proc.degrade_hook = lambda function, kind: None


def _protect_data(proc):
    proc.space.protect(proc.data, proc.data.perm & ~2)


def _unmap_stack(proc):
    proc.space.unmap(proc.stack.mapping)


def _rebind_heap(proc):
    proc.heap = HeapAllocator(proc.space, 4096)


def _rebind_fs(proc):
    proc.fs = SimFileSystem()


FALLBACKS = [_arm_heap_fault, _install_check_memo, _protect_data,
             _unmap_stack, _arm_post_alloc, _arm_fs_fault,
             _install_degrade_hook, _rebind_heap, _rebind_fs]


class TestFallback:
    @pytest.mark.parametrize("perturb", FALLBACKS,
                             ids=[f.__name__.lstrip("_") for f in FALLBACKS])
    def test_unprovable_state_forces_a_fresh_build(self, registry, manpages,
                                                   perturb):
        campaign = WatchedCampaign(registry, manpages=manpages)
        fresh = FreshCampaign(registry, manpages=manpages)
        (first, first_value), (second, second_value) = \
            campaign.probe_plan("strcpy")[:2]
        campaign.execute_probe(first, first_value)
        used = campaign.last
        perturb(used)
        assert used.restore() is False
        process, context = campaign.probe_process(registry["strcpy"])
        assert process is not used
        oracle, oracle_context = fresh_goldens(fresh, registry["strcpy"])
        assert_same_process(process, oracle, perturb.__name__)
        assert_same_context(context, oracle_context, perturb.__name__)
        got = campaign.execute_probe(second, second_value)
        assert campaign.last is process
        assert observe_result(got) == \
            observe_result(fresh.execute_probe(second, second_value))
        assert_same_process(process, fresh.last, perturb.__name__)

    def test_cleared_hook_slot_still_recycles(self, registry, manpages):
        """reliable_malloc leaves ``fault_hook = None`` in the instance
        dict; restore tests the hook's value, not its presence."""
        campaign = WatchedCampaign(registry, manpages=manpages)
        probe, value = campaign.probe_plan("strcpy")[0]
        campaign.execute_probe(probe, value)
        used = campaign.last
        assert "fault_hook" in vars(used.heap)
        assert used.restore() is True
        assert campaign.probe_process(registry["strcpy"])[0] is used

    def test_restore_undoes_every_kind_of_state(self, registry):
        """Touch each piece of process state directly, restore, and
        compare with a new process."""
        proc = SimProcess(fuel=1000)
        proc.stack.push_frame("caller", 0x1234)
        proc.stack.alloca(64)
        seed = proc.stack.canary_seed
        proc.errno = 22
        proc.consume(10)
        proc.exit_status = 3
        proc.rand_state = 99
        proc.setenv("HOME", "/home/user")
        proc.getenv_ptr("HOME")
        proc.intern_cstring(b"literal")
        proc.register_callback(lambda p, a, b: 0)
        proc.static_alloc(32)
        proc.fs.add_file("/tmp/x", b"data")
        registry["time"].impl(proc, 0)
        registry["fopen"].impl(proc, proc.alloc_cstring(b"/tmp/x"),
                               proc.alloc_cstring(b"r"))
        text = proc.alloc_cstring(b"a,b")
        registry["strtok"].impl(proc, text, proc.alloc_cstring(b","))
        registry["asctime"].impl(proc, proc.alloc_buffer(64))
        extra = proc.space.map_region(4096)
        proc.space.write(extra.start, b"x")
        assert proc.restore() is True
        assert_pristine(proc)
        assert_same_process(proc, SimProcess(fuel=1000), "restore")
        assert proc.stack.canary_seed != seed

    def test_restore_keeps_stamps_monotonic(self, registry, manpages):
        campaign = WatchedCampaign(registry, manpages=manpages)
        probe, value = campaign.probe_plan("strcpy")[0]
        campaign.execute_probe(probe, value)
        space = campaign.last.space
        epoch, mutations = space.epoch, space.mutations
        assert campaign.last.restore() is True
        assert space.epoch > epoch and space.mutations > mutations

    def test_each_thread_owns_its_process(self, registry, manpages):
        import threading

        campaign = Campaign(registry, manpages=manpages)
        strcpy = registry["strcpy"]
        mine, _ = campaign.probe_process(strcpy)
        seen = []
        worker = threading.Thread(
            target=lambda: seen.append(campaign.probe_process(strcpy)[0]))
        worker.start()
        worker.join()
        assert seen[0] is not mine
        assert campaign.probe_process(strcpy)[0] is mine


class TestCheckpoint:
    def test_a_probe_cannot_extend_the_checkpointed_context(self, registry,
                                                            manpages):
        """Each probe gets its own copies of the context's tables: what
        one test value adds to them is gone for the next probe."""
        campaign = WatchedCampaign(registry, manpages=manpages)
        seen = []

        def leaky(ctx, param):
            seen.append((dict(ctx.golden), dict(ctx.capacities),
                         dict(ctx.texts), list(ctx.varargs)))
            ctx.golden["extra"] = 1
            ctx.capacities["extra"] = 1
            ctx.texts["extra"] = b"x"
            ctx.varargs.append(7)  # sprintf ignores it: no conversions
            return ctx.golden[param.name]

        probe = campaign.probe_plan("sprintf")[0][0]
        for _ in range(3):
            campaign.execute_probe(probe, Value("leaky", 0, leaky))
        assert campaign.recycled == 2
        assert seen[0] == seen[1] == seen[2]
        assert seen[0][3] == []

    def test_restore_returns_to_the_checkpoint(self, registry):
        """Everything a checkpoint covers comes back, time after time,
        and a second checkpoint keeps what the first one saved."""
        proc = SimProcess(fuel=1000)
        golden = proc.alloc_cstring(b"golden")
        proc.intern_cstring(b"literal")
        proc.fs.add_file("/etc/golden.conf", b"golden file\n")
        proc.fs.feed_stdin(b"line\n")
        proc.setenv("HOME", "/home/user")
        proc.register_callback(lambda p, a, b: 0)
        proc.checkpoint()
        mark = copy.deepcopy(observe_process(proc, contents=False))
        contents = [bytes(m.data) for m in proc.space.mappings()]
        for round_ in range(3):
            registry["strcpy"].impl(proc, golden, proc.intern_cstring(b"xy"))
            registry["fopen"].impl(proc, proc.alloc_cstring(b"/tmp/y"),
                                   proc.alloc_cstring(b"w"))
            registry["rand"].impl(proc)
            proc.getenv_ptr("HOME")
            proc.heap.free(golden)
            proc.errno = 5
            proc.space.map_region(4096)
            assert proc.restore() is True, round_
            assert observe_process(proc, contents=False) == mark, round_
            assert [bytes(m.data) for m in proc.space.mappings()] == contents
        # a later checkpoint merges its window with the saved one: the
        # golden string written before the first checkpoint survives
        proc.alloc_cstring(b"second")
        proc.checkpoint()
        contents = [bytes(m.data) for m in proc.space.mappings()]
        registry["strcpy"].impl(proc, golden, proc.intern_cstring(b"zz"))
        assert proc.restore() is True
        assert [bytes(m.data) for m in proc.space.mappings()] == contents
        assert proc.read_cstring(golden) == b"golden"

    def test_a_write_across_adjacent_mappings_is_restored(self):
        """A run write or fill that crosses into the next mapping widens
        the write window of each mapping it lands in."""
        space = AddressSpace()
        first = space.map_region(PAGE_SIZE, at=16 * PAGE_SIZE)
        second = space.map_region(PAGE_SIZE, at=17 * PAGE_SIZE)
        layout = space.checkpoint()
        for write in (lambda: space.write_run(first.end - 4, b"x" * 8),
                      lambda: space.fill_run(first.end - 1, 0x42, 9)):
            write()
            assert space.reset_layout(layout) is True
            assert first.data == bytes(PAGE_SIZE)
            assert second.data == bytes(PAGE_SIZE)

    def test_no_checkpoint_inside_a_call_frame(self):
        """Restore starts the stack over, so a live frame cannot be part
        of a checkpoint."""
        proc = SimProcess()
        proc.stack.push_frame("caller", 0x1234)
        with pytest.raises(ValueError):
            proc.checkpoint()
        proc.stack.pop_frame()
        proc.checkpoint()
        assert proc.restore() is True

    def test_restore_touches_only_the_bytes_written(self):
        """A write at the start of [rodata] and one at the end of [heap]:
        restore puts back exactly those bytes.  Bytes planted behind the
        space's back elsewhere (recorded by no write) survive, so restore
        never zeroed the span between the two writes or anything else."""
        proc = SimProcess()
        rodata, heap = proc.rodata, proc.heap.mapping
        proc.checkpoint()
        proc.intern_cstring(b"abc")
        proc.space.write(heap.end - 8, b"12345678")
        assert (rodata.dirty_lo, rodata.dirty_hi) == \
            (rodata.start, rodata.start + 4)
        assert (heap.dirty_lo, heap.dirty_hi) == (heap.end - 8, heap.end)
        # the global watermark spans both mappings and all between
        assert proc.space.dirty_lo == rodata.start
        assert proc.space.dirty_hi == heap.end
        planted = {mapping: len(mapping.data) // 2
                   for mapping in proc.space.mappings()}
        planted[rodata] = 4  # just past the interned string
        planted[heap] = heap.size - 9  # just below the heap write
        for mapping, offset in planted.items():
            mapping.data[offset] = 0x5A
        assert proc.restore() is True
        for mapping, offset in planted.items():
            assert mapping.data[offset] == 0x5A, mapping.name
            mapping.data[offset] = 0
        for mapping in proc.space.mappings():
            assert mapping.data == bytes(mapping.size), mapping.name
            assert mapping.dirty_lo >= mapping.dirty_hi
        assert_pristine(proc)
