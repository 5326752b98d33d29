"""Recycled probe processes against fresh ones.

A campaign keeps one probe process per thread and restores it to
pristine before each probe (``Campaign.probe_process``).  A freshly
built ``SimProcess(fuel=...)`` is the oracle: every probe must return
the same result on the recycled process as on a fresh one, and leave
the same memory, heap, file system, errno and fuel behind.  The stamps
(``epoch``, ``mutations``) and the stack canary seed are the only state
allowed to differ.
"""

import functools
import gc
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HeapCorruption
from repro.injection import Campaign, ProbeExecutor, campaign_to_xml
from repro.libc import standard_registry
from repro.manpages import load_corpus
from repro.memory import AddressSpace, CallStack, HeapAllocator, Mapping
from repro.robust.checks import CheckMemo
from repro.runtime import Sandbox, SimProcess
from repro.runtime.filesystem import SimFileSystem

ORIGINAL_MAPPINGS = ["[rodata]", "[data]", "[heap]", "[stack]", "[text]"]

#: the probes whose state a recycled process must not carry over:
#: static buffers, PRNG, clock, streams, sort scratch, environment, and
#: the edge_buffer / map_filled mappings of pointer test values
SLICE = ["strtok", "srand", "time", "strftime", "localtime", "fopen",
         "fgets", "fclose", "qsort", "setenv", "getenv", "strcpy",
         "memcpy", "sprintf", "realloc", "free"]

#: process fields that are sub-objects compared on their own, or
#: restore's own bookkeeping
_NOT_FIELDS = {"space", "heap", "stack", "fs", "rodata", "data", "text",
               "_pristine", "_callbacks"}


@pytest.fixture(scope="module")
def registry():
    return standard_registry()


@pytest.fixture(scope="module")
def manpages():
    return load_corpus()


class FreshCampaign(Campaign):
    """The oracle: a new process for every probe."""

    def probe_process(self):
        self.last = SimProcess(fuel=self.fuel)
        return self.last


class WatchedCampaign(Campaign):
    """The runtime path, remembering the process each probe ran in."""

    last = None
    recycled = 0

    def probe_process(self):
        previous = self.last
        self.last = super().probe_process()
        if self.last is previous:
            self.recycled += 1
        return self.last


def observe_result(execution):
    result = execution.result
    if result is None:
        return ("setup", execution.setup_error)
    exc = result.exception
    return (result.outcome, repr(result.value), result.errno,
            result.fuel_used, type(exc).__name__ if exc else None,
            str(exc) if exc else "")


def observe_process(proc):
    try:
        walk = proc.heap.walk()
    except HeapCorruption as exc:
        walk = str(exc)
    return {
        "mappings": [(m.start, m.size, m.perm_bits, m.name, bytes(m.data))
                     for m in proc.space.mappings()],
        "heap": walk,
        "live": proc.heap.live_allocations(),
        "heap_stats": proc.heap.stats,
        "stack": (proc.stack.sp, len(proc.stack.frames)),
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


class TestFullRegistry:
    def test_every_probe_matches_a_fresh_process(self, registry, manpages):
        recycled = WatchedCampaign(registry, manpages=manpages)
        fresh = FreshCampaign(registry, manpages=manpages)
        executions = []
        for name in registry.names():
            if not registry[name].prototype.params:
                continue
            for probe, value in recycled.probe_plan(name):
                process = recycled.probe_process()
                assert_pristine(process)
                execution = recycled.execute_probe(probe, value)
                expected = fresh.execute_probe(probe, value)
                assert observe_result(execution) == \
                    observe_result(expected), probe
                executions.append(execution)
        # every probe after the first ran in the restored process: the
        # explicit probe_process above and execute_probe's own call
        assert recycled.recycled == 2 * len(executions) - 1
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


@functools.lru_cache(maxsize=None)
def slice_setup():
    """Registry, man pages and the slice's probe plan, built once."""
    registry = standard_registry()
    manpages = load_corpus()
    campaign = Campaign(registry, manpages=manpages)
    plan = [entry for name in SLICE for entry in campaign.probe_plan(name)]
    # None stands for a rand() call: it has no parameter to probe, but
    # must see the PRNG state a fresh process starts with
    return registry, manpages, plan + [None]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_sequences_match_fresh_processes(data):
    registry, manpages, plan = slice_setup()
    steps = data.draw(st.lists(st.sampled_from(plan), min_size=1,
                               max_size=12))
    recycled = WatchedCampaign(registry, manpages=manpages)
    fresh = FreshCampaign(registry, manpages=manpages)
    rand = registry["rand"]
    sandbox = Sandbox()
    for index, step in enumerate(steps):
        if step is None:
            results = [
                sandbox.run(process, lambda p=process: rand.impl(p)).value
                for process in (recycled.probe_process(),
                                fresh.probe_process())
            ]
            assert results[0] == results[1], (index, "rand")
        else:
            probe, value = step
            got = observe_result(recycled.execute_probe(probe, value))
            want = observe_result(fresh.execute_probe(probe, value))
            assert got == want, (index, probe)
        assert_same_process(recycled.last, fresh.last, (index, step))


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
        process = campaign.probe_process()
        assert process is not used
        assert_pristine(process)
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
        assert campaign.probe_process() is used

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
        mine = campaign.probe_process()
        seen = []
        worker = threading.Thread(
            target=lambda: seen.append(campaign.probe_process()))
        worker.start()
        worker.join()
        assert seen[0] is not mine
        assert campaign.probe_process() is mine
