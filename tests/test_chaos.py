"""Tests for the deterministic chaos subsystem.

The regression that matters most: a chaos campaign is a pure function of
``(seed, policy, backend)``.  Same seed ⇒ identical fault schedule,
identical injected-event stream, identical outcomes — across repeated
runs and across the compiled/interpreted wrapper backends.  Plus unit
coverage for each injection site and for the collection transport's
drop accounting under injected network faults.
"""

import time

import pytest

from repro.chaos import (
    SITES,
    ChaosHarness,
    ChaosInjector,
    ChaosPlan,
    standard_scenarios,
)
from repro.libc import standard_registry
from repro.recovery import escalating_policy, self_healing_policy
from repro.runtime import SimProcess
from repro.runtime.filesystem import SimFileSystem
from repro.security.policy import SecurityPolicy
from repro.telemetry import (
    CollectionSink,
    DocumentReady,
    EventBus,
    MetricsSink,
)
from tests.oracles.wrappers import wrapper_backend


@pytest.fixture(scope="module")
def registry():
    return standard_registry()


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------

class TestChaosPlan:
    def test_same_seed_same_schedule(self):
        assert (ChaosPlan.generate(7).schedule
                == ChaosPlan.generate(7).schedule)

    def test_different_seeds_differ(self):
        assert (ChaosPlan.generate(7, rate=0.2).schedule
                != ChaosPlan.generate(8, rate=0.2).schedule)

    def test_trial_derivation_is_stable_and_distinct(self):
        a0 = ChaosPlan.for_trial(42, 0)
        assert a0.schedule == ChaosPlan.for_trial(42, 0).schedule
        assert a0.seed != ChaosPlan.for_trial(42, 1).seed

    def test_round_trip(self):
        plan = ChaosPlan.generate(3, rate=0.3)
        back = ChaosPlan.from_dict(plan.to_dict())
        assert back.schedule == plan.schedule
        assert back.seed == plan.seed

    def test_rate_zero_is_empty(self):
        assert ChaosPlan.generate(1, rate=0.0).total_faults() == 0

    def test_all_sites_covered_at_rate_one(self):
        plan = ChaosPlan.generate(1, rate=1.0, horizon=5)
        for site in SITES:
            assert len(plan.faults_at(site)) == 5


# ----------------------------------------------------------------------
# the injector, site by site
# ----------------------------------------------------------------------

class TestInjectorSites:
    def test_alloc_oom_fault(self):
        plan = ChaosPlan(seed=0, schedule={"alloc-oom": (0,)})
        injector = ChaosInjector(plan)
        proc = SimProcess()
        injector.arm_heap(proc.heap)
        assert proc.heap.malloc(16) == 0       # injected OOM
        assert proc.heap.malloc(16) != 0       # only call 0 faults
        assert injector.event_log() == [("alloc-oom", 0)]

    def test_reliable_malloc_is_exempt(self):
        """Harness helpers model static data: below the interposition
        boundary, so chaos must not fire on them (or the campaign would
        measure faults no wrapper could ever contain)."""
        plan = ChaosPlan(seed=0, schedule={"alloc-oom": (0, 1, 2, 3)})
        injector = ChaosInjector(plan)
        proc = SimProcess()
        injector.arm_heap(proc.heap)
        assert proc.alloc_cstring(b"format string") != 0
        assert proc.alloc_buffer(64) != 0
        assert injector.calls_seen("alloc-oom") == 0

    def test_heap_clobber_corrupts_canary(self):
        plan = ChaosPlan(seed=0, schedule={"heap-clobber": (1,)})
        injector = ChaosInjector(plan)
        proc = SimProcess(heap_canaries=True)
        injector.arm_heap(proc.heap)
        proc.heap.malloc(16)
        proc.heap.malloc(16)                   # call 1: clobbered
        assert proc.heap.check_integrity() != []

    def test_fs_read_fault(self):
        plan = ChaosPlan(seed=0, schedule={"fs-read": (0,)})
        injector = ChaosInjector(plan)
        fs = SimFileSystem()
        fs.add_file("/data/x", b"hello world")
        injector.arm_filesystem(fs)
        index = fs.open("/data/x", "r")
        assert fs.read(index, 5) is None       # injected error
        stream = fs.streams[index]
        assert stream.error

    def test_net_reset_and_slow(self):
        # the reset raises before the slow-peer counter ticks, so the
        # slow fault lands on the *second* call via its own index 0
        plan = ChaosPlan(seed=0,
                         schedule={"net-reset": (0,), "net-slow": (0,)})
        injector = ChaosInjector(plan)
        sent = []

        def base(address, xml_texts, timeout):
            sent.append(list(xml_texts))
            return True

        transport = injector.wrap_transport(base)
        with pytest.raises(ConnectionResetError):
            transport(("host", 1), ["<doc/>"])
        start = time.monotonic()
        assert transport(("host", 1), ["<doc/>"]) is True
        assert time.monotonic() - start >= 0.005   # slow peer
        assert sent == [["<doc/>"]]


# ----------------------------------------------------------------------
# harness determinism (the seed regression)
# ----------------------------------------------------------------------

class TestHarnessDeterminism:
    def run_once(self, registry, backend="compiled", policy=None):
        harness = ChaosHarness(
            registry,
            policy=policy or SecurityPolicy(recovery=self_healing_policy()),
            seed=42, rate=0.05,
        )
        with wrapper_backend(backend):
            return harness.run(trials=2, apps=["wordcount", "msgformat"])

    def test_same_seed_same_everything(self, registry):
        first = self.run_once(registry)
        second = self.run_once(registry)
        assert first.event_log() == second.event_log()
        assert first.to_dict() == second.to_dict()

    def test_backends_agree(self, registry):
        compiled = self.run_once(registry, backend="compiled")
        interpreted = self.run_once(registry, backend="interpreted")
        assert compiled.event_log() == interpreted.event_log()
        assert compiled.to_dict() == interpreted.to_dict()

    def test_different_seed_changes_schedule(self, registry):
        base = self.run_once(registry)
        other = ChaosHarness(
            registry,
            policy=SecurityPolicy(recovery=self_healing_policy()),
            seed=43, rate=0.05,
        ).run(trials=2, apps=["wordcount", "msgformat"])
        assert base.event_log() != other.event_log()

    def test_self_healing_contains_at_least_as_much(self, registry):
        healing = self.run_once(registry)
        escalate = self.run_once(
            registry, policy=SecurityPolicy(recovery=escalating_policy())
        )
        assert healing.containment_rate >= escalate.containment_rate

    def test_scenarios_cover_all_apps(self):
        assert set(standard_scenarios()) == {"wordcount", "csvstat",
                                             "msgformat", "kvd"}


# ----------------------------------------------------------------------
# collection transport under chaos: no silent drops
# ----------------------------------------------------------------------

class TestCollectionDropAccounting:
    def test_drops_are_counted_and_reported(self):
        report_bus = EventBus()
        metrics = MetricsSink()
        report_bus.subscribe(metrics)
        sink = CollectionSink(
            ("collector", 9), batch_size=4, flush_interval=0.01,
            retries=2, retry_backoff=0.0, report_bus=report_bus,
            transport=lambda address, frame, timeout: False,  # dead peer
        )
        for n in range(3):
            sink.handle_batch([DocumentReady(application=f"app{n}",
                                             xml=f"<doc n='{n}'/>")])
        summary = sink.close(timeout=10.0)
        report_bus.flush()
        assert sink.dropped == 3
        assert summary["dropped"] == 3
        assert summary["shipped"] == 0
        assert metrics.documents_dropped == 3
        assert "dropped" in metrics.describe()

    def test_chaotic_transport_drops_only_reset_frames(self):
        plan = ChaosPlan(seed=0, schedule={"net-reset": (0,)})
        injector = ChaosInjector(plan)

        delivered = []

        def base(address, xml_texts, timeout=5.0):
            delivered.append(list(xml_texts))
            return True

        chaotic = injector.wrap_transport(base)

        def transport(address, frame, timeout):
            try:
                return chaotic(address, frame, timeout)
            except ConnectionResetError:
                return False

        sink = CollectionSink(
            ("collector", 9), batch_size=1, flush_interval=0.01,
            retries=1, retry_backoff=0.0, transport=transport,
        )
        sink.handle_batch([DocumentReady(application="a", xml="<a/>")])
        sink.handle_batch([DocumentReady(application="b", xml="<b/>")])
        summary = sink.close(timeout=10.0)
        assert summary["shipped"] == 1
        assert summary["dropped"] == 1
        assert delivered == [["<b/>"]]
