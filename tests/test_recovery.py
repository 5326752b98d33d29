"""Tests for the recovery subsystem: policies, repair, retry, escalation.

The property suite pins the recovery-policy matrix: for every violation
kind × configured action the observable outcome is deterministic and the
nonsensical pairs (repair without heap metadata, retry of a
deterministic refusal) normalise to contain.  The integration tests
drive real wrapped calls through each action, and the backend test
asserts the compiled fast path and the interpreted reference produce
byte-identical profile documents under recovery.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SecurityViolation
from repro.libc import standard_registry
from repro.linker import DynamicLinker, SharedLibrary
from repro.manpages import load_corpus
from repro.recovery import (
    ACTIONS,
    KINDS,
    REPAIRABLE_KINDS,
    RETRYABLE_KINDS,
    RecoveryPolicy,
    escalating_policy,
    self_healing_policy,
)
from repro.robust import RobustAPIDocument
from repro.runtime import Errno, SimProcess
from repro.security.policy import SecurityPolicy
from repro.telemetry import MetricsSink
from repro.wrappers import RECOVERY, WrapperFactory
from repro.wrappers.presets import default_generator_registry
from tests.oracles.wrappers import wrapper_backend

COMMON = settings(max_examples=60,
                  suppress_health_check=[HealthCheck.too_slow],
                  deadline=None)


@pytest.fixture(scope="module")
def registry():
    return standard_registry()


@pytest.fixture(scope="module")
def api_document(registry):
    return RobustAPIDocument.build(registry, load_corpus())


def recovery_linker(registry, api_document, policy, backend="compiled"):
    linker = DynamicLinker()
    linker.add_library(SharedLibrary.from_registry(registry))
    metrics = MetricsSink()
    security = SecurityPolicy(recovery=policy)
    factory = WrapperFactory(
        registry, api_document,
        generators=default_generator_registry(security),
    )
    with wrapper_backend(backend):
        built = factory.preload(linker, RECOVERY, sinks=[metrics])
    return linker, built, metrics


def clobber_canary(proc, address, size):
    """Overwrite the heap canary guarding ``address`` (one byte past)."""
    proc.space.write(address + size, b"\x5a")


# ----------------------------------------------------------------------
# the policy matrix (property-based)
# ----------------------------------------------------------------------

POLICY = st.builds(
    RecoveryPolicy,
    actions=st.dictionaries(st.sampled_from(KINDS),
                            st.sampled_from(ACTIONS), max_size=len(KINDS)),
    function_actions=st.dictionaries(
        st.sampled_from(["malloc", "strcpy", "free", "gets"]),
        st.dictionaries(st.sampled_from(KINDS), st.sampled_from(ACTIONS),
                        max_size=3),
        max_size=2,
    ),
    default_action=st.sampled_from(ACTIONS),
    max_retries=st.integers(1, 8),
    retry_backoff_fuel=st.integers(0, 64),
)


class TestPolicyMatrix:
    @COMMON
    @given(policy=POLICY, function=st.text(min_size=0, max_size=8),
           kind=st.sampled_from(KINDS))
    def test_action_is_total_and_normalised(self, policy, function, kind):
        """Every (function, kind) pair maps to a *valid, applicable*
        action — never an exception, never repair/retry where they
        cannot work."""
        action = policy.action_for(function, kind)
        assert action in ACTIONS
        if action == "repair":
            assert kind in REPAIRABLE_KINDS
        if action == "retry":
            assert kind in RETRYABLE_KINDS

    @COMMON
    @given(policy=POLICY)
    def test_selection_is_deterministic(self, policy):
        matrix = {(f, k): policy.action_for(f, k)
                  for f in ("malloc", "strcpy", "other")
                  for k in KINDS}
        again = {(f, k): policy.action_for(f, k)
                 for f in ("malloc", "strcpy", "other")
                 for k in KINDS}
        assert matrix == again

    @COMMON
    @given(policy=POLICY)
    def test_xml_round_trip(self, policy):
        parent = ET.Element("x")
        node = policy.to_node(parent)
        back = RecoveryPolicy.from_node(node)
        for function in ("malloc", "strcpy", "free", "gets", "other"):
            for kind in KINDS:
                assert (back.action_for(function, kind)
                        == policy.action_for(function, kind))
        assert back.max_retries == policy.max_retries
        assert back.retry_backoff_fuel == policy.retry_backoff_fuel
        assert back.transient_errnos == policy.transient_errnos

    def test_retries_budget_follows_action(self):
        assert self_healing_policy().retries_for("malloc") == 3
        assert escalating_policy().retries_for("malloc") == 0
        assert RecoveryPolicy().retries_for("malloc") == 0

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(default_action="reboot")
        with pytest.raises(ValueError):
            RecoveryPolicy(actions={"nonsense": "contain"})
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=0)


# ----------------------------------------------------------------------
# each action, end to end through wrapped calls
# ----------------------------------------------------------------------

class TestRepairAction:
    def test_canary_clobber_is_repaired(self, registry, api_document):
        linker, built, metrics = recovery_linker(
            registry, api_document, self_healing_policy()
        )
        proc = SimProcess(heap_canaries=True)
        victim = linker.resolve("malloc").symbol(proc, 16)
        survivor = linker.resolve("malloc").symbol(proc, 16)
        clobber_canary(proc, victim, 16)
        # free() triggers heap verification; repair quarantines the
        # clobbered chunk and the program continues
        linker.resolve("free").symbol(proc, survivor)
        built.bus.flush()
        assert metrics.recoveries["repair"] == 1
        assert proc.heap.check_integrity() == []
        assert victim in proc.heap.quarantined_addresses()
        # quarantined: a later free of the bad pointer is a no-op
        linker.resolve("free").symbol(proc, victim)

    def test_repair_evicts_size_table_entry(self, registry, api_document):
        linker, built, _ = recovery_linker(
            registry, api_document, self_healing_policy()
        )
        proc = SimProcess(heap_canaries=True)
        victim = linker.resolve("malloc").symbol(proc, 16)
        assert victim in built.state.size_table
        clobber_canary(proc, victim, 16)
        linker.resolve("free").symbol(
            proc, linker.resolve("malloc").symbol(proc, 8)
        )
        built.bus.flush()
        assert victim not in built.state.size_table

    def test_clean_repair_blocks_nothing(self, registry, api_document):
        linker, built, metrics = recovery_linker(
            registry, api_document, self_healing_policy()
        )
        proc = SimProcess(heap_canaries=True)
        victim = linker.resolve("malloc").symbol(proc, 16)
        other = linker.resolve("malloc").symbol(proc, 8)
        clobber_canary(proc, victim, 16)
        linker.resolve("free").symbol(proc, other)
        built.bus.flush()
        # a clean repair lets the call proceed: a RecoveryEvent is
        # emitted but no SecurityEvent — nothing was blocked
        assert metrics.recoveries["repair"] == 1
        assert built.state.security_events == []


class TestEscalateAction:
    def test_escalate_terminates(self, registry, api_document):
        linker, _, _ = recovery_linker(
            registry, api_document, escalating_policy()
        )
        proc = SimProcess(heap_canaries=True)
        victim = linker.resolve("malloc").symbol(proc, 16)
        other = linker.resolve("malloc").symbol(proc, 8)
        clobber_canary(proc, victim, 16)
        with pytest.raises(SecurityViolation):
            linker.resolve("free").symbol(proc, other)

    def test_bounds_escalates_like_paper(self, registry, api_document):
        linker, _, _ = recovery_linker(
            registry, api_document, escalating_policy()
        )
        proc = SimProcess(heap_canaries=True)
        dest = linker.resolve("malloc").symbol(proc, 8)
        src = proc.alloc_cstring(b"far longer than eight bytes")
        with pytest.raises(SecurityViolation):
            linker.resolve("strcpy").symbol(proc, dest, src)


class TestContainAction:
    def test_bounds_contained_to_error_return(self, registry, api_document):
        # self-healing maps bounds (not repairable) to the default:
        # contain — the overflow becomes an error return, not an abort
        linker, built, metrics = recovery_linker(
            registry, api_document, self_healing_policy()
        )
        proc = SimProcess(heap_canaries=True)
        dest = linker.resolve("malloc").symbol(proc, 8)
        src = proc.alloc_cstring(b"far longer than eight bytes")
        ret = linker.resolve("strcpy").symbol(proc, dest, src)
        assert ret == 0
        assert proc.errno == Errno.EFAULT
        built.bus.flush()
        assert metrics.recoveries["contain"] == 1
        assert built.state.security_events[-1].terminated is False

    def test_repair_normalises_to_contain_for_bounds(self, registry,
                                                     api_document):
        policy = RecoveryPolicy(actions={"bounds": "repair"})
        linker, _, metrics = recovery_linker(registry, api_document, policy)
        proc = SimProcess(heap_canaries=True)
        dest = linker.resolve("malloc").symbol(proc, 8)
        src = proc.alloc_cstring(b"far longer than eight bytes")
        assert linker.resolve("strcpy").symbol(proc, dest, src) == 0


class TestRetryAction:
    def one_shot_oom(self, proc):
        remaining = {"n": 1}

        def hook():
            if remaining["n"]:
                remaining["n"] -= 1
                return True
            return False

        proc.heap.fault_hook = hook

    def test_transient_oom_retried(self, registry, api_document):
        linker, built, metrics = recovery_linker(
            registry, api_document, self_healing_policy()
        )
        proc = SimProcess(heap_canaries=True)
        self.one_shot_oom(proc)
        address = linker.resolve("malloc").symbol(proc, 32)
        assert address != 0
        assert proc.errno == 0
        built.bus.flush()
        assert metrics.recoveries["retry"] == 1

    def test_without_retry_oom_propagates(self, registry, api_document):
        linker, _, _ = recovery_linker(
            registry, api_document, escalating_policy()
        )
        proc = SimProcess(heap_canaries=True)
        self.one_shot_oom(proc)
        assert linker.resolve("malloc").symbol(proc, 32) == 0
        assert proc.errno == Errno.ENOMEM

    def test_persistent_oom_exhausts_budget(self, registry, api_document):
        linker, built, metrics = recovery_linker(
            registry, api_document, self_healing_policy()
        )
        proc = SimProcess(heap_canaries=True)
        proc.heap.fault_hook = lambda: True
        assert linker.resolve("malloc").symbol(proc, 32) == 0
        assert proc.errno == Errno.ENOMEM
        built.bus.flush()
        assert metrics.recoveries["retry"] == 1  # one (failed) episode

    def test_retry_does_not_rerun_successful_calls(self, registry,
                                                   api_document):
        """Sticky errno must not trigger retries of calls that
        succeeded: a stale ENOMEM followed by free(NULL) (returns the
        error value 'None/0' vacuously) must not re-execute anything."""
        linker, built, metrics = recovery_linker(
            registry, api_document, self_healing_policy()
        )
        proc = SimProcess(heap_canaries=True)
        proc.errno = Errno.ENOMEM  # stale, as C leaves it
        a = linker.resolve("malloc").symbol(proc, 16)
        assert a != 0
        linker.resolve("free").symbol(proc, a)
        built.bus.flush()
        assert metrics.recoveries.get("retry", 0) == 0
        # the stale errno survives untouched, as in C
        assert proc.errno == Errno.ENOMEM


# ----------------------------------------------------------------------
# backend equivalence under recovery
# ----------------------------------------------------------------------

def drive_violations(linker, proc):
    """A fixed sequence exercising repair, retry, and containment."""
    outcomes = []
    malloc = linker.resolve("malloc").symbol
    free = linker.resolve("free").symbol
    strcpy = linker.resolve("strcpy").symbol
    victim = malloc(proc, 16)
    outcomes.append(victim)
    clobber_canary(proc, victim, 16)
    outcomes.append(free(proc, malloc(proc, 8)))          # repair
    dest = malloc(proc, 8)
    src = proc.alloc_cstring(b"far longer than eight bytes")
    outcomes.append(strcpy(proc, dest, src))              # contain
    outcomes.append(proc.errno)
    remaining = {"n": 1}

    def hook():
        if remaining["n"]:
            remaining["n"] -= 1
            return True
        return False

    proc.heap.fault_hook = hook
    outcomes.append(malloc(proc, 24) != 0)                # retry
    return outcomes


class TestBackendEquivalence:
    def test_profiles_byte_identical(self, registry, api_document):
        from repro.profiling import ProfileDocument

        documents = []
        for backend in ("compiled", "interpreted"):
            linker, built, _ = recovery_linker(
                registry, api_document, self_healing_policy(),
                backend=backend,
            )
            proc = SimProcess(heap_canaries=True)
            outcomes = drive_violations(linker, proc)
            built.bus.flush()
            documents.append((
                outcomes,
                ProfileDocument.from_state(
                    built.state, application="recovery-diff",
                    wrapper_type=built.spec.name,
                    library=registry.library_name,
                ).to_xml(),
                built.state.size_table,
                built.state.security_events,
            ))
        compiled, interpreted = documents
        assert compiled[0] == interpreted[0]
        assert compiled[1] == interpreted[1]  # byte-identical XML
        assert compiled[2] == interpreted[2]
        assert compiled[3] == interpreted[3]

    def test_heap_clean_after_sequence_both_backends(self, registry,
                                                     api_document):
        for backend in ("compiled", "interpreted"):
            linker, _, _ = recovery_linker(
                registry, api_document, self_healing_policy(),
                backend=backend,
            )
            proc = SimProcess(heap_canaries=True)
            drive_violations(linker, proc)
            assert proc.heap.check_integrity() == []
