"""Differential fuzzing: compiled wrappers vs the per-call hook loop.

The compiled wrappers ``build_library`` emits must be a pure performance
transformation: over arbitrary call sequences they have to produce
exactly the same return values, errno effects, contained violations and
accumulated ``WrapperState`` as the interpreted reference composer in
``tests/oracles/wrappers.py``.  Hypothesis drives both with identical
random call sequences against twin (deterministic) processes and
compares everything observable.  Only ``exectime_ns`` *values* are
exempt — they measure wall time — but their key sets must still match.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulatorError
from repro.injection import Campaign
from repro.libc import standard_registry
from repro.linker import DynamicLinker, SharedLibrary
from repro.manpages import load_corpus
from repro.robust import RobustAPIDocument, derive_api
from repro.recovery import self_healing_policy
from repro.robust.checks import CheckMemo
from repro.runtime import SimProcess
from repro.security.policy import SecurityPolicy
from repro.wrappers import (
    PRESETS, GeneratorRegistry, WrapperFactory, default_generator_registry,
    full_coverage_api, units_for,
)
from repro.wrappers.extensions import register_extensions
from tests.oracles.wrappers import (
    interpreted_hooks, rendering_for, wrapper_backend,
)

import pytest

FUZZED = ["strcpy", "strlen", "strcmp", "memset", "memcpy", "toupper",
          "isalpha", "atoi", "malloc", "free", "strdup"]

#: argument atoms: either a raw integer or a reference into the
#: per-process resource pool (resolved after process construction, so
#: both twins see their own — identical — addresses)
ATOM = st.one_of(
    st.tuples(st.just("pool"), st.integers(0, 4)),
    st.integers(-16, 400),
    st.just(0),
    st.just(0xDEAD0000),
)

CALLS = st.one_of([
    st.tuples(st.just("toupper"), st.tuples(st.integers(-10, 400))),
    st.tuples(st.just("isalpha"), st.tuples(st.integers(-10, 400))),
    st.tuples(st.just("strlen"), st.tuples(ATOM)),
    st.tuples(st.just("strcpy"), st.tuples(ATOM, ATOM)),
    st.tuples(st.just("strcmp"), st.tuples(ATOM, ATOM)),
    st.tuples(st.just("strdup"), st.tuples(ATOM)),
    st.tuples(st.just("atoi"), st.tuples(ATOM)),
    st.tuples(st.just("memset"),
              st.tuples(ATOM, st.integers(0, 255), st.integers(0, 64))),
    # a count past the source's extent is a read overrun, which the heap
    # guard must tell apart from a write overflow
    st.tuples(st.just("memcpy"),
              st.tuples(ATOM, ATOM, st.integers(0, 64))),
    st.tuples(st.just("malloc"), st.tuples(st.integers(0, 128))),
    st.tuples(st.just("free"), st.tuples(ATOM)),
])

SEQUENCE = st.lists(CALLS, min_size=1, max_size=25)

COMMON = settings(max_examples=25,
                  suppress_health_check=[HealthCheck.too_slow],
                  deadline=None)


@pytest.fixture(scope="module")
def registry():
    return standard_registry()


@pytest.fixture(scope="module")
def document(registry):
    pages = load_corpus()
    result = Campaign(registry).run(FUZZED)
    return RobustAPIDocument.build(registry, pages,
                                   derive_api(result, registry, pages))


def build_backend(registry, document, preset, backend, memo=False):
    """A wrapped twin; ``memo`` installs a ``CheckMemo`` on its process
    the way the fused serving image does."""
    linker = DynamicLinker()
    linker.add_library(SharedLibrary.from_registry(registry))
    factory = WrapperFactory(registry, document)
    with wrapper_backend(backend):
        built = factory.preload(linker, PRESETS[preset])
    proc = SimProcess()
    if memo:
        proc.check_memo = CheckMemo(proc)
    pool = [
        0,
        proc.alloc_cstring(b"differential"),
        proc.alloc_buffer(64),
        proc.alloc_cstring(b""),
        proc.alloc_cstring(b"42abc"),
    ]
    return linker, built, proc, pool


def run_sequence(linker, proc, pool, sequence):
    """Execute one call sequence, recording every observable outcome."""
    outcomes = []
    for name, spec in sequence:
        args = tuple(
            pool[atom[1]] if isinstance(atom, tuple) else atom
            for atom in spec
        )
        symbol = linker.resolve(name).symbol
        try:
            ret = ("ret", symbol(proc, *args))
        except SimulatorError as exc:
            ret = ("fault", type(exc).__name__)
        outcomes.append((name, args, ret, proc.errno))
    return outcomes


def assert_states_match(compiled, interpreted):
    cs, ks = compiled.state, interpreted.state
    assert cs.calls == ks.calls
    assert cs.func_errnos == ks.func_errnos
    assert cs.global_errnos == ks.global_errnos
    assert cs.violations == ks.violations
    assert cs.security_events == ks.security_events
    assert cs.call_log == ks.call_log
    assert cs.size_table == ks.size_table
    # execution times are wall-clock: only which functions were timed
    # must agree, never the measured values
    assert set(cs.exectime_ns) == set(ks.exectime_ns)


@pytest.mark.parametrize("preset,memo", [
    pytest.param(preset, memo, id=preset + ("-memo" if memo else ""))
    for memo in (False, True)
    for preset in ("profiling", "logging", "robustness", "security",
                   "hardened")
])
@given(sequence=SEQUENCE)
# pinned: a read overrun (32 bytes from a 1-byte string into a 64-byte
# buffer), which the heap guard must not mistake for a write overflow
@example(sequence=[("memcpy", (("pool", 2), ("pool", 3), 32))])
@COMMON
def test_backends_agree(registry, document, preset, memo, sequence):
    # memo=True fuzzes the verdict memo's record, replay and violation
    # paths on the compiled twin against the unmemoized reference
    compiled = build_backend(registry, document, preset, "compiled",
                             memo=memo)
    interpreted = build_backend(registry, document, preset, "interpreted")
    got_compiled = run_sequence(compiled[0], compiled[2], compiled[3],
                                sequence)
    got_interpreted = run_sequence(interpreted[0], interpreted[2],
                                   interpreted[3], sequence)
    assert got_compiled == got_interpreted
    assert_states_match(compiled[1], interpreted[1])


@given(sequence=SEQUENCE)
@COMMON
def test_telemetry_off_matches_returns(registry, document, sequence):
    """telemetry=False only silences telemetry: call results are equal."""
    linker = DynamicLinker()
    linker.add_library(SharedLibrary.from_registry(registry))
    factory = WrapperFactory(registry, document)
    built = factory.preload(linker, PRESETS["robustness"], telemetry=False)
    proc = SimProcess()
    pool = [
        0,
        proc.alloc_cstring(b"differential"),
        proc.alloc_buffer(64),
        proc.alloc_cstring(b""),
        proc.alloc_cstring(b"42abc"),
    ]
    reference = build_backend(registry, document, "robustness",
                              "interpreted")
    assert (run_sequence(linker, proc, pool, sequence)
            == run_sequence(reference[0], reference[2], reference[3],
                            sequence))
    # no sink was ever attached: the silent library accumulated nothing
    assert built.state.calls == {}
    assert built.state.violations == []


# ----------------------------------------------------------------------
# every compiled-only rendering has a per-call oracle
# ----------------------------------------------------------------------

def _all_generators():
    """Every standard and extension generator, each configured so its
    hooks are live: a recovery policy that retries transient errnos."""
    policy = SecurityPolicy(recovery=self_healing_policy())
    standard = default_generator_registry(policy)
    extensions = GeneratorRegistry()
    register_extensions(extensions)
    return [registry.get(name)
            for registry in (standard, extensions)
            for name in registry.names()]


def _loop_drops(hooks):
    """True when a per-call hook loop would lose part of ``hooks``: a
    ``wrap_call`` transformer, or a guard with no prefix to run it."""
    return hooks.wrap_call is not None or (hooks.guard is not None
                                           and hooks.prefix is None)


class TestWrapperOracleCoverage:
    @pytest.fixture(scope="class")
    def units(self, registry):
        api = full_coverage_api(registry, load_corpus())
        return units_for(WrapperFactory(registry, api), registry.names())[0]

    def test_renderings_are_pinned(self):
        rendered = {generator.name for generator in _all_generators()
                    if rendering_for(generator) is not None}
        assert rendered == {"arg check", "heap guard", "retry"}

    def test_every_compiled_only_form_has_a_rendering(self, units):
        """A generator whose compiled form a hook loop would drop must
        have a per-call rendering, or it leaves the differential."""
        missing = set()
        for generator in _all_generators():
            for unit in units:
                if (_loop_drops(generator.runtime_hooks(unit))
                        and rendering_for(generator) is None):
                    missing.add(generator.name)
        assert missing == set()

    def test_renderings_run_in_the_loop(self, units):
        for generator in _all_generators():
            if rendering_for(generator) is None:
                continue
            for unit in units:
                assert not _loop_drops(interpreted_hooks(generator, unit)), (
                    generator.name, unit.name)
