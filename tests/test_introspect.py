"""Introspection-derived check plans: coverage, parity, containment.

The contract the full-coverage robust API must honour, in three layers:

* **Coverage** — every function in both wrappable registries (106 libc +
  17 libm) gets a derived :class:`~repro.robust.introspect.CheckPlan`,
  with every pointer parameter resolved to a chain rung.
* **Parity** — on campaign-probed functions the derived plans are
  *byte-identical* to the hand-tuned declaration document: same check
  strings param-for-param, and (differentially, under hypothesis) the
  same verdicts, errnos and contained violations through both wrapper
  backends.
* **Containment** — on functions the curated subset never probed, the
  statically derived plans catch the same failure classes fault
  injection finds, and a robustness wrapper built from the introspected
  document contains the attack-corpus classes the legacy document lets
  escape.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulatorError
from repro.injection import Campaign
from repro.libc import math_registry, standard_registry
from repro.linker import DynamicLinker, SharedLibrary
from repro.manpages import load_corpus
from repro.robust import (
    RobustAPIDocument,
    coverage_report,
    derive_api,
    derive_check_plans,
    uncovered,
)
from repro.runtime import SimProcess
from repro.wrappers import PRESETS, WrapperFactory
from tests.oracles.wrappers import InterpretedChecker, wrapper_backend

#: the curated subset the hand-tuned benchmarks exercise (see
#: benchmarks/conftest.py) — the parity surface
REPRESENTATIVE = [
    "strcpy", "strncpy", "strcat", "strlen", "strcmp", "strchr", "strstr",
    "strtok", "strdup", "memcpy", "memmove", "memset", "memcmp", "malloc",
    "calloc", "realloc", "free", "atoi", "strtol", "strtod", "toupper",
    "isalpha", "sprintf", "snprintf", "gets", "fgets", "fopen", "fclose",
    "puts", "qsort", "bsearch", "wcslen", "wcscpy", "wctrans", "time",
    "gmtime", "mktime", "strftime", "ctime",
]

#: functions outside the curated subset with memory-class parameters —
#: the containment surface only full coverage reaches
NON_CURATED = [
    "strncat", "strrchr", "strpbrk", "strspn", "memchr", "wcsncpy",
    "wcscmp", "wcschr", "fread", "fwrite", "fputs", "asctime",
]


@pytest.fixture(scope="module")
def registry():
    return standard_registry()


@pytest.fixture(scope="module")
def libm():
    return math_registry()


@pytest.fixture(scope="module")
def manpages():
    return load_corpus()


@pytest.fixture(scope="module")
def plans(registry, libm, manpages):
    merged = derive_check_plans(registry, manpages)
    merged.update(derive_check_plans(libm, manpages))
    return merged


# ----------------------------------------------------------------------
# coverage: 123/123 functions, every parameter resolved
# ----------------------------------------------------------------------

class TestCoverage:
    def test_every_function_planned(self, registry, libm, plans):
        assert set(plans) == set(registry.names()) | set(libm.names())
        assert len(plans) == 123

    def test_every_parameter_has_a_plan(self, registry, libm, plans):
        report = coverage_report(plans)
        assert report["functions"] == 123
        # every parameter resolved to a source (checked or provably
        # scalar) — none left underived
        assert sum(report["params_by_source"].values()) == report["params"]
        for plan in plans.values():
            for param in plan.params:
                assert param.source, (plan.function, param.name)
                assert param.chain or param.check == "", (
                    plan.function, param.name)

    def test_sources_are_static(self, plans):
        report = coverage_report(plans)
        assert set(report["params_by_source"]) <= {"role", "ctype"}

    def test_relational_params_present(self, plans):
        report = coverage_report(plans)
        assert report["relational_params"] >= 50

    def test_uncovered_functions_are_scalar_only(self, plans):
        for name in uncovered(plans):
            plan = plans[name]
            assert not plan.has_checks
            for param in plan.params:
                assert param.check == "", (name, param.name)

    def test_memory_functions_all_have_checks(self, registry, plans):
        for name, plan in plans.items():
            if name not in registry:
                continue
            pointered = [p for p in plan.params if "*" in p.ctype]
            if pointered:
                assert plan.has_checks, name


# ----------------------------------------------------------------------
# plan structure: the relations introspection must recover
# ----------------------------------------------------------------------

class TestPlanStructure:
    def test_fread_size_mul_relation(self, plans):
        plan = plans["fread"]
        ptr = plan.param("ptr")
        assert ptr.check == "buffer_capacity"
        assert ptr.size_param == "nmemb" and ptr.size_mul == "size"
        assert plan.param("size").check == "size_bounded"
        assert plan.param("nmemb").check == "size_bounded"
        assert plan.param("stream").check == "file_open"

    def test_wcsncpy_wide_capacity(self, plans):
        plan = plans["wcsncpy"]
        assert plan.param("dest").check == "wbuffer_capacity"
        assert plan.param("dest").size_param == "n"
        assert plan.param("src").check == "wstring_terminated"
        assert plan.param("n").check == "size_bounded"

    def test_strtol_endptr_nullable_downgrade(self, plans):
        endptr = plans["strtol"].param("endptr")
        assert endptr.nullable
        assert endptr.check == "word_writable_or_null"

    def test_nullable_params_never_get_null_intolerant_checks(self, plans):
        from repro.robust.introspect import _NULL_INTOLERANT

        for plan in plans.values():
            for param in plan.params:
                if param.nullable:
                    assert param.check not in _NULL_INTOLERANT, (
                        plan.function, param.name)

    def test_extentless_in_buffer_degrades_to_readable(self, plans):
        # qsort's base has a size relation, so it keeps the extent
        # check; a structure pointer with no size metadata must not be
        # left with a vacuous extent-0 check
        for plan in plans.values():
            for param in plan.params:
                if param.check == "buffer_readable_extent":
                    assert (param.size_param or param.size_from
                            or param.min_size > 0), (
                        plan.function, param.name)

    def test_error_contracts_recovered(self, plans):
        assert plans["fopen"].error_return == "null"
        assert "ENOENT" in plans["fopen"].errnos
        assert plans["fclose"].error_return == "eof"


# ----------------------------------------------------------------------
# document integration: build_introspected + XML round-trip
# ----------------------------------------------------------------------

class TestDocumentIntegration:
    @pytest.fixture(scope="class")
    def document(self, registry, manpages):
        return RobustAPIDocument.build_introspected(registry, manpages)

    def test_plans_attached_for_every_function(self, registry, document):
        assert set(document.plans) == set(registry.names())

    def test_declarations_backfilled_from_plans(self, registry, manpages,
                                                document):
        legacy = RobustAPIDocument.build(registry, manpages)
        assert legacy.functions["fread"].params[0].check == ""
        assert (document.functions["fread"].params[0].check
                == "buffer_capacity")

    def test_plan_for(self, document):
        assert document.plan_for("fread").has_checks
        assert document.plan_for("missing") is None

    def test_xml_roundtrip_preserves_plans(self, document):
        back = RobustAPIDocument.from_xml(document.to_xml())
        assert back.plans == document.plans
        assert set(back.functions) == set(document.functions)


# ----------------------------------------------------------------------
# parity with the hand-tuned document on the curated subset
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def curated_derivations(registry, manpages):
    result = Campaign(registry).run(REPRESENTATIVE)
    return derive_api(result, registry, manpages)


@pytest.fixture(scope="module")
def hand_tuned(registry, manpages, curated_derivations):
    return RobustAPIDocument.build(registry, manpages, curated_derivations)


@pytest.fixture(scope="module")
def introspected(registry, manpages, curated_derivations):
    return RobustAPIDocument.build_introspected(registry, manpages,
                                                curated_derivations)


class TestHandTunedParity:
    def test_checks_identical_on_probed_functions(self, hand_tuned,
                                                  introspected):
        for name in REPRESENTATIVE:
            decl = hand_tuned.functions[name]
            plan = introspected.plan_for(name)
            for dparam, pparam in zip(decl.params, plan.params):
                assert dparam.name == pparam.name
                assert dparam.check == pparam.check, (name, dparam.name)
                assert dparam.robust_type == pparam.robust_type, (
                    name, dparam.name)

    def test_interpreted_checker_verdicts_identical(self, registry,
                                                    hand_tuned,
                                                    introspected):
        """Spot parity at the checker level: same violations for the
        same crafted-bad arguments, decl-sourced vs plan-sourced."""
        proc = SimProcess()
        buf = proc.alloc_buffer(16)
        text = proc.alloc_cstring(b"parity")
        cases = {
            "strcpy": [(buf, text), (0, text), (buf, 0xDEAD0000)],
            "strlen": [(text,), (0,), (0xDEAD0000,)],
            "memcpy": [(buf, text, 4), (buf, 0, 8), (0, text, 8)],
            "strtol": [(text, 0, 10), (text, 0, 99), (0, 0, 10)],
        }
        for name, arglists in cases.items():
            proto = registry[name].prototype
            left = InterpretedChecker(hand_tuned.functions[name], proto)
            right = InterpretedChecker(introspected.plan_for(name), proto)
            for args in arglists:
                assert (left.validate_all(proc, args, ())
                        == right.validate_all(proc, args, ())), (name, args)


#: fuzzed call shapes over probed functions only — both documents carry
#: checks for these, so outcomes must be byte-identical
ATOM = st.one_of(
    st.tuples(st.just("pool"), st.integers(0, 4)),
    st.integers(-16, 400),
    st.just(0),
    st.just(0xDEAD0000),
)

CALLS = st.one_of([
    st.tuples(st.just("toupper"), st.tuples(st.integers(-10, 400))),
    st.tuples(st.just("strlen"), st.tuples(ATOM)),
    st.tuples(st.just("strcpy"), st.tuples(ATOM, ATOM)),
    st.tuples(st.just("strcmp"), st.tuples(ATOM, ATOM)),
    st.tuples(st.just("strdup"), st.tuples(ATOM)),
    st.tuples(st.just("atoi"), st.tuples(ATOM)),
    st.tuples(st.just("memset"),
              st.tuples(ATOM, st.integers(0, 255), st.integers(0, 64))),
    st.tuples(st.just("strtol"),
              st.tuples(ATOM, ATOM, st.integers(-1, 40))),
    st.tuples(st.just("malloc"), st.tuples(st.integers(0, 128))),
    st.tuples(st.just("free"), st.tuples(ATOM)),
])

SEQUENCE = st.lists(CALLS, min_size=1, max_size=20)

COMMON = settings(max_examples=20,
                  suppress_health_check=[HealthCheck.too_slow],
                  deadline=None)


def _build(registry, document, backend):
    linker = DynamicLinker()
    linker.add_library(SharedLibrary.from_registry(registry))
    factory = WrapperFactory(registry, document)
    with wrapper_backend(backend):
        built = factory.preload(linker, PRESETS["robustness"])
    proc = SimProcess()
    pool = [
        0,
        proc.alloc_cstring(b"introspect"),
        proc.alloc_buffer(64),
        proc.alloc_cstring(b""),
        proc.alloc_cstring(b"42abc"),
    ]
    return linker, built, proc, pool


def _run(linker, proc, pool, sequence):
    outcomes = []
    for name, spec in sequence:
        args = tuple(
            pool[atom[1]] if isinstance(atom, tuple) else atom
            for atom in spec
        )
        try:
            ret = ("ret", linker.resolve(name).symbol(proc, *args))
        except SimulatorError as exc:
            ret = ("fault", type(exc).__name__)
        outcomes.append((name, args, ret, proc.errno))
    return outcomes


@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
@given(sequence=SEQUENCE)
@COMMON
def test_documents_differentially_identical(registry, hand_tuned,
                                            introspected, backend,
                                            sequence):
    """Robustness wrappers from the hand-tuned and the introspected
    documents must be observably identical over probed functions."""
    left = _build(registry, hand_tuned, backend)
    right = _build(registry, introspected, backend)
    assert (_run(left[0], left[2], left[3], sequence)
            == _run(right[0], right[2], right[3], sequence))
    ls, rs = left[1].state, right[1].state
    assert ls.violations == rs.violations
    assert ls.func_errnos == rs.func_errnos


# ----------------------------------------------------------------------
# containment on the non-curated surface
# ----------------------------------------------------------------------

class TestNonCuratedContainment:
    @pytest.fixture(scope="class")
    def raw_result(self, registry, manpages):
        return Campaign(registry, manpages=manpages).run(NON_CURATED)

    @pytest.fixture(scope="class")
    def wrapped_result(self, registry, manpages):
        document = RobustAPIDocument.build_introspected(registry, manpages)
        linker = DynamicLinker()
        linker.add_library(SharedLibrary.from_registry(registry))
        built = WrapperFactory(registry, document).preload(
            linker, PRESETS["robustness"])

        def interpose(function):
            symbol = built.library.lookup(function.name)
            return symbol.impl if symbol else function.impl

        campaign = Campaign(registry, manpages=manpages,
                            interposer=interpose)
        return campaign.run(NON_CURATED)

    def test_raw_surface_actually_fails(self, raw_result):
        assert raw_result.total_failures > 0

    def test_static_plans_cover_every_failure(self, plans, raw_result):
        """Every failing probe's parameter carries a derived check —
        the static plan reaches the failure class injection found."""
        for name, report in raw_result.reports.items():
            plan = plans[name]
            for record in report.failures:
                param = plan.param(record.probe.param_name)
                assert param is not None and param.check, (
                    name, record.probe.param_name, record.probe.value_label)

    def test_wrapper_from_static_plans_contains_failures(self, raw_result,
                                                         wrapped_result):
        assert wrapped_result.total_failures == 0, (
            wrapped_result.outcome_counts())
        assert raw_result.failure_rate > 0.15

    def test_no_new_failures_on_valid_probes(self, raw_result,
                                             wrapped_result):
        from repro.errors import Outcome

        for name, raw_report in raw_result.reports.items():
            raw_by_key = {
                (r.probe.param_name, r.probe.value_label): r.outcome
                for r in raw_report.records
            }
            for record in wrapped_result.reports[name].records:
                key = (record.probe.param_name, record.probe.value_label)
                if raw_by_key.get(key) == Outcome.PASS:
                    assert record.outcome in (Outcome.PASS, Outcome.ERROR), (
                        name, key, record.outcome)


# ----------------------------------------------------------------------
# the red-team argument: full coverage contains what legacy lets escape
# ----------------------------------------------------------------------

class TestFullCoverageContainment:
    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    @pytest.mark.parametrize("attack_name",
                             ["wide-overflow", "record-flood"])
    def test_robustness_contains_only_with_introspection(
            self, registry, manpages, attack_name, backend):
        from repro.security.corpus import (PRESET_CONFIGS, attack_by_name,
                                           run_attack)

        attack = attack_by_name(attack_name)
        preset = PRESET_CONFIGS["robustness"]
        with wrapper_backend(backend):
            legacy = run_attack(
                attack, preset, registry,
                RobustAPIDocument.build(registry, manpages))
            assert legacy.verdict == "escaped"
            full = run_attack(
                attack, preset, registry,
                RobustAPIDocument.build_introspected(registry, manpages))
        assert full.verdict == "contained"
