"""End-to-end integration: the complete HEALERS story in one sitting.

Walks the entire pipeline the way a deployment would — scan, inject,
persist, derive, generate (both backends), preload, protect, profile,
collect — asserting the cross-module contracts at every seam.
"""

import pytest

from repro.apps import MSGFORMAT, WORDCOUNT, run_app, standard_files
from repro.collection import IngestServer, submit_document
from repro.core import Healers
from repro.errors import SecurityViolation
from repro.injection import campaign_from_xml, campaign_to_xml
from repro.profiling import ProfileDocument
from repro.robust import RobustAPIDocument
from repro.runtime import SimProcess
from repro.security.attacks import HEAP_SMASH

PIPELINE_FUNCTIONS = [
    "strcpy", "strcat", "strlen", "sprintf", "gets", "malloc", "free",
    "toupper", "strtok", "atoi", "puts", "fgets", "fopen", "fclose",
    "strcmp", "strdup",
]


@pytest.fixture(scope="module")
def pipeline():
    """One toolkit taken through the whole flow."""
    toolkit = Healers()

    # 1. scanning: the system is browsable and the victim is wrappable
    scan = toolkit.scan_application("/sbin/msgformat")
    assert scan.coverage == 1.0

    # 2. injection, with persistence through the experiments database
    live = toolkit.run_fault_injection(PIPELINE_FUNCTIONS)
    stored = campaign_from_xml(campaign_to_xml(live))

    # 3. derivation from the *stored* verdicts (the offline path)
    document = toolkit.derive_robust_api(stored)
    return toolkit, live, document


class TestPipelineSeams:
    def test_injection_found_brittleness(self, pipeline):
        _, live, _ = pipeline
        assert live.failure_rate > 0.2

    def test_declaration_document_complete(self, pipeline):
        toolkit, _, document = pipeline
        xml = document.to_xml()
        parsed = RobustAPIDocument.from_xml(xml)
        for name in PIPELINE_FUNCTIONS:
            assert name in parsed.functions
        dest = [p for p in parsed.functions["strcpy"].params
                if p.name == "dest"][0]
        assert dest.robust_type == "writable_capacity"

    def test_c_backend_consistent_with_runtime(self, pipeline):
        toolkit, _, _ = pipeline
        source = toolkit.wrapper_source("robustness", ["strcpy", "free"])
        # every function the runtime backend wraps appears in the C text
        built = toolkit.generate_wrapper("robustness", ["strcpy", "free"])
        for name in built.functions:
            assert f"(*addr_{name})" in source

    def test_protection_end_to_end(self, pipeline):
        toolkit, _, _ = pipeline
        built = toolkit.preload("robustness", PIPELINE_FUNCTIONS)
        try:
            # the hostile batch that kills the raw service is survived
            result = run_app(
                MSGFORMAT, toolkit.linker,
                stdin=b"ECHO ok\nADD 1 2\nQUIT\n",
            )
            assert result.succeeded
            # and a directly-invalid call is contained, recorded, typed
            proc = SimProcess()
            returned = toolkit.linker.resolve("strcpy").symbol(proc, 0, 0)
            assert returned == 0
            assert built.state.violations
        finally:
            toolkit.clear_preloads()

    def test_security_layer_end_to_end(self, pipeline):
        toolkit, _, _ = pipeline
        toolkit.preload("security")
        try:
            result = run_app(HEAP_SMASH.app, toolkit.linker,
                             stdin=HEAP_SMASH.payload())
            assert isinstance(result.exception, SecurityViolation)
            assert not HEAP_SMASH.hijacked(result)
        finally:
            toolkit.clear_preloads()

    def test_profiling_to_collection(self, pipeline):
        toolkit, _, _ = pipeline
        result, document = toolkit.profile_run(
            WORDCOUNT, argv=["/data/sample.txt"], files=standard_files()
        )
        assert result.succeeded
        with IngestServer() as server:
            assert submit_document(server.address, document.to_xml())
        stored = server.store.documents[0]
        assert stored.document.total_calls == document.total_calls
        reparsed = ProfileDocument.from_xml(stored.raw_xml)
        assert reparsed.functions.keys() == document.functions.keys()

    def test_deployment_config_binds_it_together(self, pipeline):
        from repro.core import DeploymentConfig

        toolkit, _, _ = pipeline
        config = DeploymentConfig.from_xml(
            '<healers-deployment>'
            '<application path="/sbin/authd" wrappers="security"/>'
            '<default wrappers="robustness"/>'
            '</healers-deployment>'
        )
        toolkit.apply_deployment(config, "/sbin/authd")
        try:
            result = run_app(HEAP_SMASH.app, toolkit.linker,
                             stdin=HEAP_SMASH.payload())
            assert not HEAP_SMASH.hijacked(result)
        finally:
            toolkit.clear_preloads()
        toolkit.apply_deployment(config, "/bin/anything-else")
        try:
            assert toolkit.linker.preloads[0].soname == \
                "libhealers_robustness.so"
        finally:
            toolkit.clear_preloads()


class TestCrossLibrary:
    def test_statcalc_under_wrappers(self):
        """The two-library app runs wrapped: interposition covers calls
        into libc and libm in the same process."""
        from repro.apps import STATCALC

        toolkit = Healers()
        built = toolkit.preload("profiling")
        try:
            result = run_app(STATCALC, toolkit.linker,
                             argv=["/data/values.csv"],
                             files=standard_files())
            assert result.succeeded
            assert "mean=" in result.stdout
            # libc calls were intercepted; libm calls resolved through
            # the same linker (the wrapper only covers libc functions)
            assert built.state.calls["strtod"] > 0
            assert built.state.calls["fgets"] > 0
        finally:
            toolkit.clear_preloads()

    def test_time_functions_in_an_app_flow(self):
        """gmtime/strftime work through the linker like any libc call."""
        toolkit = Healers()
        proc = SimProcess()
        image = toolkit.linker.load(["libc.so.6"],
                                    ["time", "gmtime", "strftime"], proc)
        tloc = proc.alloc_buffer(8)
        image.call("time", tloc)
        tm = image.call("gmtime", tloc)
        buf = proc.alloc_buffer(32)
        n = image.call("strftime", buf, 32,
                       proc.alloc_cstring(b"%Y-%m-%d"), tm)
        assert n == 10
        assert proc.read_cstring(buf).startswith(b"2003-")
