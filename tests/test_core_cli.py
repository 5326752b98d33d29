"""Tests for the Healers facade and the CLI (the Section 3 demos)."""

import pytest

from repro.apps import MSGFORMAT, WORDCOUNT, standard_files
from repro.cli.main import main
from repro.core import Healers
from repro.objfile import ObjFormatError
from repro.robust import RobustAPIDocument


@pytest.fixture(scope="module")
def toolkit():
    return Healers()


@pytest.fixture(scope="module")
def derived_toolkit():
    toolkit = Healers()
    toolkit.run_fault_injection(["strcpy", "strlen", "toupper", "free"])
    toolkit.derive_robust_api()
    return toolkit


class TestLibraryScanning:
    def test_list_libraries(self, toolkit):
        scans = {scan.soname: scan for scan in toolkit.list_libraries()}
        assert scans["libc.so.6"].function_count == 106
        assert scans["libc.so.6"].prototyped == 106
        assert scans["libm.so.6"].function_count == 17
        assert scans["libm.so.6"].prototyped == 17

    def test_scan_library_rejects_executable(self, toolkit):
        with pytest.raises(ObjFormatError):
            toolkit.scan_library("/bin/wordcount")

    def test_declaration_file_is_xml(self, toolkit):
        xml = toolkit.declaration_file("/lib/libc.so.6")
        document = RobustAPIDocument.from_xml(xml)
        assert "strcpy" in document.functions

    def test_declaration_file_math_library(self, toolkit):
        xml = toolkit.declaration_file("/lib/libm.so.6")
        document = RobustAPIDocument.from_xml(xml)
        assert document.library == "libm.so.6"
        assert "sqrt" in document.functions
        sqrt = document.functions["sqrt"]
        assert sqrt.params[0].role == "real"


class TestApplicationScanning:
    def test_scan_wordcount(self, toolkit):
        scan = toolkit.scan_application("/bin/wordcount")
        assert scan.dynamically_linked
        assert scan.resolved_libraries == {"libc.so.6": "/lib/libc.so.6"}
        assert "strtok" in scan.wrappable
        assert scan.coverage == 1.0

    def test_scan_static_binary(self, toolkit):
        scan = toolkit.scan_application("/bin/staticd")
        assert not scan.dynamically_linked

    def test_scan_rejects_library(self, toolkit):
        with pytest.raises(ObjFormatError):
            toolkit.scan_application("/lib/libc.so.6")

    def test_list_applications(self, toolkit):
        assert "/bin/wordcount" in toolkit.list_applications()


class TestPipeline:
    def test_extract_prototypes_round_trips_headers(self, toolkit):
        prototypes = toolkit.extract_prototypes()
        by_name = {p.name: p for p in prototypes}
        assert len(by_name) == 123  # libc (106) + libm (17)
        assert by_name["strcpy"].params[0].name == "dest"
        assert by_name["strcpy"].header == "string.h"
        assert by_name["sqrt"].header == "math.h"

    def test_injection_and_derivation(self, derived_toolkit):
        assert derived_toolkit.campaign_result is not None
        document = derived_toolkit.api_document
        dest = [p for p in document.functions["strcpy"].params
                if p.name == "dest"][0]
        assert dest.robust_type == "writable_capacity"

    def test_wrapper_source_contains_checks(self, derived_toolkit):
        source = derived_toolkit.wrapper_source("robustness", ["strcpy"])
        assert "healers_check_buffer_capacity" in source

    def test_build_introspected_document(self):
        toolkit = Healers()
        document = toolkit.build_introspected_document()
        assert toolkit.api_document is document
        assert document.plan_for("fread").has_checks
        # the active document now carries checks for unprobed functions
        source = toolkit.wrapper_source("robustness", ["wcsncpy"])
        assert "healers_check_wbuffer_capacity" in source

    def test_all_check_plans_spans_both_libraries(self):
        toolkit = Healers()
        plans = toolkit.all_check_plans()
        assert len(plans) == 123
        assert "sqrt" in plans and "strcpy" in plans

    def test_generate_unknown_preset(self, toolkit):
        with pytest.raises(KeyError):
            toolkit.generate_wrapper("bogus")

    def test_preload_and_clear(self, derived_toolkit):
        built = derived_toolkit.preload("robustness", ["strlen"])
        assert derived_toolkit.linker.resolve("strlen").interposed
        derived_toolkit.clear_preloads()
        assert not derived_toolkit.linker.resolve("strlen").interposed
        assert built.functions == ["strlen"]

    def test_profile_run_returns_document(self, toolkit):
        result, document = toolkit.profile_run(
            WORDCOUNT, argv=["/data/sample.txt"], files=standard_files()
        )
        assert result.succeeded
        assert document.application == "wordcount"
        assert document.total_calls > 100
        # the preload was removed afterwards
        assert not toolkit.linker.preloads


class TestCLI:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_list_libs(self, capsys):
        code, out = self.run_cli(capsys, "list-libs")
        assert code == 0
        assert "/lib/libc.so.6" in out

    def test_list_apps(self, capsys):
        code, out = self.run_cli(capsys, "list-apps")
        assert code == 0 and "/bin/csvstat" in out

    def test_scan_lib(self, capsys):
        code, out = self.run_cli(capsys, "scan-lib", "/lib/libc.so.6")
        assert code == 0 and "strcpy" in out

    def test_scan_lib_xml(self, capsys):
        code, out = self.run_cli(capsys, "scan-lib", "/lib/libc.so.6",
                                 "--xml")
        assert code == 0 and out.lstrip().startswith("<?xml")

    def test_scan_app(self, capsys):
        code, out = self.run_cli(capsys, "scan-app", "/sbin/authd")
        assert code == 0
        assert "libc.so.6 => /lib/libc.so.6" in out
        assert "strcpy" in out

    def test_scan_static_app(self, capsys):
        code, out = self.run_cli(capsys, "scan-app", "/bin/staticd")
        assert code == 1
        assert "statically linked" in out

    def test_inject_subset(self, capsys):
        code, out = self.run_cli(capsys, "inject",
                                 "--functions", "strlen,abs")
        assert code == 0
        assert "probes" in out and "strlen" in out

    def test_derive_subset(self, capsys):
        code, out = self.run_cli(capsys, "derive",
                                 "--functions", "strcpy,abs")
        assert code == 0
        assert "writable_capacity" in out
        assert "abs" not in out.splitlines()  # not strengthened

    def test_derive_checks_summary(self, capsys):
        code, out = self.run_cli(capsys, "derive-checks")
        assert code == 0
        assert "123 functions" in out
        assert "libc.so.6" in out and "libm.so.6" in out
        assert "relational" in out

    def test_derive_checks_xml(self, capsys):
        code, out = self.run_cli(capsys, "derive-checks", "--xml")
        assert code == 0
        assert out.lstrip().startswith("<?xml")
        assert "<checks" in out and "buffer_capacity" in out

    def test_derive_checks_uncovered(self, capsys):
        code, out = self.run_cli(capsys, "derive-checks", "--uncovered")
        assert code == 0
        assert "scalar-only" in out and "abs" in out

    def test_derive_checks_load(self, capsys, tmp_path):
        from repro.injection import campaign_to_xml

        toolkit = Healers()
        result = toolkit.run_fault_injection(["strcpy", "strlen"])
        path = tmp_path / "experiments.xml"
        path.write_text(campaign_to_xml(result), encoding="utf-8")
        code, out = self.run_cli(capsys, "derive-checks", "--load",
                                 str(path))
        assert code == 0
        assert "campaign verdicts folded in for 2 functions" in out
        assert "campaign=" in out

    def test_generate_c(self, capsys):
        code, out = self.run_cli(capsys, "generate", "profiling",
                                 "--functions", "wctrans", "--c")
        assert code == 0
        assert "Prefix code by micro-gen" in out

    def test_generate_summary(self, capsys):
        code, out = self.run_cli(capsys, "generate", "security",
                                 "--functions", "strcpy,malloc,free")
        assert code == 0 and "3 wrappers" in out

    def test_profile_app(self, capsys):
        code, out = self.run_cli(capsys, "profile", "wordcount")
        assert code == 0
        assert "Call frequency" in out

    def test_run_with_wrapper(self, capsys):
        code, out = self.run_cli(
            capsys, "run", "msgformat", "--wrap", "robustness",
            "--stdin", "ECHO hi\nQUIT\n")
        assert code == 0
        assert "reply[1]: ECHO hi" in out

    def test_attack_demo(self, capsys):
        code, out = self.run_cli(capsys, "attack-demo")
        assert code == 0
        assert "ROOT SHELL" in out
        assert "terminated" in out

    def test_serve_reports_throughput(self, capsys):
        code, out = self.run_cli(
            capsys, "serve", "--app", "kvd", "--preset", "security",
            "--requests", "40", "--rps", "1")
        assert code == 0
        assert "requests/sec" in out
        assert "deopts 0" in out        # the hot mix never deoptimizes

    def test_serve_rps_floor_fails(self, capsys):
        code, out = self.run_cli(
            capsys, "serve", "--app", "tmpld", "--no-fuse",
            "--requests", "10", "--rps", "999999999")
        assert code == 1
        assert "below the --rps" in out


class TestCollectCLI:
    """Smoke tests for healers collect serve/stats/replay."""

    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def _document(self, application="cli-app", calls=3):
        from repro.profiling import ProfileDocument
        from repro.wrappers.state import WrapperState

        state = WrapperState()
        state.calls["strlen"] = calls
        state.exectime_ns["strlen"] = 100 * calls
        return ProfileDocument.from_state(
            state, application, "profiling").to_xml()

    def _free_port(self):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_collect_serve_expect_mode(self, capsys, tmp_path):
        import threading
        import time

        from repro.collection import FabricClient

        port = self._free_port()
        result = {}

        def serve():
            result["code"] = main(
                ["collect", "serve", "--port", str(port), "--expect", "2",
                 "--spool-dir", str(tmp_path / "spool")])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.time() + 10
        shipped = False
        while not shipped and time.time() < deadline:
            try:
                client = FabricClient(("127.0.0.1", port),
                                      shipper="cli-test", timeout=1)
                client.ship([self._document("a"), self._document("b")])
                client.close()
                shipped = True
            except OSError:
                time.sleep(0.05)
        thread.join(timeout=10)
        out = capsys.readouterr().out
        assert shipped
        assert result.get("code") == 0
        assert "collection fabric (fabric" in out
        assert "received 2 documents" in out
        assert "[fleet]" in out

    def test_collect_stats_against_live_server(self, capsys):
        import threading
        import time

        from repro.collection import FabricClient

        port = self._free_port()

        def serve():
            main(["collect", "serve", "--port", str(port),
                  "--expect", "3"])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.time() + 10
        client = None
        while client is None and time.time() < deadline:
            try:
                client = FabricClient(("127.0.0.1", port),
                                      shipper="stats-test", timeout=1)
                client.ship([self._document("x", calls=2),
                             self._document("y", calls=5)])
            except OSError:
                client = None
                time.sleep(0.05)
        capsys.readouterr()  # drop the serve banner
        code, out = self.run_cli(capsys, "collect", "stats",
                                 "--port", str(port))
        assert code == 0
        assert "[fleet] server: 2 documents" in out
        assert "strlen" in out
        code, out = self.run_cli(capsys, "collect", "stats",
                                 "--port", str(port), "--json")
        assert code == 0
        assert '"documents": 2' in out
        client.ship([self._document("z")])  # releases --expect 3
        client.close()
        thread.join(timeout=10)

    def test_collect_replay_reports_spool(self, capsys, tmp_path):
        from repro.collection import IngestServer, FabricClient

        spool = str(tmp_path / "spool")
        with IngestServer(shards=2, spool_dir=spool) as server:
            client = FabricClient(server.address, shipper="replayer")
            client.ship([self._document("a"), self._document("b")])
            client.close()
        code, out = self.run_cli(capsys, "collect", "replay",
                                 "--spool-dir", spool, "--shards", "2")
        assert code == 0
        assert "2 document(s) recoverable" in out
        assert "shipper replayer: last committed seq 1" in out

    def test_collect_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["collect"])

    def test_fabric_is_the_only_collection_server(self, capsys):
        import xml.etree.ElementTree as ET

        from repro.collection import IngestServer
        from repro.core.config import CollectionSettings

        with pytest.raises(SystemExit):
            main(["collect", "serve", "--backend", "legacy"])
        # an old deployment file's backend= is ignored like any
        # unknown attribute
        settings = CollectionSettings.from_node(
            ET.fromstring('<collection backend="legacy" shards="2"/>'))
        assert "backend" not in ET.tostring(
            settings.to_node(ET.Element("deployment"))).decode()
        server = settings.build_server()
        try:
            assert isinstance(server, IngestServer)
            assert server.shards == 2
        finally:
            server.stop()
