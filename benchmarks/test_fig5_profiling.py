"""F5 — Fig. 5 / demo 3.3: the profiling wrapper's collected data.

"Upon termination, the wrapper generate[s] a XML-style log file that
shows the frequency of function calls in this program, the percentage of
execution time in each function, the distribution of function errors,
the causes of such errors (classified by errnos)" — and the document is
sent to the central collection server.

The workload is wordcount over the sample corpus plus an error-provoking
run (missing files → ENOENT), so every panel of the figure has data.
"""

from __future__ import annotations

from repro.apps import WORDCOUNT, standard_files
from repro.collection import IngestServer, submit_document
from repro.core import Healers
from repro.profiling import ProfileDocument, render_full_report
from repro.runtime import Errno


def profiled_run():
    toolkit = Healers()
    built = toolkit.preload("profiling")
    try:
        files = standard_files()
        ok = toolkit.run(WORDCOUNT, argv=["/data/sample.txt"], files=files)
        assert ok.succeeded
        # provoke errno traffic: fopen failures
        for missing in ("/no/such/file", "/also/missing"):
            bad = toolkit.run(WORDCOUNT, argv=[missing], files=files)
            assert bad.status == 1
    finally:
        toolkit.clear_preloads()
    return ProfileDocument.from_state(
        built.state, application="wordcount", wrapper_type="profiling"
    )


def test_fig5_profile_report(artifact, benchmark):
    """All four Fig. 5 panels populated, with the expected shapes."""
    document = profiled_run()
    report = render_full_report(document)
    artifact("f5_profiling_report", report)
    artifact("f5_profile_document", document.to_xml())

    kinds = document.collected_kinds()
    assert "call-counts" in kinds
    assert "execution-time" in kinds
    assert "errno-distribution" in kinds

    frequencies = dict(
        (name, calls) for name, calls, _ in document.call_frequencies()
    )
    # the hot loop: one strcmp per table slot per word dominates
    assert max(frequencies, key=frequencies.get) == "strcmp"
    assert frequencies["fgets"] > frequencies["fopen"]

    errnos = {name: count for _, name, count in document.errno_distribution()}
    assert errnos.get("ENOENT", 0) == 2  # the two missing files

    shares = document.time_shares()
    assert abs(sum(share for _, _, share in shares) - 1.0) < 1e-6
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # artifact test: run once under --benchmark-only

def test_fig5_collection_roundtrip(artifact, benchmark):
    """Ship the document to the central server and query the store."""
    document = profiled_run()
    with IngestServer() as server:
        assert submit_document(server.address, document.to_xml())
    stored = server.store.documents[0]
    assert "strcmp" in stored.wrapped_functions
    assert "errno-distribution" in stored.kinds
    aggregated = server.store.aggregate_calls()
    assert aggregated["strcmp"] == document.functions["strcmp"].calls
    artifact(
        "f5_collection_index",
        "\n".join(
            f"{stored.document.application}: functions="
            f"{len(stored.wrapped_functions)} kinds={','.join(stored.kinds)}"
            for stored in server.store.documents
        ),
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # artifact test: run once under --benchmark-only

def test_fig5_profiled_run_speed(benchmark):
    """Wall time of a fully profiled wordcount run."""
    toolkit = Healers()
    toolkit.preload("profiling")
    files = standard_files()

    def run():
        return toolkit.run(WORDCOUNT, argv=["/data/sample.txt"], files=files)

    result = benchmark(run)
    assert result.succeeded


def test_fig5_document_render_speed(benchmark):
    """XML serialisation speed for a populated profile document."""
    document = profiled_run()
    xml = benchmark(document.to_xml)
    assert ProfileDocument.from_xml(xml).total_calls == document.total_calls
