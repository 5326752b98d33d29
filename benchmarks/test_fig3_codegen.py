"""F3 — Fig. 3: the generated wrapper function for wctrans.

The figure shows the profiling wrapper for ``wctrans`` assembled from six
micro-generators: prototype, function exectime, collect errors, func
errors, call counter, caller — prefix fragments in generator order,
postfix fragments in reverse.  This benchmark regenerates that exact C
function, asserts its structure fragment by fragment, and times both
backends (C text and executable composition).
"""

from __future__ import annotations

import re

from repro.wrappers import (
    PROFILING,
    WrapperFactory,
    render_function,
    render_library,
    units_for,
)

FIG3_BANNERS_IN_ORDER = [
    "/* Prefix code by micro-gen prototype */",
    "/* Prefix code by micro-gen function exectime */",
    "/* Prefix code by micro-gen collect errors */",
    "/* Prefix code by micro-gen func errors */",
    "/* Prefix code by micro-gen call counter */",
    "/* Postfix code by micro-gen caller */",
    "/* Postfix code by micro-gen func errors */",
    "/* Postfix code by micro-gen collect errors */",
    "/* Postfix code by micro-gen function exectime */",
    "/* Postfix code by micro-gen prototype */",
]


def test_fig3_wctrans_wrapper(registry, api_document, artifact, benchmark):
    """Regenerate Fig. 3 and verify every structural element."""
    factory = WrapperFactory(registry, api_document)
    units, _ = units_for(factory, ["wctrans"])
    generators = factory.resolve_spec(PROFILING)
    source = render_function(units[0], generators)
    artifact("f3_wctrans_wrapper", source)

    positions = [source.index(banner) for banner in FIG3_BANNERS_IN_ORDER]
    assert positions == sorted(positions), "fragment order differs from Fig. 3"

    for line in (
        "wctrans_t wctrans(const char * name)",
        "wctrans_t ret;",
        "rdtsc(exectime_start);",
        "int collect_errors_err = errno;",
        "int func_error_err = errno;",
        "ret = (*addr_wctrans)(name);",
        "exectime_end - exectime_start;",
        "return ret;",
    ):
        assert line in source, f"missing Fig. 3 element: {line}"
    # the errno bucketing with the MAX_ERRNO clamp, as printed in the paper
    assert re.search(r"errno < 0 \|\| errno >= MAX_ERRNO", source)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # artifact test: run once under --benchmark-only

def test_fig3_library_rendering(registry, api_document, artifact, benchmark):
    """Whole-library C output: globals deduplicated, init resolves all."""
    factory = WrapperFactory(registry, api_document)
    names = registry.names()
    units, _ = units_for(factory, names)
    source = render_library(units, factory.resolve_spec(PROFILING),
                            soname="libhealers_profiling.so")
    artifact("f3_library_head", source[:2000])
    assert source.count("static unsigned long long exectime[") == 1
    for name in names:
        assert f'addr_{name} = dlsym(RTLD_NEXT, "{name}");' in source
    assert f"#define MAX_FUNCTIONS {len(names)}" in source
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # artifact test: run once under --benchmark-only

def test_fig3_render_throughput(benchmark, registry, api_document):
    """C text generation speed for the full 106-function library."""
    factory = WrapperFactory(registry, api_document)
    units, _ = units_for(factory, registry.names())
    generators = factory.resolve_spec(PROFILING)
    source = benchmark(lambda: render_library(units, generators))
    assert len(source) > 10_000


def test_fig3_runtime_composition(benchmark, registry, api_document):
    """Executable-wrapper composition speed (the Python backend)."""
    from repro.linker import DynamicLinker, SharedLibrary
    from repro.wrappers import WrapperFactory

    linker = DynamicLinker()
    linker.add_library(SharedLibrary.from_registry(registry))
    factory = WrapperFactory(registry, api_document)

    built = benchmark(
        lambda: factory.build_library(linker, PROFILING)
    )
    assert len(built.functions) == 106
