"""Shared fixtures for the experiment-reproduction benchmarks.

Each benchmark regenerates one figure/table of the paper (see DESIGN.md's
experiment index) and writes its reproduced artifact under
``benchmarks/out/`` so EXPERIMENTS.md can reference the exact output.

The fault-injection fixtures default to a representative cross-family
subset of the library to keep wall time reasonable; set
``HEALERS_BENCH_FULL=1`` to sweep all 106 functions.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

from repro.injection import Campaign
from repro.libc import standard_registry
from repro.manpages import load_corpus
from repro.robust import RobustAPIDocument, derive_api

# the reference implementations some benchmarks measure against live in
# the tests' oracle package, importable from the repository root
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

#: cross-family subset: strings, memory, alloc, convert, ctype, stdio,
#: wide, algorithm — every chain kind appears at least once
REPRESENTATIVE_FUNCTIONS = [
    "strcpy", "strncpy", "strcat", "strlen", "strcmp", "strchr", "strstr",
    "strtok", "strdup",
    "memcpy", "memmove", "memset", "memcmp",
    "malloc", "calloc", "realloc", "free",
    "atoi", "strtol", "strtod",
    "toupper", "isalpha",
    "sprintf", "snprintf", "gets", "fgets", "fopen", "fclose", "puts",
    "qsort", "bsearch",
    "wcslen", "wcscpy", "wctrans",
    "time", "gmtime", "mktime", "strftime", "ctime",
]

OUT_DIR = pathlib.Path(__file__).parent / "out"


def bench_functions():
    if os.environ.get("HEALERS_BENCH_FULL"):
        return None  # the whole library
    return REPRESENTATIVE_FUNCTIONS


@pytest.fixture(scope="session")
def registry():
    return standard_registry()


@pytest.fixture(scope="session")
def manpages():
    return load_corpus()


@pytest.fixture(scope="session")
def campaign_result(registry, manpages):
    campaign = Campaign(registry, manpages=manpages)
    return campaign.run(bench_functions())


@pytest.fixture(scope="session")
def derivations(campaign_result, registry, manpages):
    return derive_api(campaign_result, registry, manpages)


@pytest.fixture(scope="session")
def api_document(registry, manpages, derivations):
    return RobustAPIDocument.build(registry, manpages, derivations)


@pytest.fixture(scope="session")
def artifact():
    """Writer: artifact('t1_robustness', text) → benchmarks/out/…txt."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> pathlib.Path:
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text)
        print(f"\n[artifact written: {path}]")
        return path

    return write
