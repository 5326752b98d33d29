"""Reference implementations the runtime's fast paths are diffed against:
the per-byte memory primitives and heap walk (:mod:`.memory`), the
per-byte libc bodies (:mod:`.libc`), the thread-per-connection
collection server and the store's index rescans (:mod:`.collection`),
and the per-call wrapper composer with its check ladder
(:mod:`.wrappers`)."""

from tests.oracles.collection import (
    CollectionServer, rescan_aggregate_calls, rescan_by_application,
)
from tests.oracles.libc import (
    BODIES, HELPERS, safe_gets, scalar_registry,
)
from tests.oracles.memory import (
    ScalarAddressSpace, compare, cstring_length, is_readable, is_writable,
    per_word_integrity, per_word_walk, scalar_process,
)
from tests.oracles.wrappers import (
    InterpretedChecker, compose_wrapper, interpreted_build_library,
    interpreted_wrappers, wrapper_backend,
)
