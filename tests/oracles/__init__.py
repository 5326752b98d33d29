"""Reference implementations the runtime's fast paths are diffed against:
the per-byte memory primitives and heap walk (:mod:`.memory`), the
per-byte libc bodies (:mod:`.libc`) and the thread-per-connection
collection server (:mod:`.collection`)."""

from tests.oracles.collection import CollectionServer
from tests.oracles.libc import (
    BODIES, HELPERS, safe_gets, scalar_registry,
)
from tests.oracles.memory import (
    ScalarAddressSpace, per_word_integrity, per_word_walk, scalar_process,
)
