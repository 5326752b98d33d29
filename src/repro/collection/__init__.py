"""Central collection of wrapper-emitted XML documents.

The runtime serves with the non-blocking sharded :class:`IngestServer`
fabric (credit-based backpressure, write-ahead spooling, fleet
aggregation).  The thread-per-connection :class:`CollectionServer`
speaks the same legacy frames and stays as the differential reference
the tests and benchmarks compare the fabric against.
"""

from repro.collection.fabric import (
    CREDIT_LIMIT,
    FABRIC_MAGIC,
    STATS_MAGIC,
    CollectionProtocolError,
    FabricClient,
    IngestServer,
    ShardedStore,
    fetch_fleet_stats,
    replay_documents,
    shard_of,
)
from repro.collection.fleet import FleetAggregator, FleetCell
from repro.collection.server import (
    BATCH_MAGIC,
    MAX_BATCH_DOCUMENTS,
    MAX_DOCUMENT_BYTES,
    CollectionServer,
    CollectionStore,
    StoredDocument,
    submit_document,
    submit_documents,
)
from repro.collection.spool import (
    ReplayResult,
    SpoolAuthenticationError,
    SpoolWriter,
    replay,
)

__all__ = [
    "BATCH_MAGIC",
    "CREDIT_LIMIT",
    "CollectionProtocolError",
    "CollectionServer",
    "CollectionStore",
    "FABRIC_MAGIC",
    "FabricClient",
    "FleetAggregator",
    "FleetCell",
    "IngestServer",
    "MAX_BATCH_DOCUMENTS",
    "MAX_DOCUMENT_BYTES",
    "ReplayResult",
    "STATS_MAGIC",
    "ShardedStore",
    "SpoolAuthenticationError",
    "SpoolWriter",
    "StoredDocument",
    "fetch_fleet_stats",
    "replay",
    "replay_documents",
    "shard_of",
    "submit_document",
    "submit_documents",
]
