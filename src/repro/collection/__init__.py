"""Central collection of wrapper-emitted XML documents.

The non-blocking sharded :class:`IngestServer` fabric (credit-based
backpressure, write-ahead spooling, fleet aggregation) serves every
document into :class:`CollectionStore` partitions; ``submit_document``
and ``submit_documents`` ship the legacy single and ``HBAT`` frames it
accepts alongside its own.
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
