"""Per-application wrapper deployment configuration.

The flexibility requirement from Section 1: "Different applications may
have different reliability and security requirements and need different
levels of protection.  An one size fits all approach would not work."
Fig. 1 realises it by giving each application its own wrapper selection;
this module makes that selection declarative — an XML deployment file a
system administrator maintains, the moral equivalent of per-service
``LD_PRELOAD`` settings:

.. code-block:: xml

    <healers-deployment>
      <application path="/sbin/authd" wrappers="security"/>
      <application path="/bin/wordcount" wrappers="robustness"
                   functions="strcpy,strcat,sprintf"/>
      <default wrappers="logging"/>
    </healers-deployment>
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.recovery import RecoveryPolicy
from repro.wrappers import PRESETS

#: execution backends the campaign engine supports (mirrors
#: :data:`repro.injection.executor.BACKENDS` without importing it —
#: config must stay import-light)
CAMPAIGN_BACKENDS = ("serial", "thread", "process")


@dataclass
class CampaignSettings:
    """How fault-injection campaigns execute on this deployment.

    The paper's sweep runs "once per library release"; an administrator
    tunes *how* it runs here — worker count, pool backend, and where the
    probe-result cache lives so interrupted or repeated sweeps resume
    instead of restarting:

    .. code-block:: xml

        <campaign jobs="8" backend="process"
                  cache="/var/lib/healers/probe-cache.xml" resume="true"/>
    """

    #: worker count; 0 means one worker per CPU
    jobs: int = 1
    backend: str = "thread"
    #: probe-result cache file ("" = no persistent cache)
    cache_path: str = ""
    #: load the cache before running, so only deltas execute
    resume: bool = False
    #: wall-clock seconds before a hung work unit's probes become HANGs
    #: (0 = no watchdog)
    watchdog: float = 0.0
    #: resubmissions granted to a unit whose worker died
    unit_retries: int = 2

    def validate(self) -> None:
        if self.backend not in CAMPAIGN_BACKENDS:
            raise ValueError(
                f"unknown campaign backend {self.backend!r}; "
                f"known: {', '.join(CAMPAIGN_BACKENDS)}"
            )
        if self.jobs < 0:
            raise ValueError(f"campaign jobs must be >= 0, got {self.jobs}")
        if self.resume and not self.cache_path:
            raise ValueError("campaign resume requires a cache path")
        if self.watchdog < 0:
            raise ValueError(
                f"campaign watchdog must be >= 0, got {self.watchdog}"
            )
        if self.unit_retries < 0:
            raise ValueError(
                f"campaign unit-retries must be >= 0, "
                f"got {self.unit_retries}"
            )

    def effective_jobs(self) -> int:
        """The concrete worker count (resolving 0 = all CPUs)."""
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)

    # ------------------------------------------------------------------
    # XML round trip (an element of the deployment file)
    # ------------------------------------------------------------------

    @classmethod
    def from_node(cls, node: ET.Element) -> "CampaignSettings":
        settings = cls(
            jobs=int(node.get("jobs", "1")),
            backend=node.get("backend", "thread"),
            cache_path=node.get("cache", ""),
            resume=node.get("resume", "false").lower()
            in ("true", "yes", "1"),
            watchdog=float(node.get("watchdog", "0")),
            unit_retries=int(node.get("unit-retries", "2")),
        )
        settings.validate()
        return settings

    def to_node(self, parent: ET.Element) -> ET.Element:
        node = ET.SubElement(parent, "campaign", jobs=str(self.jobs),
                             backend=self.backend)
        if self.cache_path:
            node.set("cache", self.cache_path)
        if self.resume:
            node.set("resume", "true")
        if self.watchdog:
            node.set("watchdog", f"{self.watchdog:g}")
        if self.unit_retries != 2:
            node.set("unit-retries", str(self.unit_retries))
        return node


#: sink kinds TelemetrySettings can instantiate
TELEMETRY_SINK_KINDS = ("jsonl", "metrics", "collection")


@dataclass
class TelemetrySettings:
    """How wrapper/campaign telemetry flows on this deployment.

    Each sink spec is ``kind`` or ``kind:argument``:

    * ``jsonl:PATH``            — append one JSON object per event;
    * ``metrics``               — in-process counters and p50/p99;
    * ``collection:HOST:PORT``  — batched, retrying shipment of profile
      documents to the collection server.

    .. code-block:: xml

        <telemetry sinks="jsonl:/var/log/healers.jsonl,metrics"
                   batch-size="256" flush-interval="0.5"/>
    """

    sinks: List[str] = field(default_factory=list)
    #: events buffered per bus before an inline flush
    batch_size: int = 256
    #: seconds between shipper drains (collection sink only)
    flush_interval: float = 0.5

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError(
                f"telemetry batch size must be >= 1, got {self.batch_size}"
            )
        if self.flush_interval <= 0:
            raise ValueError(
                f"telemetry flush interval must be > 0, "
                f"got {self.flush_interval}"
            )
        for spec in self.sinks:
            kind, _, argument = spec.partition(":")
            if kind not in TELEMETRY_SINK_KINDS:
                raise ValueError(
                    f"unknown telemetry sink {kind!r}; "
                    f"known: {', '.join(TELEMETRY_SINK_KINDS)}"
                )
            if kind == "jsonl" and not argument:
                raise ValueError("jsonl sink requires a path: jsonl:PATH")
            if kind == "collection":
                host, _, port = argument.rpartition(":")
                if not host or not port.isdigit():
                    raise ValueError(
                        "collection sink requires collection:HOST:PORT"
                    )

    # ------------------------------------------------------------------
    # sink construction (imports stay lazy: config is import-light)
    # ------------------------------------------------------------------

    def build_sinks(self) -> list:
        """Instantiate the configured sinks (order preserved)."""
        from repro.telemetry import CollectionSink, JsonlSink, MetricsSink

        built = []
        for spec in self.sinks:
            kind, _, argument = spec.partition(":")
            if kind == "jsonl":
                built.append(JsonlSink(argument))
            elif kind == "metrics":
                built.append(MetricsSink())
            elif kind == "collection":
                host, _, port = argument.rpartition(":")
                built.append(
                    CollectionSink((host, int(port)),
                                   flush_interval=self.flush_interval)
                )
        return built

    def build_bus(self, extra_sinks=()) -> "object":
        """An :class:`~repro.telemetry.EventBus` over the built sinks."""
        from repro.telemetry import EventBus

        return EventBus(capacity=self.batch_size,
                        sinks=[*self.build_sinks(), *extra_sinks])

    # ------------------------------------------------------------------
    # XML round trip (an element of the deployment file)
    # ------------------------------------------------------------------

    @classmethod
    def from_node(cls, node: ET.Element) -> "TelemetrySettings":
        settings = cls(
            sinks=[spec.strip()
                   for spec in node.get("sinks", "").split(",")
                   if spec.strip()],
            batch_size=int(node.get("batch-size", "256")),
            flush_interval=float(node.get("flush-interval", "0.5")),
        )
        settings.validate()
        return settings

    def to_node(self, parent: ET.Element) -> ET.Element:
        node = ET.SubElement(parent, "telemetry",
                             {"batch-size": str(self.batch_size),
                              "flush-interval": str(self.flush_interval)})
        if self.sinks:
            node.set("sinks", ",".join(self.sinks))
        return node


@dataclass
class CollectionSettings:
    """How the deployment's collection service ingests documents.

    The service is the :class:`~repro.collection.fabric.IngestServer`
    fabric (one event-loop thread, credit-based backpressure,
    write-ahead spool, fleet aggregation).  ``shards`` sets how many
    store partitions and per-shard spool files it keeps, not how many
    threads it runs.

    .. code-block:: xml

        <collection host="0.0.0.0" port="7433"
                    shards="4" credit-limit="64"
                    spool-dir="/var/spool/healers" fsync="true"/>
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: store partitions and spool files (documents routed by application)
    shards: int = 4
    #: un-acked documents per connection before reads pause
    credit_limit: int = 64
    #: write-ahead spool directory (empty = spooling off)
    spool_dir: str = ""
    #: fsync spool segments before acking (the zero-loss guarantee)
    fsync: bool = True
    #: deployment key HMAC-chaining spool records (empty = CRC only);
    #: replay then refuses forged or spliced records
    spool_key: str = ""

    def validate(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ValueError(
                f"collection port must be 0..65535, got {self.port}"
            )
        if self.shards < 1:
            raise ValueError(
                f"collection shards must be >= 1, got {self.shards}"
            )
        if self.credit_limit < 1:
            raise ValueError(
                f"collection credit limit must be >= 1, "
                f"got {self.credit_limit}"
            )

    def build_server(self):
        """Instantiate (not start) the configured ingest server."""
        from repro.collection.fabric import IngestServer
        return IngestServer(
            host=self.host, port=self.port, shards=self.shards,
            spool_dir=self.spool_dir or None,
            credit_limit=self.credit_limit, fsync=self.fsync,
            spool_key=self.spool_key.encode() if self.spool_key else None,
        )

    # ------------------------------------------------------------------
    # XML round trip (an element of the deployment file)
    # ------------------------------------------------------------------

    @classmethod
    def from_node(cls, node: ET.Element) -> "CollectionSettings":
        settings = cls(
            host=node.get("host", "127.0.0.1"),
            port=int(node.get("port", "0")),
            shards=int(node.get("shards", "4")),
            credit_limit=int(node.get("credit-limit", "64")),
            spool_dir=node.get("spool-dir", ""),
            fsync=node.get("fsync", "true").lower() != "false",
            spool_key=node.get("spool-key", ""),
        )
        settings.validate()
        return settings

    def to_node(self, parent: ET.Element) -> ET.Element:
        node = ET.SubElement(
            parent, "collection",
            {"host": self.host, "port": str(self.port),
             "shards": str(self.shards),
             "credit-limit": str(self.credit_limit),
             "fsync": "true" if self.fsync else "false"})
        if self.spool_dir:
            node.set("spool-dir", self.spool_dir)
        if self.spool_key:
            node.set("spool-key", self.spool_key)
        return node


@dataclass
class AppPolicy:
    """Wrapper selection for one application (or the default)."""

    path: str
    wrappers: List[str] = field(default_factory=list)
    #: restrict wrapping to these functions (empty = whole library)
    functions: List[str] = field(default_factory=list)

    def validate(self) -> None:
        for name in self.wrappers:
            if name not in PRESETS:
                raise ValueError(
                    f"unknown wrapper {name!r} for {self.path or 'default'}; "
                    f"known: {', '.join(sorted(PRESETS))}"
                )


@dataclass
class DeploymentConfig:
    """The whole deployment file."""

    policies: Dict[str, AppPolicy] = field(default_factory=dict)
    default: Optional[AppPolicy] = None
    #: how injection campaigns run on this deployment
    campaign: CampaignSettings = field(default_factory=CampaignSettings)
    #: where wrapper/campaign telemetry flows on this deployment
    telemetry: TelemetrySettings = field(default_factory=TelemetrySettings)
    #: how the deployment's collection service ingests documents
    collection: CollectionSettings = field(
        default_factory=CollectionSettings)
    #: how wrappers respond to violations (None = legacy terminate/contain)
    recovery: Optional[RecoveryPolicy] = None

    def policy_for(self, path: str) -> Optional[AppPolicy]:
        """The policy governing an application path (explicit or default)."""
        return self.policies.get(path, self.default)

    # ------------------------------------------------------------------
    # XML round trip
    # ------------------------------------------------------------------

    @classmethod
    def from_xml(cls, text: str) -> "DeploymentConfig":
        root = ET.fromstring(text)
        if root.tag != "healers-deployment":
            raise ValueError(
                f"not a deployment file (root {root.tag!r})"
            )
        config = cls()
        for node in root.findall("application"):
            policy = _policy_from_node(node, require_path=True)
            config.policies[policy.path] = policy
        default_node = root.find("default")
        if default_node is not None:
            config.default = _policy_from_node(default_node,
                                               require_path=False)
        campaign_node = root.find("campaign")
        if campaign_node is not None:
            config.campaign = CampaignSettings.from_node(campaign_node)
        telemetry_node = root.find("telemetry")
        if telemetry_node is not None:
            config.telemetry = TelemetrySettings.from_node(telemetry_node)
        collection_node = root.find("collection")
        if collection_node is not None:
            config.collection = CollectionSettings.from_node(
                collection_node)
        recovery_node = root.find("recovery")
        if recovery_node is not None:
            config.recovery = RecoveryPolicy.from_node(recovery_node)
        return config

    def to_xml(self) -> str:
        root = ET.Element("healers-deployment")
        for path in sorted(self.policies):
            policy = self.policies[path]
            node = ET.SubElement(root, "application", path=path,
                                 wrappers=",".join(policy.wrappers))
            if policy.functions:
                node.set("functions", ",".join(policy.functions))
        if self.default is not None:
            node = ET.SubElement(root, "default",
                                 wrappers=",".join(self.default.wrappers))
            if self.default.functions:
                node.set("functions", ",".join(self.default.functions))
        if self.campaign != CampaignSettings():
            self.campaign.to_node(root)
        if self.telemetry != TelemetrySettings():
            self.telemetry.to_node(root)
        if self.collection != CollectionSettings():
            self.collection.to_node(root)
        if self.recovery is not None:
            self.recovery.to_node(root)
        ET.indent(root)
        return ET.tostring(root, encoding="unicode", xml_declaration=True)


def _policy_from_node(node: ET.Element, require_path: bool) -> AppPolicy:
    path = node.get("path", "")
    if require_path and not path:
        raise ValueError("<application> requires a path attribute")
    wrappers = [
        name.strip() for name in node.get("wrappers", "").split(",")
        if name.strip()
    ]
    functions = [
        name.strip() for name in node.get("functions", "").split(",")
        if name.strip()
    ]
    policy = AppPolicy(path=path, wrappers=wrappers, functions=functions)
    policy.validate()
    return policy
