"""Fleet aggregation: rolling per-function statistics across shippers.

The paper's server "stores the gathered information for later
processing"; at fleet scale the processing worth doing continuously is
the rollup — for every ``(library, function, wrapper-preset)`` triple,
how many calls the whole fleet made, what the per-call execution time
looks like (p50/p99, ``MetricsSink``-style reservoir quantiles over
per-document means), and how often robustness violations fire relative
to calls.  Each ingest shard owns one :class:`FleetAggregator` and
updates it lock-free on commit; queries merge the shard aggregators.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.profiling.xmllog import ProfileDocument

#: per-key latency samples kept before the reservoir stops growing
#: (mirrors repro.telemetry.sinks.RESERVOIR_LIMIT)
RESERVOIR_LIMIT = 8192

#: aggregation key: (library, function, wrapper-preset)
FleetKey = Tuple[str, str, str]


def _quantile(samples: List[int], q: float) -> int:
    if not samples:
        return 0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


@dataclass
class FleetCell:
    """The rollup for one (library, function, wrapper-preset) key."""

    calls: int = 0
    exectime_ns: int = 0
    violations: int = 0
    documents: int = 0
    #: per-document mean ns/call samples (reservoir-bounded)
    samples: List[int] = field(default_factory=list)

    def fold(self, calls: int, exectime_ns: int, violations: int,
             reservoir_limit: int = RESERVOIR_LIMIT) -> None:
        self.calls += calls
        self.exectime_ns += exectime_ns
        self.violations += violations
        self.documents += 1
        if calls and len(self.samples) < reservoir_limit:
            self.samples.append(exectime_ns // calls)

    @property
    def violation_rate(self) -> float:
        return self.violations / self.calls if self.calls else 0.0

    def quantiles(self) -> Tuple[int, int]:
        return _quantile(self.samples, 0.50), _quantile(self.samples, 0.99)

    def to_dict(self) -> Dict[str, Any]:
        p50, p99 = self.quantiles()
        return {
            "calls": self.calls,
            "exectime_ns": self.exectime_ns,
            "violations": self.violations,
            "violation_rate": round(self.violation_rate, 6),
            "documents": self.documents,
            "p50_ns_per_call": p50,
            "p99_ns_per_call": p99,
        }


class FleetAggregator:
    """Rolls profile documents up per (library, function, preset).

    The ingest fabric's event-loop thread is the only writer of its
    shard aggregators, so updates never contend; the internal lock
    exists purely so snapshots taken from query threads see consistent
    cells.
    """

    def __init__(self, reservoir_limit: int = RESERVOIR_LIMIT):
        self.reservoir_limit = reservoir_limit
        self.cells: Dict[FleetKey, FleetCell] = {}
        #: distinct shipper applications seen
        self.applications: set = set()
        self.documents = 0
        self._lock = threading.Lock()

    def ingest(self, document: ProfileDocument) -> None:
        """Fold one shipper document into the rollup."""
        violations_by_function: Dict[str, int] = {}
        for violation in document.violations:
            violations_by_function[violation.function] = (
                violations_by_function.get(violation.function, 0) + 1
            )
        with self._lock:
            self.documents += 1
            self.applications.add(document.application)
            for name, profile in document.functions.items():
                key = (document.library, name, document.wrapper_type)
                cell = self.cells.get(key)
                if cell is None:
                    cell = self.cells[key] = FleetCell()
                cell.fold(profile.calls, profile.exectime_ns,
                          violations_by_function.pop(name, 0),
                          self.reservoir_limit)
            # violations against functions the document never profiled
            # (e.g. a check-only wrapper) still count under their name
            for name, count in violations_by_function.items():
                key = (document.library, name, document.wrapper_type)
                cell = self.cells.get(key)
                if cell is None:
                    cell = self.cells[key] = FleetCell()
                cell.violations += count

    # ------------------------------------------------------------------
    # merging and querying
    # ------------------------------------------------------------------

    def merge(self, other: "FleetAggregator") -> "FleetAggregator":
        """Fold another aggregator (a shard's) into this one."""
        with other._lock:
            other_cells = {key: (cell.calls, cell.exectime_ns,
                                 cell.violations, cell.documents,
                                 list(cell.samples))
                           for key, cell in other.cells.items()}
            other_apps = set(other.applications)
            other_documents = other.documents
        with self._lock:
            self.documents += other_documents
            self.applications |= other_apps
            for key, (calls, ns, violations, documents,
                      samples) in other_cells.items():
                cell = self.cells.get(key)
                if cell is None:
                    cell = self.cells[key] = FleetCell()
                cell.calls += calls
                cell.exectime_ns += ns
                cell.violations += violations
                cell.documents += documents
                room = self.reservoir_limit - len(cell.samples)
                if room > 0:
                    cell.samples.extend(samples[:room])
        return self

    @classmethod
    def merged(cls, aggregators) -> "FleetAggregator":
        total = cls()
        for aggregator in aggregators:
            total.merge(aggregator)
        return total

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data, JSON-serialisable view of the whole rollup."""
        with self._lock:
            rows = {
                "|".join(key): cell.to_dict()
                for key, cell in sorted(self.cells.items())
            }
            return {
                "documents": self.documents,
                "applications": len(self.applications),
                "keys": len(rows),
                "cells": rows,
            }

    def rows(self) -> List[Tuple[FleetKey, FleetCell]]:
        with self._lock:
            return sorted(self.cells.items())

    def describe(self, top: int = 15) -> str:
        """Human-readable fleet table (the ``collect stats`` output)."""
        with self._lock:
            documents, applications = self.documents, len(self.applications)
            busiest = sorted(self.cells.items(),
                             key=lambda item: -item[1].calls)[:top]
        lines = [
            f"[fleet] {documents} documents from {applications} "
            f"application(s), {len(self.cells)} (library, function, "
            f"wrapper) keys"
        ]
        for (library, function, wrapper), cell in busiest:
            p50, p99 = cell.quantiles()
            lines.append(
                f"[fleet]   {library:<12} {function:<16} {wrapper:<12} "
                f"{cell.calls:>8} calls  p50 {p50:>7} ns  p99 {p99:>7} ns"
                f"  viol {cell.violation_rate:.2%}"
            )
        return "\n".join(lines)
