"""Arming a :class:`~repro.chaos.plan.ChaosPlan` against the substrate.

The injector owns one call counter per site, consults the plan on every
tick, and keeps an ordered event log of the faults that actually fired —
``(site, call_index)`` pairs in injection order.  The log is the
determinism witness: two runs of the same plan over the same workload
must produce identical logs, whatever wrappers executed between the
ticks.

Injection points:

* :meth:`arm_heap` — allocator OOM (``malloc`` returns NULL with the
  failure counted) and heap-clobber (one byte written past a fresh
  allocation — landing on the canary when canaries are on, which is
  exactly what the repair path must detect and heal);
* :meth:`arm_filesystem` — read/write I/O errors on file streams;
* :meth:`wrap_transport` — connection resets and slow peers around the
  collection client's ``submit_documents``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from repro.chaos.plan import ChaosPlan
from repro.memory.heap import HeapAllocator
from repro.runtime.filesystem import SimFileSystem

#: seconds a "slow peer" fault stalls the transport; long enough to be
#: visible in latency metrics, short enough for test suites
SLOW_PEER_SECONDS = 0.01


class ChaosInjector:
    """Per-run fault state: counters, the plan, and the event log."""

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self._wanted: Dict[str, frozenset] = {
            site: frozenset(hits) for site, hits in plan.schedule.items()
        }
        self._counts: Dict[str, int] = {}
        #: ordered (site, call_index) log of faults that fired
        self.events: List[Tuple[str, int]] = []

    def should_fault(self, site: str) -> bool:
        """Tick the site's counter; True when this call is scheduled."""
        count = self._counts.get(site, 0)
        self._counts[site] = count + 1
        if count in self._wanted.get(site, ()):
            self.events.append((site, count))
            return True
        return False

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def arm_heap(self, heap: HeapAllocator) -> None:
        """Install allocator OOM + post-allocation clobber faults."""
        heap.fault_hook = lambda: self.should_fault("alloc-oom")

        def clobber(user: int, size: int) -> None:
            if self.should_fault("heap-clobber"):
                end = user + size
                if heap.mapping.contains(end, 1):
                    heap.space.write(end, b"\x5a")

        heap.post_alloc_hook = clobber

    def arm_filesystem(self, fs: SimFileSystem) -> None:
        """Install I/O error faults on file-stream reads and writes."""
        fs.fault_hook = (
            lambda op, index: self.should_fault(f"fs-{op}")
        )

    def wrap_transport(self, base: Callable) -> Callable:
        """A chaos-wrapped collection transport.

        ``net-reset`` raises :class:`ConnectionResetError` (an OSError,
        so the collection sink's retry logic engages); ``net-slow``
        stalls briefly before delegating.
        """
        def transport(address, xml_texts, timeout: float = 5.0):
            if self.should_fault("net-reset"):
                raise ConnectionResetError(
                    "chaos: connection reset by peer"
                )
            if self.should_fault("net-slow"):
                time.sleep(SLOW_PEER_SECONDS)
            return base(address, xml_texts, timeout)

        return transport

    def arm_fabric(self, client) -> None:
        """Aim ``net-reset`` / ``net-slow`` at a fabric shipper.

        The :class:`~repro.collection.fabric.FabricClient` consults its
        ``fault_hook`` before every send attempt: ``net-reset`` tears
        the connection down mid-stream (the client resends un-acked
        sequenced frames, which the server dedups), ``net-slow`` stalls
        the shipper — exactly the conditions the fabric's zero-loss /
        exactly-once contract must hold under.
        """
        client.fault_hook = self.should_fault

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def calls_seen(self, site: str) -> int:
        return self._counts.get(site, 0)

    def event_log(self) -> List[Tuple[str, int]]:
        return list(self.events)
