"""campaign: the paper's fault-injection sweep, pass after pass.

``ProbeExecutor(Campaign(...), backend="serial")`` over the full
registry, with no probe cache, so every pass executes every probe.  The
serial backend is used because on two shared cores a process pool's
throughput swings with the neighbours' load.  The first pass is
untimed: it faults in the ~1.2 GB the executor retains until it
reassembles the result, and fills lazy caches.  A full collection runs
between passes, so one pass's executions are gone before the next
starts.  Each timed pass is a window: the run reports the median over
its passes of each pass's throughput, p50 and p99 (a pass is 1644
probes, so its p99 has 16 beyond it).
"""

from __future__ import annotations

import gc
import pstats
import time
from typing import Dict, List, Optional

from harness import Segment, Spans, Timings, calibrate

from repro.injection import Campaign, ProbeExecutor
from repro.injection.store import campaign_to_xml
from repro.libc import standard_registry
from repro.manpages import load_corpus

#: probes per calibrated block (~0.2 s)
CAL_EVERY = 100
#: calibration exponents (see harness.py).  The median probe slows
#: less with the machine than the serving code does, and a pass's
#: throughput and tail, which the executor's bookkeeping and the
#: slowest probes make, slow more.  Over two sets of ten 20 s runs, the
#: spread of the p50 was 5.9 and 4.8 % at 0.4 against 10.9 and 5.4 % at
#: harness.CAL_EXPONENT (0.7); over the second set, throughput and p99
#: spread 3.8 and 4.9 % at 0.85 against 5.3 and 9.2 % at 0.7
CAL_EXPONENT = 0.85
P50_EXPONENT = 0.4


class CampaignSweep:
    name = "campaign"
    calibrated = True
    cal_exponent = CAL_EXPONENT
    p50_exponent = P50_EXPONENT

    def __init__(self, seed: int):
        # the probe matrix is fixed by the library and its man pages;
        # there is nothing for the seed to vary
        self.campaign = Campaign(standard_registry(),
                                 manpages=load_corpus())
        self.phases: Dict[str, float] = {}
        self.reference: Optional[str] = None
        self.mismatches = 0
        self.passes: List[dict] = []
        self._warm = False
        self.notes: Dict = {}
        self.spans = Spans()
        self.stats: Optional[pstats.Stats] = None

    def _pass(self, timings: Optional[Timings]) -> dict:
        """One full sweep; timed passes calibrate every CAL_EVERY probes.

        A pass takes seconds and the machine changes speed within one,
        so the pass is cut into blocks of CAL_EVERY probes, each with
        the calibration timed just before it.  A block's span runs from
        the end of one calibration to the start of the next, which
        splits the executor's own work between the blocks as it runs.
        """
        campaign = self.campaign
        execute = campaign.execute_probe
        clock = time.perf_counter
        block = {"latencies": [], "start": 0.0, "cal": None, "span": 0.0}

        def close_block(now: float) -> None:
            block["span"] += now - block["start"]
            if timings is not None:
                timings.add_block(block["latencies"], now - block["start"],
                                  block["cal"])

        def open_block() -> None:
            block["latencies"] = []
            block["cal"] = calibrate() if timings is not None else None
            block["start"] = clock()

        def timed_execute(probe, value):
            if timings is not None and len(block["latencies"]) >= CAL_EVERY:
                close_block(clock())
                open_block()
            began = clock()
            execution = execute(probe, value)
            block["latencies"].append(clock() - began)
            return execution

        gc.collect()
        executor = ProbeExecutor(campaign, backend="serial")
        campaign.execute_probe = timed_execute
        try:
            with self.spans:
                open_block()
                result = executor.run()
                close_block(clock())
        finally:
            del campaign.execute_probe
        span = block["span"]
        xml = campaign_to_xml(result)
        if self.reference is None:
            self.reference = xml
        elif xml != self.reference:
            self.mismatches += 1
        stats = executor.stats
        record = {
            "span": span,
            "executed": stats.executed,
            "planned": stats.planned,
            "setup_errors": stats.setup_errors,
            "verdict_failures": result.total_failures,
            "failed": (stats.lost_units + stats.worker_failures
                       + stats.watchdog_timeouts),
        }
        del result, xml
        if timings is not None:
            timings.end_window(stats.executed)
        return record

    def warm(self) -> None:
        if not self._warm:
            self.notes["warm_pass_s"] = self._pass(None)["span"]
            self._warm = True

    def _tally(self, passes: List[dict]) -> Segment:
        self.passes = passes
        segment = Segment()
        for record in passes:
            segment.operations += record["executed"]
            segment.attempted += record["planned"]
            segment.failed += record["failed"]
            segment.span += record["span"]
        return segment

    def measure(self, seconds: float, timings: Timings) -> Segment:
        self.warm()
        deadline = time.perf_counter() + seconds
        passes = []
        while time.perf_counter() < deadline:
            passes.append(self._pass(timings))
        return self._tally(passes)

    def fixed_work(self, profile: bool) -> Segment:
        self.warm()
        self.spans = Spans(profile)
        segment = self._tally([self._pass(None)])
        if profile:
            self.stats = pstats.Stats(self.spans.profiler)
        self.spans = Spans()
        return segment

    def check(self) -> List[str]:
        if self.mismatches:
            return [f"{self.mismatches} pass(es) produced experiment XML "
                    f"that differs from the first pass"]
        return []

    def counters(self) -> Dict[str, float]:
        passes = self.passes
        return {
            "injection.probes_executed": sum(p["executed"] for p in passes),
            "injection.setup_errors": sum(p["setup_errors"] for p in passes),
            "injection.verdict_failures": sum(p["verdict_failures"]
                                              for p in passes),
        }

    def close(self) -> None:
        pass
