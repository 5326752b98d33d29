"""Shared measurement pieces: calibration, percentiles, memory, results.

Calibration.  The machine the benchmark was defined on switches between
a fast and a slow state every few seconds (other tenants share its
cores); a fixed pure-Python loop (``calibrate``, ~1-2 ms) reads about
1.0 ms in one and 1.9 ms in the other.  The loop is timed before every
block of a CPU-bound workload, and the block's timings are scaled by
``(REFERENCE_CAL / cal) ** CAL_EXPONENT``.  The exponent is below one
because the program's code slows less than the tight loop does: over
the two states the serving and probing code slowed by the 0.4-0.65th
power of the loop's slowdown, and over repeated runs the spread of the
scaled medians was smallest near 0.7 (serve-hot 2.3 % against 6 % with
plain division and 21 % unscaled, on 4 s runs).  ``REFERENCE_CAL`` and
``CAL_EXPONENT`` were fixed when the benchmark was defined and must not
change afterwards, or results stop being comparable.  A workload may fix
its own exponent, and a second one for the latencies its p50 is taken
from (``Timings``; see ``campaign.py``).
"""

from __future__ import annotations

import cProfile
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: seconds of one ``calibrate()`` call, midway between the two states
#: of the machine the benchmark was defined on (2-core x86-64 VM,
#: CPython 3.11)
REFERENCE_CAL = 1.5e-3
CAL_EXPONENT = 0.7

_CAL_ROUNDS = 3


def _cal_kernel(rounds: int) -> int:
    # dict traffic, bytes slicing, attribute-free arithmetic and calls:
    # the mix the simulator's own hot paths are made of
    table: Dict[int, int] = {}
    acc = 0
    blob = b"healers-calibration"
    for i in range(rounds):
        key = i & 127
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + len(blob[i & 7:])) & 0xFFFFF
        acc ^= _mix(i)
    return acc + len(table)


def _mix(value: int) -> int:
    return (value * 2654435761) >> 7 & 0xFF


#: loop length giving ~1.5 ms per call on the reference machine
_CAL_ITERATIONS = 2600


def calibrate() -> float:
    """Median seconds of a few runs of the fixed calibration loop."""
    samples = []
    for _ in range(_CAL_ROUNDS):
        start = time.perf_counter()
        _cal_kernel(_CAL_ITERATIONS)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scale(cal: float, exponent: float = CAL_EXPONENT) -> float:
    """Factor taking a timing made after calibration ``cal`` to the
    reference machine."""
    return (REFERENCE_CAL / cal) ** exponent


def scale_between(before: float, after: float) -> float:
    """Factor for a timing made between calibrations ``before`` and
    ``after``: the machine may change speed during it.  Over 25 spawned
    serve-hot set-ups, scaling by the geometric mean of the two gave a
    coefficient of variation of 9 %, against 14 % scaling by the one
    before and 13 % unscaled."""
    return scale(math.sqrt(before * after))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0..1) of sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    frac = position - low
    return sorted_values[low] * (1 - frac) + sorted_values[high] * frac


@dataclass
class Segment:
    """One measured (or traced) stretch of a run."""

    #: operations completed inside the timed spans
    operations: int = 0
    attempted: int = 0
    failed: int = 0
    #: seconds inside the timed spans
    span: float = 0.0


class Timings:
    """Per-operation latencies in blocks, each with its calibration.

    A workload made of windows (an ingest collector, a campaign pass,
    ten storm episodes) closes each with :meth:`end_window`;
    :meth:`summary` then reports the median over the windows of each
    window's figures, so that one window the machine's other tenants
    slowed does not move the run.
    """

    def __init__(self, exponent: float = CAL_EXPONENT,
                 p50_exponent: Optional[float] = None) -> None:
        # arrays, not lists: a run's memory must not grow with its
        # operation count by more than the program's own state does
        self.raw = array("d")
        self.scaled = array("d")
        self.exponent = exponent
        #: calibration exponent of the latencies the calibrated p50 is
        #: taken from, when it is not ``exponent``
        self.p50_exponent = p50_exponent
        self.p50_scaled = array("d") if p50_exponent is not None else None
        self.block_cals: List[float] = []
        #: (raw seconds, scaled seconds) of each block's timed span
        self.spans: List[tuple] = []
        #: (latencies, spans, operations) at the end of each window
        self.windows: List[tuple] = []

    def add_block(self, latencies: Sequence[float], span: float,
                  cal: Optional[float] = None) -> None:
        """One block; ``cal`` is the calibration timed just before it."""
        factor = 1.0
        if cal is not None:
            factor = scale(cal, self.exponent)
            self.block_cals.append(cal)
        self.raw.extend(latencies)
        self.scaled.extend(value * factor for value in latencies)
        self.spans.append((span, span * factor))
        if self.p50_scaled is not None:
            p50_factor = 1.0 if cal is None else scale(cal,
                                                       self.p50_exponent)
            self.p50_scaled.extend(value * p50_factor
                                   for value in latencies)

    def end_window(self, operations: int) -> None:
        """Close a window of ``operations`` completed operations."""
        self.windows.append((len(self.raw), len(self.spans), operations))

    @property
    def run_cal(self) -> Optional[float]:
        return (statistics.median(self.block_cals) if self.block_cals
                else None)

    def summary(self, operations: int, calibrated: bool) -> dict:
        """throughput and p50/p99 latency, calibrated or raw."""
        values = self.scaled if calibrated else self.raw
        p50_values = self.p50_scaled if calibrated else None
        if not self.windows:
            return _figures(values, self.spans, operations, calibrated,
                            p50_values)
        figures = []
        latencies = spans = 0
        for latencies_end, spans_end, window_operations in self.windows:
            figures.append(_figures(
                values[latencies:latencies_end],
                self.spans[spans:spans_end], window_operations,
                calibrated, None if p50_values is None
                else p50_values[latencies:latencies_end]))
            latencies, spans = latencies_end, spans_end
        summary = {key: statistics.median(f[key] for f in figures)
                   for key in figures[0]}
        summary["samples"] = len(values)
        summary["windows"] = len(figures)
        return summary


def _figures(latencies: Sequence[float], spans: Sequence[tuple],
             operations: int, calibrated: bool,
             p50_latencies: Optional[Sequence[float]]) -> dict:
    values = sorted(latencies)
    medians = values if p50_latencies is None else sorted(p50_latencies)
    if len(values) < 1000:
        raise RuntimeError(
            f"only {len(values)} latency samples; p99 needs >= 1000 "
            f"(10 beyond it) - raise --seconds")
    span = sum(s[1] if calibrated else s[0] for s in spans)
    return {
        "throughput": operations / span,
        "latency_p50_us": percentile(medians, 0.50) * 1e6,
        "latency_p99_us": percentile(values, 0.99) * 1e6,
        "samples": len(values),
    }


class Spans:
    """A profiler switched on only inside the timed spans (``with``)."""

    def __init__(self, profile: bool = False):
        self.profiler = cProfile.Profile() if profile else None

    def __enter__(self) -> "Spans":
        if self.profiler is not None:
            self.profiler.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.profiler is not None:
            self.profiler.disable()


def peak_rss_mb(child_hwm_kb: int = 0) -> float:
    """Peak RSS of this process plus a concurrently running child."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + child_hwm_kb) / 1024.0


def child_hwm_kb(pid: int) -> int:
    """A live child's peak resident set (``VmHWM``), in KiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def fingerprint() -> dict:
    """Recorded beside every result; never used to gate."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units: Dict[str, str], raw: dict) -> None:
    """Print the raw record, then the result line (always last)."""
    print("raw " + json.dumps(raw, sort_keys=True, default=float))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
    sys.stdout.flush()
