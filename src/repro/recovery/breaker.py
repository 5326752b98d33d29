"""The graceful-degradation ladder's circuit breaker.

One :class:`CircuitBreaker` guards one (app, preset) serving pair.  It
watches per-request outcomes through a sliding window and moves the
service along a ladder of *rungs*, least to most degraded::

    fused -> table -> interpreted -> shed

Stepping **down** trades throughput for checking: the fused lanes
replay recorded traces and memoized verdicts, which is exactly the state
you stop trusting while faults are landing — ``table`` disables trace replay,
``interpreted`` bypasses the fused image entirely (per-call dynamic
dispatch through the compiled wrappers in the PLT; the name is the
rung's alone, wrappers are always compiled), and ``shed`` stops admitting
requests except for periodic probes.  Stepping **up** requires a clean
streak, so a service never flaps out of shed on a single lucky probe.

Everything is request-count driven — no wall clock — so a breaker
trace is byte-reproducible from the storm seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

#: the ladder, least to most degraded
RUNGS = ("fused", "table", "interpreted", "shed")

#: rung -> FusedImage deopt level (shed probes run fully deoptimized)
DEOPT_LEVELS = {"fused": 0, "table": 1, "interpreted": 2, "shed": 2}


@dataclass(frozen=True)
class BreakerConfig:
    """Knobs for one breaker; all counts are requests, not seconds."""

    #: sliding window of recent admitted requests
    window: int = 16
    #: bad outcomes inside the window that trip one rung down
    trip_threshold: int = 4
    #: consecutive good outcomes that earn one rung back up
    recovery_streak: int = 8
    #: on the shed rung, admit one probe request per this many arrivals
    probe_interval: int = 4

    def __post_init__(self) -> None:
        if self.window < 1 or self.trip_threshold < 1:
            raise ValueError("window and trip_threshold must be >= 1")
        if self.trip_threshold > self.window:
            raise ValueError("trip_threshold cannot exceed the window")
        if self.recovery_streak < 1 or self.probe_interval < 1:
            raise ValueError(
                "recovery_streak and probe_interval must be >= 1")


@dataclass(frozen=True)
class RungTransition:
    """One recorded ladder move, with the request that caused it."""

    request_index: int
    rung_from: str
    rung_to: str
    reason: str


class CircuitBreaker:
    """Sliding-window ladder state for one (app, preset) pair."""

    def __init__(self, app: str, preset: str,
                 config: Optional[BreakerConfig] = None):
        self.app = app
        self.preset = preset
        self.config = config or BreakerConfig()
        self._rung = 0
        self._window: Deque[bool] = deque(maxlen=self.config.window)
        self._streak = 0
        self._arrivals_while_shed = 0
        #: every ladder move, in order
        self.transitions: List[RungTransition] = []

    # ------------------------------------------------------------------

    @property
    def rung(self) -> str:
        return RUNGS[self._rung]

    @property
    def deopt_level(self) -> int:
        return DEOPT_LEVELS[self.rung]

    @property
    def shedding(self) -> bool:
        return self._rung == len(RUNGS) - 1

    def admit(self) -> bool:
        """Admission decision for one arriving request.

        Below the shed rung everything is admitted.  On the shed rung,
        one probe per :attr:`BreakerConfig.probe_interval` arrivals is
        let through so the breaker can observe whether the storm has
        passed; everything else is rejected before any wrapped call
        runs.
        """
        if not self.shedding:
            return True
        count = self._arrivals_while_shed
        self._arrivals_while_shed += 1
        return count % self.config.probe_interval == 0

    def observe(self, request_index: int, bad: bool,
                reason: str = "") -> Optional[RungTransition]:
        """Feed one *admitted* request's outcome; returns any move made."""
        self._window.append(bad)
        if bad:
            self._streak = 0
            if sum(self._window) >= self.config.trip_threshold:
                if not self.shedding:
                    return self._step(request_index, +1,
                                      reason or "window tripped")
                self._window.clear()
            if self.shedding:
                # a bad probe keeps the service shedding; restart the
                # probe cadence so the next probe is a full interval out
                self._arrivals_while_shed = 1
            return None
        self._streak += 1
        if self._streak >= self.config.recovery_streak and self._rung > 0:
            return self._step(request_index, -1, reason or "clean streak")
        return None

    def _step(self, request_index: int, direction: int,
              reason: str) -> RungTransition:
        old = self.rung
        self._rung = min(max(self._rung + direction, 0), len(RUNGS) - 1)
        self._window.clear()
        self._streak = 0
        if self.shedding:
            self._arrivals_while_shed = 0
        transition = RungTransition(
            request_index=request_index, rung_from=old,
            rung_to=self.rung, reason=reason,
        )
        self.transitions.append(transition)
        return transition

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "app": self.app,
            "preset": self.preset,
            "rung": self.rung,
            "transitions": [
                {"request_index": t.request_index, "from": t.rung_from,
                 "to": t.rung_to, "reason": t.reason}
                for t in self.transitions
            ],
        }
