"""Chaos-under-load: the graceful-degradation ladder over live serving.

A :class:`ResilientSession` supervises one :class:`ServingSession`
through a :class:`~repro.chaos.storm.StormSchedule`: each admitted
request gets its own seed-derived fault plan armed against the live
process's heap, a per-request fuel deadline (the deterministic stand-in
for a latency SLO), and a rung on the
:class:`~repro.recovery.breaker.CircuitBreaker`'s ladder::

    fused -> table -> interpreted -> shed

(``interpreted`` is per-call dispatch through the compiled wrappers in
the PLT, with every fused lane bypassed.)

Violations the recovery policy marks ``degrade`` are contained to
error returns *and* fed to the breaker through the process's
``degrade_hook``; deadline misses and crashes feed it too.  A crash is
absorbed at the request boundary — the supervisor drains stdin, clears
errno, runs heap quarantine-repair and, if the handler declared the
service down, re-runs the app's ``setup`` — so one poisoned request
never takes the next one with it.

Every outcome is recorded with its three-integer witness
``(seed, trial, request_index)``: the faults behind any shed or degrade
decision replay from :meth:`StormSchedule.replay_witness` alone.

:func:`run_unsupervised` is the honesty baseline: the same storm
against a bare session with no ladder, no deadline and no boundary
healing — the first uncontained fault is terminal and every request
after it goes unanswered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.injector import ChaosInjector
from repro.chaos.storm import StormSchedule
from repro.errors import OutOfFuel, SimulatorError
from repro.recovery.breaker import BreakerConfig, CircuitBreaker
from repro.recovery.policy import degrading_policy
from repro.runtime import SimProcess
from repro.security.policy import SecurityPolicy
from repro.serving.session import Request, ServingSession
from repro.telemetry import HealthEvent, ShedEvent

#: default per-request fuel budget — comfortably above a hot kvd
#: request (~2-3k units under the hardened presets), far below a
#: runaway loop
DEADLINE_FUEL = 20_000

#: the outcome taxonomy one supervised request can land in
OUTCOMES = ("ok", "degraded", "timeout", "crashed", "shed")


@dataclass(frozen=True)
class ServingSLO:
    """The service-level objective the ladder defends."""

    #: per-request fuel deadline (miss = the timeout outcome)
    deadline_fuel: int = DEADLINE_FUEL
    #: availability floor the storm report is judged against
    availability_target: float = 0.95


@dataclass
class RequestOutcome:
    """One supervised request: what happened, on which rung, and why."""

    index: int
    status: str
    rung: str
    fuel: int = 0
    #: ``(site, call_index)`` faults that actually fired mid-request
    faults: Tuple[Tuple[str, int], ...] = ()
    #: degrade-action violations the wrappers contained mid-request
    violations: int = 0
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "status": self.status,
            "rung": self.rung,
            "fuel": self.fuel,
            "faults": [list(f) for f in self.faults],
            "violations": self.violations,
            "detail": self.detail,
        }


@dataclass
class StormReport:
    """Aggregate of one storm run, with per-request witnesses."""

    app: str
    preset: str
    schedule: StormSchedule
    outcomes: List[RequestOutcome] = field(default_factory=list)
    supervised: bool = True

    # -- derived ------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        tally = {status: 0 for status in OUTCOMES}
        tally["dead"] = 0
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    @property
    def answered(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.status in ("ok", "degraded"))

    @property
    def availability(self) -> float:
        total = len(self.outcomes)
        return self.answered / total if total else 0.0

    def fuel_quantile(self, q: float) -> int:
        samples = sorted(o.fuel for o in self.outcomes
                         if o.status in ("ok", "degraded"))
        if not samples:
            return 0
        index = min(len(samples) - 1, int(q * (len(samples) - 1) + 0.5))
        return samples[index]

    def witnesses(self, statuses: Sequence[str] = ("shed", "degraded",
                                                   "timeout", "crashed")
                  ) -> List[dict]:
        """Replay witnesses for every non-ok decision the run made."""
        wanted = frozenset(statuses)
        return [
            dict(self.schedule.witness(o.index), status=o.status,
                 rung=o.rung)
            for o in self.outcomes if o.status in wanted
        ]

    def to_dict(self) -> dict:
        counts = self.counts()
        return {
            "app": self.app,
            "preset": self.preset,
            "supervised": self.supervised,
            "requests": len(self.outcomes),
            "answered": self.answered,
            "availability": round(self.availability, 4),
            "counts": counts,
            "p50_fuel": self.fuel_quantile(0.50),
            "p99_fuel": self.fuel_quantile(0.99),
            "faults_fired": sum(len(o.faults) for o in self.outcomes),
            "schedule": self.schedule.to_dict(),
        }


class ResilientSession:
    """One supervised serving session under storm conditions.

    ``preset`` picks the wrapper stack; unless an explicit ``policy``
    is given, wrapped presets get
    :func:`~repro.recovery.policy.degrading_policy` — repair what has
    heap metadata, retry transients, degrade (contain + breaker signal)
    everything else — because a ladder without degrade signals is blind
    until something actually crashes.  The process is built here with
    heap canaries on, so clobber faults are detectable and repairable.
    """

    def __init__(
        self,
        app,
        preset: str = "security",
        fused: bool = True,
        registry=None,
        api=None,
        policy: Optional[SecurityPolicy] = None,
        slo: Optional[ServingSLO] = None,
        breaker_config: Optional[BreakerConfig] = None,
    ):
        if policy is None and preset != "unwrapped":
            policy = SecurityPolicy(recovery=degrading_policy())
        self.slo = slo or ServingSLO()
        self.session = ServingSession(
            app, preset=preset, fused=fused,
            registry=registry, api=api, policy=policy,
            process=SimProcess(heap_canaries=True),
        )
        self.breaker = CircuitBreaker(app.name, preset,
                                      config=breaker_config)
        self._request_violations = 0
        self.session.process.degrade_hook = self._on_degrade
        #: HealthEvent / ShedEvent mirror (also emitted on the bus)
        self.events: List = []

    # ------------------------------------------------------------------

    def _on_degrade(self, function: str, kind: str) -> None:
        self._request_violations += 1

    def _emit(self, event) -> None:
        self.events.append(event)
        built = self.session.built
        if built is not None and built.bus is not None:
            built.bus.emit(event)

    def prepare(self, gen) -> None:
        """Record traces and serve the generator's warmup, untimed."""
        if self.session.fused:
            self.session.record_traces(gen.warmup, gen.samples)
        self.session.serve_all(gen.warmup)

    # ------------------------------------------------------------------

    def _heal(self, restart: bool) -> None:
        """Request-boundary recovery after a timeout or crash."""
        session = self.session
        process = session.process
        process.fs.drain_stdin()
        process.errno = 0
        if process.heap.check_integrity():
            process.heap.repair(quarantine=True)
        if restart:
            session.ctx = session.app.setup(session.image, [])
            session.alive = True

    def serve_storm(self, schedule: StormSchedule,
                    requests: Sequence[Request]) -> StormReport:
        """Drive the stream under the storm; returns the full report."""
        session = self.session
        process = session.process
        breaker = self.breaker
        report = StormReport(app=session.app.name, preset=session.preset,
                             schedule=schedule)
        fused = session.fused
        for index, request in enumerate(requests):
            rung = breaker.rung
            if not breaker.admit():
                # rejected before any wrapped call: no stdin feed, no
                # allocator traffic, and the request's scheduled faults
                # never arm — shedding cannot corrupt
                self._emit(ShedEvent(app=report.app, preset=report.preset,
                                     request_index=index, rung=rung))
                report.outcomes.append(RequestOutcome(
                    index=index, status="shed", rung=rung))
                continue
            plan = schedule.plan_for(index)
            injector = None
            if plan is not None:
                injector = ChaosInjector(plan)
                injector.arm_heap(process.heap)
                injector.arm_filesystem(process.fs)
            if fused:
                session.image.deopt_level = breaker.deopt_level
            self._request_violations = 0
            fuel_before = process.fuel_used
            process.fuel = fuel_before + self.slo.deadline_fuel
            status, detail, restart = "ok", "", False
            try:
                alive = session.serve_one(request)
                if not alive:
                    status, restart = "crashed", True
                    detail = "handler declared shutdown"
            except OutOfFuel:
                status, detail = "timeout", "fuel deadline exceeded"
            except SimulatorError as exc:
                status = "crashed"
                detail = f"{type(exc).__name__}: {exc}"
                restart = not session.alive
            finally:
                process.fuel = None
                process.heap.fault_hook = None
                process.heap.post_alloc_hook = None
                process.fs.fault_hook = None
            fuel = process.fuel_used - fuel_before
            violations = self._request_violations
            if status == "ok" and violations:
                status = "degraded"
            if status in ("timeout", "crashed"):
                self._heal(restart or status == "crashed")
            faults = tuple(injector.event_log()) if injector else ()
            report.outcomes.append(RequestOutcome(
                index=index, status=status, rung=rung, fuel=fuel,
                faults=faults, violations=violations, detail=detail))
            bad = status in ("timeout", "crashed") or violations > 0
            transition = breaker.observe(index, bad, reason=status)
            if transition is not None:
                self._emit(HealthEvent(
                    app=report.app, preset=report.preset,
                    rung_from=transition.rung_from,
                    rung_to=transition.rung_to,
                    reason=transition.reason,
                    request_index=index,
                ))
        if fused:
            session.image.deopt_level = breaker.deopt_level
        return report


def run_unsupervised(app, schedule: StormSchedule,
                     requests: Sequence[Request],
                     preset: str = "security", fused: bool = True,
                     registry=None, api=None,
                     gen=None) -> StormReport:
    """The no-ladder baseline: same storm, bare session, no second
    chances.  The first fault the preset cannot contain kills the
    service; every later request is recorded ``dead`` (unanswered)."""
    session = ServingSession(
        app, preset=preset, fused=fused,
        registry=registry, api=api,
        process=SimProcess(heap_canaries=True),
    )
    if gen is not None:
        if fused:
            session.record_traces(gen.warmup, gen.samples)
        session.serve_all(gen.warmup)
    report = StormReport(app=app.name, preset=preset, schedule=schedule,
                         supervised=False)
    process = session.process
    dead = False
    for index, request in enumerate(requests):
        if dead:
            report.outcomes.append(RequestOutcome(
                index=index, status="dead", rung="fused",
                detail="service down"))
            continue
        plan = schedule.plan_for(index)
        injector = None
        if plan is not None:
            injector = ChaosInjector(plan)
            injector.arm_heap(process.heap)
            injector.arm_filesystem(process.fs)
        status, detail = "ok", ""
        try:
            if not session.serve_one(request):
                dead, status = True, "crashed"
                detail = "handler declared shutdown"
        except SimulatorError as exc:
            dead, status = True, "crashed"
            detail = f"{type(exc).__name__}: {exc}"
        finally:
            process.heap.fault_hook = None
            process.heap.post_alloc_hook = None
            process.fs.fault_hook = None
        faults = tuple(injector.event_log()) if injector else ()
        report.outcomes.append(RequestOutcome(
            index=index, status=status, rung="fused", faults=faults,
            detail=detail))
    return report
