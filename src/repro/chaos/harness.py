"""The chaos harness: fault-inject the toolkit's own substrate.

Each trial builds a fresh wrapped system (process, linker, preloaded
wrapper library), arms a seed-derived :class:`ChaosPlan` against the
heap allocator and filesystem, runs one of the demo applications, and
records whether the application *survived* — no simulator fault escaped
to the top — together with the exact fault log and the recovery actions
the wrappers took.

Because every source of variation is seeded (the plan) or rebuilt per
trial (the process and wrapper state), a campaign is a pure function of
``(seed, policy)``: the regression suite asserts the full event stream
is identical across repeated runs, and identical to a run whose
wrappers come from the tests' per-call reference composer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import (
    CSVSTAT,
    KVD,
    MSGFORMAT,
    WORDCOUNT,
    SimApp,
    run_app,
    standard_files,
)
from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import ChaosPlan
from repro.libc import LibcRegistry
from repro.linker import DynamicLinker, SharedLibrary
from repro.recovery import self_healing_policy
from repro.robust.api import RobustAPIDocument
from repro.runtime import SimProcess
from repro.security.policy import SecurityPolicy
from repro.telemetry import MetricsSink
from repro.wrappers import RECOVERY, WrapperFactory, WrapperSpec
from repro.wrappers.presets import default_generator_registry


@dataclass
class ChaosScenario:
    """One demo workload the harness can aim faults at."""

    app: SimApp
    argv: List[str] = field(default_factory=list)
    stdin: bytes = b""
    files: Dict[str, bytes] = field(default_factory=dict)


def standard_scenarios() -> Dict[str, ChaosScenario]:
    """The demo workloads (mirroring the app test suite's shapes)."""
    return {
        "wordcount": ChaosScenario(
            app=WORDCOUNT, argv=["/data/sample.txt"],
            files=standard_files(),
        ),
        "csvstat": ChaosScenario(
            app=CSVSTAT, argv=["/data/values.csv"],
            files=standard_files(),
        ),
        "msgformat": ChaosScenario(
            app=MSGFORMAT, stdin=b"ECHO hi\nADD 40 2\nQUIT\n",
        ),
        # the serving anchor app, driven run-to-EOF: faults can land
        # mid-request with live heap state (stored keys and values)
        "kvd": ChaosScenario(
            app=KVD,
            stdin=(b"SET alpha one\nSET beta twenty-two\nGET alpha\n"
                   b"GET beta\nGET missing\nDEL alpha\nGET alpha\nQUIT\n"),
        ),
    }


@dataclass
class TrialOutcome:
    """One application run under one fault plan."""

    app: str
    trial: int
    plan_seed: int
    survived: bool
    status: Optional[int]
    exception: str = ""
    #: faults that actually fired, in injection order
    faults: List[Tuple[str, int]] = field(default_factory=list)
    #: recovery actions taken, by action name
    recoveries: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "trial": self.trial,
            "plan_seed": self.plan_seed,
            "survived": self.survived,
            "status": self.status,
            "exception": self.exception,
            "faults": [list(fault) for fault in self.faults],
            "recoveries": dict(self.recoveries),
        }


@dataclass
class ChaosReport:
    """Outcome of one chaos campaign."""

    seed: int
    trials: List[TrialOutcome] = field(default_factory=list)

    @property
    def containment_rate(self) -> float:
        """Fraction of trials the application survived."""
        if not self.trials:
            return 1.0
        return sum(t.survived for t in self.trials) / len(self.trials)

    def faults_fired(self) -> int:
        return sum(len(t.faults) for t in self.trials)

    def event_log(self) -> List[Tuple[str, int, str, int]]:
        """Ordered (app, trial, site, call_index) determinism witness."""
        return [
            (t.app, t.trial, site, index)
            for t in self.trials for site, index in t.faults
        ]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "containment_rate": self.containment_rate,
            "faults_fired": self.faults_fired(),
            "trials": [t.to_dict() for t in self.trials],
        }


class ChaosHarness:
    """Seed-deterministic chaos campaigns over the demo applications."""

    def __init__(
        self,
        registry: LibcRegistry,
        api: Optional[RobustAPIDocument] = None,
        policy: Optional[SecurityPolicy] = None,
        spec: WrapperSpec = RECOVERY,
        seed: int = 0,
        horizon: int = 200,
        rate: float = 0.05,
        scenarios: Optional[Dict[str, ChaosScenario]] = None,
    ):
        self.registry = registry
        self.api = api
        self.policy = policy if policy is not None else SecurityPolicy(
            recovery=self_healing_policy()
        )
        self.spec = spec
        self.seed = seed
        self.horizon = horizon
        self.rate = rate
        self.scenarios = (scenarios if scenarios is not None
                          else standard_scenarios())

    # ------------------------------------------------------------------

    def run_trial(self, name: str, trial: int) -> TrialOutcome:
        """One app run under the trial's derived fault plan."""
        scenario = self.scenarios[name]
        plan = ChaosPlan.for_trial(self.seed, trial,
                                   horizon=self.horizon, rate=self.rate)
        injector = ChaosInjector(plan)

        # a fresh process and wrapper library per trial: wrapper state
        # (the size table) must not alias heap addresses across runs
        process = SimProcess(heap_canaries=True)
        injector.arm_heap(process.heap)
        injector.arm_filesystem(process.fs)

        linker = DynamicLinker()
        linker.add_library(SharedLibrary.from_registry(self.registry))
        metrics = MetricsSink()
        factory = WrapperFactory(
            self.registry, self.api,
            generators=default_generator_registry(self.policy),
        )
        built = factory.preload(linker, self.spec, sinks=[metrics])
        result = run_app(scenario.app, linker, argv=list(scenario.argv),
                         stdin=scenario.stdin, files=dict(scenario.files),
                         process=process)
        built.bus.flush()
        return TrialOutcome(
            app=name,
            trial=trial,
            plan_seed=plan.seed,
            survived=result.exception is None,
            status=result.status,
            exception=(type(result.exception).__name__
                       if result.exception is not None else ""),
            faults=injector.event_log(),
            recoveries={action: count for action, count
                        in sorted(metrics.recoveries.items())},
        )

    def run(self, trials: int = 5,
            apps: Optional[Sequence[str]] = None) -> ChaosReport:
        """``trials`` fault plans against each selected application."""
        report = ChaosReport(seed=self.seed)
        names = list(apps) if apps is not None else sorted(self.scenarios)
        for name in names:
            for trial in range(trials):
                report.trials.append(self.run_trial(name, trial))
        return report
