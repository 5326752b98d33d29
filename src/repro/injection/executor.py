"""Parallel, resumable execution of fault-injection campaigns.

The serial :class:`~repro.injection.campaign.Campaign` walks the probe
matrix one probe at a time.  The :class:`ProbeExecutor` partitions the
same matrix — (function × parameter × test value) — into per-function
work units and runs them across a :mod:`concurrent.futures` pool:

* ``serial``  — in-process, no pool; the reference backend.
* ``thread``  — a :class:`~concurrent.futures.ThreadPoolExecutor`
  sharing the parent's campaign (each thread restores its own
  :class:`~repro.runtime.SimProcess` to pristine before every probe,
  building a new one when restore cannot prove it pristine, so workers
  never share mutable simulator state).
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`;
  each worker rebuilds the campaign from a picklable registry factory,
  recycles its own probe process the same way, and ships verdicts back
  in portable form (real parallelism, the fork-per-probe harness of the
  paper as a fork server per worker).

Whatever the backend, records are reassembled in probe-plan order, so a
``--jobs 4`` run produces byte-identical store XML to a serial run.

A :class:`~repro.injection.cache.ProbeCache` layered underneath serves
verdicts for probes whose identity is unchanged; only the deltas
execute, which is what makes ``--resume`` after an interrupt (or after a
partial library update) cheap.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import Outcome, WatchdogTimeout
from repro.injection.cache import CachedVerdict, ProbeCache
from repro.injection.pool import UnitPool
from repro.injection.campaign import (
    Campaign,
    CampaignResult,
    FunctionReport,
    Probe,
    ProbeExecution,
    ProbeRecord,
)
from repro.libc.registry import LibcRegistry
from repro.runtime import ProbeResult
from repro.telemetry import EventBus, ProbeEvent

BACKENDS = ("serial", "thread", "process")

#: a work unit: one function plus the subset of its matrix to execute,
#: each probe addressed by (param_index, value_label)
WorkUnit = Tuple[str, Tuple[Tuple[int, str], ...]]

#: portable execution: the probe plus either a portable result or a
#: setup-error string — everything here pickles across processes
PortableExecution = Tuple[Probe, Optional[dict], str]


@dataclass
class CampaignStats:
    """Execution accounting for one campaign run."""

    planned: int = 0        #: probes in the enumerated matrix
    cached: int = 0         #: verdicts served from the cache
    executed: int = 0       #: fresh probes actually run
    setup_errors: int = 0   #: probes whose golden construction failed
    functions: int = 0      #: functions probed
    skipped: int = 0        #: functions skipped (unknown / zero-param)
    jobs: int = 1
    backend: str = "serial"
    #: work units whose worker raised or died before delivering results
    worker_failures: int = 0
    #: failed units resubmitted (each bounded by ``unit_retries``)
    requeued: int = 0
    #: work units killed by the wall-clock watchdog (probes became HANGs)
    watchdog_timeouts: int = 0
    #: units dropped after exhausting their retry budget
    lost_units: int = 0
    #: human-readable log of every failure/timeout/requeue above
    incidents: List[str] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        return self.cached / self.planned if self.planned else 0.0

    def describe(self) -> str:
        line = (
            f"{self.planned} probes over {self.functions} functions: "
            f"{self.cached} cached ({self.cache_hit_rate:.0%}), "
            f"{self.executed} executed "
            f"[{self.backend} x{self.jobs}]"
        )
        if self.worker_failures or self.watchdog_timeouts or self.lost_units:
            line += (
                f" — {self.worker_failures} worker failures"
                f" ({self.requeued} requeued, {self.lost_units} lost),"
                f" {self.watchdog_timeouts} watchdog timeouts"
            )
        return line


# ----------------------------------------------------------------------
# process-pool worker side
# ----------------------------------------------------------------------

_WORKER_CAMPAIGN: Optional[Campaign] = None


def _init_worker(registry_factory: Callable[[], LibcRegistry],
                 fuel: int) -> None:
    """Build the per-worker campaign once, at pool start-up."""
    global _WORKER_CAMPAIGN
    _WORKER_CAMPAIGN = Campaign(registry_factory(), fuel=fuel)


def _run_unit_in_worker(unit: WorkUnit) -> List[PortableExecution]:
    """Execute one work unit inside a pool process."""
    assert _WORKER_CAMPAIGN is not None, "worker pool not initialised"
    return [
        (execution.probe,
         execution.result.to_portable() if execution.result else None,
         execution.setup_error)
        for execution in _execute_unit(_WORKER_CAMPAIGN, unit)
    ]


def _execute_unit(campaign: Campaign,
                  unit: WorkUnit) -> List[ProbeExecution]:
    """Run the selected subset of one function's probe plan."""
    name, selected = unit
    wanted = set(selected)
    executions: List[ProbeExecution] = []
    for probe, value in campaign.probe_plan(name):
        if (probe.param_index, probe.value_label) in wanted:
            executions.append(campaign.execute_probe(probe, value))
    return executions


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------

class ProbeExecutor:
    """Runs a campaign's probe matrix across a worker pool with a cache.

    Results are identical to :meth:`Campaign.run` — same records in the
    same order — regardless of ``jobs``, ``backend``, or how many
    verdicts came from the cache.
    """

    def __init__(
        self,
        campaign: Campaign,
        jobs: int = 1,
        backend: str = "serial",
        cache: Optional[ProbeCache] = None,
        registry_factory: Optional[Callable[[], LibcRegistry]] = None,
        bus: Optional[EventBus] = None,
        watchdog: Optional[float] = None,
        unit_retries: int = 2,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
            )
        if backend == "process":
            if campaign.interposer is not None:
                raise ValueError(
                    "the process backend cannot ship interposer closures "
                    "to workers; use the thread or serial backend"
                )
            if registry_factory is None:
                raise ValueError(
                    "the process backend needs a picklable registry_factory "
                    "(e.g. repro.libc.standard_registry) so each worker can "
                    "rebuild the library"
                )
        self.campaign = campaign
        self.jobs = max(1, jobs if jobs > 0 else (os.cpu_count() or 1))
        self.backend = backend
        self.cache = cache
        self.registry_factory = registry_factory
        #: telemetry bus receiving one ProbeEvent per verdict (cached
        #: included) — progress displays and metrics are just sinks
        self.bus = bus
        #: wall-clock seconds a work unit may run before its probes are
        #: classified as HANGs (None/0 = no watchdog); bounds *host*
        #: time, complementing fuel, which bounds *simulated* work
        self.watchdog = watchdog if watchdog else None
        #: how many times a unit whose worker died is resubmitted
        self.unit_retries = max(0, unit_retries)
        self.stats = CampaignStats()

    # ------------------------------------------------------------------

    def run(self, names: Optional[Iterable[str]] = None) -> CampaignResult:
        """Probe every (named) function; merge cached + fresh verdicts."""
        campaign = self.campaign
        registry = campaign.registry
        self.stats = CampaignStats(jobs=self.jobs, backend=self.backend)
        result = CampaignResult(library=registry.library_name)

        targets = list(names) if names is not None else registry.names()
        plans: Dict[str, List[Probe]] = {}
        for name in targets:
            function = registry.get(name)
            if function is None or not function.prototype.params:
                result.skipped.append(name)
                self.stats.skipped += 1
                continue
            plans[name] = campaign.enumerate_probes(name)
        self.stats.functions = len(plans)
        self.stats.planned = sum(len(plan) for plan in plans.values())

        cached, units = self._partition(plans)
        fresh = self._execute_units(units)

        for name, plan in plans.items():
            report = FunctionReport(function=name)
            verdicts = {**cached.get(name, {}), **fresh.get(name, {})}
            for probe in plan:
                execution = verdicts.get((probe.param_index,
                                          probe.value_label))
                if execution is None:
                    continue  # unit lost to a worker fault; counted fresh=0
                campaign.absorb(report, execution, notify=False)
                if execution.setup_error:
                    self.stats.setup_errors += 1
            result.reports[name] = report
        return result

    # ------------------------------------------------------------------
    # partition: cache hits vs. work units
    # ------------------------------------------------------------------

    def _partition(
        self, plans: Dict[str, List[Probe]]
    ) -> Tuple[Dict[str, Dict[Tuple[int, str], ProbeExecution]],
               List[WorkUnit]]:
        cached: Dict[str, Dict[Tuple[int, str], ProbeExecution]] = {}
        units: List[WorkUnit] = []
        fuel = self.campaign.fuel
        for name, plan in plans.items():
            misses: List[Tuple[int, str]] = []
            for probe in plan:
                verdict = (self.cache.lookup(probe, fuel)
                           if self.cache is not None else None)
                if verdict is None:
                    misses.append((probe.param_index, probe.value_label))
                    continue
                execution = self._execution_from_cache(probe, verdict)
                cached.setdefault(name, {})[
                    (probe.param_index, probe.value_label)
                ] = execution
                self.stats.cached += 1
                self._notify(execution, cached=True)
            if misses:
                units.append((name, tuple(misses)))
        return cached, units

    @staticmethod
    def _execution_from_cache(probe: Probe,
                              verdict: CachedVerdict) -> ProbeExecution:
        if verdict.is_setup_error:
            return ProbeExecution(probe=probe,
                                  setup_error=verdict.setup_error)
        return ProbeExecution(probe=probe, result=verdict.to_result())

    # ------------------------------------------------------------------
    # execution backends
    # ------------------------------------------------------------------

    def _execute_units(
        self, units: List[WorkUnit]
    ) -> Dict[str, Dict[Tuple[int, str], ProbeExecution]]:
        if not units:
            return {}
        if self.backend == "serial" or self.jobs == 1:
            executions: List[ProbeExecution] = []
            for unit in units:
                executions.extend(self._absorb_fresh(
                    _execute_unit(self.campaign, unit)
                ))
            return self._index(executions)
        if self.backend == "thread":
            return self._drain(
                lambda: ThreadPoolExecutor(max_workers=self.jobs),
                units, self._run_unit_in_thread,
            )
        return self._drain(
            lambda: ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self.registry_factory, self.campaign.fuel),
            ),
            units, _run_unit_in_worker, portable=True,
        )

    def _run_unit_in_thread(self, unit: WorkUnit) -> List[ProbeExecution]:
        return _execute_unit(self.campaign, unit)

    def _drain(
        self,
        pool_factory: Callable,
        units: List[WorkUnit],
        runner: Callable,
        portable: bool = False,
    ) -> Dict[str, Dict[Tuple[int, str], ProbeExecution]]:
        """Drain the units through the shared hardened :class:`UnitPool`.

        The pool owns the watchdog deadlines, the dead-worker requeue
        and the pool-rebuild logic (see :mod:`repro.injection.pool`);
        this adapter turns raw unit results into absorbed probe
        executions and synthesizes HANG verdicts for timed-out units.

        Synthesized HANG verdicts are *not* written to the probe cache:
        a host-side stall says nothing about the probe's identity, so a
        resumed run must re-execute it.
        """
        executions: List[ProbeExecution] = []

        def on_result(unit: WorkUnit, raw) -> None:
            batch = (self._revive(raw) if portable else raw)
            executions.extend(self._absorb_fresh(batch))

        def on_timeout(unit: WorkUnit) -> str:
            executions.extend(self._hang_unit(unit))
            return f"{len(unit[1])} probes classified HANG"

        pool = UnitPool(
            pool_factory, runner,
            watchdog=self.watchdog,
            unit_retries=self.unit_retries,
            describe=lambda unit: unit[0],
            on_incident=self._incident,
        )
        pool.drain(units, on_result, on_timeout)
        self.stats.worker_failures += pool.stats.worker_failures
        self.stats.requeued += pool.stats.requeued
        self.stats.watchdog_timeouts += pool.stats.watchdog_timeouts
        self.stats.lost_units += pool.stats.lost_units
        return self._index(executions)

    def _hang_unit(self, unit: WorkUnit) -> List[ProbeExecution]:
        """Synthesize HANG verdicts for every probe a timed-out unit owned."""
        name, selected = unit
        wanted = set(selected)
        timeout = WatchdogTimeout(self.watchdog, where=f"unit {name}")
        executions: List[ProbeExecution] = []
        for probe, _value in self.campaign.probe_plan(name):
            if (probe.param_index, probe.value_label) not in wanted:
                continue
            execution = ProbeExecution(
                probe=probe,
                result=ProbeResult(outcome=Outcome.HANG,
                                   exception=timeout),
            )
            # deliberately NOT fed to the cache: a host-side stall is
            # not a property of the probe, so resume re-executes it
            self._notify(execution)
            executions.append(execution)
        return executions

    def _incident(self, message: str) -> None:
        self.stats.incidents.append(message)
        observer = self.campaign.observer
        if observer is not None and hasattr(observer, "incident"):
            observer.incident(message)

    @staticmethod
    def _revive(batch: List[PortableExecution]) -> List[ProbeExecution]:
        return [
            ProbeExecution(
                probe=probe,
                result=(ProbeResult.from_portable(portable)
                        if portable is not None else None),
                setup_error=setup_error,
            )
            for probe, portable, setup_error in batch
        ]

    def _absorb_fresh(
        self, batch: List[ProbeExecution]
    ) -> List[ProbeExecution]:
        """Count fresh executions, feed the cache, notify the observer.

        Runs in the parent as each work unit completes, so observers see
        live progress without needing to be picklable or thread-safe.
        """
        fuel = self.campaign.fuel
        for execution in batch:
            self.stats.executed += 1
            if self.cache is not None:
                self.cache.record(
                    execution.probe, fuel,
                    result=execution.result,
                    setup_error=execution.setup_error,
                )
            self._notify(execution)
        return batch

    def _notify(self, execution: ProbeExecution,
                cached: bool = False) -> None:
        if execution.result is None:
            return
        observer = self.campaign.observer
        if observer is not None:
            observer(execution.probe, execution.result)
        if self.bus is not None:
            probe = execution.probe
            outcome = execution.result.outcome
            self.bus.emit(
                ProbeEvent(
                    function=probe.function,
                    param=probe.param_name,
                    value_label=probe.value_label,
                    outcome=outcome.name,
                    failed=outcome.is_robustness_failure,
                    cached=cached,
                )
            )

    @staticmethod
    def _index(
        executions: List[ProbeExecution]
    ) -> Dict[str, Dict[Tuple[int, str], ProbeExecution]]:
        indexed: Dict[str, Dict[Tuple[int, str], ProbeExecution]] = {}
        for execution in executions:
            probe = execution.probe
            indexed.setdefault(probe.function, {})[
                (probe.param_index, probe.value_label)
            ] = execution
        return indexed
