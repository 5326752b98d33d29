"""Multi-fault adversarial campaigns: corpus × presets × k-fault space.

The single-fault chaos harness asks "does the wrapped app survive *this*
fault"; the scored attack corpus asks "does the preset contain *this*
exploit".  A :class:`ChaosCampaign` composes both: every corpus attack
runs under every selected preset while a seed-deterministic
:class:`~repro.chaos.multifault.KFaultPlan` injects k ∈ {1..kmax}
substrate faults into the same run.  The k-fault space is pruned by
:class:`~repro.chaos.multifault.SpacePruner` (equivalence classes over
fault sites + domination by escaping singletons) and executed through
the same hardened :class:`~repro.injection.pool.UnitPool` the probe
executor uses — watchdog, dead-worker requeue, live incident stream.

Every record is replayable: ``(attack, preset, seed, trial, k-set)``
reconstructs the exact payload, wrapper deployment and fault schedule,
and :meth:`ChaosCampaign.replay` re-executes one record from just that
tuple (the determinism witness the benchmark asserts on).  Finished
cells land in a fingerprint-gated :class:`~repro.chaos.cache.TrialCache`
so an interrupted campaign resumes without re-executing them; hung
(watchdog-killed) cells are never cached.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.cache import CachedTrial, TrialCache, TrialKey
from repro.chaos.injector import ChaosInjector
from repro.chaos.multifault import KFaultPlan, PruneStats, SpacePruner
from repro.chaos.plan import SITES
from repro.injection.pool import PoolStats, UnitPool
from repro.libc import LibcRegistry
from repro.robust.api import RobustAPIDocument
from repro.runtime import SimProcess
from repro.security.corpus import (
    CORPUS,
    PRESET_CONFIGS,
    Attack,
    run_attack,
)
from repro.telemetry import AttackEvent, EscapeEvent, Sink

#: campaign backends (the corpus closures are not process-portable)
CAMPAIGN_BACKENDS = ("serial", "thread")

#: the presets a campaign scores by default (the wrapped deployments)
DEFAULT_PRESETS = ("security", "robustness", "hardened", "recovery")


class _SerialExecutor(Executor):
    """An inline Executor so the serial path shares the UnitPool loop."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 — mirrored to caller
            future.set_exception(exc)
        return future


@dataclass(frozen=True)
class AdversarialUnit:
    """One executable cell: attack × preset × trial × k-set."""

    attack: str
    preset: str
    seed: int
    trial: int
    kset: Tuple[str, ...]

    def key(self) -> TrialKey:
        return TrialKey(attack=self.attack, preset=self.preset,
                        seed=self.seed, trial=self.trial, kset=self.kset)

    def label(self) -> str:
        return self.key().label()


@dataclass
class AdversarialRecord:
    """Outcome of one cell (replayable from its identity fields)."""

    attack: str
    attack_class: str
    app: str
    preset: str
    seed: int
    trial: int
    kset: Tuple[str, ...]
    verdict: str
    status: Optional[int]
    exception: str
    #: substrate faults that actually fired, in injection order
    faults: Tuple[Tuple[str, int], ...]
    recoveries: Dict[str, int]
    cached: bool = False

    @property
    def k(self) -> int:
        return len(self.kset)

    @property
    def escaped(self) -> bool:
        return self.verdict == "escaped"

    def replay_witness(self) -> dict:
        """Everything needed to reproduce this exact run."""
        return {
            "attack": self.attack,
            "preset": self.preset,
            "seed": self.seed,
            "trial": self.trial,
            "k": self.k,
            "kset": list(self.kset),
        }

    def to_dict(self) -> dict:
        return {
            "attack": self.attack,
            "attack_class": self.attack_class,
            "app": self.app,
            "preset": self.preset,
            "seed": self.seed,
            "trial": self.trial,
            "kset": list(self.kset),
            "k": self.k,
            "verdict": self.verdict,
            "status": self.status,
            "exception": self.exception,
            "faults": [list(fault) for fault in self.faults],
            "recoveries": dict(self.recoveries),
            "cached": self.cached,
        }


@dataclass
class AdversarialReport:
    """Outcome of one adversarial campaign."""

    records: List[AdversarialRecord] = field(default_factory=list)
    prune: PruneStats = field(default_factory=PruneStats)
    pool: PoolStats = field(default_factory=PoolStats)
    cache_hits: int = 0

    def matrix(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """preset -> attack class -> verdict -> count."""
        table: Dict[str, Dict[str, Dict[str, int]]] = {}
        for record in self.records:
            cell = (table.setdefault(record.preset, {})
                    .setdefault(record.attack_class, {}))
            cell[record.verdict] = cell.get(record.verdict, 0) + 1
        return table

    def escapes(self) -> List[AdversarialRecord]:
        return [record for record in self.records if record.escaped]

    def containment_rate(self, preset: str,
                         k: Optional[int] = None) -> float:
        """Fraction of ``preset`` cells (optionally one k) not escaped."""
        rows = [r for r in self.records if r.preset == preset
                and (k is None or r.k == k)]
        if not rows:
            return 1.0
        return sum(not r.escaped for r in rows) / len(rows)

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix(),
            "prune": self.prune.to_dict(),
            "records": [record.to_dict() for record in self.records],
            "escapes": [record.replay_witness()
                        for record in self.escapes()],
            "cache_hits": self.cache_hits,
            "pool": {
                "worker_failures": self.pool.worker_failures,
                "requeued": self.pool.requeued,
                "watchdog_timeouts": self.pool.watchdog_timeouts,
                "lost_units": self.pool.lost_units,
            },
        }


class ChaosCampaign:
    """Corpus × presets × pruned k-fault schedules, drained in parallel.

    Protocol per (attack, preset, seed, trial) cell group:

    1. all k=1 singletons run (one per fault site);
    2. their outcome signatures feed a :class:`SpacePruner`: sites with
       identical signatures collapse to one representative, and any
       singleton that already escaped dominates (= witnesses) every
       superset containing its site;
    3. only the surviving k≥2 sets run.

    Phases 1 and 3 each drain through one hardened :class:`UnitPool`
    across *all* cell groups at once, so parallel workers stay busy
    regardless of how unevenly pruning shrinks individual groups.
    """

    def __init__(
        self,
        registry: LibcRegistry,
        api: Optional[RobustAPIDocument],
        attacks: Optional[Sequence[Attack]] = None,
        presets: Sequence[str] = DEFAULT_PRESETS,
        seeds: Sequence[int] = (2003,),
        trials: int = 2,
        kmax: int = 3,
        #: low by default: fault indices must land inside the few dozen
        #: substrate calls an attack run actually makes, or no k-set
        #: ever fires and the whole space collapses to one class
        horizon: int = 6,
        exec_backend: str = "serial",
        jobs: int = 2,
        watchdog: Optional[float] = None,
        unit_retries: int = 2,
        cache: Optional[TrialCache] = None,
        sinks: Sequence[Sink] = (),
        on_incident: Optional[Callable[[str], None]] = None,
    ):
        if exec_backend not in CAMPAIGN_BACKENDS:
            raise ValueError(
                f"unknown campaign backend {exec_backend!r}; "
                f"known: {', '.join(CAMPAIGN_BACKENDS)}"
            )
        unknown = [name for name in presets if name not in PRESET_CONFIGS]
        if unknown:
            raise ValueError(f"unknown presets: {', '.join(unknown)}")
        self.registry = registry
        self.api = api
        self.attacks = list(attacks) if attacks is not None else list(CORPUS)
        self.presets = tuple(presets)
        self.seeds = tuple(seeds)
        self.trials = trials
        self.kmax = kmax
        self.horizon = horizon
        self.exec_backend = exec_backend
        self.jobs = max(1, jobs)
        self.watchdog = watchdog
        self.unit_retries = unit_retries
        self.cache = cache
        self.sinks = list(sinks)
        self.on_incident = on_incident
        self._by_name = {attack.name: attack for attack in self.attacks}

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash every cached verdict is gated on."""
        digest = hashlib.sha256()
        payload = {
            "registry": self.registry.fingerprint(),
            "attacks": {attack.name:
                        hashlib.sha256(attack.payload()).hexdigest()
                        for attack in self.attacks},
            "presets": list(self.presets),
            "seeds": list(self.seeds),
            "trials": self.trials,
            "kmax": self.kmax,
            "horizon": self.horizon,
        }
        digest.update(json.dumps(payload, sort_keys=True).encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # one cell
    # ------------------------------------------------------------------

    def execute_unit(self, unit: AdversarialUnit) -> AdversarialRecord:
        """Run one attack under one preset with the unit's fault set."""
        attack = self._by_name[unit.attack]
        preset = PRESET_CONFIGS[unit.preset]
        plan = KFaultPlan.for_sites(unit.seed, unit.trial, unit.kset,
                                    horizon=self.horizon)
        injector = ChaosInjector(plan.to_plan(horizon=self.horizon))
        process = SimProcess(**attack.process_kwargs)
        injector.arm_heap(process.heap)
        injector.arm_filesystem(process.fs)
        run = run_attack(attack, preset, self.registry, self.api,
                         process=process)
        return AdversarialRecord(
            attack=attack.name,
            attack_class=attack.attack_class,
            app=attack.app.name,
            preset=preset.name,
            seed=unit.seed,
            trial=unit.trial,
            kset=unit.kset,
            verdict=run.verdict,
            status=run.status,
            exception=run.exception,
            faults=tuple(injector.event_log()),
            recoveries=dict(run.recoveries),
        )

    def replay(self, witness: dict) -> AdversarialRecord:
        """Re-execute one record from its replay witness (cache-free)."""
        unit = AdversarialUnit(
            attack=str(witness["attack"]),
            preset=str(witness["preset"]),
            seed=int(witness["seed"]),
            trial=int(witness["trial"]),
            kset=tuple(str(site) for site in witness["kset"]),
        )
        return self.execute_unit(unit)

    # ------------------------------------------------------------------
    # the campaign
    # ------------------------------------------------------------------

    @staticmethod
    def _signature(record: AdversarialRecord) -> Tuple:
        """The singleton outcome signature equivalence classes use.

        Site names are erased (that is what is being classified); what
        remains is observable behaviour: verdict, exception, exit
        status, the invocation indices that actually fired and the
        recovery actions taken.
        """
        return (
            record.verdict,
            record.exception,
            record.status,
            tuple(index for _site, index in record.faults),
            tuple(sorted(record.recoveries.items())),
        )

    def _pool_factory(self) -> Executor:
        if self.exec_backend == "thread":
            return ThreadPoolExecutor(max_workers=self.jobs)
        return _SerialExecutor()

    def _drain(self, units: List[AdversarialUnit],
               report: AdversarialReport,
               sink: Dict[TrialKey, AdversarialRecord]) -> None:
        """Run every unit (cache-aware) through one hardened pool pass."""
        fresh: List[AdversarialUnit] = []
        for unit in units:
            cached = self.cache.lookup(unit.key()) if self.cache else None
            if cached is not None:
                record = self._record_from_cache(unit, cached)
                report.cache_hits += 1
                self._absorb(record, report, sink)
            else:
                fresh.append(unit)
        if not fresh:
            return

        def on_result(unit: AdversarialUnit,
                      record: AdversarialRecord) -> None:
            if self.cache is not None:
                self.cache.record(unit.key(), CachedTrial(
                    verdict=record.verdict,
                    status=record.status,
                    exception=record.exception,
                    faults=record.faults,
                    recoveries=dict(record.recoveries),
                ))
            self._absorb(record, report, sink)

        def on_timeout(unit: AdversarialUnit) -> str:
            # synthesized, not observed — never cached, so a resumed
            # campaign re-executes the cell
            attack = self._by_name[unit.attack]
            self._absorb(AdversarialRecord(
                attack=attack.name,
                attack_class=attack.attack_class,
                app=attack.app.name,
                preset=unit.preset,
                seed=unit.seed,
                trial=unit.trial,
                kset=unit.kset,
                verdict="hang",
                status=None,
                exception="Hang",
                faults=(),
                recoveries={},
            ), report, sink)
            return "cell classified HANG (not cached)"

        pool = UnitPool(
            self._pool_factory,
            self.execute_unit,
            watchdog=self.watchdog,
            unit_retries=self.unit_retries,
            describe=lambda unit: unit.label(),
            on_incident=self.on_incident,
        )
        pool.drain(fresh, on_result, on_timeout)
        report.pool.worker_failures += pool.stats.worker_failures
        report.pool.requeued += pool.stats.requeued
        report.pool.watchdog_timeouts += pool.stats.watchdog_timeouts
        report.pool.lost_units += pool.stats.lost_units
        report.pool.incidents.extend(pool.stats.incidents)

    def _record_from_cache(self, unit: AdversarialUnit,
                           cached: CachedTrial) -> AdversarialRecord:
        attack = self._by_name[unit.attack]
        return AdversarialRecord(
            attack=attack.name,
            attack_class=attack.attack_class,
            app=attack.app.name,
            preset=unit.preset,
            seed=unit.seed,
            trial=unit.trial,
            kset=unit.kset,
            verdict=cached.verdict,
            status=cached.status,
            exception=cached.exception,
            faults=cached.faults,
            recoveries=dict(cached.recoveries),
            cached=True,
        )

    def _absorb(self, record: AdversarialRecord,
                report: AdversarialReport,
                sink: Dict[TrialKey, AdversarialRecord]) -> None:
        report.records.append(record)
        sink[TrialKey(attack=record.attack, preset=record.preset,
                      seed=record.seed, trial=record.trial,
                      kset=record.kset)] = record
        events: List = [AttackEvent(
            attack=record.attack, attack_class=record.attack_class,
            preset=record.preset, app=record.app, verdict=record.verdict,
        )]
        if record.escaped:
            events.append(EscapeEvent(
                attack=record.attack, preset=record.preset,
                app=record.app, seed=record.seed, trial=record.trial,
                k=record.k, faults=record.faults,
            ))
        for sink_ in self.sinks:
            sink_.handle_batch(events)

    def run(self) -> AdversarialReport:
        """Execute the pruned space: singletons, prune, survivors."""
        report = AdversarialReport()
        outcomes: Dict[TrialKey, AdversarialRecord] = {}

        groups = [
            (attack, preset, seed, trial)
            for attack in self.attacks
            for preset in self.presets
            for seed in self.seeds
            for trial in range(self.trials)
        ]

        # phase 1: every singleton of every cell group, one pool pass
        singletons = [
            AdversarialUnit(attack=attack.name, preset=preset, seed=seed,
                            trial=trial, kset=(site,))
            for attack, preset, seed, trial in groups
            for site in SITES
        ]
        self._drain(singletons, report, outcomes)

        # phase 2 (barrier): prune each group on its singleton outcomes
        survivors: List[AdversarialUnit] = []
        for attack, preset, seed, trial in groups:
            pruner = SpacePruner(sites=SITES, kmax=self.kmax)
            for site in SITES:
                key = TrialKey(attack=attack.name, preset=preset,
                               seed=seed, trial=trial, kset=(site,))
                record = outcomes.get(key)
                if record is None:  # lost/hung singleton: assume unique
                    pruner.observe(site, ("lost", site), escaped=False)
                    continue
                pruner.observe(site, self._signature(record),
                               escaped=record.escaped)
            survivors.extend(
                AdversarialUnit(attack=attack.name, preset=preset,
                                seed=seed, trial=trial, kset=kset)
                for kset in pruner.surviving_ksets()
            )
            report.prune.merge(pruner.stats)

        # phase 3: the surviving k>=2 sets, one pool pass
        self._drain(survivors, report, outcomes)
        return report
