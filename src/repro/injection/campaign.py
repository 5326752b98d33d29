"""The automated fault-injection campaign (Fig. 2).

For every function in a library the campaign builds a golden argument
vector, then varies one parameter at a time over its test-value
dictionary, running each probe in a pristine sandboxed process and
classifying the outcome on the CRASH scale.  The per-(parameter, value)
verdicts feed the robust-API derivation in :mod:`repro.robust`.

Each executing thread keeps one probe process, checkpointed once the
golden arguments of the function it probes are built, and restores it
to that checkpoint before every later probe of the function: the
deferred fork-server form of Ballista's fresh child per test case.
When the restore cannot prove the process equal to the checkpoint, or
the thread moves on to another function, a new one is built.

A probe that returns normally is additionally screened by a post-probe
heap-consistency walk; a PASS with corrupted heap metadata is reclassified
as SILENT (a Ballista "Silent" failure) — the damage a one-byte-overflow
write does without faulting.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import Outcome
from repro.ftypes import ProbeContext, TestValue, chain_id_for, test_values_for
from repro.libc.registry import LibcRegistry, LibFunction
from repro.manpages import load_corpus
from repro.manpages.model import ManPage
from repro.runtime import DEFAULT_PROBE_FUEL, ProbeResult, Sandbox, SimProcess


@dataclass(frozen=True)
class Probe:
    """Identity of one injection experiment."""

    function: str
    param_index: int
    param_name: str
    chain: str
    value_label: str
    max_rank: int


@dataclass
class ProbeRecord:
    """One probe plus its classified outcome."""

    probe: Probe
    result: ProbeResult

    @property
    def outcome(self) -> Outcome:
        return self.result.outcome

    @property
    def failed(self) -> bool:
        return self.result.outcome.is_robustness_failure


@dataclass
class FunctionReport:
    """All probe records for one function."""

    function: str
    records: List[ProbeRecord] = field(default_factory=list)
    #: probes that could not be set up (golden construction failed)
    setup_errors: List[str] = field(default_factory=list)

    @property
    def total_probes(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> List[ProbeRecord]:
        return [r for r in self.records if r.failed]

    @property
    def failure_rate(self) -> float:
        if not self.records:
            return 0.0
        return len(self.failures) / len(self.records)

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            key = record.outcome.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def records_for_param(self, param_name: str) -> List[ProbeRecord]:
        return [r for r in self.records if r.probe.param_name == param_name]


@dataclass
class ProbeExecution:
    """Outcome of attempting one probe: a verdict or a setup failure.

    Exactly one of ``result`` and ``setup_error`` is set.  This is the
    unit the parallel executor ships between workers and the parent.
    """

    probe: Probe
    result: Optional[ProbeResult] = None
    setup_error: str = ""


@dataclass
class CampaignResult:
    """Results of a whole-library campaign."""

    library: str
    reports: Dict[str, FunctionReport] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)

    @property
    def total_probes(self) -> int:
        return sum(r.total_probes for r in self.reports.values())

    @property
    def total_failures(self) -> int:
        return sum(len(r.failures) for r in self.reports.values())

    @property
    def failure_rate(self) -> float:
        total = self.total_probes
        return self.total_failures / total if total else 0.0

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for report in self.reports.values():
            for key, value in report.outcome_counts().items():
                counts[key] = counts.get(key, 0) + value
        return counts

    def functions_with_failures(self) -> List[str]:
        return sorted(
            name for name, report in self.reports.items() if report.failures
        )


#: hook type for observing each probe (progress reporting, tests)
ProbeObserver = Callable[[Probe, ProbeResult], None]


class Campaign:
    """Drives fault injection over one library registry."""

    def __init__(
        self,
        registry: LibcRegistry,
        manpages: Optional[Dict[str, ManPage]] = None,
        fuel: int = DEFAULT_PROBE_FUEL,
        interposer: Optional[Callable[[LibFunction], Callable]] = None,
        observer: Optional[ProbeObserver] = None,
    ):
        self.registry = registry
        self.manpages = manpages if manpages is not None else load_corpus()
        self.fuel = fuel
        #: optional wrapper factory: probe through a wrapper instead of the
        #: raw function (used for the before/after robustness comparison)
        self.interposer = interposer
        self.observer = observer
        self.sandbox = Sandbox()
        #: per-thread checkpointed probe process (see :meth:`probe_process`)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------

    def probe_plan(self, name: str) -> List[Tuple[Probe, TestValue]]:
        """Enumerate the probe matrix of one function, without executing.

        The order is deterministic (parameter order × dictionary order)
        and is the canonical record order of a :class:`FunctionReport`,
        whichever worker actually executes each probe.
        """
        function = self.registry[name]
        manpage = self.manpages.get(name)
        plan: List[Tuple[Probe, TestValue]] = []
        for index, param in enumerate(function.prototype.params):
            role = manpage.role_of(param.name) if manpage else None
            chain = chain_id_for(param, role)
            for value in test_values_for(param, role):
                probe = Probe(
                    function=name,
                    param_index=index,
                    param_name=param.name,
                    chain=chain,
                    value_label=value.label,
                    max_rank=value.max_rank,
                )
                plan.append((probe, value))
        return plan

    def enumerate_probes(self, name: str) -> List[Probe]:
        """The probe identities of one function's sweep."""
        return [probe for probe, _ in self.probe_plan(name)]

    def probe_function(self, name: str) -> FunctionReport:
        """Run the full per-parameter sweep for one function."""
        report = FunctionReport(function=name)
        for probe, value in self.probe_plan(name):
            execution = self.execute_probe(probe, value)
            self.absorb(report, execution)
        return report

    def absorb(self, report: FunctionReport, execution: ProbeExecution,
               notify: bool = True) -> None:
        """File one execution into a report, firing the observer.

        The parallel executor files with ``notify=False`` because it
        already notified the observer live, as each work unit completed.
        """
        if execution.setup_error:
            report.setup_errors.append(execution.setup_error)
            return
        assert execution.result is not None
        report.records.append(
            ProbeRecord(probe=execution.probe, result=execution.result)
        )
        if notify and self.observer is not None:
            self.observer(execution.probe, execution.result)

    def probe_process(
        self, function: LibFunction
    ) -> Tuple[SimProcess, ProbeContext]:
        """The calling thread's probe process at ``function``'s golden
        checkpoint, and a context of the probe's own over it.

        Every probe path takes its process here: restored to the
        thread's checkpoint when it belongs to ``function`` and
        :meth:`SimProcess.restore` succeeds, else a new
        ``SimProcess(fuel=self.fuel)`` whose goldens are built and then
        checkpointed.  A golden build that raises checkpoints nothing.
        """
        local = self._local
        process = getattr(local, "process", None)
        if (process is not None and local.function is function
                and process.restore() and process.fuel == self.fuel):
            return process, local.context.copy()
        # built before the old process is freed: freed first, its memory
        # goes back to the OS and is faulted in again (~4x the cost)
        process = SimProcess(fuel=self.fuel)
        local.process = local.context = None
        context = ProbeContext(process, function.prototype,
                               self.manpages.get(function.name))
        context.build_goldens()
        process.checkpoint()
        local.process, local.function, local.context = \
            process, function, context
        return process, context.copy()

    def execute_probe(self, probe: Probe, value: TestValue) -> ProbeExecution:
        """Run one probe in a process at its function's golden checkpoint
        and classify the outcome."""
        function = self.registry[probe.function]
        param = function.prototype.params[probe.param_index]
        try:
            process, ctx = self.probe_process(function)
            args = [ctx.golden[p.name] for p in function.prototype.params]
            args[probe.param_index] = value.materialize(ctx, param)
        except Exception as exc:  # setup failure, not a probe verdict
            return ProbeExecution(
                probe=probe,
                setup_error=f"{function.name}/{param.name}/"
                            f"{value.label}: {exc}",
            )
        target = function.impl
        if self.interposer is not None:
            target = self.interposer(function)
        result = self.sandbox.run(
            process,
            lambda: target(process, *args, *ctx.varargs),
            function.error_detector,
        )
        if result.outcome == Outcome.PASS:
            problems = process.heap.check_integrity()
            if problems:
                result.outcome = Outcome.SILENT
        return ProbeExecution(probe=probe, result=result)

    # ------------------------------------------------------------------
    # campaign
    # ------------------------------------------------------------------

    def run(self, names: Optional[Iterable[str]] = None) -> CampaignResult:
        """Probe every (named) function with at least one parameter."""
        result = CampaignResult(library=self.registry.library_name)
        targets = list(names) if names is not None else self.registry.names()
        for name in targets:
            function = self.registry.get(name)
            if function is None:
                result.skipped.append(name)
                continue
            if not function.prototype.params:
                result.skipped.append(name)  # nothing to inject
                continue
            result.reports[name] = self.probe_function(name)
        return result
