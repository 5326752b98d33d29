"""Pairwise fault injection: two parameters varied simultaneously.

Single-parameter sweeps (the default campaign) attribute each failure to
one argument, which is what the robust-type derivation needs.  Ballista's
methodology also drives *tuples* of exceptional values; the interesting
finds are **interaction failures** — argument pairs that fail although
each value, injected alone against goldens, passed.  The classic instance
here: ``memcpy(dest=exact_extent, src=exact_extent, n=bound)`` passes
per-parameter, but pairing an undersized destination with an
individually-valid count overflows.

The pairwise sweep therefore serves as a *soundness audit* of the
per-parameter robust API: any interaction failure whose values both
satisfy their derived robust types would be a containment gap.  (The
relational checks — buffer capacity against the actual sibling argument —
exist precisely to close these.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import Outcome
from repro.ftypes import ProbeContext, TestValue, test_values_for
from repro.injection.campaign import Campaign
from repro.libc.registry import LibFunction
from repro.manpages.model import ManPage


@dataclass(frozen=True)
class PairProbe:
    """Identity of one two-parameter experiment."""

    function: str
    first_param: str
    first_label: str
    first_rank: int
    second_param: str
    second_label: str
    second_rank: int


@dataclass
class PairRecord:
    """One pairwise probe and its outcome."""

    probe: PairProbe
    outcome: Outcome

    @property
    def failed(self) -> bool:
        return self.outcome.is_robustness_failure


@dataclass
class PairwiseReport:
    """Results of the pairwise sweep for one function."""

    function: str
    records: List[PairRecord] = field(default_factory=list)
    #: labels that passed when injected alone (from a single-param sweep)
    solo_pass: Dict[Tuple[str, str], bool] = field(default_factory=dict)

    @property
    def total_probes(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> List[PairRecord]:
        return [r for r in self.records if r.failed]

    def interaction_failures(self) -> List[PairRecord]:
        """Failures whose both values passed in isolation."""
        return [
            record for record in self.failures
            if self.solo_pass.get(
                (record.probe.first_param, record.probe.first_label), False)
            and self.solo_pass.get(
                (record.probe.second_param, record.probe.second_label),
                False)
        ]


class PairwiseCampaign(Campaign):
    """Campaign extension driving pairs of test values."""

    def probe_function_pairwise(
        self,
        name: str,
        max_values_per_param: Optional[int] = None,
    ) -> PairwiseReport:
        """All parameter pairs × value pairs for one function."""
        function = self.registry[name]
        manpage = self.manpages.get(name)
        report = PairwiseReport(function=name)
        params = function.prototype.params
        # baseline: which values pass alone (reusing the 1-param sweep)
        solo = self.probe_function(name)
        for record in solo.records:
            report.solo_pass[
                (record.probe.param_name, record.probe.value_label)
            ] = record.outcome in (Outcome.PASS, Outcome.ERROR)
        for (i, first), (j, second) in itertools.combinations(
            enumerate(params), 2
        ):
            first_role = manpage.role_of(first.name) if manpage else None
            second_role = manpage.role_of(second.name) if manpage else None
            first_values = test_values_for(first, first_role)
            second_values = test_values_for(second, second_role)
            if max_values_per_param is not None:
                first_values = first_values[:max_values_per_param]
                second_values = second_values[:max_values_per_param]
            for value_a, value_b in itertools.product(first_values,
                                                      second_values):
                outcome = self._execute_pair(
                    function, manpage, (i, value_a), (j, value_b)
                )
                if outcome is None:
                    continue
                report.records.append(
                    PairRecord(
                        probe=PairProbe(
                            function=name,
                            first_param=first.name,
                            first_label=value_a.label,
                            first_rank=value_a.max_rank,
                            second_param=second.name,
                            second_label=value_b.label,
                            second_rank=value_b.max_rank,
                        ),
                        outcome=outcome,
                    )
                )
        return report

    def _execute_pair(
        self,
        function: LibFunction,
        manpage: Optional[ManPage],
        first: Tuple[int, TestValue],
        second: Tuple[int, TestValue],
    ) -> Optional[Outcome]:
        process = self.probe_process()
        ctx = ProbeContext(process, function.prototype, manpage)
        try:
            ctx.build_goldens()
            args = [ctx.golden[p.name] for p in function.prototype.params]
            index_a, value_a = first
            index_b, value_b = second
            args[index_a] = value_a.materialize(
                ctx, function.prototype.params[index_a]
            )
            args[index_b] = value_b.materialize(
                ctx, function.prototype.params[index_b]
            )
        except Exception:
            return None
        target = function.impl
        if self.interposer is not None:
            target = self.interposer(function)
        result = self.sandbox.run(
            process,
            lambda: target(process, *args, *ctx.varargs),
            function.error_detector,
        )
        if result.outcome == Outcome.PASS and process.heap.check_integrity():
            return Outcome.SILENT
        return result.outcome
