"""Introspection-derived check plans: full-coverage robust API.

The hand-tuned path needs a fault-injection campaign before a function
gets argument checks — without derivations the declaration document
carries roles only and the robustness wrapper protects nothing.  This
module closes the gap the way "Introspection for C and its Applications
to Library Robustness" suggests: *derive* every function's check plan
from what the toolkit already knows statically —

* the declared ctypes (:mod:`repro.headers`),
* the manual-page role metadata (:mod:`repro.manpages`),
* the robust-type chains and their check templates
  (:mod:`repro.ftypes.chains`),

and, when a campaign has run, the per-parameter
:class:`~repro.robust.derivation.FunctionDerivation` verdicts.  The
result is a :class:`CheckPlan` per registry function — the IR the
compiled checker consumes, and its one executable form — so the
robustness preset covers all 123 functions instead of the curated
subset.

Static derivation picks the *strictest effective* rung of a parameter's
chain: the strongest check the available metadata can actually enforce
(a ``buffer_readable_extent`` with no size relation is vacuous and
degrades to ``ptr_readable``; a nullable out-slot must not be forced
through the NULL-rejecting ``word_writable``).  Campaign verdicts, when
present, override the static choice with the experimentally derived
weakest robust type — exactly what the hand-tuned documents record, so
derived plans are differentially identical to them on probed functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.ftypes.chains import CHAINS, ROLE_CHAINS, RobustType, chain_for_ctype
from repro.headers.model import Prototype
from repro.libc.registry import LibcRegistry
from repro.manpages.model import ManPage

#: plan provenance markers
SOURCES = ("role", "ctype", "campaign", "unsatisfied", "unprobed", "declared")

#: check templates that reject NULL unconditionally (no nullable branch
#: in the checker); a nullable parameter must not be bound to these
_NULL_INTOLERANT = frozenset((
    "ptr_readable", "word_writable", "ptr_readable_file", "file_open",
    "fn_pointer",
))


@dataclass(frozen=True)
class ParamPlan:
    """One parameter's derived check, plus its provenance.

    Field names deliberately mirror :class:`repro.robust.api.ParamDecl`
    — the checker reads ``check``/``nullable``/``size_from``/… off either
    shape, so a plan slots into every existing check path unchanged.
    """

    name: str
    ctype: str
    role: str = ""
    chain: str = ""
    robust_type: str = ""
    #: rank of the chosen rung within its chain (-1: no rung chosen)
    rank: int = -1
    check: str = ""
    #: where the choice came from: "role"/"ctype" (static), "campaign"
    #: (derived verdict), "unsatisfied", "unprobed", or "declared"
    #: (lifted from a hand-tuned ParamDecl table)
    source: str = "role"
    nullable: bool = False
    size_from: str = ""
    size_param: str = ""
    size_mul: str = ""
    min_size: int = 0


@dataclass(frozen=True)
class CheckPlan:
    """The derived check plan of one function — the checker's IR."""

    function: str
    returns: str = ""
    error_return: str = ""
    variadic: bool = False
    #: errno values the manual page documents for failed calls
    errnos: Tuple[str, ...] = ()
    params: Tuple[ParamPlan, ...] = ()
    probes: int = 0
    failures: int = 0

    @property
    def name(self) -> str:
        """Alias so a plan reads like a declaration entry."""
        return self.function

    def param(self, name: str) -> Optional[ParamPlan]:
        for plan in self.params:
            if plan.name == name:
                return plan
        return None

    @property
    def has_checks(self) -> bool:
        return any(p.check for p in self.params)

    @property
    def checked_params(self) -> List[ParamPlan]:
        return [p for p in self.params if p.check]


# ----------------------------------------------------------------------
# static derivation
# ----------------------------------------------------------------------

def _chain_for(ctype, role_name: str) -> List[RobustType]:
    if role_name and role_name in ROLE_CHAINS:
        return CHAINS[ROLE_CHAINS[role_name]]
    return chain_for_ctype(ctype)


def _static_rung(chain: List[RobustType], nullable: bool,
                 has_extent: bool) -> RobustType:
    """The strictest rung whose check the metadata can enforce."""
    for rung in reversed(chain):
        if not rung.check:
            continue
        if rung.check == "buffer_readable_extent" and not has_extent:
            # no size relation to measure against: the check is vacuous,
            # degrade to plain readability
            continue
        if nullable and rung.check in _NULL_INTOLERANT:
            continue
        return rung
    return chain[0]


def derive_param_plan(param, manpage: Optional[ManPage],
                      derivation=None) -> ParamPlan:
    """Derive one parameter's plan (static, campaign-overridden)."""
    role = manpage.role_of(param.name) if manpage else None
    chain = _chain_for(param.ctype, role.role if role else "")
    base = ParamPlan(
        name=param.name,
        ctype=param.ctype.spelling,
        role=role.role if role else "",
        chain=chain[0].chain,
        source="role" if role else "ctype",
        nullable=role.nullable if role else False,
        size_from=(role.size_from or "") if role else "",
        size_param=(role.size_param or "") if role else "",
        size_mul=(role.size_mul or "") if role else "",
        min_size=role.min_size if role else 0,
    )
    if derivation is not None:
        # campaign verdicts are authoritative for probed parameters and
        # reproduce the hand-tuned documents byte-for-byte: the weakest
        # robust rung, "unsatisfied" (check withheld) when even the
        # strictest rung failed, and no check for unprobed parameters
        pd = derivation.param(param.name)
        if pd is None:
            return replace(base, source="unprobed")
        if pd.robust_type is None:
            return replace(base, chain=pd.chain, robust_type="unsatisfied",
                           source="unsatisfied")
        return replace(
            base,
            chain=pd.chain,
            robust_type=pd.robust_type.name,
            rank=pd.robust_type.rank,
            check=pd.robust_type.check,
            source="campaign",
        )
    has_extent = bool(base.size_param or base.size_from or base.min_size)
    rung = _static_rung(chain, base.nullable, has_extent)
    return replace(base, robust_type=rung.name, rank=rung.rank,
                   check=rung.check)


def derive_check_plan(prototype: Prototype,
                      manpage: Optional[ManPage] = None,
                      derivation=None) -> CheckPlan:
    """Derive the full check plan of one function."""
    return CheckPlan(
        function=prototype.name,
        returns=prototype.return_type.spelling,
        error_return=manpage.error_return if manpage else "",
        variadic=prototype.variadic,
        errnos=tuple(manpage.errnos) if manpage else (),
        params=tuple(
            derive_param_plan(param, manpage, derivation)
            for param in prototype.params
        ),
        probes=derivation.total_probes if derivation else 0,
        failures=derivation.total_failures if derivation else 0,
    )


def derive_check_plans(
    registry: LibcRegistry,
    manpages: Mapping[str, ManPage],
    derivations: Optional[Mapping[str, object]] = None,
) -> Dict[str, CheckPlan]:
    """Plans for every function a registry defines (full coverage)."""
    plans: Dict[str, CheckPlan] = {}
    for function in registry:
        plans[function.name] = derive_check_plan(
            function.prototype,
            manpages.get(function.name),
            (derivations or {}).get(function.name),
        )
    return plans


# ----------------------------------------------------------------------
# lifting hand-tuned declaration entries
# ----------------------------------------------------------------------

def plan_from_decl(decl) -> CheckPlan:
    """Lift a hand-tuned declaration entry into the plan IR.

    Duck-typed over :class:`repro.robust.api.FunctionDecl` (no import —
    the api module imports *this* one) so every legacy consumer of
    ``ParamDecl`` tables funnels through one checker code path.
    """
    return CheckPlan(
        function=decl.name,
        returns=getattr(decl, "returns", ""),
        error_return=getattr(decl, "error_return", ""),
        variadic=getattr(decl, "variadic", False),
        params=tuple(
            ParamPlan(
                name=p.name,
                ctype=p.ctype,
                role=p.role,
                chain=p.chain,
                robust_type=p.robust_type,
                check=p.check,
                source="declared",
                nullable=p.nullable,
                size_from=p.size_from,
                size_param=p.size_param,
                size_mul=p.size_mul,
                min_size=p.min_size,
            )
            for p in decl.params
        ),
        probes=getattr(decl, "probes", 0),
        failures=getattr(decl, "failures", 0),
    )


def as_plan(decl_or_plan) -> CheckPlan:
    """Normalise either IR to a :class:`CheckPlan`."""
    if isinstance(decl_or_plan, CheckPlan):
        return decl_or_plan
    return plan_from_decl(decl_or_plan)


# ----------------------------------------------------------------------
# coverage accounting (CLI + benchmark reporting)
# ----------------------------------------------------------------------

def coverage_report(plans: Mapping[str, CheckPlan]) -> Dict[str, object]:
    """Summary counters for a plan set (the 123/123 headline)."""
    params = [p for plan in plans.values() for p in plan.params]
    by_source: Dict[str, int] = {}
    for param in params:
        by_source[param.source] = by_source.get(param.source, 0) + 1
    return {
        "functions": len(plans),
        "functions_with_checks": sum(
            1 for plan in plans.values() if plan.has_checks
        ),
        "params": len(params),
        "params_with_plans": sum(1 for p in params if p.check),
        "params_by_source": dict(sorted(by_source.items())),
        "relational_params": sum(
            1 for p in params
            if p.check in ("buffer_capacity", "wbuffer_capacity",
                           "buffer_readable_extent", "size_bounded",
                           "format_safe")
        ),
    }


def uncovered(plans: Mapping[str, CheckPlan]) -> List[str]:
    """Functions whose plan carries no runnable check at all.

    Zero-parameter functions and pure-scalar signatures (``int_any`` /
    ``float_any`` chains) legitimately have nothing to check; they still
    count as *covered* — the plan exists and proves there is nothing to
    enforce — but callers auditing coverage may want the list.
    """
    return sorted(
        name for name, plan in plans.items()
        if plan.params and not plan.has_checks
    )
