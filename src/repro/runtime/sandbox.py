"""Probe sandbox: run one call, classify its outcome on the CRASH scale.

HEALERS' native harness forks a child per probe, calls the function under
test, and classifies the child's fate (exit / signal / watchdog timeout).
Here each probe runs against a pristine :class:`SimProcess` — restored
with :meth:`SimProcess.restore`, or built new when restore cannot prove
it pristine; the sandbox catches simulator faults and maps them onto
:class:`~repro.errors.Outcome`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import Outcome, ProcessExit, SimulatorError, classify_exception
from repro.runtime.process import SimProcess

#: default fuel budget for a probe; generous enough for any legitimate call
#: on probe-sized inputs, small enough that unterminated scans over a large
#: mapping exhaust it quickly (the ablation bench varies this)
DEFAULT_PROBE_FUEL = 100_000


@dataclass
class ProbeResult:
    """Outcome of one sandboxed call."""

    outcome: Outcome
    value: Any = None
    errno: int = 0
    exception: Optional[BaseException] = None
    fuel_used: int = 0

    @property
    def failed(self) -> bool:
        """True when the probe was a robustness failure (crash/hang/abort)."""
        return self.outcome.is_robustness_failure

    def describe(self) -> str:
        """One-line summary for reports."""
        detail = ""
        if self.exception is not None:
            detail = f": {self.exception}"
        return f"{self.outcome.value}{detail}"

    # ------------------------------------------------------------------
    # portable form (process-pool transport)
    # ------------------------------------------------------------------

    def to_portable(self) -> Dict[str, Any]:
        """Reduce to plain picklable data for cross-process transport.

        ``value`` and the live ``exception`` object are dropped (they may
        reference simulator state); the exception's text survives as
        ``detail``.  Everything derivation and the store consume —
        outcome, errno, fuel — round-trips exactly.
        """
        return {
            "outcome": self.outcome.value,
            "errno": self.errno,
            "fuel_used": self.fuel_used,
            "detail": str(self.exception) if self.exception else "",
        }

    @classmethod
    def from_portable(cls, data: Dict[str, Any]) -> "ProbeResult":
        """Rebuild a result from :meth:`to_portable` output."""
        return cls(
            outcome=Outcome(data["outcome"]),
            errno=int(data.get("errno", 0)),
            fuel_used=int(data.get("fuel_used", 0)),
        )


class Sandbox:
    """Runs callables against a process and classifies what happens.

    The sandbox holds no mutable state of its own — all per-probe state
    lives in the :class:`SimProcess` passed to :meth:`run` — so one
    instance may be shared by concurrent workers (threads) and survives
    ``fork()`` into process-pool workers unchanged.  Classification is a
    pure function of the call's behaviour, which keeps parallel campaign
    verdicts deterministic per worker.
    """

    def __init__(self, error_is_robust: bool = True):
        #: when True, a call that sets errno / returns an error indicator
        #: counts as ERROR (robust); classification of return values is the
        #: caller's job via ``error_detector``
        self.error_is_robust = error_is_robust

    def run(
        self,
        process: SimProcess,
        call: Callable[[], Any],
        error_detector: Optional[Callable[[Any, int], bool]] = None,
    ) -> ProbeResult:
        """Execute ``call`` and classify the result.

        ``error_detector(value, errno)`` decides whether a normal return
        was an error indication (e.g. returned NULL / -1 with errno set).
        """
        fuel_before = process.fuel_used
        errno_before = process.errno
        try:
            value = call()
        except ProcessExit as exc:
            _drop_frames(exc)
            return ProbeResult(
                outcome=Outcome.PASS if exc.status == 0 else Outcome.ERROR,
                value=exc.status,
                errno=process.errno,
                exception=exc,
                fuel_used=process.fuel_used - fuel_before,
            )
        except SimulatorError as exc:
            _drop_frames(exc)
            return ProbeResult(
                outcome=classify_exception(exc),
                exception=exc,
                errno=process.errno,
                fuel_used=process.fuel_used - fuel_before,
            )
        except (RecursionError, ZeroDivisionError, OverflowError) as exc:
            _drop_frames(exc)
            return ProbeResult(
                outcome=Outcome.CRASH,
                exception=exc,
                errno=process.errno,
                fuel_used=process.fuel_used - fuel_before,
            )
        outcome = Outcome.PASS
        errno_now = process.errno
        if self.error_is_robust:
            if error_detector is not None and error_detector(value, errno_now):
                outcome = Outcome.ERROR
            elif errno_now != errno_before and errno_now != 0:
                outcome = Outcome.ERROR
        return ProbeResult(
            outcome=outcome,
            value=value,
            errno=errno_now,
            fuel_used=process.fuel_used - fuel_before,
        )


def _drop_frames(exc: Optional[BaseException]) -> None:
    """Clear the tracebacks of ``exc`` and of its ``__context__`` chain.

    A traceback's frames hold the probe's locals, the whole
    :class:`SimProcess` among them, so a stored exception would keep
    every faulting probe's address space alive for as long as the
    campaign result lives.
    """
    while exc is not None:
        exc.__traceback__ = None
        exc = exc.__context__
