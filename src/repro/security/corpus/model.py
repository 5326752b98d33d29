"""The declarative attack model and the single-run verdict machinery.

An :class:`Attack` is one crafted exploit attempt: a victim application,
a payload constructor (the *craft*, which replays the victim's
deterministic layout in a scratch process to aim the exploit — the moral
equivalent of reading addresses out of the published binary), a success
oracle, and an **expected-containment table** mapping each wrapper
preset to the verdicts the toolkit is allowed to produce.

Verdicts (:data:`VERDICTS`):

* ``escaped``   — the attack's own success oracle fired (root shell,
  service disrupted): the wrappers failed;
* ``detected``  — the program was terminated by an explicit detection
  (:class:`~repro.errors.SecurityViolation` or the stack protector);
* ``repaired``  — a repair action healed the heap and the service
  survived;
* ``contained`` — the service survived with the attack neutralised
  (error returns / truncation, no detection necessary);
* ``crashed``   — the program died of an undiagnosed simulator fault:
  the attack failed, but so did containment.

The expected table makes the corpus *scored*: a run whose verdict is
absent from the attack's table for that preset is a regression, and any
``escaped`` under the ``security`` or ``hardened`` preset is a hard
test failure regardless of the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.apps import SimApp
from repro.apps.base import AppResult, run_app
from repro.errors import SecurityViolation, StackSmashingDetected
from repro.libc import LibcRegistry
from repro.linker import DynamicLinker, SharedLibrary
from repro.recovery import self_healing_policy
from repro.robust.api import RobustAPIDocument
from repro.runtime import SimProcess
from repro.security.policy import SecurityPolicy
from repro.telemetry import MetricsSink
from repro.wrappers import WrapperFactory, WrapperSpec
from repro.wrappers.presets import (
    HARDENED,
    RECOVERY,
    ROBUSTNESS,
    SECURITY,
    default_generator_registry,
)

#: the containment-verdict taxonomy, worst to best
VERDICTS = ("escaped", "crashed", "detected", "repaired", "contained")


@dataclass
class Attack:
    """One exploit attempt against a bundled victim."""

    name: str
    app: SimApp
    craft: Callable[[], bytes]
    hijacked: Callable[[AppResult], bool]
    description: str
    #: the red-team taxonomy bucket this attack exercises
    attack_class: str = ""
    #: preset name -> acceptable verdicts (empty: any non-escape)
    expected: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: SimProcess construction overrides (e.g. armed canaries)
    process_kwargs: Dict[str, object] = field(default_factory=dict)

    def payload(self) -> bytes:
        return self.craft()

    def expected_verdicts(self, preset: str) -> Tuple[str, ...]:
        """Acceptable verdicts under ``preset`` (default: anything but
        an escape)."""
        table = self.expected.get(preset)
        if table:
            return table
        return tuple(v for v in VERDICTS if v != "escaped")


def _address_bytes(address: int) -> bytes:
    """Little-endian address with trailing NULs stripped (strcpy-safe).

    Raises if the address has *interior* NUL bytes — a real exploit would
    pick a different gadget; the simulation's layout never produces one,
    and the assertion documents the constraint.
    """
    stripped = address.to_bytes(8, "little").rstrip(b"\x00")
    if b"\x00" in stripped:
        raise ValueError(
            f"gadget address {address:#x} contains interior NUL bytes"
        )
    if b"\n" in stripped:
        raise ValueError(f"gadget address {address:#x} contains newline")
    return stripped


def _got_root(result: AppResult) -> bool:
    return bool(getattr(result.process, "root_shell", False))


def _service_disrupted(result: AppResult) -> bool:
    """DoS verdict: the service died or its heap metadata was corrupted."""
    if result.crashed:
        return True
    problems = result.process.heap.check_integrity()
    return bool(problems)


# ----------------------------------------------------------------------
# presets under evaluation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PresetConfig:
    """One wrapper deployment the corpus is scored against."""

    name: str
    #: None: the unwrapped baseline (attacks are *expected* to succeed)
    spec: Optional[WrapperSpec]
    #: fresh policy per run — wrapper state must never alias across runs
    policy: Callable[[], Optional[SecurityPolicy]]


def _plain_policy() -> SecurityPolicy:
    return SecurityPolicy()


def _recovery_policy() -> SecurityPolicy:
    return SecurityPolicy(recovery=self_healing_policy())


PRESET_CONFIGS: Dict[str, PresetConfig] = {
    "unwrapped": PresetConfig("unwrapped", None, lambda: None),
    "robustness": PresetConfig("robustness", ROBUSTNESS, _plain_policy),
    "security": PresetConfig("security", SECURITY, _plain_policy),
    "hardened": PresetConfig("hardened", HARDENED, _plain_policy),
    "recovery": PresetConfig("recovery", RECOVERY, _recovery_policy),
}

#: presets under which an escape is a hard failure, not a data point
GATED_PRESETS = ("security", "hardened")


# ----------------------------------------------------------------------
# single-run machinery
# ----------------------------------------------------------------------


@dataclass
class AttackRun:
    """Outcome of one attack × preset execution."""

    attack: str
    attack_class: str
    preset: str
    verdict: str
    status: Optional[int]
    exception: str
    recoveries: Dict[str, int]

    @property
    def escaped(self) -> bool:
        return self.verdict == "escaped"


def classify(attack: Attack, result: AppResult,
             recoveries: Dict[str, int]) -> str:
    """Fold one run into the verdict taxonomy (see module docstring).

    Detection outranks the attack's own oracle: a DoS oracle counts any
    crash as disruption, but a termination *by the defence* is the
    paper's prescribed response, not an attacker win.
    """
    if result.crashed and isinstance(
        result.exception, (SecurityViolation, StackSmashingDetected)
    ):
        return "detected"
    if attack.hijacked(result):
        return "escaped"
    if result.crashed:
        return "crashed"
    if recoveries.get("repair", 0) > 0:
        return "repaired"
    return "contained"


def run_attack(
    attack: Attack,
    preset: PresetConfig,
    registry: LibcRegistry,
    api: Optional[RobustAPIDocument],
    process: Optional[SimProcess] = None,
) -> AttackRun:
    """Execute one attack under one preset and score the outcome.

    ``process`` lets a campaign hand in a pre-armed (fault-injected)
    process; by default a fresh one is built from the attack's
    ``process_kwargs``.  The robust-API document matters: without it the
    heap guard has no declarations to hang bounds checks on.
    """
    if process is None:
        process = SimProcess(**attack.process_kwargs)
    linker = DynamicLinker()
    linker.add_library(SharedLibrary.from_registry(registry))
    metrics = MetricsSink()
    built = None
    if preset.spec is not None:
        factory = WrapperFactory(
            registry, api,
            generators=default_generator_registry(preset.policy()),
        )
        built = factory.preload(linker, preset.spec, sinks=[metrics])
    result = run_app(attack.app, linker, stdin=attack.payload(),
                     process=process)
    if built is not None:
        built.bus.flush()
    recoveries = {action: count for action, count
                  in sorted(metrics.recoveries.items())}
    return AttackRun(
        attack=attack.name,
        attack_class=attack.attack_class,
        preset=preset.name,
        verdict=classify(attack, result, recoveries),
        status=result.status,
        exception=(type(result.exception).__name__
                   if result.exception is not None else ""),
        recoveries=recoveries,
    )
