"""The retry micro-generator: bounded re-execution of transient failures.

A call that failed with a *transient* errno (ENOMEM under allocation
pressure, EINTR) is re-executed up to ``max_retries`` times, consuming a
linearly growing slice of simulated fuel between attempts — the
deterministic stand-in for wall-clock backoff, so a retried run's fuel
accounting (and hence its HANG classification boundary) is reproducible.

The generator is inert unless a :class:`~repro.recovery.RecoveryPolicy`
maps ``transient_errno`` to ``retry`` for the function, so presets that
include it pay nothing when recovery is not configured.

The generator contributes a :attr:`~repro.wrappers.microgen.RuntimeHooks.
wrap_call` transformer: the compiled wrapper wraps the one-shot-resolved
target itself, so the direct-tail-call and frame-free guard forms
survive and the retry loop lives *inside* the intercepted call.
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry import RecoveryEvent
from repro.wrappers.generators import error_return_value
from repro.wrappers.microgen import (
    MicroGenerator,
    RuntimeHooks,
    WrapperUnit,
)


class RetryGen(MicroGenerator):
    """Recovery feature: bounded retry with deterministic fuel backoff."""

    name = "retry"

    def __init__(self, policy=None):
        #: a SecurityPolicy carrying ``.recovery``, or a RecoveryPolicy
        #: itself; read at hook-build time so deployment files installed
        #: after registry construction still take effect
        self.policy = policy

    def _recovery(self):
        policy = self.policy
        if policy is None:
            return None
        if hasattr(policy, "action_for"):
            return policy
        return getattr(policy, "recovery", None)

    def runtime_hooks(self, unit: WrapperUnit) -> RuntimeHooks:
        recovery = self._recovery()
        if recovery is None or recovery.retries_for(unit.name) == 0:
            return RuntimeHooks(generator=self.name)
        name = unit.name
        emit = unit.bus.emit
        max_retries = recovery.max_retries
        backoff = recovery.retry_backoff_fuel
        transient = frozenset(recovery.transient_errnos)
        error_value = error_return_value(
            unit.prototype, unit.decl.error_return if unit.decl else ""
        )

        def wrap_call(target: Callable) -> Callable:
            def retrying(process, *args):
                # errno is sticky in C: a stale ENOMEM must not make
                # a *successful* zero return look like a failure.
                # Clear it for the call, restore it if untouched.
                saved = process.errno
                process.errno = 0
                ret = target(process, *args)
                if ret == error_value and process.errno in transient:
                    attempts = 0
                    while attempts < max_retries:
                        attempts += 1
                        process.consume(backoff * attempts)
                        process.errno = 0
                        ret = target(process, *args)
                        if (ret != error_value
                                or process.errno not in transient):
                            break
                    emit(RecoveryEvent(
                        function=name, violation="transient_errno",
                        action="retry", attempts=attempts,
                        recovered=ret != error_value,
                    ))
                if process.errno == 0:
                    process.errno = saved
                return ret
            return retrying

        return RuntimeHooks(generator=self.name, wrap_call=wrap_call)
