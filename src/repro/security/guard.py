"""The security micro-generator: heap-overflow containment.

Composed into the security wrapper, this generator

* maintains the library's own allocation size table by interposing the
  allocator entry points (prefix/postfix of ``malloc``/``free``/…),
* refuses writes that would exceed the destination's recorded capacity
  (bounds enforcement over the robust-API metadata),
* rejects ``%n`` format directives,
* substitutes a bounded read for ``gets``, and
* verifies heap-chunk integrity at deallocation sites (or on every call).

A violation *terminates* the protected program (raising
:class:`~repro.errors.SecurityViolation`, an ABORT-class contained
failure) rather than letting the overflow hijack control flow — the demo
3.4 behaviour.  When the policy carries a
:class:`~repro.recovery.RecoveryPolicy`, the response instead becomes a
per-function, per-violation-kind decision — contain, *repair* (heal the
heap in place and let the call proceed), or escalate — each decision
published as a :class:`~repro.telemetry.RecoveryEvent`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.errors import SecurityViolation
from repro.robust.api import FunctionDecl
from repro.robust.introspect import CheckPlan
from repro.robust.checks import (
    ArgumentChecker,
    CheckViolation,
    analyse_format,
    writable_extent,
)
from repro.runtime.process import Errno
from repro.security.policy import (
    ALLOCATING,
    DEALLOCATING,
    WRITE_CHECKS,
    WRITE_ROLES,
    SecurityPolicy,
)
from repro.telemetry import RecoveryEvent, SecurityEvent
from repro.wrappers.generators import error_return_value
from repro.wrappers.microgen import (
    CallFrame,
    Fragment,
    MicroGenerator,
    RuntimeHooks,
    WrapperUnit,
)


def _build_violation_handler(policy: SecurityPolicy, name: str, state,
                             emit, error_value):
    """The shared violation response, as ``found(frame, reason, kind)``.

    Returns True when the violation was handled terminally for this call
    (contained: the frame carries the error return) — call sites stop
    checking.  Returns False when a ``repair`` action healed the heap
    cleanly, meaning the call may proceed against the repaired state.
    Escalation raises.  The tests' reference rendering of the guard
    shares it verbatim, so the differentials compare what the guard
    checks, not how it responds.
    """
    recovery = policy.recovery

    if recovery is None:
        # legacy response: terminate or contain, uniformly
        def violation_found(frame: CallFrame, reason: str,
                            kind: str) -> bool:
            emit(SecurityEvent(function=name, reason=reason,
                               terminated=policy.terminate))
            if policy.terminate:
                raise SecurityViolation(name, reason)
            frame.skip_call = True
            frame.ret = error_value
            frame.process.errno = Errno.EFAULT
            return True
        return violation_found

    size_table = state.size_table

    def violation_found(frame: CallFrame, reason: str, kind: str) -> bool:
        action = recovery.action_for(name, kind)
        if action == "repair":
            report = frame.process.heap.repair(quarantine=True)
            # quarantined chunks are dead to the program: their size-table
            # entries must not satisfy later capacity lookups
            for address in report.quarantined:
                size_table.pop(address, None)
            emit(RecoveryEvent(function=name, violation=kind,
                               action="repair",
                               attempts=max(len(report.actions), 1),
                               recovered=report.clean, detail=reason))
            if report.clean:
                return False
            # the shadow metadata could not reconcile the heap: escalate
            emit(SecurityEvent(function=name, reason=reason,
                               terminated=True))
            raise SecurityViolation(name, reason)
        if action == "escalate":
            emit(RecoveryEvent(function=name, violation=kind,
                               action="escalate", recovered=False,
                               detail=reason))
            emit(SecurityEvent(function=name, reason=reason,
                               terminated=True))
            raise SecurityViolation(name, reason)
        if action == "degrade":
            # contain the call, then signal the serving ladder: the
            # process-level hook feeds the circuit breaker without the
            # wrapper knowing whether anyone is listening
            emit(RecoveryEvent(function=name, violation=kind,
                               action="degrade", recovered=True,
                               detail=reason))
            emit(SecurityEvent(function=name, reason=reason,
                               terminated=False))
            frame.skip_call = True
            frame.ret = error_value
            frame.process.errno = Errno.EFAULT
            hook = frame.process.degrade_hook
            if hook is not None:
                hook(name, kind)
            return True
        # contain
        emit(RecoveryEvent(function=name, violation=kind,
                           action="contain", recovered=True,
                           detail=reason))
        emit(SecurityEvent(function=name, reason=reason,
                           terminated=False))
        frame.skip_call = True
        frame.ret = error_value
        frame.process.errno = Errno.EFAULT
        return True

    return violation_found


def _heap_kind(problem: str) -> str:
    """Classify an integrity finding for policy selection."""
    return "canary" if "canary" in problem else "heap_corruption"


class HeapGuardGen(MicroGenerator):
    """Security feature: size table + bounds + format + heap verification."""

    name = "heap guard"

    def __init__(self, policy: Optional[SecurityPolicy] = None):
        self.policy = policy or SecurityPolicy()

    # ------------------------------------------------------------------
    # C backend
    # ------------------------------------------------------------------

    def c_fragment(self, unit: WrapperUnit) -> Fragment:
        prefix = ""
        postfix = ""
        name = unit.name
        if name in ALLOCATING:
            postfix += f"    healers_sizetable_record(ret);\n"
        if name in DEALLOCATING and self.policy.verify_heap != "never":
            prefix += (
                f"    if (!healers_heap_verify())\n"
                f"        healers_terminate(\"heap metadata corrupted\");\n"
            )
        if name in DEALLOCATING:
            prefix += f"    healers_sizetable_forget({unit.arg_names()[0]});\n"
        if self.policy.enforce_bounds and unit.decl is not None:
            for param in unit.decl.params:
                if param.role in WRITE_ROLES and param.check in WRITE_CHECKS:
                    prefix += (
                        f"    if (!healers_bounds_ok({param.name}))\n"
                        f"        healers_terminate(\"overflow of "
                        f"{param.name} in {name}\");\n"
                    )
        return Fragment(generator=self.name, prefix=prefix, postfix=postfix)

    # ------------------------------------------------------------------
    # runtime backend
    # ------------------------------------------------------------------

    def runtime_hooks(self, unit: WrapperUnit) -> RuntimeHooks:
        """Build-time specialized hooks.

        Everything derivable from the function name, declaration and
        policy — which protections apply, the write-role map, the
        allocation-size recipe — is resolved here, once; per call only
        the applicable protections run.  A function with no applicable
        protection gets no hook at all.
        """
        policy = self.policy
        state = unit.state
        size_table = state.size_table
        emit = unit.bus.emit
        name = unit.name
        #: role metadata source: the introspected plan when the document
        #: carries one, else the hand-tuned declaration entry — the
        #: security policy is role-derived, so both yield the same view
        decl = unit.plan if unit.plan is not None else unit.decl

        is_dealloc = name in DEALLOCATING
        verify_here = policy.verify_heap == "always" or (
            policy.verify_heap == "free" and is_dealloc
        )
        guard_free_here = policy.guard_free and is_dealloc
        gets_here = policy.safe_gets and name == "gets"
        reject_n = policy.reject_percent_n
        check_arity = policy.check_format_args
        format_indices = tuple(
            index for index, param in enumerate(decl.params)
            if param.role == "format"
        ) if ((reject_n or check_arity) and decl is not None) else ()
        checker = (
            ArgumentChecker(security_view(decl), unit.prototype)
            if decl is not None else None
        )
        bounds_here = (policy.enforce_bounds and checker is not None
                       and checker.has_checks)
        #: param name → is a write-role violation (legacy falls through
        #: to False for parameters absent from the declaration)
        write_param = {
            p.name: (p.role in WRITE_ROLES or not p.role)
            for p in decl.params
        } if decl is not None else None
        error_value = error_return_value(
            unit.prototype, decl.error_return if decl else ""
        )

        violation_found = _build_violation_handler(
            policy, name, state, emit, error_value
        )

        def is_write_violation(violation: CheckViolation) -> bool:
            if violation.check == "size_bounded":
                return "(write)" in violation.detail
            if violation.check not in WRITE_CHECKS:
                return False
            if write_param is None:
                return True
            return write_param.get(violation.param, False)

        def prefix(frame: CallFrame) -> None:
            if frame.skip_call:
                return
            proc = frame.process
            if verify_here:
                problems = proc.heap.check_integrity()
                if problems:
                    if violation_found(frame,
                                       f"heap corrupted: {problems[0]}",
                                       _heap_kind(problems[0])):
                        return
            if is_dealloc and frame.args:
                pointer = frame.args[0]
                if (guard_free_here and pointer
                        and proc.heap.allocation_size(pointer) is None):
                    if violation_found(frame,
                                       _invalid_free_reason(pointer),
                                       "invalid_free"):
                        return
                size_table.pop(pointer, None)
            if gets_here:
                _safe_gets(frame, state, emit, violation_found)
                return
            for index in format_indices:
                if index >= len(frame.args):
                    continue
                analysis = analyse_format(proc, frame.args[index])
                if analysis is None:
                    violation_found(frame,
                                    "format string is not a valid string",
                                    "format")
                    return
                if reject_n and analysis[1]:
                    violation_found(frame, "format string contains %n",
                                    "format")
                    return
                if check_arity and analysis[0] > len(frame.varargs):
                    violation_found(
                        frame,
                        _format_arity_reason(analysis[0],
                                             len(frame.varargs)),
                        "format",
                    )
                    return
            if bounds_here:
                for violation in checker.validate_all(proc, frame.args,
                                                      frame.varargs):
                    if is_write_violation(violation):
                        violation_found(
                            frame,
                            f"write overflow: {violation.detail} "
                            f"(param {violation.param})",
                            "bounds",
                        )
                        return

        alloc_kind = ALLOCATING.get(name)
        postfix = None
        if alloc_kind is not None:
            def postfix(frame: CallFrame) -> None:
                if frame.ret:
                    size = _allocation_size(name, frame)
                    if size is not None:
                        size_table[frame.ret] = size

        needs_prefix = (verify_here or is_dealloc or gets_here
                        or format_indices or bounds_here)
        return RuntimeHooks(
            generator=self.name,
            prefix=prefix if needs_prefix else None,
            postfix=postfix,
        )


def security_view(meta):
    """Role-derived a-priori write checks, for either checker IR.

    Accepts the hand-tuned :class:`FunctionDecl` or an introspected
    :class:`CheckPlan`; the synthesised checks are the same either way
    because the security policy reads roles, not derived robust types.
    """
    if isinstance(meta, CheckPlan):
        return _security_plan(meta)
    return _security_decl(meta)


def _security_check_for(role: str, existing: str) -> str:
    """The security wrapper's check for one role (writes only)."""
    if role in ("out_string", "inout_string", "out_buffer"):
        return "buffer_capacity"
    if role in ("out_wstring", "out_wbuffer"):
        return "wbuffer_capacity"
    if role == "size":
        return "size_bounded"
    if role == "format":
        return existing
    return ""  # security cares about writes only


def _security_plan(plan: CheckPlan) -> CheckPlan:
    """The plan-IR rendering of :func:`_security_decl` (no deep copy —
    plans are frozen, so this is a cheap structural rewrite)."""
    return replace(
        plan,
        params=tuple(
            replace(param,
                    check=_security_check_for(param.role, param.check))
            for param in plan.params
        ),
    )


def _security_decl(decl: FunctionDecl) -> FunctionDecl:
    """A-priori bounds checks from role metadata alone.

    The security wrapper of [3] predates the robust-API derivation: its
    policy is "every write through an intercepted function must fit the
    destination's recorded capacity", known from the manual-page roles
    and the size table — no fault-injection campaign required.  So the
    guard synthesises capacity checks for every write-role parameter and
    extent checks for the sizes that govern them, even when the document
    carries no derived robust types.
    """
    import copy

    hardened = copy.deepcopy(decl)
    for param in hardened.params:
        param.check = _security_check_for(param.role, param.check)
    return hardened


def _invalid_free_reason(pointer: int) -> str:
    return (f"free of {pointer:#x}, which is not a live allocation "
            f"(double free or invalid pointer)")


def _format_arity_reason(consumed: int, supplied: int) -> str:
    return (f"format string consumes {consumed} argument"
            f"{'s' if consumed != 1 else ''} but the call supplied "
            f"{supplied}")


def _allocation_size(name: str, frame: CallFrame) -> Optional[int]:
    kind = ALLOCATING[name]
    if kind == "size-arg":
        return int(frame.args[0])
    if kind == "product-args":
        return int(frame.args[0]) * int(frame.args[1])
    if kind == "realloc":
        return int(frame.args[1])
    if kind == "strlen-result":
        # postfix: the result is a fresh, terminated allocation
        return len(frame.process.read_cstring(frame.ret)) + 1
    if kind == "file-struct":
        from repro.runtime.filesystem import FILE_STRUCT_SIZE
        return FILE_STRUCT_SIZE
    return None


def _safe_gets(frame: CallFrame, state, emit, violation_found) -> None:
    """Replace gets() with a read bounded by the destination's capacity.

    Uses the wrapper's own size table first (a heap destination), then the
    mapping bound.  An unbounded destination is a security violation.
    """
    proc = frame.process
    dest = frame.args[0] if frame.args else 0
    capacity = state.size_table.get(dest)
    if capacity is None:
        capacity = writable_extent(proc, dest)
    if capacity <= 0:
        violation_found(frame, "gets() destination is not writable",
                        "unsafe_gets")
        return
    frame.skip_call = True
    space = proc.space
    # locate the line without consuming the stream, then replay the stream
    # and memory side effects in bulk
    linelen = 0
    newline = False
    offset = 0
    chunk = 4096
    while True:
        window = proc.fs.peek(0, chunk, offset)
        if not window:
            linelen = offset
            break
        position = window.find(b"\n")
        if position >= 0:
            linelen = offset + position
            newline = True
            break
        offset += len(window)
        if len(window) < chunk:
            linelen = offset
            break
        chunk *= 4
    if linelen == 0 and not newline:
        proc.fs.read(0, 1)  # the empty read that flips the stream to EOF
        frame.ret = 0
        return
    to_write = min(linelen, capacity - 1)
    writable = space.writable_run(dest, to_write)
    if writable < to_write:
        # the loop faults on byte `writable` after consuming it from stdin
        data = proc.fs.read(0, writable + 1)
        if writable > 0:
            space.write_run(dest, data[:writable])
        space.write(dest + writable, data[writable:writable + 1])
        raise AssertionError("safe gets fault replay did not fault")
    data = proc.fs.read(0, linelen + (1 if newline else 0))
    if to_write > 0:
        space.write_run(dest, data[:to_write])
    if not newline:
        proc.fs.read(0, 1)  # replay the EOF-setting empty read
    space.write(dest + to_write, b"\x00")
    if linelen > capacity - 1:
        emit(
            SecurityEvent(function="gets",
                          reason=f"input truncated to {capacity - 1} bytes",
                          terminated=False)
        )
    frame.ret = dest
