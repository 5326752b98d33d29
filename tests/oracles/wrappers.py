"""The per-call wrapper composer: what the compiled wrappers must match.

:func:`compose_wrapper` runs a function's micro-generator hooks in a
loop on every intercepted call — prefixes in generator order, postfixes
reversed — the composition :func:`~repro.wrappers.fastpath.compile_wrapper`
specializes at build time.  Three generators render differently for the
compiled wrappers (a verdict-memoized guard over compiled check plans, a
build-time specialized heap guard, a ``wrap_call`` retry loop); their
original per-call renderings are kept here, keyed by generator class in
:data:`RENDERINGS`.  Every other generator's ``runtime_hooks`` is shared
as it is.

:func:`interpreted_build_library` is ``WrapperFactory.build_library``
over this composer.  :func:`interpreted_wrappers` swaps it onto the
factory for the duration of a ``with`` block; every session-level caller
(``ServingSession``, ``ChaosHarness``, ``run_attack``, ``Toolkit``)
composes through ``build_library``, so the one patch covers them all.
"""

import threading
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import SecurityViolation
from repro.linker import SharedLibrary
from repro.recovery import RetryGen
from repro.robust.checks import (
    FILE_STRUCT_BYTES, POINTER_SIZE, ArgumentChecker, CheckViolation,
    analyse_format, readable_extent, terminated_length, writable_extent,
)
from repro.robust.introspect import ParamPlan
from repro.runtime.process import Errno, SimProcess
from repro.security.guard import (
    HeapGuardGen, _allocation_size, _build_violation_handler,
    _format_arity_reason, _heap_kind, _invalid_free_reason, _safe_gets,
    security_view,
)
from repro.security.policy import (
    ALLOCATING, DEALLOCATING, WRITE_CHECKS, WRITE_ROLES, SecurityPolicy,
)
from repro.telemetry import (
    EventBus, RecoveryEvent, StateSink, ViolationEvent,
)
from repro.wrappers import (
    ArgCheckGen, BuiltWrapper, CallFrame, MicroGenerator, RuntimeHooks,
    WrapperFactory, WrapperState, WrapperUnit, error_return_value,
)


def compose_wrapper(unit: WrapperUnit,
                    generators: Sequence[MicroGenerator]) -> Callable:
    """Assemble a wrapper that loops over the hooks on every call.

    Prefixes run in order, postfixes in reverse order; the returned
    callable has the same (process, *args) signature as the wrapped
    symbol, so it installs directly into a preloaded SharedLibrary.
    """
    hooks = [interpreted_hooks(g, unit) for g in generators]
    prefix_hooks = [h.prefix for h in hooks if h.prefix is not None]
    postfix_hooks = [h.postfix for h in reversed(hooks) if h.postfix is not None]
    fixed_arity = len(unit.prototype.params)

    def wrapper(process: SimProcess, *args: Any) -> Any:
        frame = CallFrame(
            process=process,
            function=unit.name,
            args=args[:fixed_arity],
            varargs=args[fixed_arity:],
        )
        for hook in prefix_hooks:
            hook(frame)
        for hook in postfix_hooks:
            hook(frame)
        return frame.ret

    wrapper.__name__ = f"wrapped_{unit.name}"
    wrapper.__doc__ = (
        f"Generated wrapper for {unit.name} "
        f"({', '.join(g.name for g in generators)})."
    )
    return wrapper


def rendering_for(generator: MicroGenerator) -> Optional[Callable]:
    """The per-call rendering kept for ``generator``'s class, if any."""
    for cls in type(generator).__mro__:
        render = RENDERINGS.get(cls)
        if render is not None:
            return render
    return None


def interpreted_hooks(generator: MicroGenerator,
                      unit: WrapperUnit) -> RuntimeHooks:
    """``generator``'s per-call rendering for ``unit``."""
    render = rendering_for(generator)
    if render is None:
        return generator.runtime_hooks(unit)
    return render(generator, unit)


def interpreted_build_library(
    self: WrapperFactory,
    linker,
    spec,
    soname: Optional[str] = None,
    functions: Optional[Sequence[str]] = None,
    state: Optional[WrapperState] = None,
    sinks=None,
    bus_capacity: int = 256,
    telemetry: bool = True,
    resolver=None,
) -> BuiltWrapper:
    """``WrapperFactory.build_library`` over :func:`compose_wrapper`."""
    generator_list = self.resolve_spec(spec)
    state = state if state is not None else WrapperState()
    soname = soname or f"libhealers_{spec.name}.so"
    library = SharedLibrary(soname)
    names = list(functions) if functions is not None else self.registry.names()
    bus = EventBus(
        capacity=bus_capacity,
        sinks=([StateSink(state), *(sinks or ())] if telemetry else []),
    )
    built = BuiltWrapper(library=library, state=state, spec=spec, bus=bus)
    for name in names:
        if name not in self.registry:
            raise KeyError(f"cannot wrap unknown function {name!r}")
        unit = self.make_unit(name, state, linker, library, bus=bus,
                              resolver=resolver)
        library.define(name, compose_wrapper(unit, generator_list),
                       prototype=unit.prototype)
        built.functions.append(name)
    return built


@contextmanager
def interpreted_wrappers():
    """Compose every wrapper library built inside the block per call."""
    compiled = WrapperFactory.build_library
    WrapperFactory.build_library = interpreted_build_library
    try:
        yield
    finally:
        WrapperFactory.build_library = compiled


def wrapper_backend(name: str):
    """The build context of one test lane: ``compiled`` or ``interpreted``."""
    if name == "compiled":
        return nullcontext()
    if name == "interpreted":
        return interpreted_wrappers()
    raise ValueError(f"unknown wrapper lane {name!r}")


# ----------------------------------------------------------------------
# the argument checker's per-call ladder
# ----------------------------------------------------------------------

class InterpretedChecker(ArgumentChecker):
    """The check ladder: one string dispatch per check per call."""

    @property
    def has_checks(self) -> bool:
        return bool(self.ordered)

    def validate_all(self, proc: SimProcess, args: Sequence[Any],
                     varargs: Sequence[Any] = (),
                     first_only: bool = False) -> List[CheckViolation]:
        values = {p.name: args[self._index_of[p.name]]
                  for p in self.plan.params if p.name in self._index_of}
        violations: List[CheckViolation] = []
        for param in self.ordered:
            value = values.get(param.name)
            detail = self._run_check(proc, param, value, values, varargs)
            if detail is not None:
                violations.append(
                    CheckViolation(
                        function=self.function,
                        param=param.name,
                        check=param.check,
                        detail=detail,
                    )
                )
                if first_only:
                    break
        return violations

    def _run_check(self, proc: SimProcess, param: ParamPlan, value: Any,
                   values: Dict[str, Any],
                   varargs: Sequence[Any]) -> Optional[str]:
        check = param.check
        if check == "ptr_valid_or_null":
            if value != 0 and readable_extent(proc, value) == 0:
                return f"pointer {value:#x} is not mapped"
            return None
        if check == "ptr_readable":
            if readable_extent(proc, value) == 0:
                return f"pointer {value:#x} is not readable"
            return None
        if check == "ptr_writable":
            if value == 0 and param.nullable:
                return self._null_buffer_allowed(param, values)
            if writable_extent(proc, value) == 0:
                return f"pointer {value:#x} is not writable"
            return None
        if check in ("string_terminated", "wstring_terminated"):
            if value == 0 and param.nullable:
                return None
            wide = check == "wstring_terminated"
            if terminated_length(proc, value, wide=wide) is None:
                return f"no terminator within readable memory at {value:#x}"
            return None
        if check in ("buffer_capacity", "wbuffer_capacity"):
            if value == 0 and param.nullable:
                return self._null_buffer_allowed(param, values)
            required = self._required_bytes(proc, param, values, varargs)
            if required is None:
                return "cannot establish required capacity"
            available = writable_extent(proc, value)
            if available < required:
                return (f"buffer at {value:#x} provides {available} bytes, "
                        f"needs {required}")
            return None
        if check == "buffer_readable_extent":
            if value == 0 and param.nullable:
                return self._null_buffer_allowed(param, values)
            extent = self._declared_extent(param, values)
            if readable_extent(proc, value) < extent:
                return (f"buffer at {value:#x} not readable for "
                        f"{extent} bytes")
            return None
        if check == "word_writable_or_null":
            if value == 0:
                return None
            if writable_extent(proc, value) < POINTER_SIZE:
                return f"out-slot {value:#x} not writable"
            return None
        if check == "word_writable":
            if writable_extent(proc, value) < POINTER_SIZE:
                return f"out-slot {value:#x} not writable"
            return None
        if check in ("ptr_in_heap_or_null", "heap_live_or_null"):
            if value == 0:
                return None
            if proc.heap.allocation_size(value) is None:
                return f"{value:#x} is not a live heap allocation"
            return None
        if check == "fn_pointer":
            try:
                proc.resolve_callback(value)
            except Exception:
                return f"{value:#x} is not a function address"
            return None
        if check == "ptr_readable_file":
            if readable_extent(proc, value) < FILE_STRUCT_BYTES:
                return f"{value:#x} is not a readable FILE object"
            return None
        if check == "file_open":
            return self._check_file(proc, value)
        if check == "int_uchar_eof":
            if value == -1 or 0 <= value <= 255:
                return None
            return f"{value} outside unsigned char range and not EOF"
        if check == "int_nonzero":
            return None if value != 0 else "zero divisor"
        if check == "int_base":
            if value == 0 or 2 <= value <= 36:
                return None
            return f"invalid conversion base {value}"
        if check == "size_bounded":
            return self._check_size_bounded(proc, param, value, values)
        if check == "format_safe":
            analysis = analyse_format(proc, value)
            if analysis is None:
                return "format string not safely terminated"
            needed, _ = analysis
            if needed > len(varargs):
                return (f"format consumes {needed} arguments, "
                        f"{len(varargs)} supplied")
            return None
        return None  # unknown template: be permissive, never crash


# ----------------------------------------------------------------------
# per-call renderings of the compiled-only generators
# ----------------------------------------------------------------------

#: check-name prefixes whose violations report EFAULT; everything else
#: is a plain invalid argument, EINVAL
_MEMORY_CHECKS = ("ptr_", "string_", "wstring_", "word_", "buffer_",
                  "heap_", "file_", "fn_")


def _arg_check_hooks(generator: ArgCheckGen,
                     unit: WrapperUnit) -> RuntimeHooks:
    """The ``arg check`` prefix: the ladder, then the containment."""
    source = unit.plan if unit.plan is not None else unit.decl
    if source is None:
        return RuntimeHooks(generator=generator.name)
    checker = InterpretedChecker(source, unit.prototype)
    emit = unit.bus.emit
    function = unit.name
    error_value = error_return_value(unit.prototype, source.error_return)
    recovery = generator._recovery()
    escalates = (recovery is not None and
                 recovery.action_for(function, "argcheck") == "escalate")
    params = {(param.name, param.check): param for param in checker.ordered}

    def check(frame: CallFrame) -> None:
        if frame.skip_call:
            return
        violation = checker.validate(frame.process, frame.args,
                                     frame.varargs)
        if violation is None:
            return
        param = params[violation.param, violation.check]
        detail = violation.detail
        emit(ViolationEvent(function=function, param=param.name,
                            check=param.check, detail=detail))
        if recovery is not None:
            emit(RecoveryEvent(
                function=function, violation="argcheck",
                action="escalate" if escalates else "contain",
                recovered=not escalates, detail=detail,
            ))
        if escalates:
            raise SecurityViolation(function, detail)
        frame.process.errno = (Errno.EFAULT
                               if param.check.startswith(_MEMORY_CHECKS)
                               else Errno.EINVAL)
        frame.skip_call = True
        frame.ret = error_value

    return RuntimeHooks(generator=generator.name, prefix=check)


def _heap_guard_hooks(generator: HeapGuardGen,
                      unit: WrapperUnit) -> RuntimeHooks:
    """The ``heap guard`` hooks: every protection tested on every call."""
    policy = generator.policy
    # the size table is the guard's own operational state — it is read
    # back within the same call (safe gets, frees), so it stays a direct
    # mutation; only observations go through the bus
    state = unit.state
    emit = unit.bus.emit
    name = unit.name
    decl = unit.plan if unit.plan is not None else unit.decl
    checker = (
        InterpretedChecker(security_view(decl), unit.prototype)
        if decl is not None else None
    )
    error_value = error_return_value(
        unit.prototype, decl.error_return if decl else ""
    )

    violation_found = _build_violation_handler(
        policy, name, state, emit, error_value
    )

    def prefix(frame: CallFrame) -> None:
        if frame.skip_call:
            return
        proc = frame.process
        if policy.verify_heap == "always" or (
            policy.verify_heap == "free" and name in DEALLOCATING
        ):
            problems = proc.heap.check_integrity()
            if problems:
                if violation_found(frame,
                                   f"heap corrupted: {problems[0]}",
                                   _heap_kind(problems[0])):
                    return
        if name in DEALLOCATING and frame.args:
            pointer = frame.args[0]
            if (policy.guard_free and pointer
                    and proc.heap.allocation_size(pointer) is None):
                if violation_found(frame,
                                   _invalid_free_reason(pointer),
                                   "invalid_free"):
                    return
            state.size_table.pop(pointer, None)
        if policy.safe_gets and name == "gets":
            _safe_gets(frame, state, emit, violation_found)
            return
        if (policy.reject_percent_n or policy.check_format_args) \
                and decl is not None:
            detail = _format_check(proc, decl, frame, policy)
            if detail is not None:
                violation_found(frame, detail, "format")
                return
        if policy.enforce_bounds and checker is not None:
            for violation in checker.validate_all(proc, frame.args,
                                                  frame.varargs):
                if _is_write_violation(decl, violation):
                    violation_found(
                        frame,
                        f"write overflow: {violation.detail} "
                        f"(param {violation.param})",
                        "bounds",
                    )
                    return

    def postfix(frame: CallFrame) -> None:
        if name in ALLOCATING and frame.ret:
            size = _allocation_size(name, frame)
            if size is not None:
                state.size_table[frame.ret] = size

    return RuntimeHooks(generator=generator.name, prefix=prefix,
                        postfix=postfix)


def _is_write_violation(decl, violation: CheckViolation) -> bool:
    if violation.check == "size_bounded":
        # over-long counts against writable buffers are write overflows;
        # read overruns are a robustness matter, not the security policy's
        return "(write)" in violation.detail
    if violation.check not in WRITE_CHECKS:
        return False
    if decl is None:
        return True
    for param in decl.params:
        if param.name == violation.param:
            return param.role in WRITE_ROLES or not param.role
    return False


def _format_check(proc: SimProcess, decl, frame: CallFrame,
                  policy: SecurityPolicy) -> Optional[str]:
    for index, param in enumerate(decl.params):
        if param.role != "format":
            continue
        if index >= len(frame.args):
            continue
        analysis = analyse_format(proc, frame.args[index])
        if analysis is None:
            return "format string is not a valid string"
        consumed, uses_n = analysis
        if policy.reject_percent_n and uses_n:
            return "format string contains %n"
        if policy.check_format_args and consumed > len(frame.varargs):
            return _format_arity_reason(consumed, len(frame.varargs))
    return None


def _retry_hooks(generator: RetryGen, unit: WrapperUnit) -> RuntimeHooks:
    """The ``retry`` pair: a prefix saves and clears errno, a postfix
    re-invokes the call through its own one-shot resolver (postfixes run
    innermost-first, so it sees the ret the caller just produced)."""
    recovery = generator._recovery()
    if recovery is None or recovery.retries_for(unit.name) == 0:
        return RuntimeHooks(generator=generator.name)
    name = unit.name
    emit = unit.bus.emit
    max_retries = recovery.max_retries
    backoff = recovery.retry_backoff_fuel
    transient = frozenset(recovery.transient_errnos)
    error_value = error_return_value(
        unit.prototype, unit.decl.error_return if unit.decl else ""
    )
    resolve_next = unit.resolve_next
    lock = threading.Lock()
    cache: list = [None]

    def acquire() -> Callable:
        target = cache[0]
        if target is None:
            with lock:
                target = cache[0]
                if target is None:
                    target = resolve_next()
                    target = getattr(target, "impl", target)
                    cache[0] = target
        return target

    def retry_pre(frame: CallFrame) -> None:
        if frame.skip_call:
            return
        proc = frame.process
        frame.scratch["retry_errno"] = proc.errno
        proc.errno = 0

    def retry_post(frame: CallFrame) -> None:
        saved = frame.scratch.pop("retry_errno", None)
        if saved is None:
            return  # the call was contained before our prefix ran
        proc = frame.process
        if frame.ret == error_value and proc.errno in transient:
            attempts = 0
            target = acquire()
            while attempts < max_retries:
                attempts += 1
                proc.consume(backoff * attempts)
                proc.errno = 0
                frame.ret = target(proc, *frame.all_args)
                if (frame.ret != error_value
                        or proc.errno not in transient):
                    break
            emit(RecoveryEvent(
                function=name, violation="transient_errno",
                action="retry", attempts=attempts,
                recovered=frame.ret != error_value,
            ))
        if proc.errno == 0:
            proc.errno = saved

    return RuntimeHooks(generator=generator.name, prefix=retry_pre,
                        postfix=retry_post, uses_scratch=True)


#: generator class -> its per-call rendering, ``render(generator, unit)``;
#: subclasses (the extensions' fixed-budget ``RetryGen``) inherit theirs
RENDERINGS: Dict[type, Callable[[Any, WrapperUnit], RuntimeHooks]] = {
    ArgCheckGen: _arg_check_hooks,
    HeapGuardGen: _heap_guard_hooks,
    RetryGen: _retry_hooks,
}
