"""The standard micro-generators.

``prototype`` and ``caller`` are the structural pair every wrapper needs
(the paper calls them "standard micro-generators"); ``call counter``,
``function exectime``, ``collect errors`` and ``func errors`` are the
profiling features visible in Fig. 3; ``arg check`` is the
fault-containment feature synthesised from the robust API; ``log call``
supports the logging wrapper.  The security feature (heap-overflow
containment) lives in :mod:`repro.security.guard` next to the policies it
enforces.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.errors import SecurityViolation
from repro.headers.model import CType, Prototype
from repro.robust.checks import ArgumentChecker
from repro.runtime.process import Errno
from repro.telemetry import (
    CallEvent,
    CallLogEvent,
    ErrnoEvent,
    ExectimeEvent,
    RecoveryEvent,
    ViolationEvent,
)
from repro.wrappers.microgen import (
    CallFrame,
    Fragment,
    MicroGenerator,
    RuntimeHooks,
    WrapperUnit,
)


def error_return_value(prototype: Prototype, convention: str) -> Any:
    """The value a contained call reports, per the return convention."""
    rt: CType = prototype.return_type
    if rt.is_pointer:
        return 0
    if rt.is_void:
        return 0
    if rt.is_float:
        return 0.0
    if convention == "zero":
        return 0
    if convention in ("negative", "eof"):
        return -1
    return 0 if rt.is_unsigned else -1


class PrototypeGen(MicroGenerator):
    """Declares the wrapper function and returns ``ret`` (structure only)."""

    name = "prototype"

    def c_fragment(self, unit: WrapperUnit) -> Fragment:
        proto = unit.prototype
        args = [p.declare() for p in proto.params] or ["void"]
        if proto.variadic:
            args.append("...")
        signature = (
            f"{proto.return_type.spelling} {proto.name}"
            f"({', '.join(args)})"
        )
        ret_decl = ""
        ret_stmt = "    return;\n"
        if not proto.return_type.is_void:
            ret_decl = f"    {proto.return_type.spelling} ret;\n"
            ret_stmt = "    return ret;\n"
        return Fragment(
            generator=self.name,
            prefix=f"{signature}\n{{\n{ret_decl}",
            postfix=f"{ret_stmt}}}\n",
        )

    # the runtime wrapper gets its structure from compile_wrapper itself


class CallerGen(MicroGenerator):
    """Performs the intercepted call through the next definition."""

    name = "caller"

    def c_fragment(self, unit: WrapperUnit) -> Fragment:
        proto = unit.prototype
        args = ", ".join(p.name for p in proto.params)
        assign = "" if proto.return_type.is_void else "ret = "
        return Fragment(
            generator=self.name,
            globals=(
                f"static {proto.return_type.spelling} "
                f"(*addr_{proto.name})() = 0; /* dlsym(RTLD_NEXT) */\n"
            ),
            postfix=f"    {assign}(*addr_{proto.name})({args});\n",
        )

    def runtime_hooks(self, unit: WrapperUnit) -> RuntimeHooks:
        # one-shot resolution, double-checked: under threaded campaigns
        # two first calls must not race resolve_next(); the unlocked
        # fast-path read of cache[0] is GIL-atomic
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
                        # a Symbol's __call__ only delegates to .impl:
                        # bind the implementation itself and skip one
                        # Python call layer on every intercepted call
                        target = getattr(target, "impl", target)
                        cache[0] = target
            return target

        def call(frame: CallFrame) -> None:
            if frame.skip_call:
                return
            frame.ret = acquire()(frame.process, *frame.all_args)

        return RuntimeHooks(generator=self.name, postfix=call,
                            direct_target=acquire)


class CallCounterGen(MicroGenerator):
    """Counts invocations per function (Fig. 3's call counter)."""

    name = "call counter"

    def c_fragment(self, unit: WrapperUnit) -> Fragment:
        return Fragment(
            generator=self.name,
            globals="static unsigned long call_counter_num_calls[MAX_FUNCTIONS];\n",
            prefix=f"    ++call_counter_num_calls[{unit.index}];\n",
        )

    def runtime_hooks(self, unit: WrapperUnit) -> RuntimeHooks:
        emit = unit.bus.emit
        name = unit.name

        def count(frame: CallFrame) -> None:
            emit(CallEvent(name))

        return RuntimeHooks(generator=self.name, prefix=count,
                            telemetry_only=True)


class ExectimeGen(MicroGenerator):
    """Accumulates per-function execution time (Fig. 3's rdtsc pair)."""

    name = "function exectime"

    def c_fragment(self, unit: WrapperUnit) -> Fragment:
        return Fragment(
            generator=self.name,
            globals="static unsigned long long exectime[MAX_FUNCTIONS];\n",
            prefix=(
                "    unsigned long long exectime_start;\n"
                "    unsigned long long exectime_end;\n"
                "    rdtsc(exectime_start);\n"
            ),
            postfix=(
                "    rdtsc(exectime_end);\n"
                f"    exectime[{unit.index}] += exectime_end - exectime_start;\n"
            ),
        )

    def runtime_hooks(self, unit: WrapperUnit) -> RuntimeHooks:
        emit = unit.bus.emit
        name = unit.name

        def start(frame: CallFrame) -> None:
            frame.scratch["exectime_start"] = time.perf_counter_ns()

        def stop(frame: CallFrame) -> None:
            started = frame.scratch.get("exectime_start")
            if started is not None:
                emit(ExectimeEvent(name,
                                   time.perf_counter_ns() - started))

        return RuntimeHooks(generator=self.name, prefix=start, postfix=stop,
                            telemetry_only=True, uses_scratch=True)


class CollectErrorsGen(MicroGenerator):
    """Global errno distribution (Fig. 3's collect errors)."""

    name = "collect errors"

    def c_fragment(self, unit: WrapperUnit) -> Fragment:
        return Fragment(
            generator=self.name,
            globals="static unsigned long collect_errors_cnter[MAX_ERRNO + 1];\n",
            prefix="    int collect_errors_err = errno;\n",
            postfix=(
                "    if (collect_errors_err != errno)\n"
                "        if (errno < 0 || errno >= MAX_ERRNO)\n"
                "            ++collect_errors_cnter[MAX_ERRNO];\n"
                "        else\n"
                "            ++collect_errors_cnter[errno];\n"
            ),
        )

    def runtime_hooks(self, unit: WrapperUnit) -> RuntimeHooks:
        emit = unit.bus.emit
        name = unit.name

        def before(frame: CallFrame) -> None:
            frame.scratch["collect_errors_err"] = frame.process.errno

        def after(frame: CallFrame) -> None:
            errno_now = frame.process.errno
            if errno_now != frame.scratch.get("collect_errors_err"):
                bucket = errno_now
                if bucket < 0 or bucket >= Errno.MAX_ERRNO:
                    bucket = Errno.MAX_ERRNO
                emit(ErrnoEvent(name, bucket, scope="global"))

        return RuntimeHooks(generator=self.name, prefix=before, postfix=after,
                            telemetry_only=True, uses_scratch=True)


class FuncErrorsGen(MicroGenerator):
    """Per-function errno distribution (Fig. 3's func errors)."""

    name = "func errors"

    def c_fragment(self, unit: WrapperUnit) -> Fragment:
        return Fragment(
            generator=self.name,
            globals=(
                "static unsigned long "
                "func_error_cnter[MAX_FUNCTIONS][MAX_ERRNO + 1];\n"
            ),
            prefix="    int func_error_err = errno;\n",
            postfix=(
                "    if (func_error_err != errno)\n"
                "        if (errno < 0 || errno >= MAX_ERRNO)\n"
                f"            ++func_error_cnter[{unit.index}][MAX_ERRNO];\n"
                "        else\n"
                f"            ++func_error_cnter[{unit.index}][errno];\n"
            ),
        )

    def runtime_hooks(self, unit: WrapperUnit) -> RuntimeHooks:
        emit = unit.bus.emit
        name = unit.name

        def before(frame: CallFrame) -> None:
            frame.scratch["func_error_err"] = frame.process.errno

        def after(frame: CallFrame) -> None:
            errno_now = frame.process.errno
            if errno_now != frame.scratch.get("func_error_err"):
                bucket = errno_now
                if bucket < 0 or bucket >= Errno.MAX_ERRNO:
                    bucket = Errno.MAX_ERRNO
                emit(ErrnoEvent(name, bucket, scope="function"))

        return RuntimeHooks(generator=self.name, prefix=before, postfix=after,
                            telemetry_only=True, uses_scratch=True)


#: check-name prefixes whose violations report EFAULT (memory-ish
#: failures); everything else is a plain invalid argument, EINVAL
_MEMORY_CHECKS = ("ptr_", "string_", "wstring_", "word_", "buffer_",
                  "heap_", "file_", "fn_")


class ArgCheckGen(MicroGenerator):
    """Fault containment: refuse argument vectors outside the robust API.

    On a violation the real call is suppressed; the wrapper reports the
    function's documented error convention (NULL / -1 / EOF) with errno
    set, turning a would-be crash into a checkable error return.  A
    recovery policy (``policy.recovery``) may escalate instead: the
    ``argcheck`` violation kind mapped to ``escalate`` aborts the
    protected program rather than containing the call.
    """

    name = "arg check"

    def __init__(self, policy=None):
        #: optional SecurityPolicy (or anything carrying ``.recovery``);
        #: read at hook-build time so a deployment file applied after
        #: registry construction still takes effect
        self.policy = policy

    def _recovery(self):
        return getattr(self.policy, "recovery", None)

    def c_fragment(self, unit: WrapperUnit) -> Fragment:
        lines = []
        decl = unit.plan if unit.plan is not None else unit.decl
        error_value = "NULL" if unit.prototype.return_type.is_pointer else "-1"
        if decl is not None:
            for param in decl.params:
                if not param.check:
                    continue
                lines.append(
                    f"    if (!healers_check_{param.check}"
                    f"({param.name}{_c_check_extra(param)}))\n"
                    f"        {{ errno = EINVAL; "
                    f"{'return ' + error_value + ';' if not unit.prototype.return_type.is_void else 'return;'} }}\n"
                )
        return Fragment(generator=self.name, prefix="".join(lines))

    def runtime_hooks(self, unit: WrapperUnit) -> RuntimeHooks:
        # the introspected plan (full coverage) wins over the hand-tuned
        # declaration tables; legacy documents carry no plans and keep
        # the decl path byte-for-byte
        source = unit.plan if unit.plan is not None else unit.decl
        if source is None:
            return RuntimeHooks(generator=self.name)
        checker = ArgumentChecker(source, unit.prototype)
        if not checker.has_checks:
            # nothing can ever fire: elide the per-call prefix entirely
            return RuntimeHooks(generator=self.name)
        emit = unit.bus.emit
        function = unit.name
        contained = (error_return_value(unit.prototype,
                                        source.error_return),)
        recovery = self._recovery()
        escalates = (recovery is not None and
                     recovery.action_for(function, "argcheck")
                     == "escalate")

        def violate(process, param, detail: str):
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
            process.errno = (Errno.EFAULT
                             if param.check.startswith(_MEMORY_CHECKS)
                             else Errno.EINVAL)
            return contained

        # frame-free form: the plan loop behind the verdict memo,
        # containing through ``violate``
        guard = checker.memoized(violate)

        def check(frame: CallFrame) -> None:
            if frame.skip_call:
                return
            refused = guard(frame.process, frame.args, frame.varargs)
            if refused is not None:
                frame.skip_call = True
                frame.ret = refused[0]

        return RuntimeHooks(generator=self.name, prefix=check, guard=guard)


class LogCallGen(MicroGenerator):
    """Appends (function, args) records for later failure diagnosis."""

    name = "log call"

    def c_fragment(self, unit: WrapperUnit) -> Fragment:
        args = ", ".join(p.name for p in unit.prototype.params)
        fmt = ", ".join("%lx" for _ in unit.prototype.params)
        return Fragment(
            generator=self.name,
            prefix=(
                f'    healers_log("{unit.name}({fmt})"'
                f"{', ' + args if args else ''});\n"
            ),
        )

    def runtime_hooks(self, unit: WrapperUnit) -> RuntimeHooks:
        emit = unit.bus.emit
        name = unit.name

        def log(frame: CallFrame) -> None:
            emit(CallLogEvent(name, tuple(frame.all_args)))

        return RuntimeHooks(generator=self.name, prefix=log,
                            telemetry_only=True)


def _c_check_extra(param) -> str:
    """Extra C arguments for relational check helpers."""
    extras = []
    if param.size_from:
        extras.append(param.size_from)
    if param.size_param:
        extras.append(param.size_param)
    if param.size_mul:
        extras.append(param.size_mul)
    if param.min_size:
        extras.append(str(param.min_size))
    return (", " + ", ".join(extras)) if extras else ""
