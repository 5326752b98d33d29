"""The micro-generator framework (Section 2.3, [5]).

"The functionality of a wrapper generator is decomposed into a number of
features, each supported by a micro-generator.  Each micro-generator
generates a fragment of the prefix and postfix code of a function.  The
micro-generators can be combined in a variety of ways to generate new
wrapper types."

A micro-generator here produces *two* renderings of its feature:

* :meth:`MicroGenerator.c_fragment` — the C source text fragments, used by
  the C backend to emit wrappers byte-for-byte in the style of Fig. 3;
* :meth:`MicroGenerator.runtime_hooks` — executable prefix/postfix hooks,
  compiled by :func:`~repro.wrappers.fastpath.compile_wrapper` into a
  wrapper that actually interposes in the simulated linker.

Composition semantics match the figure: prefix fragments run in generator
order, postfix fragments in *reverse* order, so generators nest and the
``caller`` generator (always last) performs the intercepted call at the
innermost point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.headers.model import Prototype
from repro.robust.api import FunctionDecl
from repro.robust.introspect import CheckPlan
from repro.runtime.process import SimProcess
from repro.telemetry import EventBus, StateSink
from repro.wrappers.state import WrapperState


@dataclass
class Fragment:
    """C text contributed by one micro-generator for one function."""

    generator: str
    prefix: str = ""
    postfix: str = ""
    #: file-scope declarations this generator needs (emitted once)
    globals: str = ""


#: shared scratch placeholder for compiled wrappers whose generators never
#: touch ``frame.scratch`` — skips one dict allocation per call
NO_SCRATCH: Dict[str, Any] = {}


class CallFrame:
    """Runtime state of one intercepted call, threaded through hooks.

    A plain ``__slots__`` class (not a dataclass): one CallFrame is
    allocated per intercepted call, so construction is hot-path cost.
    """

    __slots__ = ("process", "function", "args", "varargs", "ret",
                 "skip_call", "scratch")

    def __init__(self, process: SimProcess, function: str,
                 args: Sequence[Any], varargs: Sequence[Any] = (),
                 ret: Any = None, skip_call: bool = False,
                 scratch: Optional[Dict[str, Any]] = None):
        self.process = process
        self.function = function
        self.args = args
        self.varargs = varargs
        self.ret = ret
        #: set by a containment prefix to suppress the real call
        self.skip_call = skip_call
        #: scratch space for generator-private values (start timestamps…)
        self.scratch = {} if scratch is None else scratch

    @property
    def all_args(self) -> tuple:
        varargs = self.varargs
        if not varargs:
            return tuple(self.args)
        return tuple(self.args) + tuple(varargs)

    def __repr__(self) -> str:
        return (f"CallFrame(function={self.function!r}, args={self.args!r}, "
                f"varargs={self.varargs!r}, ret={self.ret!r})")


#: a prefix/postfix hook: mutates the frame, returns nothing
Hook = Callable[[CallFrame], None]


@dataclass
class RuntimeHooks:
    """Executable rendering of one micro-generator for one function.

    The extra fields are build-time metadata the wrapper compiler
    (:mod:`repro.wrappers.fastpath`) specializes on.
    """

    generator: str
    prefix: Optional[Hook] = None
    postfix: Optional[Hook] = None
    #: hooks that only publish telemetry; a compiled wrapper may skip
    #: them entirely while the library's bus has no sink attached
    telemetry_only: bool = False
    #: hooks that read or write ``frame.scratch`` (forces a real dict)
    uses_scratch: bool = False
    #: set by the caller generator: a zero-argument resolver returning
    #: the next (shadowed) definition, letting a compiled wrapper whose
    #: only remaining hook is the intercepted call bypass CallFrame
    #: construction altogether
    direct_target: Optional[Callable[[], Callable]] = None
    #: frame-free rendering of ``prefix`` for guard-style hooks:
    #: ``(process, args, varargs) -> None`` to proceed with the call, or
    #: a one-tuple ``(value,)`` to contain it (the wrapper returns
    #: ``value`` without calling through).  When every prefix in a chain
    #: offers one, the compiled wrapper skips CallFrame entirely.
    guard: Optional[Callable[..., Optional[tuple]]] = None
    #: transformer of the *resolved* call target, applied once at first
    #: resolution: ``wrap_call(target) -> target'``.  Lets a generator
    #: interpose on the intercepted call itself (the retry generator's
    #: bounded re-execution) without forfeiting the compiled wrapper's
    #: direct-tail-call or frame-free guard forms.  A plain per-call hook
    #: loop would drop it, so the tests' reference composer carries its
    #: own prefix/postfix rendering of every generator that offers one.
    wrap_call: Optional[Callable[[Callable], Callable]] = None


@dataclass
class WrapperUnit:
    """Everything a micro-generator may consult for one function."""

    prototype: Prototype
    decl: Optional[FunctionDecl]
    state: WrapperState
    #: resolves the next (shadowed) definition — dlsym(RTLD_NEXT)
    resolve_next: Callable[[], Callable]
    #: the library's telemetry bus; hooks publish events here instead of
    #: mutating ``state`` (a StateSink rebuilds it at flush time)
    bus: Optional[EventBus] = None
    #: the introspection-derived check plan, when the declaration
    #: document carries one; check-consuming generators prefer it over
    #: the hand-tuned ``decl`` tables (full-coverage checks)
    plan: Optional[CheckPlan] = None

    def __post_init__(self) -> None:
        if self.bus is None:
            # stand-alone units (tests, direct construction) still feed
            # their state, through a private single-sink bus
            self.bus = EventBus(sinks=[StateSink(self.state)])

    @property
    def name(self) -> str:
        return self.prototype.name

    @property
    def index(self) -> int:
        return self.state.index_of(self.name)

    def arg_names(self) -> List[str]:
        return [p.name for p in self.prototype.params]


class MicroGenerator:
    """Base class: one composable wrapper feature."""

    #: unique feature name, as shown in the Fig. 3 comments
    name: str = "abstract"

    def c_fragment(self, unit: WrapperUnit) -> Fragment:
        """C text fragments for this feature (may be empty)."""
        return Fragment(generator=self.name)

    def runtime_hooks(self, unit: WrapperUnit) -> RuntimeHooks:
        """Executable hooks for this feature (may be empty)."""
        return RuntimeHooks(generator=self.name)


class GeneratorRegistry:
    """Name → micro-generator lookup used by wrapper-type presets."""

    def __init__(self) -> None:
        self._generators: Dict[str, MicroGenerator] = {}

    def register(self, generator: MicroGenerator) -> MicroGenerator:
        if generator.name in self._generators:
            raise ValueError(f"duplicate micro-generator {generator.name!r}")
        self._generators[generator.name] = generator
        return generator

    def get(self, name: str) -> MicroGenerator:
        try:
            return self._generators[name]
        except KeyError:
            raise KeyError(
                f"unknown micro-generator {name!r}; "
                f"known: {', '.join(sorted(self._generators))}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._generators)

    def __contains__(self, name: str) -> bool:
        return name in self._generators

