"""Wrapper-library composition: micro-generators → preloadable library.

``WrapperFactory.build_library`` compiles one executable wrapper per
library function from a list of micro-generators
(:func:`~repro.wrappers.fastpath.compile_wrapper`) and packages them as
a :class:`~repro.linker.SharedLibrary` ready for ``LD_PRELOAD`` in the
simulated linker.  Different generator lists yield the different wrapper
types of Fig. 1; the same factory also drives the C text backend so both
renderings come from one composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.libc.registry import LibcRegistry
from repro.linker import DynamicLinker, SharedLibrary
from repro.robust.api import RobustAPIDocument
from repro.telemetry import EventBus, Sink, StateSink
from repro.wrappers.fastpath import compile_wrapper
from repro.wrappers.microgen import (
    GeneratorRegistry,
    MicroGenerator,
    WrapperUnit,
)
from repro.wrappers.state import WrapperState


@dataclass
class WrapperSpec:
    """A wrapper type: a named list of micro-generator features."""

    name: str
    generators: List[str]
    description: str = ""

    def __post_init__(self) -> None:
        if "prototype" not in self.generators:
            self.generators = ["prototype"] + self.generators
        if "caller" not in self.generators:
            self.generators = self.generators + ["caller"]
        if self.generators[-1] != "caller":
            raise ValueError(
                "the caller micro-generator must be innermost (last)"
            )


class BuiltWrapper:
    """Result of building one wrapper library.

    Wrapper hooks publish telemetry events into :attr:`bus`; reading
    :attr:`state` flushes the bus first, so callers always observe
    counters that include every event emitted so far.
    """

    def __init__(self, library: SharedLibrary, state: WrapperState,
                 spec: WrapperSpec,
                 functions: Optional[List[str]] = None,
                 bus: Optional[EventBus] = None):
        self.library = library
        self.spec = spec
        self.functions: List[str] = list(functions or [])
        self.bus = bus if bus is not None else EventBus(
            sinks=[StateSink(state)]
        )
        self._state = state

    @property
    def state(self) -> WrapperState:
        """The rebuilt wrapper state, flushed up to the latest event."""
        self.bus.flush()
        return self._state


class ResolverTable:
    """Shared next-definition cache for one ``(app, preset)`` pair.

    Every wrapper's caller hook performs one ``dlsym(RTLD_NEXT)`` lookup
    the first time its function is called.  That cost is per *library
    build*: a serving harness that rebuilds the same preset stack per
    session (or per benchmark variant) pays the walk over the search
    scope again for every function.  A ResolverTable hoists the lookup
    to the pair: the first build resolves and caches the underlying
    implementation per name, later builds bind straight to the cached
    target.

    Correctness contract: a table must only be shared across builds
    whose search scope below the wrapper library is identical (same base
    registry, same preload stack shape).  The toolkit's registries
    expose one implementation object per function, so the cached target
    is the exact callable a fresh ``resolve_next`` would return.
    """

    def __init__(self) -> None:
        self._targets: Dict[str, object] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._targets)

    def bind(self, name, resolve_next):
        """Wrap ``resolve_next`` with the table's memoization."""
        targets = self._targets

        def resolve():
            target = targets.get(name)
            if target is None:
                # unwrap the Symbol layer once; wrappers call the
                # implementation with (process, *args) either way
                target = resolve_next()
                target = getattr(target, "impl", target)
                targets[name] = target
                self.misses += 1
            else:
                self.hits += 1
            return target

        return resolve


class WrapperFactory:
    """Builds wrapper libraries over one base library registry."""

    def __init__(
        self,
        registry: LibcRegistry,
        api: Optional[RobustAPIDocument] = None,
        generators: Optional[GeneratorRegistry] = None,
    ):
        from repro.wrappers.presets import default_generator_registry

        self.registry = registry
        self.api = api
        self.generators = generators or default_generator_registry()

    # ------------------------------------------------------------------

    def resolve_spec(self, spec: WrapperSpec) -> List[MicroGenerator]:
        return [self.generators.get(name) for name in spec.generators]

    def make_unit(self, function_name: str, state: WrapperState,
                  linker: DynamicLinker,
                  library: SharedLibrary,
                  bus: Optional[EventBus] = None,
                  resolver: Optional[ResolverTable] = None) -> WrapperUnit:
        function = self.registry[function_name]
        decl = None
        plan = None
        if self.api is not None:
            decl = self.api.functions.get(function_name)
            plan = self.api.plan_for(function_name)
        resolve_next = lambda: linker.resolve_next(function_name, library)
        if resolver is not None:
            resolve_next = resolver.bind(function_name, resolve_next)
        return WrapperUnit(
            prototype=function.prototype,
            decl=decl,
            state=state,
            resolve_next=resolve_next,
            bus=bus,
            plan=plan,
        )

    def build_library(
        self,
        linker: DynamicLinker,
        spec: WrapperSpec,
        soname: Optional[str] = None,
        functions: Optional[Sequence[str]] = None,
        state: Optional[WrapperState] = None,
        sinks: Optional[Sequence[Sink]] = None,
        bus_capacity: int = 256,
        telemetry: bool = True,
        resolver: Optional[ResolverTable] = None,
    ) -> BuiltWrapper:
        """Build (but do not preload) a wrapper library.

        ``functions`` restricts wrapping to a subset — "an application
        should only pay the overhead for the protection it actually
        needs".  Every wrapper of the library publishes into one shared
        :class:`~repro.telemetry.EventBus` carrying a ``StateSink`` (so
        the Fig. 5 state keeps accumulating) plus any extra ``sinks``
        (JSONL traces, metrics, collection shipping).

        Each function's hooks are specialized into one compiled closure
        at build time.  ``telemetry=False`` builds the bus with no sinks
        at all — the wrappers then skip telemetry-only hooks and event
        construction entirely (subscribing a sink later re-enables them);
        ``BuiltWrapper.state`` stays empty.

        ``resolver`` shares a :class:`ResolverTable` across builds so the
        per-wrapper ``dlsym(RTLD_NEXT)`` walk happens once per name per
        table instead of once per build (serving keeps one table per
        ``(app, preset)`` pair).
        """
        generator_list = self.resolve_spec(spec)
        state = state if state is not None else WrapperState()
        soname = soname or f"libhealers_{spec.name}.so"
        library = SharedLibrary(soname)
        names = list(functions) if functions is not None else self.registry.names()
        bus = EventBus(
            capacity=bus_capacity,
            sinks=([StateSink(state), *(sinks or ())] if telemetry else []),
        )
        built = BuiltWrapper(library=library, state=state, spec=spec,
                             bus=bus)
        for name in names:
            if name not in self.registry:
                raise KeyError(f"cannot wrap unknown function {name!r}")
            unit = self.make_unit(name, state, linker, library, bus=bus,
                                  resolver=resolver)
            impl = compile_wrapper(unit, generator_list)
            library.define(name, impl, prototype=unit.prototype)
            built.functions.append(name)
        return built

    def preload(self, linker: DynamicLinker, spec: WrapperSpec,
                **kwargs) -> BuiltWrapper:
        """Build a wrapper library and LD_PRELOAD it."""
        built = self.build_library(linker, spec, **kwargs)
        linker.preload(built.library)
        return built


def units_for(factory: WrapperFactory, names: Sequence[str],
              state: Optional[WrapperState] = None
              ) -> Tuple[List[WrapperUnit], WrapperState]:
    """Offline units (no linker) for the C text backend."""
    state = state if state is not None else WrapperState()
    bus = EventBus(sinks=[StateSink(state)])

    def missing_next():
        raise RuntimeError("C backend units cannot call the next definition")

    units = []
    for name in names:
        function = factory.registry[name]
        decl = factory.api.functions.get(name) if factory.api else None
        plan = factory.api.plan_for(name) if factory.api else None
        units.append(
            WrapperUnit(
                prototype=function.prototype,
                decl=decl,
                state=state,
                resolve_next=missing_next,
                bus=bus,
                plan=plan,
            )
        )
    return units, state
