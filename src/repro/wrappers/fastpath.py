"""Build-time wrapper compilation: hook chains → specialized closures.

HEALERS generates wrapper *code* ahead of time precisely so the
interposition layer adds near-zero per-call cost (Section 3's overhead
claim).  This module mirrors that generate-then-run design at
``build_library`` time, and is the only way hooks become wrappers (a
per-call loop over :class:`RuntimeHooks` survives only as the tests'
reference oracle): ``compile_wrapper`` flattens a function's micro-generator hook chain
(prefixes in generator order, postfixes reversed) into **one specialized
closure**, rendered as source text and compiled once per structural
shape.  Specializations applied:

* the per-call hook loop disappears — hook calls are unrolled into
  straight-line code;
* ``CallFrame.scratch`` is only allocated when a participating generator
  declares ``uses_scratch`` (otherwise a shared empty dict is threaded);
* hooks marked ``telemetry_only`` are skipped entirely while the
  library's bus has no sink attached — the guard reads the bus's
  identity-stable sink list per call, so a later ``subscribe``
  re-enables them without a rebuild;
* a branch reduced to the intercepted call alone bypasses ``CallFrame``
  construction and tail-calls the next definition directly;
* a branch whose every prefix offers a frame-free ``guard`` form (e.g.
  the compiled argument checker, whether its checks come from hand-tuned
  declaration tables or an introspection-derived :class:`CheckPlan`) and
  whose only postfix is the intercepted call runs entirely without a
  ``CallFrame``: guards either pass or return the contained error value,
  then the wrapper tail-calls through the caller's one-shot resolver.

Compiled code objects are cached by structural shape (hook counts,
scratch need, telemetry split), so building a 100-function library
compiles only a handful of templates.

On top of per-function compilation this module also provides *cross-call
fusion* for serving workloads: ``compile_wrapper`` attaches a
:class:`FastParts` record describing the shapes its branches reduced to,
and :class:`FusedRuntime`/:class:`FusedImage` use those parts to execute
a recorded per-request call trace through pre-resolved *fused entries* —
the resolved target itself for direct-form chains, an exec-unrolled
guard ladder for frame-free chains — with one telemetry-mode decision
per request instead of per call.  A request whose calls diverge from
the trace deopts to a per-name entry table and, past that, to the
plain ``LinkedImage`` PLT, so fused execution stays byte-identical to
unfused (same faults, errno, violations, fuel).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.robust.checks import _deps_intact
from repro.wrappers.microgen import (
    NO_SCRATCH,
    CallFrame,
    Hook,
    MicroGenerator,
    RuntimeHooks,
    WrapperUnit,
)

#: one flattened step: (hook callable, owning RuntimeHooks, phase)
_Step = Tuple[Hook, RuntimeHooks, str]


def _chain(hooks: Sequence[RuntimeHooks],
           include_telemetry: bool) -> List[_Step]:
    """Flatten hooks into call order (prefixes, then reversed postfixes)."""
    steps: List[_Step] = []
    for h in hooks:
        if h.prefix is not None and (include_telemetry
                                     or not h.telemetry_only):
            steps.append((h.prefix, h, "prefix"))
    for h in reversed(hooks):
        if h.postfix is not None and (include_telemetry
                                      or not h.telemetry_only):
            steps.append((h.postfix, h, "postfix"))
    return steps


def _direct_resolver(steps: List[_Step]) -> "Callable[[], Callable] | None":
    """The caller's resolver, when the chain is the intercepted call only."""
    if len(steps) == 1:
        fn, owner, phase = steps[0]
        if phase == "postfix" and owner.direct_target is not None:
            return owner.direct_target
    return None


def _guard_body(steps: List[_Step], names: List[str],
                indent: str) -> "List[str] | None":
    """Frame-free branch: every prefix is a guard, the only postfix is
    the intercepted call.  Guards either pass (None) or contain the call
    with a one-tuple carrying the error return — no CallFrame needed."""
    if _guard_steps(steps) is None:
        return None
    lines = [
        f"{indent}base = args[:ARITY]",
        f"{indent}extra = args[ARITY:]",
    ]
    for (fn, owner, phase), name in zip(steps, names):
        if phase != "prefix":
            continue
        lines.append(
            f"{indent}contained = g{name[1:]}(process, base, extra)"
        )
        lines.append(f"{indent}if contained is not None:")
        lines.append(f"{indent}    return contained[0]")
    lines.append(f"{indent}return _resolve()(process, *args)")
    return lines


def _guard_steps(steps: List[_Step]) -> "Tuple[Callable, ...] | None":
    """The ordered guard callables when a chain is frame-free guard form.

    Eligible means at least one prefix, every prefix offers a ``guard``,
    and every postfix is the intercepted call.  Returns None when the
    chain needs a CallFrame.
    """
    if not steps or not any(phase == "prefix" for _, _, phase in steps):
        return None
    guards: List[Callable] = []
    for _, owner, phase in steps:
        if phase == "prefix":
            if owner.guard is None:
                return None
            guards.append(owner.guard)
        elif phase == "postfix" and owner.direct_target is None:
            return None
    return tuple(guards)


def _body(steps: List[_Step], names: List[str], indent: str) -> List[str]:
    """Render one branch: direct tail-call, or frame + unrolled hooks."""
    direct = _direct_resolver(steps)
    if direct is not None:
        return [f"{indent}return _direct()(process, *args)"]
    if not steps:
        return [f"{indent}return None"]
    guarded = _guard_body(steps, names, indent)
    if guarded is not None:
        return guarded
    needs_scratch = any(owner.uses_scratch for _, owner, _ in steps)
    scratch = "None" if needs_scratch else "NO_SCRATCH"
    lines = [
        # tuple slicing is allocation-free at the exact arity: a full
        # slice returns the tuple itself and an empty tail returns ()
        f"{indent}frame = CallFrame(process, NAME, args[:ARITY], "
        f"args[ARITY:], None, False, {scratch})",
    ]
    for (fn, owner, phase), name in zip(steps, names):
        if phase == "postfix" and owner.direct_target is not None:
            # the intercepted call itself: inline the caller hook's body
            # (skip_call test + tail call through the one-shot resolver)
            # instead of paying another Python frame per call
            lines.append(f"{indent}if not frame.skip_call:")
            lines.append(
                f"{indent}    frame.ret = _resolve()"
                "(process, *frame.args, *frame.varargs)"
            )
        else:
            lines.append(f"{indent}{name}(frame)")
    lines.append(f"{indent}return frame.ret")
    return lines


def _wrap_resolver(resolver, transformers):
    """Apply ``wrap_call`` transformers behind a one-shot resolver.

    The wrapped target is built lazily at first resolution and memoized,
    so per-call cost stays one indirection — same as the unwrapped
    resolver — and build order matches generator order (the last
    generator's transformer ends up outermost)."""
    if resolver is None or not transformers:
        return resolver
    cache: List[Callable] = []

    def resolve_wrapped() -> Callable:
        if not cache:
            target = resolver()
            for transform in transformers:
                target = transform(target)
            cache.append(target)
        return cache[0]

    return resolve_wrapped


@lru_cache(maxsize=None)
def _template(source: str):
    return compile(source, "<healers-fastpath>", "exec")


def compile_wrapper(unit: WrapperUnit,
                    generators: Sequence[MicroGenerator]) -> Callable:
    """Compose micro-generator hooks into one compiled fast-path closure.

    Observably identical to running the hooks in a per-call loop
    (prefixes in order, postfixes reversed) while a sink is attached to
    the unit's bus; the returned callable has the ``(process, *args)``
    signature, so it installs directly into a preloaded SharedLibrary.
    """
    hooks = [g.runtime_hooks(unit) for g in generators]
    live = _chain(hooks, include_telemetry=True)
    idle = _chain(hooks, include_telemetry=False)

    resolver = next(
        (owner.direct_target for _, owner, phase in live
         if phase == "postfix" and owner.direct_target is not None),
        None,
    )
    transformers = [h.wrap_call for h in hooks if h.wrap_call is not None]
    namespace = {
        "CallFrame": CallFrame,
        "NO_SCRATCH": NO_SCRATCH,
        "NAME": unit.name,
        "ARITY": len(unit.prototype.params),
        "sinks": unit.bus.sink_view,
        "_direct": _wrap_resolver(
            _direct_resolver(live) or _direct_resolver(idle), transformers),
        "_resolve": _wrap_resolver(resolver, transformers),
    }
    live_names = []
    for index, (fn, owner, phase) in enumerate(live):
        name = f"h{index}"
        namespace[name] = fn
        if phase == "prefix" and owner.guard is not None:
            namespace[f"g{index}"] = owner.guard
        live_names.append(name)
    # idle steps are a subsequence of live steps: reuse their bindings
    idle_names = [live_names[live.index(step)] for step in idle]

    lines = ["def wrapper(process, *args):"]
    if [fn for fn, _, _ in live] == [fn for fn, _, _ in idle]:
        lines.extend(_body(live, live_names, "    "))
    else:
        lines.append("    if not sinks:")
        lines.extend(_body(idle, idle_names, "        "))
        lines.extend(_body(live, live_names, "    "))
    source = "\n".join(lines) + "\n"

    exec(_template(source), namespace)
    wrapper = namespace["wrapper"]
    wrapper.__name__ = f"wrapped_{unit.name}"
    wrapper.__qualname__ = wrapper.__name__
    wrapper.__doc__ = (
        f"Compiled fast-path wrapper for {unit.name} "
        f"({', '.join(g.name for g in generators)})."
    )
    wrapper.__healers_fastpath__ = True
    wrapper.__healers_parts__ = FastParts(
        name=unit.name,
        arity=len(unit.prototype.params),
        resolve=namespace["_resolve"],
        idle_direct=_direct_resolver(idle) is not None,
        live_direct=_direct_resolver(live) is not None,
        idle_guards=_guard_steps(idle),
        live_guards=_guard_steps(live),
    )
    return wrapper


# ----------------------------------------------------------------------
# cross-call fusion (serving request loops)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FastParts:
    """Build-time shape summary of one compiled wrapper's branches.

    ``compile_wrapper`` attaches this to every wrapper it emits (as
    ``__healers_parts__``) so the fusion layer can rebuild the branch a
    call *would* take without dispatching through the wrapper: a chain
    that reduced to the direct tail-call needs only the resolved target;
    a frame-free guard chain needs its guard ladder plus the target.
    ``resolve`` is the wrapper's own memoized one-shot resolver (with
    ``wrap_call`` transformers applied), so fused entries call exactly
    the callable the wrapper would.
    """

    name: str
    arity: int
    #: the caller hook's wrapped one-shot resolver (None = no caller)
    resolve: Optional[Callable]
    idle_direct: bool
    live_direct: bool
    idle_guards: Optional[Tuple[Callable, ...]]
    live_guards: Optional[Tuple[Callable, ...]]


@lru_cache(maxsize=None)
def _fused_guard_template(count: int):
    """Code object for an unrolled ``count``-guard fused entry."""
    lines = [
        "def entry(process, *args):",
        "    base = args[:ARITY]",
        "    extra = args[ARITY:]",
    ]
    for index in range(count):
        lines.append(f"    contained = g{index}(process, base, extra)")
        lines.append("    if contained is not None:")
        lines.append("        return contained[0]")
    lines.append("    return target(process, *args)")
    return compile("\n".join(lines) + "\n", "<healers-fused-entry>", "exec")


def _compile_guard_entry(parts: FastParts,
                         guards: Tuple[Callable, ...]) -> Callable:
    """One closure running the guard ladder then the resolved target.

    Semantically identical to the wrapper's frame-free branch; the only
    difference is that the target is resolved *now* (the linker scope is
    frozen once serving starts) instead of through a per-call resolver
    indirection.
    """
    namespace: Dict[str, object] = {
        "ARITY": parts.arity,
        "target": parts.resolve(),
    }
    for index, guard in enumerate(guards):
        namespace[f"g{index}"] = guard
    exec(_fused_guard_template(len(guards)), namespace)
    entry = namespace["entry"]
    entry.__name__ = f"fused_{parts.name}"
    entry.__qualname__ = entry.__name__
    if len(guards) == 1:
        # single-guard ladders are verdict-slot eligible: a clean pass
        # is exactly one memoizable guard verdict plus this target, so
        # the trace lane can replay it without re-entering the ladder
        entry.__healers_slot_target__ = namespace["target"]
    return entry


def fused_entry(impl: Callable, live: bool) -> Callable:
    """The leanest callable equivalent to ``impl`` in the given mode.

    ``impl`` is whatever the linker resolved a name to: a compiled
    wrapper (carrying :class:`FastParts`) or any other callable — a bare
    libc implementation, or a wrapper composed without parts — which is
    returned as is.  The returned callable has the wrapper
    signature ``(process, *args)`` and byte-identical behaviour while
    the bus's telemetry mode matches ``live`` — the caller re-derives
    entries on a mode flip (see :meth:`FusedRuntime.refresh`).
    """
    parts = getattr(impl, "__healers_parts__", None)
    if parts is None or parts.resolve is None:
        return impl
    direct = parts.live_direct if live else parts.idle_direct
    if direct:
        return parts.resolve()
    guards = parts.live_guards if live else parts.idle_guards
    if guards is not None:
        return _compile_guard_entry(parts, guards)
    return impl


@dataclass(frozen=True)
class CallTrace:
    """A recorded hot call sequence for one request kind."""

    kind: str
    names: Tuple[str, ...]


class TraceRecorder:
    """``LinkedImage`` facade that records the call-name sequence.

    Drive one representative request of each kind through a recorder
    (the pre-pass), then feed ``recorder.names`` to
    :meth:`FusedRuntime.add_trace`.
    """

    def __init__(self, image):
        self.image = image
        self.process = image.process
        self.names: List[str] = []

    def call(self, name: str, *args):
        self.names.append(name)
        return self.image.call(name, *args)

    def __getattr__(self, attr):
        return getattr(self.image, attr)


class FusedRuntime:
    """Fusion state shared by every request of one (app, preset) pair.

    Holds two per-name fused-entry tables (telemetry idle / live), the
    recorded :class:`CallTrace` per request kind, and the compiled step
    programs — ``(name, entry)`` tuples — derived from them.  The active
    table/program set follows the bus's sink epoch: :meth:`refresh` is
    the *only* place the bus is probed, and serving calls it once per
    request, which is what makes telemetry-off serving pay zero per-call
    bus probes.
    """

    def __init__(self, linker, needed: Sequence[str], bus=None):
        self.linker = linker
        self.needed = list(needed)
        self.bus = bus
        self.traces: Dict[str, CallTrace] = {}
        #: fused entries by mode: [0] = telemetry idle, [1] = live
        self._tables: Tuple[Dict[str, Callable], Dict[str, Callable]] = (
            {}, {})
        self._programs: Tuple[dict, dict] = ({}, {})
        self._epoch: Optional[int] = None
        self._live = False
        self.table: Dict[str, Callable] = self._tables[0]
        self._steps_by_kind: dict = self._programs[0]

    # -- construction --------------------------------------------------

    def prepare(self, names: Sequence[str]) -> None:
        """Pre-build fused entries for ``names`` in both modes."""
        for name in names:
            self.entry(name, live=False)
            self.entry(name, live=True)

    def entry(self, name: str, live: bool) -> Callable:
        """The fused entry for ``name`` in the given mode (memoized)."""
        table = self._tables[1 if live else 0]
        entry = table.get(name)
        if entry is None:
            record = self.linker.resolve(name, self.needed)
            entry = fused_entry(record.symbol.impl, live)
            table[name] = entry
        return entry

    def add_trace(self, kind: str, names: Sequence[str]) -> None:
        """Register (or replace) the hot trace for a request kind."""
        self.traces[kind] = CallTrace(kind=kind, names=tuple(names))
        for programs in self._programs:
            programs.pop(kind, None)

    # -- per-request lifecycle -----------------------------------------

    def refresh(self) -> None:
        """Re-derive the telemetry mode iff the bus epoch moved."""
        bus = self.bus
        if bus is None:
            return
        epoch = bus.epoch
        if epoch == self._epoch:
            return
        self._epoch = epoch
        self._live = bool(bus.sink_view)
        index = 1 if self._live else 0
        self.table = self._tables[index]
        self._steps_by_kind = self._programs[index]

    def program(self, kind: str) -> Tuple[Tuple[str, Callable, list], ...]:
        """The fused step program for a request kind (current mode).

        Each step is ``(name, entry, slot)``.  ``slot`` is the step's
        verdict cache — ``[args, fuel delta, deps, target]``, seeded
        lazily from ``CheckMemo.last`` after the first clean pass — for
        single-guard entries, else None.  Slots persist across requests
        (the program is cached per kind), which is what lets a steady
        hot mix run each trace step as one dep check plus the target.
        """
        steps = self._steps_by_kind.get(kind)
        if steps is None:
            trace = self.traces.get(kind)
            if trace is None:
                steps = ()
            else:
                live = self._live
                built = []
                for name in trace.names:
                    entry = self.entry(name, live)
                    target = getattr(entry, "__healers_slot_target__",
                                     None)
                    slot = (None if target is None
                            else [None, 0, None, target])
                    built.append((name, entry, slot))
                steps = tuple(built)
            self._steps_by_kind[kind] = steps
        return steps


#: shared disarmed table for deopt level >= 2 — never written to
_EMPTY_TABLE: dict = {}


class FusedImage:
    """Drop-in ``LinkedImage`` facade executing through fused entries.

    Per call the fast lane is: follow the active trace program (one
    tuple index + one name comparison, then straight into the fused
    entry).  A call that diverges from the trace *deopts* — the rest of
    the request runs through the per-name entry table, and names absent
    from the table (never wrapped, or not fusible) fall through to the
    real ``LinkedImage.call``, so nothing observable changes.

    ``begin_request``/``end_request`` bracket each request: they take
    the once-per-request epoch snapshot and arm (then disarm) the trace
    program.  Fuel is metered per call, exactly as unfused.

    With ``check_memo`` (the default) the image installs a
    :class:`~repro.robust.checks.CheckMemo` on the process so the guard
    primitives reuse derived extents/terminators across calls.  Memo
    coherence needs no cooperation from this class: every content write
    advances the address space's dirty watermark, and the memo's own
    ``sync`` range-evicts exactly the cached terminators the written
    range could have moved — any writer, ``gets`` and ``%n`` included.
    """

    __slots__ = ("image", "process", "runtime", "memo",
                 "_steps", "_pos", "trace_hits", "deopts", "table_calls",
                 "fallback_calls", "deopt_level", "_table")

    def __init__(self, image, runtime: FusedRuntime,
                 check_memo: bool = True):
        self.image = image
        self.process = image.process
        self.runtime = runtime
        if check_memo:
            memo = self.process.check_memo
            if memo is None:
                from repro.robust.checks import CheckMemo

                memo = CheckMemo(self.process)
                self.process.check_memo = memo
            self.memo = memo
        else:
            self.memo = None
        self._steps: Tuple[Tuple[str, Callable, list], ...] = ()
        self._pos = 0
        #: graceful-degradation rung: 0 = all lanes, 1 = table lane only
        #: (no trace replay, no verdict slots), 2 = fused lanes bypassed
        #: entirely (per-call dispatch through the wrapped PLT).  Takes
        #: effect at the next ``begin_request``.
        self.deopt_level = 0
        self._table = runtime.table
        self.trace_hits = 0
        self.deopts = 0
        self.table_calls = 0
        self.fallback_calls = 0

    def call(self, name: str, *args):
        pos = self._pos
        steps = self._steps
        if pos < len(steps):
            expected, entry, slot = steps[pos]
            if expected == name:
                self._pos = pos + 1
                process = self.process
                memo = self.memo
                if slot is not None and memo is not None:
                    if slot[0] == args and (
                            process.fuel is None
                            or process.fuel_headroom() >= slot[1]):
                        # replay the step's cached clean verdict: same
                        # args, every consulted terminator unmoved →
                        # the guard would pass identically, so credit
                        # its metered fuel and go straight to the
                        # resolved target (one frame for the whole
                        # guard/size-check/bulk-op step); a budget that
                        # cannot cover that fuel runs the guard instead,
                        # which trips at the exact unit
                        if memo.stamp != memo.space.mutations:
                            memo.sync()
                        if _deps_intact(process, memo, slot[2]):
                            process._fuel_used += slot[1]
                            memo.hits += 1
                            return slot[3](process, *args)
                    memo.last = None
                    ret = entry(process, *args)
                    last = memo.last
                    if last is not None:
                        slot[0] = args
                        slot[1] = last[0]
                        slot[2] = last[1]
                    return ret
                return entry(process, *args)
            # trace diverged: deopt to the table for the rest of the
            # request (the program re-arms at the next begin_request)
            self._steps = ()
            self.deopts += 1
        entry = self._table.get(name)
        if entry is not None:
            self.table_calls += 1
            return entry(self.process, *args)
        self.fallback_calls += 1
        return self.image.call(name, *args)

    def begin_request(self, kind: Optional[str] = None) -> None:
        """Arm the fused lanes for one request of the given kind."""
        runtime = self.runtime
        runtime.refresh()
        self._pos = 0
        level = self.deopt_level
        # refresh() may have swapped the epoch's table; at level >= 2
        # the table lane is disarmed too, so every call takes the
        # fallback (per-call dispatch through the wrapped PLT)
        self._table = runtime.table if level < 2 else _EMPTY_TABLE
        if kind is None or level >= 1:
            self._steps = ()
            return
        self._steps = runtime.program(kind)

    def end_request(self) -> None:
        """Close the request, counting a trace hit if it ran to the end."""
        if self._steps and self._pos >= len(self._steps):
            self.trace_hits += 1
        self._steps = ()
        self._pos = 0

    def __getattr__(self, attr):
        return getattr(self.image, attr)
