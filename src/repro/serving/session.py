"""A long-lived serving session: one server app under one preset.

`run_app` is run-to-EOF — fine for batch apps and attack payloads, but
requests/sec needs request *boundaries*.  A :class:`ServingSession`
performs an app's ``setup`` once, then serves one request per
:meth:`serve_one`: feed the line into stdin, bracket the app's
``handle`` with the fused image's per-request lifecycle (epoch
snapshot, trace arming), and count the outcome.

The fusion pre-pass (:meth:`record_traces`) runs representative
requests through a *scratch twin* of the session — same app, preset
and warmup, but unfused — so recording never perturbs the
serving session's own state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from repro.apps.base import ServerApp
from repro.libc import LibcRegistry, standard_registry
from repro.linker import DynamicLinker, SharedLibrary
from repro.robust.api import RobustAPIDocument
from repro.runtime import SimProcess
from repro.security.corpus.model import PRESET_CONFIGS
from repro.wrappers import (
    FusedImage,
    FusedRuntime,
    ResolverTable,
    TraceRecorder,
    WrapperFactory,
)
from repro.wrappers.presets import default_generator_registry

#: the presets the serving benchmark sweeps (unwrapped = baseline)
SERVING_PRESETS = ("unwrapped", "robustness", "security", "hardened",
                   "recovery")


@dataclass
class Request:
    """One request: the line on the wire plus its trace-kind label.

    ``kind`` groups requests whose handler makes the same call
    sequence; the fused image picks its trace program by kind.  None
    means "no recorded trace" (table-lane only).
    """

    line: bytes
    kind: Optional[str] = None


@dataclass
class ServingStats:
    """Outcome of one timed drive over a session."""

    requests: int
    elapsed: float
    trace_hits: int = 0
    deopts: int = 0
    table_calls: int = 0
    fallback_calls: int = 0
    #: requests rejected by admission control before any wrapped call
    shed: int = 0

    @property
    def rps(self) -> float:
        return self.requests / self.elapsed if self.elapsed > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "elapsed_s": round(self.elapsed, 6),
            "rps": round(self.rps, 1),
            "trace_hits": self.trace_hits,
            "deopts": self.deopts,
            "table_calls": self.table_calls,
            "fallback_calls": self.fallback_calls,
            "shed": self.shed,
        }


class ServingSession:
    """One server app, set up once, served request-at-a-time.

    ``preset`` is a name from :data:`PRESET_CONFIGS` ("unwrapped" skips
    wrapping entirely).  ``fused`` installs the :class:`FusedImage`
    facade; ``resolver`` shares a :class:`ResolverTable` across sessions of the
    same (app, preset) pair.  Pass a shared ``registry``/``api`` to
    amortize their construction across many sessions (benchmarks do).
    """

    def __init__(
        self,
        app: ServerApp,
        preset: str = "robustness",
        telemetry: bool = False,
        fused: bool = True,
        check_memo: bool = True,
        resolver: Optional[ResolverTable] = None,
        registry: Optional[LibcRegistry] = None,
        api: Optional[RobustAPIDocument] = None,
        fuel: Optional[int] = None,
        process: Optional[SimProcess] = None,
        policy=None,
    ):
        if app.setup is None or app.handle is None:
            raise ValueError(f"{app.name} has no per-request server hooks")
        config = PRESET_CONFIGS.get(preset)
        if config is None:
            raise KeyError(
                f"unknown serving preset {preset!r}; known: "
                + ", ".join(sorted(PRESET_CONFIGS))
            )
        self.app = app
        self.preset = preset
        self.telemetry = telemetry
        self.fused = fused
        self.check_memo = check_memo
        self.resolver = resolver
        self.registry = registry or standard_registry()
        self.api = api
        self.process = process if process is not None else SimProcess(fuel=fuel)
        #: optional SecurityPolicy overriding the preset's own (the
        #: resilience supervisor swaps in a degrade-action policy)
        self.policy = policy
        self.linker = DynamicLinker()
        self.linker.add_library(SharedLibrary.from_registry(self.registry))
        self.built = None
        if config.spec is not None:
            factory = WrapperFactory(
                self.registry, self.api,
                generators=default_generator_registry(
                    policy if policy is not None else config.policy()),
            )
            self.built = factory.preload(
                self.linker, config.spec,
                telemetry=telemetry, resolver=resolver,
            )
        base = self.linker.load(app.needed, app.imports, self.process)
        if fused:
            runtime = FusedRuntime(
                self.linker, app.needed,
                bus=self.built.bus if self.built is not None else None,
            )
            runtime.prepare(app.imports)
            self.image = FusedImage(base, runtime, check_memo=check_memo)
        else:
            self.image = base
        self.ctx = app.setup(self.image, [])
        self.served = 0
        self.alive = True

    # ------------------------------------------------------------------

    @property
    def runtime(self) -> Optional[FusedRuntime]:
        return self.image.runtime if self.fused else None

    def serve_one(self, request: Request) -> bool:
        """Serve exactly one request; returns whether the app stays up."""
        self.process.fs.feed_stdin(request.line + b"\n")
        image = self.image
        if self.fused:
            image.begin_request(request.kind)
            try:
                alive = self.app.handle(image, self.ctx)
            finally:
                image.end_request()
        else:
            alive = self.app.handle(image, self.ctx)
        self.served += 1
        self.alive = alive
        return alive

    def serve_all(self, requests: Iterable[Request]) -> int:
        """Serve a request stream until it ends or the app shuts down."""
        count = 0
        for request in requests:
            count += 1
            if not self.serve_one(request):
                break
        return count

    def drive(self, requests: Sequence[Request],
              time_fn=time.perf_counter, admission=None) -> ServingStats:
        """Serve a pre-materialized stream under a timer.

        ``admission`` is an optional ``(index, request) -> bool``
        load-shedding gate: a request it rejects is counted in
        :attr:`ServingStats.shed` and skipped *before* any wrapped call
        runs — refusing work cheaply is the ladder's last rung, and it
        must cost no allocator or stdin traffic.
        """
        image = self.image
        before = (
            (image.trace_hits, image.deopts, image.table_calls,
             image.fallback_calls) if self.fused else (0, 0, 0, 0)
        )
        shed = 0
        start = time_fn()
        if admission is None:
            served = self.serve_all(requests)
        else:
            served = 0
            for index, request in enumerate(requests):
                if not admission(index, request):
                    shed += 1
                    continue
                served += 1
                if not self.serve_one(request):
                    break
        elapsed = time_fn() - start
        after = (
            (image.trace_hits, image.deopts, image.table_calls,
             image.fallback_calls) if self.fused else (0, 0, 0, 0)
        )
        return ServingStats(
            requests=served,
            elapsed=elapsed,
            trace_hits=after[0] - before[0],
            deopts=after[1] - before[1],
            table_calls=after[2] - before[2],
            fallback_calls=after[3] - before[3],
            shed=shed,
        )

    def stdout_text(self) -> str:
        return self.process.fs.stdout_text()

    # ------------------------------------------------------------------
    # the fusion pre-pass
    # ------------------------------------------------------------------

    def twin(self, fused: bool = False) -> "ServingSession":
        """A fresh session with the same configuration (fresh process)."""
        return ServingSession(
            self.app, preset=self.preset,
            telemetry=self.telemetry, fused=fused,
            check_memo=self.check_memo,
            resolver=self.resolver, registry=self.registry, api=self.api,
            policy=self.policy,
        )

    def record_traces(self, warmup: Sequence[Request],
                      samples: Dict[str, bytes]) -> Dict[str, int]:
        """Record one trace per request kind on a scratch twin.

        ``samples`` maps kind -> one representative request line.  The
        twin replays ``warmup`` first so stateful handlers (kvd's slot
        table) see the same world the serving session will.  Returns
        kind -> recorded call count.  No-op (empty dict) on an unfused
        session.
        """
        runtime = self.runtime
        if runtime is None:
            return {}
        twin = self.twin(fused=False)
        twin.serve_all(warmup)
        recorded: Dict[str, int] = {}
        for kind, line in samples.items():
            recorder = TraceRecorder(twin.image)
            twin.process.fs.feed_stdin(line + b"\n")
            self.app.handle(recorder, twin.ctx)
            runtime.add_trace(kind, recorder.names)
            recorded[kind] = len(recorder.names)
        return recorded
