"""serve-hot and serve-storm: closed-loop serving from one client thread.

serve-hot
    Fused ``ServingSession``s for kvd, httpd and tmpld under the
    ``robustness`` preset, telemetry off, ``LoadGenerator(mix="hot")``.
    One client serves the three apps interleaved in blocks of
    ``HOT_BLOCK`` requests, so machine-speed drift lands on all three
    alike.  Every request hits a recorded trace: fused dispatch, check
    plans with ``CheckMemo``, libc bodies and the address space do the
    work; recovery, chaos and telemetry are never called.

serve-storm
    ``ResilientSession`` for kvd under ``security`` with the default
    ``ServingSLO`` fuel deadline, ``LoadGenerator(mix="storm")`` and a
    ``StormSchedule`` of ``STORM_EPISODE`` requests.  Its breaker admits
    every arrival on the shed rung (``STORM_BREAKER``): the ladder still
    moves through all four rungs, but no request is turned away, so the
    workload has no failed operations.  A time-boxed run
    cannot know its request count in advance, and the outcome counts of
    a seed must repeat, so the run is a sequence of storm episodes on
    fresh sessions: episode ``e`` uses ``trial=e`` of the schedule and
    the ``e``-th slice of a long seeded request stream.  Every
    ``STORM_WINDOW`` episodes make a window, and the run reports the
    median over its windows of each window's throughput, p50 and p99.
"""

from __future__ import annotations

import pstats
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from harness import Segment, Spans, Timings, calibrate

from repro.apps import SERVER_APPS
from repro.chaos import StormSchedule
from repro.libc import standard_registry
from repro.manpages import load_corpus
from repro.recovery import BreakerConfig
from repro.serving import (
    LoadGenerator,
    ResilientSession,
    ServingSession,
    ServingStats,
)
from repro.serving.session import Request
from repro.wrappers import ResolverTable
from repro.wrappers.presets import full_coverage_api

HOT_APPS = ("kvd", "httpd", "tmpld")
HOT_PRESET = "robustness"
HOT_BLOCK = 250
#: distinct requests per app; the timed loop cycles through them
HOT_STREAM = 40 * HOT_BLOCK
#: untimed requests per app that fill traces and check memos
HOT_WARM = 2 * HOT_BLOCK
#: blocks per app in the fixed-work traced segment
HOT_TRACE_BLOCKS = 12
#: the checked block is drawn from a segment's first blocks: the
#: unfused replay must serve every request before it (httpd counts
#: them in its replies), so a late block would cost seconds to check
HOT_CHECK_WINDOW = 8

STORM_APP = "kvd"
STORM_PRESET = "security"
STORM_EPISODE = 400
#: distinct request streams the episodes cycle through: one stream per
#: seed would make a run's cost hang on that one stream's mix
STORM_STREAMS = 64
#: the storm schedule's seed is the load seed plus this offset, so the
#: default load seed 11 gives the reference storm seed 42
STORM_SEED_OFFSET = 31
#: the default ladder, except that the shed rung admits every arrival
#: as a probe (run fully deoptimized) instead of one in four; with the
#: default, the peak phase sheds ~5 % of a run's requests
STORM_BREAKER = BreakerConfig(probe_interval=1)
STORM_TRACE_EPISODES = 8
#: episodes per window: the run reports the median over its windows of
#: each window's throughput, p50 and p99 (4000 requests, so its p99 has
#: 40 beyond it)
STORM_WINDOW = 10
#: degraded and shed witnesses replayed per episode
STORM_WITNESSES = 4
#: drains every key storm traffic can create (4 named + 4 churn)
QUIESCE = [Request(line=b"DEL " + key) for key in
           (b"alpha", b"beta", b"gamma", b"delta",
            b"churn0", b"churn1", b"churn2", b"churn3")]

_APPS = {app.name: app for app in SERVER_APPS}


def _shared_api():
    registry = standard_registry()
    return registry, full_coverage_api(registry, load_corpus())


def _image_counters(session: ServingSession) -> tuple:
    image = session.image
    return (image.trace_hits, image.deopts, image.table_calls,
            image.fallback_calls)


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------

@dataclass
class _HotLane:
    name: str
    gen: LoadGenerator
    session: ServingSession
    resolver: ResolverTable
    #: untimed requests served after the warmup, before any block
    warm: List[Request]
    stream: List[Request]
    cursor: int = 0
    #: stream offsets of every block served since set-up, in order
    history: List[int] = field(default_factory=list)
    #: this segment's (history index, stdout start, stdout end, fuel
    #: used, errno) per block
    blocks: List[tuple] = field(default_factory=list)
    stats: List[ServingStats] = field(default_factory=list)


class ServeHot:
    name = "serve-hot"
    calibrated = True

    def __init__(self, seed: int):
        self.seed = seed
        start = time.perf_counter()
        self.registry, self.api = _shared_api()
        built_api = time.perf_counter()
        self.lanes: List[_HotLane] = []
        for name in HOT_APPS:
            gen = LoadGenerator(name, mix="hot", seed=seed)
            resolver = ResolverTable()
            session = ServingSession(
                _APPS[name], preset=HOT_PRESET, registry=self.registry,
                api=self.api, resolver=resolver, telemetry=False)
            session.record_traces(gen.warmup, gen.samples)
            session.serve_all(gen.warmup)
            stream = gen.stream(HOT_STREAM + HOT_WARM)
            session.serve_all(stream[HOT_STREAM:])
            self.lanes.append(_HotLane(name, gen, session, resolver,
                                       stream[HOT_STREAM:],
                                       stream[:HOT_STREAM]))
        self.phases = {"api": built_api - start,
                       "sessions": time.perf_counter() - built_api}
        self._base: List[tuple] = []
        self.notes: Dict = {}
        self.spans = Spans()
        self.stats: Optional[pstats.Stats] = None

    @staticmethod
    def _snapshot(lane: _HotLane) -> tuple:
        process = lane.session.process
        memo = process.check_memo
        heap = process.heap.stats
        return (memo.hits, memo.misses, heap.malloc_calls,
                heap.failed_allocations, process.fuel_used)

    def _begin_segment(self) -> Segment:
        """Counters and checks cover the latest segment only."""
        self._base = [self._snapshot(lane) for lane in self.lanes]
        for lane in self.lanes:
            lane.stats = []
            lane.blocks = []
        return Segment()

    def _block(self, lane: _HotLane, timings: Optional[Timings]) -> int:
        session = lane.session
        process = session.process
        requests = lane.stream[lane.cursor:lane.cursor + HOT_BLOCK]
        offset = lane.cursor
        lane.cursor = (lane.cursor + HOT_BLOCK) % len(lane.stream)
        cal = calibrate() if timings is not None else 0.0
        before = _image_counters(session)
        out_start = len(process.fs.stdout)
        fuel_start = process.fuel_used
        serve = session.serve_one
        clock = time.perf_counter
        latencies = []
        with self.spans:
            block_start = clock()
            for request in requests:
                began = clock()
                serve(request)
                latencies.append(clock() - began)
            span = clock() - block_start
        after = _image_counters(session)
        lane.blocks.append((len(lane.history), out_start,
                            len(process.fs.stdout),
                            process.fuel_used - fuel_start, process.errno))
        lane.history.append(offset)
        lane.stats.append(ServingStats(
            requests=len(requests), elapsed=span,
            trace_hits=after[0] - before[0], deopts=after[1] - before[1],
            table_calls=after[2] - before[2],
            fallback_calls=after[3] - before[3]))
        if timings is not None:
            timings.add_block(latencies, span, cal)
        return len(requests)

    def measure(self, seconds: float, timings: Timings) -> Segment:
        segment = self._begin_segment()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for lane in self.lanes:
                segment.operations += self._block(lane, timings)
        segment.attempted = segment.operations
        return segment

    def fixed_work(self, profile: bool) -> Segment:
        segment = self._begin_segment()
        self.spans = Spans(profile)
        for _ in range(HOT_TRACE_BLOCKS):
            for lane in self.lanes:
                segment.operations += self._block(lane, None)
        segment.span = sum(s.elapsed for lane in self.lanes
                           for s in lane.stats)
        segment.attempted = segment.operations
        if profile:
            self.stats = pstats.Stats(self.spans.profiler)
        self.spans = Spans()
        return segment

    def check(self) -> List[str]:
        problems = []
        rng = random.Random(self.seed)
        for lane in self.lanes:
            served = sum(s.requests for s in lane.stats)
            hits = sum(s.trace_hits for s in lane.stats)
            deopts = sum(s.deopts for s in lane.stats)
            if hits != served or deopts:
                problems.append(f"{lane.name}: {hits} trace hits over "
                                f"{served} requests, {deopts} deopts")
            if not lane.session.alive:
                problems.append(f"{lane.name}: service went down")
            index, out_start, out_end, fuel, errno = rng.choice(
                lane.blocks[:HOT_CHECK_WINDOW])
            twin = lane.session.twin(fused=False)
            twin.serve_all(lane.gen.warmup)
            twin.serve_all(lane.warm)
            for offset in lane.history[:index]:
                twin.serve_all(lane.stream[offset:offset + HOT_BLOCK])
            twin_out = len(twin.process.fs.stdout)
            twin_fuel = twin.process.fuel_used
            offset = lane.history[index]
            twin.serve_all(lane.stream[offset:offset + HOT_BLOCK])
            fused_out = bytes(lane.session.process.fs.stdout[
                out_start:out_end])
            if (bytes(twin.process.fs.stdout[twin_out:]) != fused_out
                    or twin.process.fuel_used - twin_fuel != fuel
                    or twin.process.errno != errno):
                problems.append(f"{lane.name}: block at {offset} differs "
                                f"from its unfused replay")
        return problems

    def counters(self) -> Dict[str, float]:
        stats = [s for lane in self.lanes for s in lane.stats]
        served = sum(s.requests for s in stats)
        delta = [[now - then for now, then in zip(self._snapshot(lane), base)]
                 for lane, base in zip(self.lanes, self._base)]
        memo_hits = sum(d[0] for d in delta)
        memo_all = memo_hits + sum(d[1] for d in delta)
        resolver_hits = sum(lane.resolver.hits for lane in self.lanes)
        resolver_all = resolver_hits + sum(lane.resolver.misses
                                           for lane in self.lanes)
        return {
            "wrappers.trace_hit_ratio":
                sum(s.trace_hits for s in stats) / served,
            "wrappers.table_calls_per_op":
                sum(s.table_calls for s in stats) / served,
            "wrappers.fallback_calls_per_op":
                sum(s.fallback_calls for s in stats) / served,
            "wrappers.deopts": sum(s.deopts for s in stats),
            "robust.memo_hit_ratio":
                memo_hits / memo_all if memo_all else 0.0,
            "wrappers.resolver_hit_ratio":
                resolver_hits / resolver_all if resolver_all else 0.0,
            "runtime.fuel_per_op": sum(d[4] for d in delta) / served,
            "memory.heap.malloc_calls_per_op":
                sum(d[2] for d in delta) / served,
            "memory.heap.failed_allocations": sum(d[3] for d in delta),
            "memory.heap.peak_bytes": max(
                lane.session.process.heap.stats.peak_bytes_in_use
                for lane in self.lanes),
        }

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve-storm
# ----------------------------------------------------------------------

@dataclass
class _Episode:
    """What one storm episode leaves once its session is dropped."""

    trial: int
    counts: Dict[str, int]
    attempted: int
    answered: int
    stats: ServingStats
    #: (memo hits, memo misses, mallocs, failed allocations) in the storm
    delta: tuple
    fuel: int
    faults: int
    transitions: int
    peak_bytes: int
    heap_residual: int
    outcomes: Optional[list] = None


class ServeStorm:
    name = "serve-storm"
    calibrated = True

    def __init__(self, seed: int):
        self.storm_seed = seed + STORM_SEED_OFFSET
        self.rng = random.Random(seed)
        start = time.perf_counter()
        self.registry, self.api = _shared_api()
        built_api = time.perf_counter()
        self.gen = LoadGenerator(STORM_APP, mix="storm", seed=seed)
        self.stream = self.gen.stream(STORM_EPISODE * STORM_STREAMS)
        self._next = self._session()
        self.phases = {"api": built_api - start,
                       "sessions": time.perf_counter() - built_api}
        self.episodes: List[_Episode] = []
        self.problems: List[str] = []
        self.notes: Dict = {}
        self.spans = Spans()
        self.stats: Optional[pstats.Stats] = None

    def _session(self) -> ResilientSession:
        session = ResilientSession(_APPS[STORM_APP], preset=STORM_PRESET,
                                   registry=self.registry, api=self.api,
                                   breaker_config=STORM_BREAKER)
        session.prepare(self.gen)
        return session

    def _schedule(self, trial: int) -> StormSchedule:
        return StormSchedule(seed=self.storm_seed, trial=trial,
                             requests=STORM_EPISODE)

    def _requests(self, trial: int) -> List[Request]:
        start = trial % STORM_STREAMS * STORM_EPISODE
        return self.stream[start:start + STORM_EPISODE]

    @staticmethod
    def _snapshot(session: ServingSession) -> tuple:
        memo = session.process.check_memo
        heap = session.process.heap.stats
        return (memo.hits, memo.misses, heap.malloc_calls,
                heap.failed_allocations)

    def _episode(self, timings: Optional[Timings]) -> None:
        resilient = self._next
        session = resilient.session
        schedule = self._schedule(len(self.episodes))
        requests = self._requests(schedule.trial)
        inner = session.serve_one
        latencies: List[float] = []
        clock = time.perf_counter

        def timed_serve_one(request):
            # timeouts and crashes raise out of serve_one; they count
            began = clock()
            try:
                return inner(request)
            finally:
                latencies.append(clock() - began)

        session.serve_one = timed_serve_one
        cal = calibrate() if timings is not None else 0.0
        before = _image_counters(session)
        base = self._snapshot(session)
        with self.spans:
            start = clock()
            report = resilient.serve_storm(schedule, requests)
            span = clock() - start
        after = _image_counters(session)
        delta = tuple(now - then for now, then in
                      zip(self._snapshot(session), base))
        del session.serve_one
        if timings is not None:
            timings.add_block(latencies, span, cal)
        counts = report.counts()
        episode = _Episode(
            trial=schedule.trial, counts=counts,
            attempted=len(report.outcomes), answered=report.answered,
            stats=ServingStats(
                requests=report.answered, elapsed=span,
                trace_hits=after[0] - before[0],
                deopts=after[1] - before[1],
                table_calls=after[2] - before[2],
                fallback_calls=after[3] - before[3],
                shed=counts["shed"]),
            delta=delta,
            fuel=sum(o.fuel for o in report.outcomes),
            faults=sum(len(o.faults) for o in report.outcomes),
            transitions=len(resilient.breaker.transitions),
            peak_bytes=session.process.heap.stats.peak_bytes_in_use,
            heap_residual=self._inspect(resilient, report),
            outcomes=(None if self.episodes
                      else [o.to_dict() for o in report.outcomes]))
        self.episodes.append(episode)
        # the next episode's session is built outside the timed span
        self._next = self._session()

    def _inspect(self, resilient: ResilientSession, report) -> int:
        """Check one episode; returns the heap defects left by the storm."""
        trial = report.schedule.trial
        witnesses = report.witnesses(("degraded", "shed"))
        for witness in self.rng.sample(
                witnesses, min(STORM_WITNESSES, len(witnesses))):
            replayed = StormSchedule.replay_witness(witness)
            plan = report.schedule.plan_for(witness["request_index"])
            if (replayed is None) != (plan is None) or (
                    plan is not None
                    and replayed.to_dict() != plan.to_dict()):
                self.problems.append(
                    f"trial {trial}: witness {witness['request_index']} "
                    f"does not replay")
        # the heap should pass check_integrity when the storm ends, but a
        # canary clobbered on a chunk still live then is found only when
        # the chunk is freed: ResilientSession heals only after timeouts
        # and crashes.  On a few % of storms such a chunk is left; the
        # count is recorded per episode in every run's raw record and
        # as recovery.residual_heap_defects.  It is not a failed
        # operation: every request was answered.  After a drain of the
        # store, every fault must have been detected and healed.
        heap = resilient.session.process.heap
        residual = len(heap.check_integrity())
        for request in QUIESCE:
            resilient.session.serve_one(request)
        defects = heap.check_integrity()
        if defects:
            self.problems.append(f"trial {trial}: heap after the storm "
                                 f"and a drain: {defects[:3]}")
        return residual

    def _segment(self) -> Segment:
        segment = Segment()
        for episode in self.episodes:
            counts = episode.counts
            segment.operations += episode.answered
            segment.attempted += episode.attempted
            segment.failed += (counts["shed"] + counts["timeout"]
                               + counts["crashed"] + counts["dead"])
            segment.span += episode.stats.elapsed
        return segment

    def measure(self, seconds: float, timings: Timings) -> Segment:
        # counters and checks cover the latest segment only
        self.episodes = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for _ in range(STORM_WINDOW):
                self._episode(timings)
            timings.end_window(sum(
                e.answered for e in self.episodes[-STORM_WINDOW:]))
        residual = [e.heap_residual for e in self.episodes]
        self.notes = {"residual_heap_defects": residual,
                      "episodes_with_residue": sum(map(bool, residual))}
        return self._segment()

    def fixed_work(self, profile: bool) -> Segment:
        self.episodes = []
        self.spans = Spans(profile)
        for _ in range(STORM_TRACE_EPISODES):
            self._episode(None)
        if profile:
            self.stats = pstats.Stats(self.spans.profiler)
        self.spans = Spans()
        return self._segment()

    def check(self) -> List[str]:
        problems = list(self.problems)
        if self.episodes:
            first = self.episodes[0]
            again = self._session().serve_storm(
                self._schedule(first.trial), self._requests(first.trial))
            if [o.to_dict() for o in again.outcomes] != first.outcomes:
                problems.append("storm outcomes differ between two runs "
                                "of one seed")
        return problems

    def counters(self) -> Dict[str, float]:
        episodes = self.episodes
        served = sum(e.answered for e in episodes)
        attempted = sum(e.attempted for e in episodes)
        memo_hits = sum(e.delta[0] for e in episodes)
        memo_all = memo_hits + sum(e.delta[1] for e in episodes)
        return {
            "wrappers.trace_hit_ratio":
                sum(e.stats.trace_hits for e in episodes) / served,
            "wrappers.table_calls_per_op":
                sum(e.stats.table_calls for e in episodes) / served,
            "wrappers.fallback_calls_per_op":
                sum(e.stats.fallback_calls for e in episodes) / served,
            "wrappers.deopts": sum(e.stats.deopts for e in episodes),
            "robust.memo_hit_ratio":
                memo_hits / memo_all if memo_all else 0.0,
            "runtime.fuel_per_op": sum(e.fuel for e in episodes) / attempted,
            "memory.heap.malloc_calls_per_op":
                sum(e.delta[2] for e in episodes) / attempted,
            "memory.heap.failed_allocations":
                sum(e.delta[3] for e in episodes),
            "memory.heap.peak_bytes": max(e.peak_bytes for e in episodes),
            "recovery.degraded": sum(e.counts["degraded"] for e in episodes),
            "recovery.shed": sum(e.counts["shed"] for e in episodes),
            "recovery.timeouts": sum(e.counts["timeout"] for e in episodes),
            "recovery.rung_transitions": sum(e.transitions
                                             for e in episodes),
            "recovery.residual_heap_defects": sum(e.heap_residual
                                                  for e in episodes),
            "chaos.faults_injected": sum(e.faults for e in episodes),
        }

    def close(self) -> None:
        pass
