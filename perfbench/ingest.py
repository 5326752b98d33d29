"""ingest: profile documents shipped to the collection fabric.

The collector runs as a child process, the way it is deployed:
``healers collect serve --shards 2 --spool-dir <dir>`` with fsync on,
so every ack waits for its documents to be durable.  One
``FabricClient`` connection loads it in a closed loop: ship one batch of
``BATCH`` documents, wait for its ack, ship the next.  Documents come
from ``APPLICATIONS`` applications; the application is the fabric's
shard-routing key, so both shards work.

One client, not two: with one batch in flight the client and the
collector take turns, so the load needs one CPU, and the benchmark
process and its collectors are pinned to one.  Two clients kept both
virtual CPUs busy at once, and their figures followed the other tenants'
load on the host.

A run is a series of windows.  Each window spawns a fresh collector,
ships ``WINDOW`` documents to it, and checks it: the collector keeps
every document in memory and slows as its store grows, so equal windows
on fresh collectors give equal work however fast the collector is.
Every collector spawn is a set-up sample.  The run reports the median
over its windows of each window's throughput, p50 and p99; a window is
1000 ships, so its p99 has 10 ships beyond it.

Timings are calibrated per block of ``CAL_EVERY`` ships, as the
serving workloads calibrate theirs, although a ship's time is split over
two processes, socket hand-offs and the fsync before each ack.  One
calibration per window (~2 s) did not track the machine's speed, whose
readings vary from one second to the next, and widened the per-run
spread (5 seeds: throughput 15 % calibrated against 9.5 % raw); over 28
windows, calibrating every 25 ships narrowed the windows' coefficient
of variation from 12 % to 8.6 % (throughput) and from 6.1 % to 3.5 %
(p50).
"""

from __future__ import annotations

import cProfile
import os
import pstats
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from harness import (Segment, Timings, calibrate, child_hwm_kb,
                     scale_between)

from repro.collection import FabricClient, fetch_fleet_stats
from repro.collection.fabric import CollectionProtocolError
from repro.collection.fabric import replay_documents
from repro.profiling import ProfileDocument
from repro.wrappers.state import WrapperState

SHARDS = 2
BATCH = 8
APPLICATIONS = 24
#: distinct documents generated per run; batches cycle through them
POOL = 384
#: documents shipped to one collector (a few seconds of load)
WINDOW = 8000
#: ships per calibrated block (~50 ms)
CAL_EVERY = 25
#: documents shipped in each fixed-work traced segment
TRACE_DOCUMENTS = 4000
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0

_FUNCTIONS = ("strlen", "strcpy", "memcpy", "malloc", "free", "fopen",
              "fgets", "sprintf", "strtol", "qsort", "toupper", "strcmp")
_ERRNOS = (2, 12, 22, 34)


def make_documents(seed: int) -> List[List[str]]:
    """Seeded single-application batches of profile documents."""
    rng = random.Random(seed)
    apps = [f"app{index:02d}" for index in range(APPLICATIONS)]
    batches = []
    for index in range(POOL // BATCH):
        application = apps[index % APPLICATIONS]
        batch = []
        for _ in range(BATCH):
            state = WrapperState()
            for name in rng.sample(_FUNCTIONS, rng.randint(3, 9)):
                calls = rng.randint(1, 5000)
                state.calls[name] = calls
                state.exectime_ns[name] = calls * rng.randint(40, 900)
                if rng.random() < 0.3:
                    state.record_errno(name, rng.choice(_ERRNOS))
            batch.append(ProfileDocument.from_state(
                state, application, "profiling").to_xml())
        batches.append(batch)
    rng.shuffle(batches)
    return batches


class Collector:
    """One ``collect serve`` child and its spool directory."""

    def __init__(self, root: str, workdir: str, profile_to: str = "",
                 expect: int = 0):
        self.spool = os.path.join(workdir, "spool")
        os.makedirs(self.spool)
        self.log = open(os.path.join(workdir, "collector.log"), "wb")
        command = [sys.executable]
        if profile_to:
            command += [os.path.join(os.path.dirname(__file__),
                                     "profiled.py"), profile_to]
        else:
            command += ["-m"]
        command += ["repro.cli.main", "collect", "serve",
                    "--shards", str(SHARDS), "--spool-dir", self.spool,
                    "--port", "0"]
        if expect:
            command += ["--expect", str(expect)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self.log, stdin=subprocess.DEVNULL)
        try:
            self.address = self._await_listening()
        except BaseException:
            self.stop()
            raise
        self.spawn_seconds = time.perf_counter() - started

    def _await_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        buffer = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("collector did not start listening")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(
                        f"collector exited before listening "
                        f"(code {self.proc.wait()})")
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode()
        if "listening on " not in line:
            raise RuntimeError(f"unexpected collector banner: {line!r}")
        host, port = line.rsplit("listening on ", 1)[1].rsplit(":", 1)
        return host, int(port)

    def hwm_kb(self) -> int:
        return child_hwm_kb(self.proc.pid)

    def stop(self, interrupt: bool = True) -> int:
        """Stop the child (SIGINT: a clean shutdown) and reap it."""
        if self.proc.poll() is None and interrupt:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        finally:
            self.log.close()
        return self.proc.returncode


class Ingest:
    name = "ingest"
    calibrated = True

    def __init__(self, seed: int, root: str):
        self.root = root
        self.base = os.path.join(root, ".bench_run",
                                 f"ingest-{os.getpid()}")
        shutil.rmtree(self.base, ignore_errors=True)
        self._dirs = 0
        self.batches = make_documents(seed)
        self.problems: List[str] = []
        self.fleet: Dict = {}
        self.child_hwm = 0
        #: (raw, calibrated) seconds of every collector spawn
        self.spawns: List[tuple] = []
        self.notes: Dict = {}
        self.stats: Optional[pstats.Stats] = None
        self.collector: Optional[Collector] = None
        # client and collectors on one CPU, which the collectors inherit:
        # they take turns anyway, and the calibration loop then times
        # the CPU the load runs on
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        # one spawn at start-up, so that a broken collector fails the
        # run before any load
        try:
            self._spawn().stop()
        except BaseException:
            self.close()
            raise
        self.phases = {"spawn": self.spawns[-1][0]}

    def _spawn(self, profile_to: str = "", expect: int = 0) -> Collector:
        self._dirs += 1
        workdir = os.path.join(self.base, str(self._dirs))
        os.makedirs(workdir)
        before = calibrate()
        collector = Collector(self.root, workdir, profile_to=profile_to,
                              expect=expect)
        seconds = collector.spawn_seconds
        self.spawns.append(
            (seconds, seconds * scale_between(before, calibrate())))
        return collector

    def _window(self, documents: int, timings: Optional[Timings],
                segment: Segment, profile: bool = False) -> None:
        """Ship ``documents`` to a fresh collector and check it; timed
        windows calibrate before every CAL_EVERY ships."""
        profile_to = (os.path.join(self.base, f"collector-{self._dirs}.prof")
                      if profile else "")
        collector = self.collector = self._spawn(
            profile_to=profile_to, expect=documents if profile else 0)
        client = FabricClient(collector.address, shipper="bench")
        profiler = cProfile.Profile() if profile else None
        batches = self.batches
        turn = acked = rejected = 0
        span = 0.0
        clock = time.perf_counter
        try:
            if profiler is not None:
                profiler.enable()
            while acked + rejected < documents:
                cal = calibrate() if timings is not None else None
                latencies = []
                start = clock()
                for _ in range(CAL_EVERY):
                    if acked + rejected >= documents:
                        break
                    batch = batches[turn % len(batches)]
                    turn += 1
                    began = clock()
                    try:
                        client.ship(batch, wait=True)
                        acked += len(batch)
                    except CollectionProtocolError:
                        rejected += len(batch)
                    latencies.append(clock() - began)
                elapsed = clock() - start
                span += elapsed
                if timings is not None:
                    timings.add_block(latencies, elapsed, cal)
            if profiler is not None:
                profiler.disable()
        finally:
            client.close()
        # a profiled child exits by itself once it stored --expect docs
        unstored = self._verify(collector, turn, acked, live=not profile)
        self.collector = None
        if timings is not None:
            timings.end_window(acked - unstored)
        if profiler is not None:
            self.stats = pstats.Stats(profiler)
            self.stats.add(profile_to)
        if rejected:
            self.problems.append(f"{rejected} documents answered ERR")
        segment.operations += acked - unstored
        segment.attempted += acked + rejected
        segment.failed += unstored + rejected
        segment.span += span

    def _verify(self, collector: Collector, sequences: int, acked: int,
                live: bool) -> int:
        """Fleet stats (when the child is still up) and spool replay;
        returns how many acked documents were not stored."""
        stored = acked
        if live:
            self.fleet = fetch_fleet_stats(collector.address)
            server = self.fleet["server"]
            stored = min(stored, server["documents"])
            if server["documents"] != acked:
                self.problems.append(
                    f"collector holds {server['documents']} documents, "
                    f"{acked} were acked")
            if server["errors"] or server["duplicates"]:
                self.problems.append(
                    f"collector reports {server['errors']} errors, "
                    f"{server['duplicates']} duplicates")
            self.child_hwm = max(self.child_hwm, collector.hwm_kb())
        code = collector.stop(interrupt=live)
        if code != 0:
            self.problems.append(f"collector exited with code {code}")
        documents, last_seq, _ = replay_documents(collector.spool, SHARDS)
        stored = min(stored, len(documents))
        if len(documents) != acked or last_seq != {"bench": sequences}:
            self.problems.append(
                f"spool replays {len(documents)} documents "
                f"(sequences {last_seq}), {acked} were acked "
                f"({sequences} sequences)")
        shutil.rmtree(os.path.dirname(collector.spool), ignore_errors=True)
        return acked - stored

    def measure(self, seconds: float, timings: Timings) -> Segment:
        segment = Segment()
        # whole windows until the timed span reaches --seconds
        while segment.span < seconds:
            self._window(WINDOW, timings, segment)
        return segment

    def fixed_work(self, profile: bool) -> Segment:
        """TRACE_DOCUMENTS documents; profiled: client and child both."""
        segment = Segment()
        self._window(TRACE_DOCUMENTS, None, segment, profile=profile)
        return segment

    def check(self) -> List[str]:
        return list(self.problems)

    def counters(self) -> Dict[str, float]:
        server = self.fleet.get("server", {})
        frames = server.get("frames", 0)
        return {
            "collection.docs_per_frame":
                server.get("documents", 0) / frames if frames else 0.0,
            "collection.duplicates": server.get("duplicates", 0),
            "collection.errors": server.get("errors", 0),
        }

    def close(self) -> None:
        if self.collector is not None:
            self.collector.stop()
            self.collector = None
        shutil.rmtree(self.base, ignore_errors=True)
        os.sched_setaffinity(0, self._cpus)
        try:
            os.rmdir(os.path.dirname(self.base))
        except OSError:
            pass  # another run's work directory is still there
