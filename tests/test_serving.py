"""Serving sessions: fused execution must be byte-identical to unfused.

The fused fast path (trace programs, per-step verdict slots, check
memo) is a performance transformation only.  Hypothesis
drives random request streams — benign kinds, irregular traffic,
mis-labelled trace kinds (forcing deopts), shutdowns, and payloads
that violate mid-stream — through twin sessions and demands identical
returns, stdout, errno, faults (including addresses), fuel and
accumulated ``WrapperState`` on both wrapper backends.

The deterministic half pins the memo machinery's soundness edges:
slot-cache replays after content writes, fuel-budgeted runs, and the
loadgen's own determinism contract.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.apps import SERVER_APPS
from repro.errors import SimulatorError
from repro.libc import standard_registry
from repro.manpages import load_corpus
from repro.serving import LoadGenerator, Request, ServingSession
from repro.wrappers.presets import full_coverage_api
from tests.oracles.wrappers import wrapper_backend

APP_NAMES = ["kvd", "httpd", "tmpld"]
APPS = {app.name: app for app in SERVER_APPS}

#: per-app request pools: hot kinds, irregular traffic, malformed
#: lines, a mid-stream violation payload (kvd's stored overflow) and
#: shutdown
LINES = {
    "kvd": [
        b"GET alpha", b"GET beta", b"GET missing",
        b"SET alpha one", b"SET beta " + b"B" * 40, b"DEL alpha",
        b"SET long " + b"V" * 192, b"GET long",
        b"BOGUS x", b"", b"QUIT",
    ],
    "httpd": [
        b"GET / HTTP/1.0", b"GET /echo/ping HTTP/1.0",
        b"GET /echo/metrics HTTP/1.0", b"GET /echo/healthz HTTP/1.0",
        b"GET /missing HTTP/1.0", b"POST / HTTP/1.0",
        b"junk", b"", b"QUIT",
    ],
    "tmpld": [
        b"RENDER 0 world", b"RENDER 1 serving", b"RENDER 2 fusion",
        b"RENDER 9 oops", b"RENDER x y",
        b"junk", b"", b"QUIT",
    ],
}

PRESETS = ["robustness", "security", "hardened", "recovery"]

#: a stream is (line index, kind index) pairs; kind -1 serves the
#: request unarmed, other values arm a (possibly mismatched) trace
STREAM = st.lists(
    st.tuples(st.integers(0, 31), st.integers(-1, 6)),
    min_size=1, max_size=30,
)

COMMON = settings(max_examples=20,
                  suppress_health_check=[HealthCheck.too_slow],
                  deadline=None)


@pytest.fixture(scope="module")
def registry():
    return standard_registry()


@pytest.fixture(scope="module")
def serving_api(registry):
    return full_coverage_api(registry, load_corpus())


def build_session(app, preset, registry, api, *, fused,
                  backend="compiled", telemetry=False, fuel=None):
    # the fusion pre-pass builds a scratch twin: keep it on the lane too
    with wrapper_backend(backend):
        session = ServingSession(app, preset=preset, telemetry=telemetry,
                                 fused=fused, registry=registry, api=api,
                                 fuel=fuel)
        gen = LoadGenerator(app.name, mix="hot", seed=3)
        if fused:
            session.record_traces(gen.warmup, gen.samples)
    session.serve_all(gen.warmup)
    return session


def materialize(app_name, stream):
    """Resolve the drawn indices against the app's pools."""
    lines = LINES[app_name]
    kinds = sorted(LoadGenerator(app_name, mix="hot", seed=3).samples)
    requests = []
    for line_index, kind_index in stream:
        kind = None if kind_index < 0 else kinds[kind_index % len(kinds)]
        requests.append(Request(line=lines[line_index % len(lines)],
                                kind=kind))
    return requests


def run_stream(session, requests):
    """Serve a stream, recording every observable outcome."""
    outcomes = []
    for request in requests:
        if not session.alive:
            break
        try:
            alive = session.serve_one(request)
            outcomes.append(("ok", alive, session.process.errno))
        except SimulatorError as fault:
            # type + message: fault addresses must match exactly
            outcomes.append(("fault", type(fault).__name__, str(fault),
                             session.process.errno))
            break
    outcomes.append(("fuel", session.process.fuel_used))
    outcomes.append(("stdout", session.stdout_text()))
    return outcomes


def assert_states_match(fused, unfused):
    if fused.built is None:
        assert unfused.built is None
        return
    fused.built.bus.flush()
    unfused.built.bus.flush()
    fs, us = fused.built.state, unfused.built.state
    assert fs.calls == us.calls
    assert fs.func_errnos == us.func_errnos
    assert fs.global_errnos == us.global_errnos
    assert fs.violations == us.violations
    assert fs.security_events == us.security_events
    assert fs.call_log == us.call_log
    assert fs.size_table == us.size_table
    assert set(fs.exectime_ns) == set(us.exectime_ns)


# ----------------------------------------------------------------------
# the differential property
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
@given(case=st.tuples(st.sampled_from(APP_NAMES),
                      st.sampled_from(PRESETS),
                      st.booleans()),
       stream=STREAM)
@COMMON
def test_fused_matches_unfused(registry, serving_api, backend, case,
                               stream):
    app_name, preset, telemetry = case
    app = APPS[app_name]
    requests = materialize(app_name, stream)
    fused = build_session(app, preset, registry, serving_api,
                          fused=True, backend=backend,
                          telemetry=telemetry)
    unfused = build_session(app, preset, registry, serving_api,
                            fused=False, backend=backend,
                            telemetry=telemetry)
    assert run_stream(fused, requests) == run_stream(unfused, requests)
    assert_states_match(fused, unfused)


@given(stream=STREAM)
@COMMON
def test_fused_matches_under_fuel_budget(registry, serving_api, stream):
    """Budgeted runs replay only verdicts their headroom covers and
    stay identical — including where in the stream the budget runs
    out."""
    requests = materialize("kvd", stream)
    fused = build_session(APPS["kvd"], "robustness", registry,
                          serving_api, fused=True, fuel=60_000)
    unfused = build_session(APPS["kvd"], "robustness", registry,
                            serving_api, fused=False, fuel=60_000)
    assert run_stream(fused, requests) == run_stream(unfused, requests)


# ----------------------------------------------------------------------
# memo soundness pins
# ----------------------------------------------------------------------

def drive_hot(session, count=120, seed=11):
    gen = LoadGenerator(session.app.name, mix="hot", seed=seed)
    return session.drive(gen.stream(count))


class TestVerdictMemo:
    def test_slot_cache_replays_on_the_hot_mix(self, registry,
                                               serving_api):
        fused = build_session(APPS["httpd"], "robustness", registry,
                              serving_api, fused=True)
        unfused = build_session(APPS["httpd"], "robustness", registry,
                                serving_api, fused=False)
        stats = drive_hot(fused)
        drive_hot(unfused)
        assert stats.deopts == 0
        assert stats.trace_hits == stats.requests
        memo = fused.process.check_memo
        assert memo is not None and memo.hits > 0
        assert fused.stdout_text() == unfused.stdout_text()
        assert fused.process.fuel_used == unfused.process.fuel_used

    def test_content_writes_invalidate_cached_verdicts(self, registry,
                                                       serving_api):
        """A SET that rewrites a stored value must defeat every cached
        verdict/slot derived from the old content."""
        lines = [b"SET k aa", b"GET k", b"GET k",
                 b"SET k " + b"Z" * 90, b"GET k",
                 b"SET k b", b"GET k"]
        requests = [Request(line=line) for line in lines]
        fused = build_session(APPS["kvd"], "robustness", registry,
                              serving_api, fused=True)
        unfused = build_session(APPS["kvd"], "robustness", registry,
                                serving_api, fused=False)
        assert run_stream(fused, requests) == run_stream(unfused,
                                                         requests)

    def test_violating_requests_reexecute_every_time(self, registry,
                                                     serving_api):
        """Violations are never memoized: each bad GET re-contains and
        re-sets errno identically."""
        warm = [Request(line=b"SET long " + b"V" * 192)]
        bad = [Request(line=b"GET long")] * 5
        fused = build_session(APPS["kvd"], "robustness", registry,
                              serving_api, fused=True, telemetry=True)
        unfused = build_session(APPS["kvd"], "robustness", registry,
                                serving_api, fused=False, telemetry=True)
        for session in (fused, unfused):
            session.serve_all(warm)
        assert run_stream(fused, bad) == run_stream(unfused, bad)
        fused.built.bus.flush()
        unfused.built.bus.flush()
        fs, us = fused.built.state, unfused.built.state
        assert fs.violations == us.violations
        assert len(fs.violations) == len(bad)  # one per bad GET, every time


class TestBudgetedReplay:
    """A verdict replay credits the fuel its guard recorded, so it runs
    only when the budget's headroom covers that fuel."""

    KIND = "echo:ping"

    def warmed(self, registry, serving_api, fused):
        session = build_session(APPS["httpd"], "robustness", registry,
                                serving_api, fused=fused)
        session.serve_all([self.request(), self.request()])
        return session

    def request(self):
        line = LoadGenerator("httpd", mix="hot", seed=3).samples[self.KIND]
        return Request(line=line, kind=self.KIND)

    def spy_on_sprintf_slot(self, session):
        """Record the fuel at which the sprintf step (its guard dry-runs
        the format) starts, each time its slot replays."""
        slot = next(step[2] for step in session.runtime.program(self.KIND)
                    if step[2] is not None and step[2][1] > 0)
        target = slot[3]
        starts = []

        def spy(process, *args):
            starts.append(process.fuel_used - slot[1])
            return target(process, *args)

        slot[3] = spy
        return slot[1], starts

    def test_step_replays_only_when_the_headroom_covers_it(
            self, registry, serving_api):
        probe = self.warmed(registry, serving_api, fused=True)
        delta, starts = self.spy_on_sprintf_slot(probe)
        before = probe.process.fuel_used
        probe.serve_one(self.request())
        assert len(starts) == 1
        offset = starts[0] - before
        for short in (0, 1):
            fused = self.warmed(registry, serving_api, fused=True)
            unfused = self.warmed(registry, serving_api, fused=False)
            assert fused.process.fuel_used == unfused.process.fuel_used
            for session in (fused, unfused):
                session.process.fuel = (session.process.fuel_used + offset
                                        + delta - short)
            _delta, starts = self.spy_on_sprintf_slot(fused)
            outcome = run_stream(fused, [self.request()])
            assert outcome == run_stream(unfused, [self.request()])
            # covered: the step replays and the body trips; one unit
            # short: the full guard runs and trips where unfused does
            assert len(starts) == (1 if short == 0 else 0)
            assert outcome[0][:2] == ("fault", "OutOfFuel")


# ----------------------------------------------------------------------
# loadgen determinism (what makes the differential meaningful)
# ----------------------------------------------------------------------

class TestLoadGenerator:
    def test_streams_are_reproducible(self):
        for app_name in APP_NAMES:
            one = LoadGenerator(app_name, mix="mixed", seed=9)
            two = LoadGenerator(app_name, mix="mixed", seed=9)
            assert ([(r.line, r.kind) for r in one.stream(200)]
                    == [(r.line, r.kind) for r in two.stream(200)])

    def test_seeds_differ(self):
        one = LoadGenerator("kvd", mix="mixed", seed=1)
        two = LoadGenerator("kvd", mix="mixed", seed=2)
        assert ([r.line for r in one.stream(200)]
                != [r.line for r in two.stream(200)])

    def test_hot_mix_kinds_all_have_traces(self):
        for app_name in APP_NAMES:
            gen = LoadGenerator(app_name, mix="hot", seed=5)
            kinds = {r.kind for r in gen.stream(300)}
            assert None not in kinds
            assert kinds <= set(gen.samples)
