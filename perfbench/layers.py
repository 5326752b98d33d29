"""Fold cProfile statistics into the program's layers.

A layer is a ``repro`` package, except that ``repro.memory`` is split
into ``memory.heap`` (``heap.py``) and ``memory.model`` (the address
space: ``model.py``, ``stack.py``).  Code the wrappers compile at run
time (``<healers-fastpath>``, ``<healers-fused-entry>``) belongs to
``wrappers``.  Other ``repro`` packages (cli, core, headers, ...) fold
into ``other``, and the benchmark's own files into ``bench``.

Builtin and standard-library functions have no layer of their own: each
one's self time is split over its callers in proportion to the time
spent on behalf of each caller (pstats keeps that per caller), and a
caller that is itself stdlib is resolved the same way, recursively.

Blocking waits -- ``select``/``epoll``, ``sleep``, lock and queue waits,
socket reads -- are idle time, not work: they go to ``wait`` and are
left out of the traced total the layer shares are taken of.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

import repro

LAYERS = (
    "apps", "serving", "wrappers", "robust", "security", "libc",
    "memory.model", "memory.heap", "runtime", "linker", "recovery",
    "chaos", "telemetry", "collection", "profiling", "injection",
    "ftypes",
)

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

_WAIT_MARKERS = (
    "select.epoll", "select.poll", "select.select", "time.sleep",
    "_thread.lock", "_thread.RLock", "_queue.SimpleQueue",
    "'recv' of '_socket.socket'", "'recv_into' of '_socket.socket'",
    "'accept' of '_socket.socket'", "posix.waitpid",
)

Func = Tuple[str, int, str]


def _direct_layer(func: Func):
    filename, _line, name = func
    if filename.startswith("<healers-"):
        return "wrappers"
    if filename == "~":
        if any(marker in name for marker in _WAIT_MARKERS):
            return "wait"
        return None
    path = os.path.abspath(filename)
    if path.startswith(_REPRO_DIR):
        parts = path[len(_REPRO_DIR):].split(os.sep)
        package = parts[0]
        if package == "memory":
            return ("memory.heap" if parts[1] == "heap.py"
                    else "memory.model")
        return package if package in LAYERS else "other"
    if path.startswith(_BENCH_DIR):
        return "bench"
    return None


class LayerProfile:
    """Per-layer self seconds and call counts from pstats data."""

    def __init__(self, stats: pstats.Stats):
        self.raw = stats.stats
        self._mixes: Dict[Func, Dict[str, float]] = {}
        self.self_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        for func, (_cc, nc, tt, _ct, _callers) in self.raw.items():
            layer = _direct_layer(func)
            if layer is not None:
                self.calls[layer] = self.calls.get(layer, 0) + nc
            for owner, weight in self._mix(func, frozenset()).items():
                self.self_seconds[owner] = (
                    self.self_seconds.get(owner, 0.0) + tt * weight)

    def _mix(self, func: Func, visiting: frozenset) -> Dict[str, float]:
        cached = self._mixes.get(func)
        if cached is not None:
            return cached
        layer = _direct_layer(func)
        if layer is not None:
            mix = {layer: 1.0}
        else:
            callers = self.raw.get(func, (0, 0, 0, 0, {}))[4]
            if not callers or func in visiting:
                mix = {"other": 1.0}
            else:
                weights = {caller: entry[2] for caller, entry
                           in callers.items()}
                total = sum(weights.values())
                if total <= 0:
                    weights = {caller: entry[0] for caller, entry
                               in callers.items()}
                    total = sum(weights.values()) or 1
                mix = {}
                for caller, weight in weights.items():
                    for owner, share in self._mix(
                            caller, visiting | {func}).items():
                        mix[owner] = (mix.get(owner, 0.0)
                                      + share * weight / total)
        self._mixes[func] = mix
        return mix

    def count_calls(self, marker: str) -> int:
        """Calls to every function whose ``file:name`` has ``marker``."""
        return sum(entry[1] for func, entry in self.raw.items()
                   if marker in f"{func[0]}:{func[2]}")

    @property
    def busy_seconds(self) -> float:
        """Traced total: all profiled time except blocking waits."""
        return sum(seconds for layer, seconds in self.self_seconds.items()
                   if layer != "wait")

    def metrics(self, operations: int) -> Dict[str, float]:
        busy = self.busy_seconds
        out: Dict[str, float] = {}
        shares = 0.0
        for layer in LAYERS + ("other", "bench"):
            seconds = self.self_seconds.get(layer, 0.0)
            out[f"{layer}.self_us_per_op"] = seconds / operations * 1e6
            share = 100.0 * seconds / busy if busy else 0.0
            if layer in LAYERS:
                out[f"{layer}.calls_per_op"] = (
                    self.calls.get(layer, 0) / operations)
                out[f"{layer}.share"] = share
                shares += share
        out["trace.busy_us_per_op"] = busy / operations * 1e6
        out["trace.wait_us_per_op"] = (
            self.self_seconds.get("wait", 0.0) / operations * 1e6)
        out["trace.layer_share_sum"] = shares
        return out
