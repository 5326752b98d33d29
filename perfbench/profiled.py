"""Run a module as ``__main__`` with every thread it starts profiled.

Usage: ``python profiled.py OUT.prof MODULE [ARGS...]``

``python -m cProfile`` profiles only the main thread, and the collector
does its work on an event-loop thread and one thread per shard; its
main thread imports the toolkit, starts the server and then sleeps.
This runner gives every thread started through ``threading`` its own
profiler and, when the module exits, merges them into one stats file.
The main thread is left out, so start-up (which ``setup_s`` measures)
does not land in the per-document figures.  Threads still running when
the module exits are not included.
"""

from __future__ import annotations

import cProfile
import pstats
import runpy
import sys
import threading


def main() -> int:
    out, module = sys.argv[1], sys.argv[2]
    sys.argv = [module] + sys.argv[3:]
    finished = []
    lock = threading.Lock()
    thread_run = threading.Thread.run

    def profiled_run(thread):
        profile = cProfile.Profile()
        profile.enable()
        try:
            thread_run(thread)
        finally:
            profile.disable()
            with lock:
                finished.append(profile)

    threading.Thread.run = profiled_run
    code = 0
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    finally:
        with lock:
            if finished:
                stats = pstats.Stats(finished[0])
                for profile in finished[1:]:
                    stats.add(profile)
                stats.dump_stats(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
