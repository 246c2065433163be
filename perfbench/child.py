"""One workload run in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py <workload> <seed> <mode> <spawned_at>

``spawned_at`` is the parent's ``time.monotonic()`` just before it started
this interpreter (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s``
covers interpreter start-up plus the imports of the workload's entry point.

Modes:

* ``meta``    -- import only: builds the C extensions if needed and
  reports which implementations loaded;
* ``plain``   -- the untraced run that the end-to-end metrics come from;
* ``probe``   -- the run under :class:`probes.Probes` (counters, spans, GC);
* ``profile`` -- the run under cProfile, folded by layer.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    name, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], argv[3]
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    call = workload.load()
    record = {"setup_s": time.monotonic() - float(spawned_at)}

    from repro.ramses.physcore import PHYS_IMPL
    from repro.sim.simcore import HEAP_IMPL

    record.update(heap_impl=HEAP_IMPL, phys_impl=PHYS_IMPL,
                  python=platform.python_version(),
                  nproc=len(os.sched_getaffinity(0)))
    if mode != "meta":
        record.update(run(workload, call, seed, mode))
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(record))
    return 0


def run(workload, call, seed: int, mode: str) -> dict:
    out = {"error": None, "problems": [], "attempted": 0, "done": 0,
           "digest": None}
    try:
        if mode == "profile":
            import cProfile

            profiler = cProfile.Profile()
            start = time.perf_counter()
            profiler.enable()
            result = call(seed)
            profiler.disable()
            out["wall_s"] = time.perf_counter() - start
            profiler.create_stats()
            from layers import fold

            out["self_s"] = fold(profiler.stats, str(SRC_ROOT))
        elif mode == "probe":
            from probes import Probes

            with Probes() as probes:
                start = time.perf_counter()
                result = call(seed)
                out["wall_s"] = time.perf_counter() - start
            out["probes"] = probes.metrics()
        else:
            start = time.perf_counter()
            result = call(seed)
            out["wall_s"] = time.perf_counter() - start
        outcome = workload.outcome(result)
    except Exception as exc:  # a crashed run is a failed run, not a crash
        traceback.print_exc()
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    out.update(attempted=outcome.attempted, done=outcome.done,
               problems=outcome.problems, digest=outcome.digest)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
