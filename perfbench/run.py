"""End-to-end benchmark of the runs users launch, with a per-layer breakdown.

    python3 perfbench/run.py --workload paper-zoom [--seed 2007]
        [--seconds 25] [--trace 0|1] [--out record.json]

Run from the root of a source checkout.  Each workload run happens in a
fresh interpreter (perfbench/child.py), one at a time, until ``--seconds``
have passed; an untraced run reports the end-to-end metrics
(``--trace 0``), and a traced set -- one untraced, one probed and one
profiled run -- reports the per-layer metrics (``--trace 1``).  Every run's
outputs are checked, and all runs of one invocation must produce the same
simulated outputs.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` where ``attempted`` and
``failed`` count workload runs.  The line before it is the run's metadata
(implementations, Python version, nproc).  README.md beside this file
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYERS  # noqa: E402
from probes import MEASURED, UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Wall-clock budget of one invocation's runs; a child still running when
#: it is spent is killed and counts as failed.
BUDGET_S = 150.0
#: The import run may also compile the C extensions.
META_BUDGET_S = 600.0
#: Untraced runs made even when ``--seconds`` has already passed.
MIN_PLAIN_RUNS = 3


def run_child(workload: str, seed: int, mode: str, env: dict,
              deadline: float) -> dict:
    """Run one child; returns its record, or one with ``error`` set."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             mode, repr(spawned_at)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"mode": mode, "error": f"exited with {proc.returncode}"}
    return {"mode": mode, **json.loads(lines[-1])}


def judge(records: list) -> int:
    """Mark failed runs in place; returns the number failed.

    A run fails when it raised, when an output check failed, or when its
    simulated outputs differ from those of most runs of the set.
    """
    digests = Counter(r.get("digest") for r in records if r.get("digest"))
    reference = digests.most_common(1)[0][0] if digests else None
    for r in records:
        r["failed"] = bool(r.get("error") or r.get("problems")
                           or r.get("digest") != reference)
    return sum(r["failed"] for r in records)


def end_to_end(plain: list) -> dict:
    """End-to-end metrics of the untraced runs, as (value, unit)."""

    def rate(r):
        return 0.0 if r["failed"] else r["done"] / r["wall_s"]

    def done_ratio(r):
        return 0.0 if r["failed"] else r["done"] / r["attempted"]

    ok = [r for r in plain if "setup_s" in r]
    return {
        "req_per_s": (statistics.median(map(rate, plain)), "1/s"),
        "done_ratio": (statistics.fmean(map(done_ratio, plain)), "ratio"),
        "setup_s": (statistics.median(r["setup_s"] for r in ok)
                    if ok else 0.0, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok)
                        if ok else 0.0, "MB"),
    }


def per_layer(plain: list, probe: list, profile: list) -> tuple:
    """Per-layer metrics; the bool is False when counts did not repeat."""
    metrics = {}
    good = [r for r in profile if not r["failed"]]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(
            r["self_s"][layer] for r in good) if good else 0.0, "s")
    plain_wall = [r["wall_s"] for r in plain if not r["failed"]]
    profile_wall = [r["wall_s"] for r in good]
    metrics["trace.overhead"] = (
        statistics.median(profile_wall) / statistics.median(plain_wall)
        if profile_wall and plain_wall else 0.0, "ratio")
    metrics["layers.coverage"] = (statistics.median(
        sum(r["self_s"][layer] for layer in LAYERS) / r["wall_s"]
        for r in good) if good else 0.0, "ratio")

    repeatable = True
    probed = [r["probes"] for r in probe if not r["failed"]]
    for name, unit in UNITS.items():
        values = [p[name] for p in probed] or [0]
        if name in MEASURED:
            metrics[name] = (statistics.median(values), unit)
        else:
            repeatable &= len(set(values)) == 1
            metrics[name] = (values[0], unit)
    return metrics, repeatable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    try:
        meta, records = measure(args, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if meta is None:
        return 1

    failed = judge(records)
    correct = failed == 0
    by_mode = {m: [r for r in records if r["mode"] == m]
               for m in ("plain", "probe", "profile")}
    if args.trace:
        metrics, repeatable = per_layer(by_mode["plain"], by_mode["probe"],
                                        by_mode["profile"])
        correct &= repeatable
    else:
        metrics = end_to_end(by_mode["plain"])
    for r in records:
        if r["failed"]:
            why = r.get("error") or r.get("problems") or "outputs differ"
            print(f"failed {r['mode']} run: {why}", file=sys.stderr)
    result = {"correct": correct, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"meta": meta, "runs": records, "result": result}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def measure(args, env) -> tuple:
    """The invocation's runs; meta is None when the workload cannot run."""
    # Builds and caches the C extensions before anything is timed.
    meta = run_child(args.workload, args.seed, "meta", env,
                     time.monotonic() + META_BUDGET_S)
    if meta.get("error"):
        print(f"error: cannot import the workload: {meta['error']}",
              file=sys.stderr)
        return None, []
    if (meta["heap_impl"], meta["phys_impl"]) != ("c", "c"):
        print("error: the C extensions did not load (heap_impl="
              f"{meta['heap_impl']}, phys_impl={meta['phys_impl']}); "
              "refusing to measure the pure-Python fallback", file=sys.stderr)
        return None, []
    meta = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace,
            **{k: meta[k] for k in ("heap_impl", "phys_impl", "python",
                                    "nproc")}}

    modes = ("plain", "probe", "profile") if args.trace else ("plain",)
    min_rounds = 1 if args.trace else MIN_PLAIN_RUNS
    records, started = [], time.monotonic()
    deadline = started + BUDGET_S
    while time.monotonic() < deadline:
        round_start = time.monotonic()
        for mode in modes:
            records.append(run_child(args.workload, args.seed, mode, env,
                                     deadline))
        # Stop before a round that would end past the window.
        now = time.monotonic()
        if (len(records) >= min_rounds * len(modes)
                and now - started + (now - round_start) > args.seconds):
            break
    return meta, records


if __name__ == "__main__":
    sys.exit(main())
