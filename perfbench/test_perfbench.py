"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from layers import LAYERS, MODULE_LAYER, UNATTRIBUTED, fold, module_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def test_every_module_maps_to_exactly_one_layer():
    on_disk = {module_of(str(path), str(SRC))
               for pattern in ("*.py", "_*.c")
               for path in (SRC / "repro").rglob(pattern)}
    listed = [module for modules in LAYERS.values() for module in modules]
    assert len(listed) == len(set(listed)), "a module is in two layers"
    assert sorted(on_disk - set(listed)) == [], "modules without a layer"
    assert sorted(set(listed) - on_disk) == [], "layers list missing modules"
    assert set(MODULE_LAYER) == on_disk


def _py(module: str, name: str):
    path = SRC / Path(*module.split(".")[:-1]) / (
        module.split(".")[-1] + ".py")
    return (str(path), 1, name)


def test_fold_charges_foreign_self_time_to_repro_callers():
    agent = _py("repro.core.agent", "select")
    sed = _py("repro.core.sed", "solve")
    sort = ("~", 0, "<built-in method builtins.sorted>")
    helper = ("/usr/lib/python3/heapq.py", 1, "merge")
    drain = ("~", 0, "<built-in method _simcore.drain>")
    root = ("bench.py", 1, "main")
    stats = {
        # (cc, nc, tt, ct, callers{caller: (cc, nc, tt, ct)})
        root: (1, 1, 0.5, 10.0, {}),
        drain: (1, 1, 1.0, 9.5, {root: (1, 1, 1.0, 9.5)}),
        agent: (1, 1, 2.0, 4.0, {drain: (1, 1, 2.0, 4.0)}),
        sed: (1, 1, 1.0, 3.5, {drain: (1, 1, 1.0, 3.5)}),
        # sorted(): 1 s from the agent, 3 s reached through the helper,
        # which recurses into itself and is called from the SeD.
        sort: (4, 4, 4.0, 4.0, {agent: (1, 1, 1.0, 1.0),
                                helper: (3, 3, 3.0, 3.0)}),
        helper: (2, 1, 0.5, 3.5, {sed: (1, 1, 0.5, 3.5),
                                  helper: (1, 1, 0.2, 2.0)}),
    }
    totals = fold(stats, str(SRC))
    assert set(totals) == set(LAYERS) | {UNATTRIBUTED}
    assert totals["sim.engine"] == pytest.approx(1.0)
    assert totals["core.agent"] == pytest.approx(2.0 + 1.0)
    assert totals["core.sed"] == pytest.approx(1.0 + 3.0 + 0.5)
    assert totals[UNATTRIBUTED] == pytest.approx(0.5)
    assert sum(totals.values()) == pytest.approx(
        sum(s[2] for s in stats.values()))


FIXED_COUNTS = ("sim.engine.events", "core.transport.messages",
                "data.memo.hits", "survey.dag.completed")


def _probe_run(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "survey-dag", str(seed),
         "probe", repr(time.monotonic())],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["error"] is None and record["problems"] == []
    return record


def test_fixed_counts_repeat_exactly_at_one_seed():
    first, second = _probe_run(2007), _probe_run(2007)
    assert first["digest"] == second["digest"]
    for name in FIXED_COUNTS:
        assert first["probes"][name] > 0, name
        assert first["probes"][name] == second["probes"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fed-load",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_reported_metric():
    import run
    from probes import UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = {"mode": "plain", "failed": False, "done": 9, "attempted": 10,
             "wall_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0}
    reported = {name: unit for name, (_v, unit)
                in run.end_to_end([plain]).items()}
    assert reported == {m["name"]: m["unit"] for m in spec["end_to_end"]}

    probe = {"mode": "probe", "failed": False,
             "probes": {name: 1 for name in UNITS}}
    profile = {"mode": "profile", "failed": False, "wall_s": 2.0,
               "self_s": {layer: 0.1 for layer in LAYERS}}
    layered, repeatable = run.per_layer([plain], [probe], [profile])
    assert repeatable
    assert {name: unit for name, (_v, unit) in layered.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        run.WORKLOADS)


def test_compare_refuses_records_of_different_implementations(tmp_path):
    import compare

    def record(path, heap_impl):
        meta = {"workload": "fed-load", "seed": 1, "trace": 0,
                "heap_impl": heap_impl, "phys_impl": "c",
                "python": "3.11.7", "nproc": 2}
        metrics = {"req_per_s": {"value": 700.0, "unit": "1/s"}}
        path.write_text(json.dumps({"meta": meta, "runs": [],
                                    "result": {"metrics": metrics}}))
        return str(path)

    compiled = record(tmp_path / "c.json", "c")
    fallback = record(tmp_path / "py.json", "python")
    assert compare.main(["--base", compiled, "--new", compiled]) == 0
    assert compare.main(["--base", compiled, "--new", fallback]) == 2
