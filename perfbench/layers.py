"""The benchmark's layers and the fold of profiler self time onto them.

Every module of the ``repro`` package belongs to exactly one layer, named
after the repository's own module groups (``tests`` in this directory pin
that no module is missing or listed twice).  The fold turns a ``cProfile``
run into per-layer self time:

* a function defined in a ``repro`` module (or one of its C extensions)
  charges its self time to that module's layer;
* a function defined elsewhere -- the standard library, numpy, builtins
  such as ``dict.get`` or ``zlib.compress`` -- charges its self time to
  the layers of the ``repro`` code that called it, split along the call
  edges the profiler recorded;
* what no ``repro`` caller reaches (the benchmark's own frames) stays
  ``unattributed``; ``layers.coverage`` is the share that is not.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Tuple

#: layer -> the modules it owns.  A module added under ``src/repro`` must be
#: listed here, or the layer test fails.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.engine": (
        "repro.sim", "repro.sim.engine", "repro.sim.simcore",
        "repro.sim._simcore", "repro.sim.cbuild", "repro.sim.resources",
        "repro.sim.rng", "repro.sim.failures", "repro.sim.traffic"),
    # The network model plus the platform it routes over (topology, hosts,
    # NFS volumes, reservations).
    "sim.network": (
        "repro.sim.network", "repro.platform", "repro.platform.batch",
        "repro.platform.grid5000", "repro.platform.machines",
        "repro.platform.nfs"),
    "core.transport": ("repro.core.transport", "repro.core.pipeline"),
    "core.agent": (
        "repro.core.agent", "repro.core.aggregation", "repro.core.scheduling",
        "repro.core.cori", "repro.core.liveness", "repro.core.deployment",
        "repro.core.godiet"),
    "core.sed": ("repro.core.sed",),
    "core.client": ("repro.core", "repro.core.client",
                    "repro.core.federation", "repro.core.gridrpc"),
    # Descriptors every component shares, and the always-on request tracer
    # (kept out of ``obs`` so that ``obs`` reads 0 when observability is off).
    "core.model": (
        "repro.core.data", "repro.core.exceptions", "repro.core.profile",
        "repro.core.requests", "repro.core.statistics",
        "repro.core.logservice"),
    "data": (
        "repro.data", "repro.data.catalog", "repro.data.manager",
        "repro.data.memo", "repro.data.policy", "repro.data.store",
        "repro.data.transfer"),
    "survey": (
        "repro.survey", "repro.survey.batch", "repro.survey.dag",
        "repro.survey.grid", "repro.survey.lensing", "repro.survey.pipeline"),
    "services": (
        "repro.services", "repro.services.lensing_service",
        "repro.services.perfmodel", "repro.services.ramses_client",
        "repro.services.ramses_service", "repro.services.workflow"),
    "obs": ("repro.obs", "repro.obs.export", "repro.obs.metrics",
            "repro.obs.profiling", "repro.obs.spans"),
    "physics": (
        "repro.ramses", "repro.ramses._physcore", "repro.ramses.amr",
        "repro.ramses.cosmology", "repro.ramses.domain",
        "repro.ramses.energy", "repro.ramses.gravity", "repro.ramses.hilbert",
        "repro.ramses.hydro", "repro.ramses.integrator", "repro.ramses.io",
        "repro.ramses.mesh", "repro.ramses.namelist",
        "repro.ramses.parallel", "repro.ramses.particles",
        "repro.ramses.physcore", "repro.ramses.poisson",
        "repro.ramses.riemann", "repro.ramses.simulation",
        "repro.ramses.units", "repro.ramses.zoom",
        "repro.grafic", "repro.grafic.gaussian_field", "repro.grafic.ic",
        "repro.grafic.lpt", "repro.grafic.power_spectrum",
        "repro.grafic.zeldovich",
        "repro.galics", "repro.galics.catalogs", "repro.galics.galaxymaker",
        "repro.galics.halo_properties", "repro.galics.halomaker",
        "repro.galics.press_schechter", "repro.galics.treemaker"),
    # The experiment modules and the CLI: the entry points users call.
    "experiments": (
        "repro", "repro.__main__", "repro.experiments",
        "repro.experiments.ablation_scheduler",
        "repro.experiments.data_locality",
        "repro.experiments.degraded_campaign",
        "repro.experiments.figure1_architecture",
        "repro.experiments.figure2_density",
        "repro.experiments.figure3_zoom", "repro.experiments.figure4",
        "repro.experiments.figure5", "repro.experiments.load_federation",
        "repro.experiments.overhead", "repro.experiments.report",
        "repro.experiments.runner", "repro.experiments.scaling_nodes",
        "repro.experiments.survey_campaign",
        "repro.experiments.table_timings"),
}

UNATTRIBUTED = "unattributed"

MODULE_LAYER: Dict[str, str] = {
    module: layer for layer, modules in LAYERS.items() for module in modules}

#: Compiled extensions show up in profiles as builtins named after the
#: module the extension loader gave them.
_C_EXTENSIONS = {"_simcore.": "repro.sim._simcore",
                 "_physcore.": "repro.ramses._physcore"}


def module_of(path: str, src_root: str) -> str:
    """Dotted module name of a ``.py``/``.c`` file under ``src_root``."""
    rel = os.path.relpath(path, src_root)
    parts = rel.split(os.sep)
    parts[-1] = os.path.splitext(parts[-1])[0]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_function(func: Tuple[str, int, str], src_root: str):
    """Layer of a profiler function key, or None when it is not repro code."""
    filename, _line, name = func
    if filename == "~":
        for prefix, module in _C_EXTENSIONS.items():
            if prefix in name:
                return MODULE_LAYER[module]
        return None
    path = os.path.abspath(filename)
    if not path.startswith(os.path.join(src_root, "repro") + os.sep):
        return None
    module = module_of(path, src_root)
    return MODULE_LAYER.get(module, UNATTRIBUTED)


def fold(stats: Mapping, src_root: str) -> Dict[str, float]:
    """Fold ``cProfile.Profile().stats`` into seconds of self time per layer.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers`` mapping each caller to the edge's ``(cc, nc, tt, ct)``.
    Returns every layer of :data:`LAYERS` plus :data:`UNATTRIBUTED`.
    """
    src_root = os.path.abspath(src_root)
    totals = {layer: 0.0 for layer in LAYERS}
    totals[UNATTRIBUTED] = 0.0
    own = {func: layer_of_function(func, src_root) for func in stats}
    shares: Dict[Tuple, Dict[str, float]] = {}

    def spread(callers, active, field: int) -> Dict[str, float]:
        """Layer weights over call edges, skipping edges that close a
        recursion cycle; ``field`` picks the edge's self or total time."""
        edges = {c: e[field] for c, e in callers.items() if c not in active}
        total = sum(edges.values())
        if total <= 0.0:
            return {UNATTRIBUTED: 1.0}
        weights: Dict[str, float] = {}
        for caller, t in edges.items():
            for layer, w in ancestry(caller, active).items():
                weights[layer] = weights.get(layer, 0.0) + w * t / total
        return weights

    def ancestry(func, active) -> Dict[str, float]:
        """Layer weights of the nearest repro callers of ``func``."""
        if own.get(func):
            return {own[func]: 1.0}
        if func not in shares:
            callers = stats[func][4] if func in stats else {}
            active.add(func)
            shares[func] = spread(callers, active, 3)
            active.discard(func)
        return shares[func]

    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0.0:
            continue
        if own[func]:
            totals[own[func]] += tt
            continue
        # Split self time along the recorded call edges, which carry the
        # callee's self time per caller.
        for layer, w in spread(callers, {func}, 2).items():
            totals[layer] += tt * w
    return totals
