"""Experiment reproductions: one module per figure/table of §5 (plus the
Figure 2/3 scientific analogues).  See DESIGN.md's experiment index.

Experiment modules are imported on first access (``from repro.experiments
import figure4`` or ``repro.experiments.figure4``): most of them pull in
the physics stack and scipy, which a CLI run of one experiment never needs
all of.
"""

from importlib import import_module

from .report import ascii_gantt, ascii_series, ascii_table, hms, ms

__all__ = [
    "ablation_scheduler",
    "figure1_architecture",
    "ascii_gantt",
    "ascii_series",
    "ascii_table",
    "data_locality",
    "degraded_campaign",
    "figure2_density",
    "figure3_zoom",
    "figure4",
    "figure5",
    "hms",
    "load_federation",
    "ms",
    "overhead",
    "runner",
    "scaling_nodes",
    "survey_campaign",
    "table_timings",
]


def __getattr__(name: str):
    # Only called for names not yet set: the experiment modules (importing
    # a submodule also binds it here, so this runs once per module).
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
