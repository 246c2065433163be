"""The four benchmark workloads: the call users make, and its output checks.

Each workload has two halves.  ``load()`` imports the public entry point
(the benchmark times this as set-up) and returns ``call(seed)``, the one
call whose wall time is measured.  ``outcome(result)`` then counts the
simulated DIET requests, checks that each ended exactly once, and digests
the simulated outputs so that runs of one seed can be compared byte for
byte.  See README.md beside this file for why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from typing import Any, Callable, Dict, List, NamedTuple


class Outcome(NamedTuple):
    """What one run produced, as the benchmark judges it."""

    #: Simulated requests submitted, and those that ended ``done``.
    attempted: int
    done: int
    #: Failed output checks; empty when the run is correct.
    problems: List[str]
    #: sha256 over the run's simulated outputs.
    digest: str


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- campaigns (paper-zoom, real-zoom) -----------------------------------------


def _campaign_outcome(result, n_zooms: int, outputs) -> Outcome:
    statuses = [result.part1_trace.status] + list(result.statuses)
    problems = []
    if len(result.statuses) != n_zooms:
        problems.append(f"{len(result.statuses)} zoom statuses, "
                        f"expected {n_zooms}")
    bad = [s for s in statuses if s != 0]
    if bad:
        problems.append(f"{len(bad)} requests ended with a non-zero status")
    return Outcome(attempted=1 + n_zooms, done=len(statuses) - len(bad),
                   problems=problems, digest=_digest(repr(outputs).encode()))


PAPER_ZOOMS = 1000


def load_paper_zoom() -> Callable[[int], Any]:
    from repro.services import CampaignConfig, run_campaign

    def call(seed: int):
        return run_campaign(CampaignConfig(n_sub_simulations=PAPER_ZOOMS,
                                           seed=seed))

    return call


def paper_zoom_outcome(result) -> Outcome:
    outputs = (result.statuses, result.zoom_centers, result.net_bytes_total,
               result.net_bytes_wan,
               [dataclasses.astuple(t) for t in result.tracer.all_traces()])
    return _campaign_outcome(result, PAPER_ZOOMS, outputs)


REAL_ZOOMS = 2


def load_real_zoom() -> Callable[[int], Any]:
    from repro.services import CampaignConfig, ExecutionMode, run_campaign

    def call(seed: int):
        return run_campaign(CampaignConfig(
            n_sub_simulations=REAL_ZOOMS, resolution=32, boxsize_mpc_h=50,
            n_zoom_levels=1, mode=ExecutionMode.REAL, real_n_steps=10,
            real_a_end=0.8, seed=seed))

    return call


def real_zoom_outcome(result) -> Outcome:
    # A REAL zoom's result tarball embeds wall-clock mtimes, so its size --
    # and with it the simulated time of the result transfer (``completed_at``)
    # and the network byte totals -- differ from run to run.  The digest
    # covers everything upstream of that transfer; README.md records the
    # defect.
    traces = [dataclasses.astuple(dataclasses.replace(t, completed_at=None))
              if t.service == "ramsesZoom2" else dataclasses.astuple(t)
              for t in result.tracer.all_traces()]
    outputs = (result.statuses, result.zoom_centers, traces)
    return _campaign_outcome(result, REAL_ZOOMS, outputs)


# -- fed-load -------------------------------------------------------------------


def load_fed_load() -> Callable[[int], Any]:
    from repro.experiments import load_federation

    def call(seed: int):
        return load_federation.run(
            loads=(64,), routings=("pull",), duration=60, n_grids=2,
            clusters_per_grid=3, churn=2, seed=seed)

    return call


def fed_load_outcome(result) -> Outcome:
    (point,) = result.runs
    problems = []
    ended = point.completed + point.failed + point.rejected
    if ended != point.n_arrivals:
        problems.append(f"{ended} requests ended, {point.n_arrivals} arrived")
    # The sweep already round-tripped the point through pickle, so these
    # bytes are its canonical form.
    return Outcome(attempted=point.n_arrivals, done=point.completed,
                   problems=problems, digest=_digest(pickle.dumps(point)))


# -- survey-dag -----------------------------------------------------------------


SURVEY_ZOOMS = 4  # survey_campaign.run's default background zooms


def load_survey_dag() -> Callable[[int], Any]:
    from repro.experiments import survey_campaign

    def call(seed: int):
        return survey_campaign.run(
            routings=("push",), policies=("mct",),
            data_policies=("persistent",), shape=(24, 24), resolution=64,
            seed=seed)

    return call


def survey_dag_outcome(result) -> Outcome:
    (arm,) = result.runs
    problems = []
    if arm.completed != arm.nodes:
        problems.append(f"{arm.completed} of {arm.nodes} DAG nodes completed")
    if arm.zooms_done != SURVEY_ZOOMS:
        problems.append(f"{arm.zooms_done} of {SURVEY_ZOOMS} zooms done")
    return Outcome(attempted=arm.nodes + SURVEY_ZOOMS,
                   done=arm.completed + arm.zooms_done, problems=problems,
                   digest=_digest(pickle.dumps(arm)))


class Workload(NamedTuple):
    load: Callable[[], Callable[[int], Any]]
    outcome: Callable[[Any], Outcome]


WORKLOADS: Dict[str, Workload] = {
    "paper-zoom": Workload(load_paper_zoom, paper_zoom_outcome),
    "fed-load": Workload(load_fed_load, fed_load_outcome),
    "survey-dag": Workload(load_survey_dag, survey_dag_outcome),
    "real-zoom": Workload(load_real_zoom, real_zoom_outcome),
}
