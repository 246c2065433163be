"""Command-line interface: ``python -m repro <experiment>``.

Runs one experiment reproduction and prints its report — the same modules
the benchmark suite drives, without pytest in the way.

    python -m repro list                 # what can I run?
    python -m repro timings              # E1, the §5.2 headline numbers
    python -m repro figure4              # E2/E3
    python -m repro figure4 --trace out.json --gantt-svg gantt.svg
    python -m repro campaign --policy mct --n-sub 50 --profile

Every campaign-backed experiment accepts the observability flags:
``--trace PATH`` writes a Chrome-trace/Perfetto JSON of the span store,
``--gantt-svg PATH`` renders the per-SeD solve timeline (Figure 4's chart)
as a standalone SVG, and ``--profile`` prints a flat self-time report
aggregated across every campaign the experiment ran — including campaigns
computed in parallel worker processes (their span stores travel home inside
the detached results).
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

#: name -> (description, experiment module, run(module, args) -> result,
#: name of the module's render(result) -> str).  Modules are named, not
#: imported: only the chosen subcommand's module is loaded.  Runners take
#: the parsed args namespace; the sweep experiments read ``args.jobs`` (see
#: ``repro.experiments.runner``), the rest ignore it.  Keeping run and
#: render separate lets :func:`main` hold on to the result object for the
#: observability exports after printing the report.
_EXPERIMENTS: Dict[str, Tuple[str, str, Callable[[Any, Any], Any], str]] = {
    "architecture": ("Figure 1: the deployed DIET hierarchy",
                     "figure1_architecture", lambda m, args: m.run(),
                     "render"),
    "timings": ("E1: §5.2 campaign timings vs the paper",
                "table_timings", lambda m, args: m.run(), "render"),
    "figure4": ("E2/E3: request distribution + per-SeD execution time",
                "figure4", lambda m, args: m.run(), "render"),
    "figure5": ("E4/E5: finding time + latency",
                "figure5", lambda m, args: m.run(), "render"),
    "overhead": ("E6: middleware overhead",
                 "overhead", lambda m, args: m.run(), "render"),
    "ablation": ("E7: plug-in scheduler ablation",
                 "ablation_scheduler", lambda m, args: m.run(jobs=args.jobs),
                 "render"),
    "routing": ("E7b: pull vs push estimate routing at growing widths",
                "ablation_scheduler",
                lambda m, args: m.run_routing(jobs=args.jobs),
                "render_routing"),
    "figure2": ("E8: projected density through cosmic time (real run)",
                "figure2_density", lambda m, args: m.run(), "render"),
    "figure3": ("E9: zoom re-simulation of a halo (real run)",
                "figure3_zoom", lambda m, args: m.run(), "render"),
    "scaling": ("E10: nodes-per-SeD scaling ablation",
                "scaling_nodes", lambda m, args: m.run(jobs=args.jobs),
                "render"),
    "degraded": ("E11: the campaign under injected SeD failures",
                 "degraded_campaign", lambda m, args: m.run(jobs=args.jobs),
                 "render"),
    "data-locality": ("E12: data-locality ablation "
                      "(volatile vs persistent vs replicated)",
                      "data_locality",
                      lambda m, args: m.run(
                          n_sub_simulations=args.n_sub, jobs=args.jobs),
                      "render"),
    "load": ("E13: federated load sweep (multi-MA, open-loop traffic, "
             "SeD churn; pull vs push)",
             "load_federation",
             lambda m, args: m.run(
                 loads=args.loads,
                 duration=args.duration, n_clients=args.clients,
                 n_grids=args.grids,
                 clusters_per_grid=args.clusters_per_grid,
                 churn=args.churn, seed=args.seed, jobs=args.jobs,
                 observe=bool(args.trace or args.gantt_svg or args.profile),
                 zipf=tuple(float(x) for x in args.zipf.split(",")),
                 memo=args.memo),
             "render"),
    "survey": ("E14: survey campaign (cosmology-grid DAGs + zoom mix; "
               "scheduler and data-policy ablations)",
               "survey_campaign",
               lambda m, args: m.run(
                   routings=tuple(args.routings.split(",")),
                   policies=tuple(args.policies.split(",")),
                   data_policies=tuple(args.data_policies.split(",")),
                   shape=args.points,
                   resolution=args.resolution, n_planes=args.planes,
                   z_source=args.z_source, zooms=args.zooms,
                   n_grids=args.grids,
                   clusters_per_grid=args.clusters_per_grid,
                   seed=args.seed, jobs=args.jobs,
                   observe=bool(args.trace or args.gantt_svg
                                or args.profile)),
               "render"),
}

#: Experiments that sweep independent runs and accept ``--jobs``.
_PARALLEL = ("ablation", "routing", "scaling", "degraded", "data-locality",
             "load", "survey")


def _campaigns_of(result: Any) -> List[Any]:
    """Every campaign result reachable from an experiment result.

    Walks the known wrapper shapes — ``.campaign`` (figure4/figure5/
    overhead/timings), ``.campaigns`` dict (ablation), ``.baseline`` +
    ``.runs[].result`` (degraded) — plus bare campaign results, so the
    observability exports work uniformly across every subcommand.
    """
    found: List[Any] = []

    def visit(obj: Any) -> None:
        if obj is None:
            return
        if hasattr(obj, "span_store"):  # a CampaignResult (live or detached)
            found.append(obj)
            return
        for attr in ("campaign", "baseline"):
            visit(getattr(obj, attr, None))
        campaigns = getattr(obj, "campaigns", None)
        if isinstance(campaigns, dict):
            for sub in campaigns.values():
                visit(sub)
        runs = getattr(obj, "runs", None)
        if isinstance(runs, (list, tuple)):
            for run in runs:
                visit(getattr(run, "result", run))

    visit(result)
    return found


def _export_observability(args, result: Any) -> List[str]:
    """Handle ``--trace`` / ``--gantt-svg`` / ``--profile``; returns the
    status lines to print after the experiment report."""
    want_trace = getattr(args, "trace", None)
    want_gantt = getattr(args, "gantt_svg", None)
    want_profile = getattr(args, "profile", False)
    if not (want_trace or want_gantt or want_profile):
        return []

    from .experiments.runner import collect_span_stores
    from .obs import profile_report, svg_gantt, write_chrome_trace

    campaigns = _campaigns_of(result)
    stores = collect_span_stores(campaigns)
    if not stores:
        return ["observability: no span stores recorded "
                "(campaign ran with observe=False?)"]

    lines: List[str] = []
    if want_trace:
        if len(stores) == 1:
            merged = stores[0]
        else:
            # Multi-campaign sweeps share track names (req:1 exists in every
            # campaign); a merged store is still a valid Chrome trace — the
            # viewer groups by thread name, and all spans are closed.
            from .obs import SpanStore
            merged = SpanStore()
            for store in stores:
                merged.spans.extend(store.spans)
                merged.marks.extend(store.marks)
        write_chrome_trace(merged, want_trace)
        n = sum(len(s.spans) for s in stores)
        lines.append(f"trace: {n} spans from {len(stores)} campaign(s) "
                     f"written to {want_trace}")
    if want_gantt:
        chart = stores[0].gantt(category="solve", group_by="sed")
        with open(want_gantt, "w", encoding="utf-8") as fh:
            fh.write(svg_gantt(chart))
        lines.append(f"gantt: {sum(len(v) for v in chart.values())} solves "
                     f"across {len(chart)} SeDs written to {want_gantt}")
    if want_profile:
        lines.append("")
        lines.append(profile_report(
            stores, title=f"profile: {args.command} "
                          f"({len(stores)} campaign(s))"))
    return lines


def _run_campaign(args) -> Tuple[str, Any]:
    from .experiments.report import hms
    from .services import CampaignConfig, run_campaign

    config = CampaignConfig(n_sub_simulations=args.n_sub, policy=args.policy,
                            with_predictor=args.policy == "mct",
                            seed=args.seed, data_policy=args.data_policy,
                            routing=args.routing)
    result = run_campaign(config)
    lines = [
        f"campaign: {args.n_sub} zoom requests, policy={args.policy}, "
        f"seed={args.seed}"
        + (f", routing={args.routing}" if args.routing != "pull" else "")
        + (f", data-policy={args.data_policy}" if args.data_policy else ""),
        f"  part 1:          {hms(result.part1_duration)}",
        f"  part 2 mean:     {hms(result.part2_mean_duration)}",
        f"  total elapsed:   {hms(result.total_elapsed)}",
        f"  sequential:      {result.sequential_estimate / 3600:.1f} h",
        f"  speedup:         {result.speedup:.2f}x",
        f"  requests/SeD:    {sorted(result.requests_per_sed().values())}",
    ]
    if args.data_policy is not None:
        mib = 2 ** 20
        lines.append(f"  network bytes:   "
                     f"{result.net_bytes_total / mib:.1f} MiB total, "
                     f"{result.net_bytes_wan / mib:.1f} MiB over WAN")
    if args.trace_csv:
        result.tracer.write_csv(args.trace_csv)
        lines.append(f"  trace written to {args.trace_csv}")
    return "\n".join(lines), result


def _grid_shape(text: str) -> Tuple[int, int]:
    """``--points`` value: ``NxM`` with positive integers N and M."""
    parts = text.split("x")
    if len(parts) == 2 and all(p.isdecimal() and int(p) > 0 for p in parts):
        return int(parts[0]), int(parts[1])
    raise argparse.ArgumentTypeError(
        f"expected NxM with positive integers, got {text!r}")


def _positive_int(text: str) -> int:
    """``--n-sub`` value: a positive integer."""
    if text.isdecimal() and int(text) > 0:
        return int(text)
    raise argparse.ArgumentTypeError(
        f"expected a positive integer, got {text!r}")


def _positive_floats(text: str) -> Tuple[float, ...]:
    """``--loads`` value: comma-separated positive finite numbers."""
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        values = ()
    if values and all(0 < v < float("inf") for v in values):
        return values
    raise argparse.ArgumentTypeError(
        f"expected comma-separated positive numbers, got {text!r}")


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write the span store as Chrome-trace/Perfetto JSON")
    p.add_argument("--gantt-svg", metavar="PATH", default=None,
                   help="render the per-SeD solve timeline as an SVG")
    p.add_argument("--profile", action="store_true",
                   help="print a flat self-time profile aggregated over "
                        "all campaigns (including parallel workers)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'Cosmological Simulations using Grid "
                    "Middleware' experiments.")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")
    for name, (desc, *_) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=desc)
        if name in _PARALLEL:
            p.add_argument(
                "--jobs", "-j", type=int, default=None,
                help="worker processes for the sweep (default: serial; "
                     "0 = one per CPU core)")
        if name == "data-locality":
            p.add_argument("--n-sub", type=_positive_int, default=100,
                           help="zoom sub-simulations per arm (default 100)")
        if name == "load":
            p.add_argument("--loads", type=_positive_floats,
                           default="2,4,8,16",
                           help="comma-separated offered loads in requests/s "
                                "(default 2,4,8,16)")
            p.add_argument("--duration", type=float, default=60.0,
                           help="seconds of open-loop arrivals per point "
                                "(default 60)")
            p.add_argument("--clients", type=int, default=1000,
                           help="Zipf-ranked logical client population "
                                "(default 1000; scales to 10^6)")
            p.add_argument("--grids", type=int, default=2,
                           help="MA hierarchies in the federation (default 2)")
            p.add_argument("--clusters-per-grid", type=int, default=2,
                           help="clusters per grid from the paper catalogue "
                                "(default 2)")
            p.add_argument("--churn", type=int, default=2,
                           help="SeD outages injected per point (default 2; "
                                "0 disables churn)")
            p.add_argument("--seed", type=int, default=2007)
            p.add_argument("--zipf", default="1.1",
                           help="comma-separated Zipf skew values for the "
                                "client population (default 1.1)")
            p.add_argument("--memo", choices=["on", "off"], default="off",
                           help="grid-wide result memoization keyed on "
                                "canonical request descriptors (default off)")
        if name == "survey":
            p.add_argument("--points", default="3x3", type=_grid_shape,
                           help="cosmology grid shape as NXxNY over the "
                                "(omega_m, sigma8) plane (default 3x3)")
            p.add_argument("--resolution", type=int, default=64,
                           help="survey box resolution per dimension "
                                "(default 64)")
            p.add_argument("--planes", type=int, default=8,
                           help="lens planes per convergence map (default 8)")
            p.add_argument("--z-source", type=float, default=1.0,
                           help="source redshift of the lensing stage "
                                "(default 1.0)")
            p.add_argument("--zooms", type=int, default=4,
                           help="background ramsesZoom2 requests sharing "
                                "the SeDs (default 4; 0 disables)")
            p.add_argument("--routings", default="pull,push",
                           help="comma-separated routing modes "
                                "(default pull,push)")
            p.add_argument("--policies", default="default,mct",
                           help="comma-separated scheduler policies "
                                "(default default,mct)")
            p.add_argument("--data-policies",
                           default="volatile,persistent,replicated",
                           help="comma-separated data policies "
                                "(default volatile,persistent,replicated)")
            p.add_argument("--grids", type=int, default=2,
                           help="MA hierarchies in the federation (default 2)")
            p.add_argument("--clusters-per-grid", type=int, default=3,
                           help="clusters per grid from the paper catalogue "
                                "(default 3: Lyon x2 + Lille, so survey "
                                "traffic crosses priced WAN uplinks)")
            p.add_argument("--seed", type=int, default=2007)
            p.add_argument("--batch-dir", metavar="PATH", default=None,
                           help="materialize each arm's products as a "
                                "LensTools-style home/storage batch tree")
        _add_obs_flags(p)

    campaign = sub.add_parser("campaign",
                              help="run a custom campaign configuration")
    campaign.add_argument("--n-sub", type=_positive_int, default=100,
                          help="number of zoom sub-simulations (default 100)")
    campaign.add_argument("--policy", default="default",
                          choices=["default", "mct", "min-queue", "fastest"],
                          help="scheduler policy")
    campaign.add_argument("--seed", type=int, default=2007)
    campaign.add_argument("--routing", default="pull",
                          choices=["pull", "push"],
                          help="estimate flow: per-request pull fan-out "
                               "(the paper's protocol, default) or push "
                               "deltas into materialized top-k tables")
    campaign.add_argument("--data-policy", default=None,
                          choices=["volatile", "persistent", "replicated",
                                   "broadcast"],
                          help="DAGDA-style data management policy "
                               "(default: no data grid)")
    campaign.add_argument("--trace-csv", default=None,
                          help="dump the request trace table as CSV")
    _add_obs_flags(campaign)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available experiments:")
        width = max(len(n) for n in _EXPERIMENTS) + 2
        for name, (desc, *_) in _EXPERIMENTS.items():
            print(f"  {name.ljust(width)} {desc}")
        print(f"  {'campaign'.ljust(width)} custom campaign "
              "(--n-sub, --policy, --seed, --routing, --data-policy, "
              "--trace-csv)")
        return 0
    if args.command == "campaign":
        text, result = _run_campaign(args)
        print(text)
    else:
        _desc, module, run, render = _EXPERIMENTS[args.command]
        experiment = import_module(f".experiments.{module}", __package__)
        result = run(experiment, args)
        print(getattr(experiment, render)(result))
        if getattr(args, "batch_dir", None):   # survey only
            for path in experiment.write_batches(result, args.batch_dir):
                print(f"batch manifest: {path}")
    for line in _export_observability(args, result):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
