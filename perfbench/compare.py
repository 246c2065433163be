"""Compare two sets of benchmark records, per workload and metric.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json ...

Each file is one ``run.py --out`` record.  Prints, for every workload and
metric, each side's median and quartiles and the change of the medians.
Refuses (exit 2) when the records were made with different compiled or
pure-Python implementations, Python versions or core counts: the
pure-Python fallback alone reads as a 2-3x slowdown.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

#: Metadata that must match for two records to be comparable.
MUST_MATCH = ("heap_impl", "phys_impl", "python", "nproc", "trace")


def load(paths):
    """{(workload, metric): [values]} plus the set of metadata seen."""
    values, metas = defaultdict(list), set()
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        meta = record["meta"]
        metas.add(tuple(meta[k] for k in MUST_MATCH))
        for name, metric in record["result"]["metrics"].items():
            values[meta["workload"], name].append(metric["value"])
    return values, metas


def summary(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, base_meta = load(args.base)
    new, new_meta = load(args.new)
    metas = base_meta | new_meta
    if len(metas) != 1:
        print("refusing to compare records made under different "
              f"{', '.join(MUST_MATCH)}: {sorted(metas)}", file=sys.stderr)
        return 2
    print(f"{'workload':12} {'metric':26} {'base':>28} {'new':>28} change")
    for key in sorted(base.keys() & new.keys()):
        b = statistics.median(base[key])
        n = statistics.median(new[key])
        change = f"{(n - b) / b:+.1%}" if b else "-"
        print(f"{key[0]:12} {key[1]:26} {summary(base[key]):>28} "
              f"{summary(new[key]):>28} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
