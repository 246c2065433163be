"""Per-layer counters and spans, installed from outside the program.

The program has no benchmark hooks, so :class:`Probes` patches public
classes and functions for the length of one run and restores them after:

* counting wrappers on public methods (``Engine.process``,
  ``Endpoint.run_chain``, ``SchedulerPolicy.sort`` ...);
* ``__init__`` wrappers that keep every engine, network, fabric, memo
  index, data grid, DAG executor and federated client the run built, so
  their public counters can be read when it ends;
* wall-clock spans around plain-call physics and I/O functions (the DES
  layers run as generators resumed by the C ``drain`` loop, so a span
  around them would only time generator creation -- their time comes
  from the profile fold instead);
* ``gc.callbacks`` for the time spent in cyclic garbage collection.

Counting wrappers add a Python frame per call, so the profiled run is a
separate run without them (see child.py).
"""

from __future__ import annotations

import functools
import gc
import sys
import tarfile
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List


#: Every metric :meth:`Probes.metrics` reports, with its unit.
UNITS: Dict[str, str] = {
    "sim.engine.events": "count", "sim.engine.processes": "count",
    "sim.network.transfers": "count", "sim.network.bytes_total": "B",
    "sim.network.bytes_wan": "B",
    "core.transport.messages": "count", "core.transport.bytes": "B",
    "core.transport.chain_calls": "count",
    "core.agent.sorts": "count", "core.agent.deltas": "count",
    "core.sed.solves": "count",
    "core.client.redirects": "count", "core.client.rejections": "count",
    "data.memo.hits": "count", "data.memo.misses": "count",
    "data.memo.invalidations": "count", "data.memo.hit_ratio": "ratio",
    "data.bytes_moved": "B", "data.bytes_saved": "B",
    "survey.dag.launched": "count", "survey.dag.completed": "count",
    "survey.dag.retries": "count", "survey.dag.useful_ratio": "ratio",
    "physics.run_s": "s", "physics.ic_s": "s", "physics.halo_s": "s",
    "services.tar_s": "s",
    "runtime.gc_s": "s", "runtime.gc_collections": "count",
}

#: Metrics that may differ between runs of one seed.  The rest are program
#: counts and must repeat exactly.  Byte totals are here because a REAL
#: zoom's result tarball changes size from run to run (see workloads.py).
MEASURED = frozenset(
    name for name, unit in UNITS.items() if unit in ("s", "B")) | {
    "runtime.gc_collections"}


def _subclasses_defining(cls, name: str) -> List[type]:
    found, stack = [], [cls]
    while stack:
        klass = stack.pop()
        if name in vars(klass):
            found.append(klass)
        stack.extend(klass.__subclasses__())
    return found


class Probes:
    """Counters, spans and GC time of one run; a context manager."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.span_s: Dict[str, float] = defaultdict(float)
        self._open_spans: set = set()
        self.instances: Dict[str, list] = defaultdict(list)
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0
        self._undo: List[Callable[[], None]] = []

    # -- patching -------------------------------------------------------------

    def _replace(self, owner, name: str, new) -> None:
        old = vars(owner)[name]
        setattr(owner, name, new)
        self._undo.append(lambda: setattr(owner, name, old))

    def _count(self, owner, name: str, counter: str) -> None:
        orig = vars(owner)[name]
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return orig(*args, **kwargs)

        self._replace(owner, name, counted)

    def _keep(self, cls, key: str) -> None:
        orig = cls.__init__
        kept = self.instances[key]

        @functools.wraps(orig)
        def init(obj, *args, **kwargs):
            orig(obj, *args, **kwargs)
            kept.append(obj)

        self._replace(cls, "__init__", init)

    def _span(self, owner, name: str, span: str) -> Callable:
        orig = vars(owner)[name]
        span_s = self.span_s
        open_spans = self._open_spans

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            # Time only the outermost call: ``TarFile.add`` recurses into
            # directories.
            if span in open_spans:
                return orig(*args, **kwargs)
            open_spans.add(span)
            start = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                span_s[span] += time.perf_counter() - start
                open_spans.discard(span)

        self._replace(owner, name, timed)
        return timed

    def _span_function(self, module: str, name: str, span: str) -> None:
        """Span a module-level function under every name bound to it."""
        orig = getattr(sys.modules[module], name)
        timed = self._span(sys.modules[module], name, span)
        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("repro")
                    and vars(other).get(name) is orig):
                self._replace(other, name, timed)

    def _gc_callback(self, phase: str, _info) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    def __enter__(self) -> "Probes":
        from repro.core.aggregation import AggregationTable
        from repro.core.federation import FederatedClient
        from repro.core.scheduling import SchedulerPolicy
        from repro.core.sed import SolveContext
        from repro.core.transport import Endpoint, TransportFabric
        from repro.data.manager import DataGrid
        from repro.data.memo import MemoIndex
        from repro.sim.engine import Engine
        from repro.sim.network import Network
        from repro.survey.dag import DagExecutor

        self._count(Engine, "process", "sim.engine.processes")
        self._count(Network, "transfer", "sim.network.transfers")
        self._count(Endpoint, "run_chain", "core.transport.chain_calls")
        for policy in _subclasses_defining(SchedulerPolicy, "sort"):
            self._count(policy, "sort", "core.agent.sorts")
        self._count(AggregationTable, "apply_delta", "core.agent.deltas")
        self._count(SolveContext, "execute", "core.sed.solves")
        for cls, key in ((Engine, "engines"), (Network, "networks"),
                         (TransportFabric, "fabrics"), (MemoIndex, "memos"),
                         (DataGrid, "grids"), (DagExecutor, "dags"),
                         (FederatedClient, "clients")):
            self._keep(cls, key)

        # Physics and result I/O run as plain calls inside a solve: spans.
        import repro.galics.halomaker
        import repro.grafic.ic
        import repro.grafic.lpt
        from repro.ramses.simulation import RamsesRun

        self._span(RamsesRun, "run", "physics.run_s")
        for module in ("repro.grafic.ic", "repro.grafic.lpt"):
            for name, obj in list(vars(sys.modules[module]).items()):
                if (name.startswith("make_") and name.endswith("_ic")
                        and getattr(obj, "__module__", None) == module):
                    self._span_function(module, name, "physics.ic_s")
        self._span_function("repro.galics.halomaker", "find_halos",
                            "physics.halo_s")
        # Tarballs are written with tarfile; compression happens as members
        # are added and when the archive is closed.
        self._span(tarfile.TarFile, "add", "services.tar_s")
        self._span(tarfile.TarFile, "close", "services.tar_s")

        gc.callbacks.append(self._gc_callback)
        self._undo.append(lambda: gc.callbacks.remove(self._gc_callback))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading --------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every counter and span of the run, by per-layer metric name."""
        inst = self.instances

        def total(key: str, read: Callable) -> int:
            return sum(read(obj) for obj in inst[key])

        hits = total("memos", lambda m: m.stats.hits)
        misses = total("memos", lambda m: m.stats.misses)
        launched = total("dags", lambda d: d.stats.launched)
        completed = total("dags", lambda d: d.stats.completed)
        out = {
            "sim.engine.events": total("engines",
                                       lambda e: e.events_scheduled),
            "sim.network.bytes_total": total("networks",
                                             lambda n: n.bytes_total),
            "sim.network.bytes_wan": total("networks", lambda n: n.bytes_wan),
            "core.transport.messages": total("fabrics",
                                             lambda f: f.messages_sent),
            "core.transport.bytes": total("fabrics", lambda f: f.bytes_sent),
            "core.client.redirects": total("clients", lambda c: c.redirects),
            "core.client.rejections": total("clients",
                                            lambda c: c.rejections),
            "data.memo.hits": hits,
            "data.memo.misses": misses,
            "data.memo.invalidations": total(
                "memos", lambda m: m.stats.invalidations),
            "data.memo.hit_ratio": hits / (hits + misses) if hits + misses
            else 0.0,
            "data.bytes_moved": total("grids", lambda g: g.stats.bytes_moved),
            "data.bytes_saved": total("grids", lambda g: g.stats.bytes_saved),
            "survey.dag.launched": launched,
            "survey.dag.completed": completed,
            "survey.dag.retries": total("dags", lambda d: d.stats.retries),
            "survey.dag.useful_ratio": completed / launched if launched
            else 0.0,
            "runtime.gc_s": self.gc_s,
            "runtime.gc_collections": self.gc_collections,
        }
        for name in ("sim.engine.processes", "sim.network.transfers",
                     "core.transport.chain_calls", "core.agent.sorts",
                     "core.agent.deltas", "core.sed.solves"):
            out[name] = self.counts[name]
        for name in ("physics.run_s", "physics.ic_s", "physics.halo_s",
                     "services.tar_s"):
            out[name] = self.span_s[name]
        return out
