"""Finished simulation objects are freed by reference counting.

A campaign creates hundreds of thousands of processes, resource claims and
RPC replies.  If any of them sits in a reference cycle, only the cyclic
garbage collector can free it, and the collector's cost then grows with the
run.  These tests disable the collector, keep everything it would have
freed (``gc.DEBUG_SAVEALL``) and assert that none of it is a kernel object.
"""

import collections
import contextlib
import gc
import types

from repro.core import CommunicationError, TransportFabric, TransportParams
from repro.services import CampaignConfig, run_campaign
from repro.sim import Engine, Host, Interrupt, Link, Network, Resource
from repro.sim.engine import Process
from repro.sim.resources import Request

_KERNEL_KINDS = (Process, Request, types.GeneratorType, types.TracebackType)


@contextlib.contextmanager
def cyclic_garbage():
    """Yield a list that ends up holding what only the collector frees."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    start = len(gc.garbage)
    found = []
    try:
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        yield found
        gc.collect()
        found.extend(gc.garbage[start:])
    finally:
        gc.set_debug(debug)
        del gc.garbage[start:]
        if enabled:
            gc.enable()


def leaked_kernel_objects(garbage):
    return dict(collections.Counter(
        type(o).__name__ for o in garbage if isinstance(o, _KERNEL_KINDS)))


def _run_kernel_scenarios():
    engine = Engine()
    slot = Resource(engine, capacity=1)

    def finished():
        yield engine.timeout(1.0)
        return "done"

    def failing():
        yield engine.timeout(1.0)
        raise ValueError("boom")

    def sleeper():
        try:
            yield engine.timeout(100.0)
        except Interrupt:
            return "woken"

    def worker():
        req = yield from slot.acquire()
        try:
            yield engine.timeout(1.0)
        finally:
            slot.release(req)

    def racer():
        # The deadline wins; the reply never fires.
        yield engine.any_of([engine.event(), engine.timeout(0.5)])
        # The reply wins; the deadline fires later with nobody waiting.
        yield engine.any_of([engine.timeout(0.5), engine.timeout(5.0)])

    def main():
        assert (yield engine.process(finished())) == "done"
        try:
            yield engine.process(failing())
        except ValueError:
            pass
        engine.defuse(engine.process(failing()))
        caught = engine.process(sleeper())
        uncaught = engine.process(finished())
        engine.defuse(uncaught)
        yield engine.timeout(0.5)
        caught.interrupt("wake")
        uncaught.interrupt("crash")
        assert (yield caught) == "woken"
        yield engine.all_of([engine.process(worker()) for _ in range(3)])
        yield engine.process(racer())

    engine.run_process(main())
    assert engine.peek() == float("inf")


def _run_failing_rpc():
    engine = Engine()
    net = Network(engine)
    for name in ("alpha", "beta"):
        net.add_host(Host(engine, name))
    net.connect("alpha", "beta", Link(engine, "wire", 0.010, 1e6))
    fabric = TransportFabric(engine, net, TransportParams())
    server = fabric.endpoint("server", "beta")
    client = fabric.endpoint("client", "alpha")

    def refuse(msg):
        yield engine.timeout(0.0)
        raise CommunicationError("refused")

    server.on("refuse", refuse)
    server.start()

    def call():
        try:
            yield from client.rpc("server", "refuse", None)
        except CommunicationError:
            return "refused"

    assert engine.run_process(call()) == "refused"
    server.stop()
    engine.run()


def test_kernel_objects_free_without_the_collector():
    with cyclic_garbage() as garbage:
        _run_kernel_scenarios()
    assert leaked_kernel_objects(garbage) == {}


def test_failed_rpc_frees_without_the_collector():
    with cyclic_garbage() as garbage:
        _run_failing_rpc()
    assert leaked_kernel_objects(garbage) == {}


def test_campaign_frees_finished_processes_without_the_collector():
    with cyclic_garbage() as garbage:
        result = run_campaign(CampaignConfig(n_sub_simulations=20))
    assert len(result.statuses) == 20
    assert leaked_kernel_objects(garbage) == {}
