"""Unit tests for the interceptor pipeline and the transport semantics it
guarantees: error propagation, shutdown/unbind dead-lettering, counter
invariants, chain ordering, deadlines/retries and fault injection."""

import pytest

from repro.core import (
    CommunicationError,
    DeadlineExceededError,
    DeadlineInterceptor,
    FaultInjectionInterceptor,
    Interceptor,
    InterceptorPipeline,
    RpcPolicy,
    TransportFabric,
    TransportParams,
)
from repro.sim import Engine, Host, Link, Network

MARSHAL = 1e-3
DISPATCH = 1e-3
HOP = 0.010
# marshal + hop + serialization of the default 256 B control payload
XMIT = MARSHAL + HOP + 256 / 1e6


def make_stack():
    engine = Engine()
    net = Network(engine)
    for name in ("alpha", "beta"):
        net.add_host(Host(engine, name))
    net.connect("alpha", "beta", Link(engine, "wire", HOP, 1e6))
    fabric = TransportFabric(engine, net,
                             TransportParams(marshal_fixed=MARSHAL,
                                             marshal_per_byte=0.0,
                                             dispatch_fixed=DISPATCH))
    return engine, net, fabric


@pytest.fixture
def stack():
    return make_stack()


def echo_server(engine, fabric, name="server", host="beta"):
    server = fabric.endpoint(name, host)

    def echo(msg):
        yield engine.timeout(0.0)
        return (msg.payload, 64)

    server.on("echo", echo)
    server.start()
    return server


class Recorder(Interceptor):
    """Appends (tag, phase, op) to a shared journal — ordering probe."""

    def __init__(self, journal, tag):
        self.journal = journal
        self.tag = tag

    def _note(self, ctx):
        self.journal.append((self.tag, ctx.phase, ctx.op))

    intercept_send = _note
    intercept_deliver = _note
    intercept_reply = _note
    intercept_complete = _note


class TestErrorPropagation:
    def test_handler_exception_reaches_caller(self, stack):
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def boom(msg):
            yield engine.timeout(0.0)
            raise ValueError("kaboom")

        server.on("boom", boom)
        server.start()

        def call():
            with pytest.raises(ValueError, match="kaboom"):
                yield from client.rpc("server", "boom")
            return True

        assert engine.run_process(call())

    def test_missing_handler_replies_communication_error(self, stack):
        engine, _, fabric = stack
        echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")

        def call():
            with pytest.raises(CommunicationError, match="no handler"):
                yield from client.rpc("server", "nosuch")
            return True

        assert engine.run_process(call())

    def test_missing_handler_reply_is_counted(self, stack):
        engine, _, fabric = stack
        echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")

        def call():
            try:
                yield from client.rpc("server", "nosuch", nbytes=100)
            except CommunicationError:
                pass

        engine.run_process(call())
        # request (100 B) + error reply (128 B) both crossed the wire
        assert fabric.messages_sent == 2
        assert fabric.bytes_sent == 228


class TestShutdownSemantics:
    def test_stop_dead_letters_queued_requests(self, stack):
        """A request sitting in a never-started endpoint's mailbox must fail
        its caller on stop(), not strand it forever."""
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")   # never started
        server.on("echo", lambda msg: iter(()))
        client = fabric.endpoint("client", "alpha")
        outcome = {}

        def call():
            try:
                outcome["value"] = yield from client.rpc("server", "echo", 1)
            except CommunicationError as exc:
                outcome["error"] = str(exc)

        engine.process(call())
        engine.run()                      # request delivered, caller parked
        assert outcome == {}
        assert len(server.mailbox) == 1
        server.stop()
        engine.run()
        assert "stopped" in outcome["error"]
        assert fabric.accounting.dead_letters == 1

    def test_unbind_fails_rpc_in_server_handler(self, stack):
        """Unbinding the server while it is solving must resume the caller
        with CommunicationError — and must not crash the engine."""
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def slow(msg):
            yield engine.timeout(1.0)
            return ("done", 8)

        server.on("slow", slow)
        server.start()
        outcome = {}

        def call():
            try:
                outcome["value"] = yield from client.rpc("server", "slow")
            except CommunicationError as exc:
                outcome["error"] = str(exc)

        def killer():
            yield engine.timeout(0.5)
            fabric.unbind("server")

        engine.process(call())
        engine.process(killer())
        engine.run()
        assert "stopped" in outcome["error"]

    def test_unbind_mid_transfer_raises_in_sender(self, stack):
        """Destination vanishing while the message is on the wire surfaces
        as CommunicationError in the sender."""
        engine, _, fabric = stack
        echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        outcome = {}

        def call():
            try:
                yield from client.rpc("server", "echo", 1)
            except CommunicationError as exc:
                outcome["error"] = str(exc)

        def killer():
            # after marshalling (1 ms), during the 10 ms network hop
            yield engine.timeout(MARSHAL + HOP / 2)
            fabric.unbind("server")

        engine.process(call())
        engine.process(killer())
        engine.run()
        assert "server" in outcome["error"]

    def test_caller_unbound_before_reply_does_not_crash(self, stack):
        """The reply path must tolerate the *caller* having been unbound
        (the old code resolved it and crashed the engine)."""
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def slow(msg):
            yield engine.timeout(1.0)
            return ("done", 8)

        server.on("slow", slow)
        server.start()
        outcome = {}

        def call():
            try:
                outcome["value"] = yield from client.rpc("server", "slow")
            except CommunicationError as exc:
                outcome["error"] = str(exc)

        def killer():
            yield engine.timeout(0.5)
            fabric.unbind("client")

        engine.process(call())
        engine.process(killer())
        engine.run()   # must not raise
        assert "unbound" in outcome["error"]
        assert fabric.accounting.dead_letters == 1

    def test_send_to_stopped_endpoint_raises(self, stack):
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        server.stop()

        def send():
            with pytest.raises(CommunicationError):
                yield from client.send("server", "echo", 1)
            return True

        assert engine.run_process(send())


class TestCounters:
    def test_messages_and_bytes_by_op(self, stack):
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def ack(msg):
            yield engine.timeout(0.0)
            return ("ok", 10)

        server.on("op", ack)
        server.start()

        def call():
            for _ in range(3):
                yield from client.rpc("server", "op", None, nbytes=500)
            yield from client.send("server", "other", None, nbytes=7)

        engine.run_process(call())
        engine.run()
        acc = fabric.accounting
        # 3 requests + 3 replies + 1 one-way
        assert fabric.messages_sent == 7
        assert fabric.bytes_sent == 3 * (500 + 10) + 7
        assert acc.messages_by_op == {"op": 6, "other": 1}
        assert acc.dead_letters == 0
        assert acc.messages_dropped == 0
        assert acc.replies_suppressed == 0

    def test_dropped_message_not_counted_on_wire(self, stack):
        engine, _, fabric = stack
        echo_server(engine, fabric)
        client = fabric.endpoint(
            "client", "alpha",
            interceptors=[FaultInjectionInterceptor(phases=("send",))])
        fault = client.pipeline.find(FaultInjectionInterceptor)
        fault.drop_next(1)

        def send():
            yield from client.send("server", "echo", 1, nbytes=1000)

        engine.run_process(send())
        engine.run()
        # endpoint chain runs before the fabric's accounting on send
        assert fabric.messages_sent == 0
        assert fabric.bytes_sent == 0
        assert fabric.accounting.messages_dropped == 1
        assert fault.dropped == 1


class TestChainOrdering:
    def test_endpoint_wraps_fabric_like_a_stack(self, stack):
        """Outbound phases run endpoint-then-fabric; inbound the reverse."""
        engine, _, fabric = stack
        journal = []
        fabric.pipeline.add(Recorder(journal, "fabric"))
        server = fabric.endpoint(
            "server", "beta", interceptors=[Recorder(journal, "server")])
        client = fabric.endpoint(
            "client", "alpha", interceptors=[Recorder(journal, "client")])

        def ack(msg):
            yield engine.timeout(0.0)
            return ("ok", 8)

        server.on("op", ack)
        server.start()

        def call():
            yield from client.rpc("server", "op")

        engine.run_process(call())
        assert journal == [
            ("client", "send", "op"),       # outbound: endpoint, then fabric
            ("fabric", "send", "op"),
            ("fabric", "deliver", "op"),    # inbound: fabric, then endpoint
            ("server", "deliver", "op"),
            ("server", "reply", "op"),      # outbound again, replier side
            ("fabric", "reply", "op"),
            ("fabric", "complete", "op"),   # inbound again, caller side
            ("client", "complete", "op"),
        ]

    def test_installation_order_within_a_chain(self, stack):
        engine, _, fabric = stack
        journal = []
        server = echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        client.pipeline.add(Recorder(journal, "first"))
        client.pipeline.add(Recorder(journal, "second"))

        def call():
            yield from client.rpc("server", "echo", 1)

        engine.run_process(call())
        sends = [tag for tag, phase, _ in journal if phase == "send"]
        assert sends == ["first", "second"]

    def test_pipeline_add_remove_find(self, stack):
        pipeline = InterceptorPipeline()
        a, b = Interceptor(), DeadlineInterceptor(1.0)
        pipeline.add(a)
        pipeline.add(b, index=0)
        assert pipeline.interceptors == [b, a]
        assert pipeline.find(DeadlineInterceptor) is b
        pipeline.remove(b)
        assert pipeline.find(DeadlineInterceptor) is None


class Charge(Interceptor):
    """Returns ``delay`` from every hook and journals the clock it saw."""

    def __init__(self, journal, tag, delay):
        self.journal = journal
        self.tag = tag
        self.delay = delay

    def _charge(self, ctx):
        self.journal.append((self.tag, ctx.phase, ctx.engine.now))
        return self.delay

    intercept_send = _charge
    intercept_deliver = _charge


class TestHookContract:
    """Hooks are plain calls: ``None`` costs nothing, a number is a delay."""

    @pytest.mark.parametrize("phase", ["send", "deliver"])
    def test_delay_mid_chain_advances_later_hooks(self, stack, phase):
        engine, _, fabric = stack
        journal = []
        server = echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        host = client if phase == "send" else server   # outbound / inbound
        for tag, delay in (("before", None), ("charge", 0.25),
                           ("after", None)):
            host.pipeline.add(Charge(journal, tag, delay))

        def call():
            yield from client.rpc("server", "echo", 1)

        engine.run_process(call())
        seen = {tag: now for tag, p, now in journal if p == phase}
        assert seen["charge"] == seen["before"]
        assert seen["after"] == seen["charge"] + 0.25

    @pytest.mark.parametrize("delay, extra_events", [(0.0, 1), (None, 0)])
    def test_zero_delay_is_one_event_and_none_is_none(self, delay,
                                                      extra_events):
        def events_scheduled(with_hook):
            engine, _, fabric = make_stack()
            echo_server(engine, fabric)
            client = fabric.endpoint("client", "alpha")
            if with_hook:
                client.pipeline.add(Charge([], "c", delay))

            def call():
                yield from client.rpc("server", "echo", 1)

            engine.run_process(call())
            return engine.events_scheduled

        # The RPC crosses the client's chain once (its send leg).
        assert events_scheduled(True) - events_scheduled(False) == extra_events


class TestDeadlines:
    def test_deadline_exceeded_raises(self, stack):
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint(
            "client", "alpha", interceptors=[DeadlineInterceptor(0.5)])

        def stall(msg):
            yield engine.timeout(1e9)
            return ("late", 8)

        server.on("stall", stall)
        server.start()

        def call():
            with pytest.raises(DeadlineExceededError):
                yield from client.rpc("server", "stall")
            return engine.now

        # the deadline clock starts once the request is on the wire
        assert engine.run_process(call(), until=1e8) == pytest.approx(0.5 + XMIT)

    def test_ops_filter_limits_policy(self, stack):
        engine, _, fabric = stack
        echo_server(engine, fabric)
        client = fabric.endpoint(
            "client", "alpha",
            interceptors=[DeadlineInterceptor(0.5, ops=("other",))])

        assert client.pipeline.rpc_policy("other") == RpcPolicy(0.5)
        assert client.pipeline.rpc_policy("echo") is None

        def call():
            return (yield from client.rpc("server", "echo", 42))

        assert engine.run_process(call()) == 42

    def test_retry_recovers_dropped_request(self, stack):
        """FaultInjection drops the first request; the DeadlineInterceptor's
        retry re-sends it and the RPC still succeeds."""
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        fault = server.pipeline.add(
            FaultInjectionInterceptor(ops=("echo",), phases=("deliver",)))
        fault.drop_next(1)
        client = fabric.endpoint(
            "client", "alpha",
            interceptors=[DeadlineInterceptor(0.5, retries=1)])

        def call():
            value = yield from client.rpc("server", "echo", 42)
            return value, engine.now

        value, elapsed = engine.run_process(call(), until=1e8)
        assert value == 42
        assert fault.dropped == 1
        assert elapsed > 0.5              # one full deadline was spent

    def test_retries_exhausted_raises(self, stack):
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        fault = server.pipeline.add(
            FaultInjectionInterceptor(phases=("deliver",)))
        fault.drop_next(10)
        client = fabric.endpoint(
            "client", "alpha",
            interceptors=[DeadlineInterceptor(0.25, retries=2, backoff=0.1)])

        def call():
            with pytest.raises(DeadlineExceededError, match="3 attempt"):
                yield from client.rpc("server", "echo", 1)
            return engine.now

        # 3 (transmit + deadline) rounds + backoff 0.1 * 1 + 0.1 * 2
        elapsed = engine.run_process(call(), until=1e8)
        assert elapsed == pytest.approx(3 * (0.25 + XMIT) + 0.1 + 0.2)
        assert fault.dropped == 3


class TestFaultInjection:
    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            FaultInjectionInterceptor(phases=("teleport",))
        with pytest.raises(ValueError):
            FaultInjectionInterceptor(drop=1.5)
        with pytest.raises(ValueError):
            DeadlineInterceptor(0.0)
        with pytest.raises(ValueError):
            DeadlineInterceptor(1.0, retries=-1)

    def test_delay_slows_delivery(self, stack):
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        server.pipeline.add(
            FaultInjectionInterceptor(delay=5.0, phases=("deliver",)))
        client = fabric.endpoint("client", "alpha")

        def call():
            value = yield from client.rpc("server", "echo", 7)
            return value, engine.now

        value, elapsed = engine.run_process(call())
        assert value == 7
        assert elapsed > 5.0

    def test_duplicate_reply_suppressed(self, stack):
        """A duplicated request produces two replies; at-most-once delivery
        suppresses the second instead of double-triggering the event."""

        class AlwaysDup:
            def random(self):
                return 0.0   # every probabilistic draw fires

        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        client = fabric.endpoint(
            "client", "alpha",
            interceptors=[FaultInjectionInterceptor(
                rng=AlwaysDup(), duplicate=1.0, phases=("send",))])
        results = []

        def call():
            value = yield from client.rpc("server", "echo", 5)
            results.append(value)

        engine.run_process(call())
        engine.run()
        assert results == [5]
        assert fabric.accounting.replies_suppressed == 1

    def test_stop_interrupts_every_duplicate_handler(self, stack):
        """A duplicated request runs one handler per copy; stop() must
        interrupt all of them (crash semantics), not only the last."""

        class AlwaysDup:
            def random(self):
                return 0.0

        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        finished = []

        def slow(msg):
            yield engine.timeout(10.0)
            finished.append(engine.now)
            return (msg.payload, 64)

        server.on("slow", slow)
        server.start()
        client = fabric.endpoint(
            "client", "alpha",
            interceptors=[FaultInjectionInterceptor(
                rng=AlwaysDup(), duplicate=1.0, phases=("send",))])
        outcome = []

        def call():
            try:
                outcome.append((yield from client.rpc("server", "slow", 1)))
            except CommunicationError as exc:
                outcome.append(exc)

        def crash():
            yield engine.timeout(1.0)
            server.stop()

        engine.process(call())
        engine.process(crash())
        engine.run()
        assert finished == []
        assert len(outcome) == 1
        assert isinstance(outcome[0], CommunicationError)

    def test_probabilistic_drop_uses_rng_stream(self, stack):
        from repro.sim.rng import RandomStreams

        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        fault = server.pipeline.add(FaultInjectionInterceptor(
            rng=RandomStreams(7).get("faults"), drop=0.5, phases=("deliver",)))
        client = fabric.endpoint(
            "client", "alpha",
            interceptors=[DeadlineInterceptor(0.1, retries=5)])
        ok = []

        def call(i):
            try:
                ok.append((yield from client.rpc("server", "echo", i)))
            except DeadlineExceededError:
                pass

        for i in range(20):
            engine.process(call(i))
        engine.run()
        assert fault.dropped > 0
        assert len(ok) == 20          # retries recovered every drop
