"""CORBA-substitute message transport over the simulated network.

DIET uses omniORB; GridSolve and Ninf use raw sockets (§2.1).  Here both
reduce to the same abstraction: named :class:`Endpoint` objects living on
simulated hosts, exchanging :class:`Message` objects whose delivery costs

    marshal(client) + network(latency, bandwidth, size) + unmarshal(server)

Every cost, counter and trace stamp on that path is charged by the
interceptor pipeline (:mod:`repro.core.pipeline`): a message travels as a
:class:`~repro.core.pipeline.MessageContext` through the ``send`` chain in
the sender, the ``deliver`` chain in the receiver, the ``reply`` chain in
the replier and the ``complete`` chain back in the caller.  The fabric
installs the calibrated :class:`MarshallingInterceptor` (mid-2000s omniORB
figures: fixed per-invocation + per-byte cost) and an
:class:`AccountingInterceptor`; components layer tracing, deadlines and
fault injection on their endpoints' own chains.

An RPC is a request message carrying a reply-to token; :meth:`Endpoint.rpc`
suspends the calling process until the reply arrives — or, when a
:class:`DeadlineInterceptor` grants the operation a policy, until the
deadline expires, with optional retries before
:class:`DeadlineExceededError` is raised.

A :class:`TransportFabric` owns the endpoint namespace — this doubles as
the omniNames-like naming service (endpoints are resolved by string name).
Reply delivery is at-most-once: a request whose reply can no longer arrive
(receiver stopped or unbound mid-flight) fails with
:class:`CommunicationError` instead of suspending the caller forever, and
duplicate replies are suppressed with an accounting mark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Iterable, Optional, Tuple

from ..sim.engine import Engine, Event, Interrupt, Process
from ..sim.network import Network
from ..sim.resources import Store
from .exceptions import CommunicationError, DeadlineExceededError
from .pipeline import (
    OUTBOUND_PHASES,
    AccountingInterceptor,
    Interceptor,
    InterceptorPipeline,
    MarshallingInterceptor,
    MessageContext,
    MessageDropped,
)

__all__ = ["TransportParams", "Message", "Endpoint", "TransportFabric"]


@dataclass(frozen=True)
class TransportParams:
    """Timing model of the RPC layer.

    Defaults are calibrated (see ``experiments/calibration.py``) so that the
    full MA/LA/SeD estimate round trip over the §5.1 topology averages the
    paper's 49.8 ms finding time.  The charges themselves are applied by the
    fabric's :class:`MarshallingInterceptor`.
    """

    #: CPU cost to marshal one invocation (CORBA stub + ORB dispatch), s.
    marshal_fixed: float = 2.8e-3
    #: Additional marshalling cost per byte of payload, s/byte.
    marshal_per_byte: float = 1.0e-9
    #: Server-side demultiplex + POA dispatch cost per message, s.
    dispatch_fixed: float = 1.6e-3
    #: Default payload size for control messages with no data, bytes.
    control_payload: int = 256


@dataclass(slots=True)
class Message:
    """One transported message."""

    msg_id: int
    src: str            # endpoint name
    dst: str            # endpoint name
    op: str             # operation name, e.g. "estimate", "solve"
    payload: Any = None
    nbytes: int = 0
    reply_to: Optional[Event] = None
    sent_at: float = 0.0
    delivered_at: float = 0.0

    @property
    def is_request(self) -> bool:
        return self.reply_to is not None


class Endpoint:
    """A named communication endpoint bound to a host.

    Handlers are registered per operation name; each incoming request spawns
    a handler *process* so a slow solve does not block the mailbox.  A
    handler is a generator function ``handler(message) -> (value, nbytes)``;
    its return value is shipped back as the RPC reply.

    Each endpoint owns an :class:`InterceptorPipeline`; its chain wraps the
    fabric-wide one like a protocol stack (endpoint hooks run closest to the
    application, fabric hooks closest to the wire).
    """

    def __init__(self, fabric: "TransportFabric", name: str, host_name: str,
                 interceptors: Iterable[Interceptor] = ()):
        self.fabric = fabric
        self.name = name
        self.host_name = host_name
        self.mailbox: Store = Store(fabric.engine)
        self.pipeline = InterceptorPipeline(interceptors)
        #: Combined (endpoint + fabric) pre-bound hook chains, one tuple per
        #: phase, rebuilt lazily whenever either pipeline's version moves.
        self._chains: Dict[str, tuple] = {}
        self._chains_key: Tuple[int, int] = (-1, -1)
        self._handlers: Dict[str, Callable] = {}
        #: Requests currently being handled, by handler process (a
        #: duplicated request runs one handler per copy).  :meth:`stop`
        #: interrupts these so a crashing server neither strands its callers
        #: nor keeps computing from beyond the grave.
        self._inflight: Dict[Process, Message] = {}
        self._serving = False
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`stop` (or :meth:`TransportFabric.unbind`) ran."""
        return self._closed

    # -- interceptor chain fast path -------------------------------------------

    def chain_hooks(self, phase: str) -> tuple:
        """The combined pre-bound hook chain for ``phase``.

        Endpoint hooks wrap fabric hooks on outbound phases, the reverse
        inbound (see :mod:`repro.core.pipeline`).  Cached against both
        pipelines' versions so per-message work is two dict probes instead
        of rebuilding the layering and re-fetching every hook.
        """
        ep, fab = self.pipeline, self.fabric.pipeline
        key = (ep.version, fab.version)
        if key != self._chains_key:
            self._chains.clear()
            self._chains_key = key
        hooks = self._chains.get(phase)
        if hooks is None:
            if phase in OUTBOUND_PHASES:
                hooks = ep.hooks(phase) + fab.hooks(phase)
            else:
                hooks = fab.hooks(phase) + ep.hooks(phase)
            self._chains[phase] = hooks
        return hooks

    def run_chain(self, phase: str,
                  ctx: MessageContext) -> Generator[Event, Any, None]:
        """Run the combined chain for one phase of ``ctx``.

        Hooks are plain calls; a hook that returns a delay (``0.0``
        included) is charged as one timeout before the next hook runs.
        """
        ctx.phase = phase
        timeout = self.fabric.engine.timeout
        for hook in self.chain_hooks(phase):
            delay = hook(ctx)
            if delay is not None:
                yield timeout(delay)

    # -- handler registration --------------------------------------------------

    def on(self, op: str, handler: Callable) -> None:
        """Register a generator handler for operation ``op``."""
        self._handlers[op] = handler

    def start(self) -> None:
        """Start the serving loop (idempotent)."""
        if self._closed:
            raise CommunicationError(f"endpoint {self.name!r} is stopped")
        if not self._serving:
            self._serving = True
            self.fabric.engine.process(self._serve_loop(), name=f"serve:{self.name}")

    def _serve_loop(self) -> Generator[Event, Any, None]:
        engine = self.fabric.engine
        while True:
            msg = yield self.mailbox.get()
            if msg is _SHUTDOWN:
                return
            if self._closed:
                # stop() raced with an arriving message: dead-letter it.
                self.fabric._dead_letter(msg, f"endpoint {self.name!r} stopped")
                continue
            handler = self._handlers.get(msg.op)
            if handler is None:
                if msg.reply_to is not None:
                    err = CommunicationError(
                        f"endpoint {self.name!r} has no handler for {msg.op!r}")
                    self.fabric._deliver_reply(msg, self, "error", err, 128)
                continue
            proc = engine.process(self._handle(handler, msg),
                                  name=f"{self.name}:{msg.op}#{msg.msg_id}")
            self._inflight[proc] = msg

    def _handle(self, handler: Callable, msg: Message) -> Generator[Event, Any, None]:
        # Runs first inside its own process: the active process is us.
        proc = self.fabric.engine.active_process
        ctx = MessageContext(self.fabric, msg, self, msg.nbytes)
        try:
            try:
                # Server-side dispatch cost + any deliver-side interceptors.
                yield from self.run_chain("deliver", ctx)
            except MessageDropped:
                self.fabric.accounting.note_dropped()
                return
            try:
                result = yield from handler(msg)
            except Interrupt:
                # Not an application failure: the endpoint is crashing.  Let
                # the outer handler dead-letter the request (must re-raise
                # before ``except Exception`` — Interrupt subclasses it).
                raise
            except Exception as exc:  # ship failures back to the caller
                if msg.reply_to is not None:
                    # The server-side stack does not cross the wire: its
                    # frames hold ``msg``, whose reply would hold the error
                    # that holds the frames -- a cycle.
                    self.fabric._deliver_reply(
                        msg, self, "error", exc.with_traceback(None), 128)
                    return
                raise
            if msg.reply_to is not None:
                value, nbytes = result if isinstance(result, tuple) else (result, None)
                if nbytes is None:
                    nbytes = self.fabric.params.control_payload
                self.fabric._deliver_reply(msg, self, "ok", value, nbytes)
        except Interrupt:
            # The server died mid-request (endpoint stopped / host crash):
            # resume the caller with CommunicationError, never a reply.
            self.fabric._dead_letter(
                msg, f"endpoint {self.name!r} stopped while handling {msg.op!r}")
        finally:
            self._inflight.pop(proc, None)

    def stop(self) -> None:
        """Stop serving; queued and in-flight requests are dead-lettered.

        Any request already in the mailbox (or racing in behind the shutdown)
        has its ``reply_to`` failed with :class:`CommunicationError` so the
        caller resumes instead of suspending forever.  Handler processes
        still running are interrupted: the Interrupt unwinds them (releasing
        CPU/slot claims along the way) and :meth:`_handle` dead-letters the
        request — crash semantics, not graceful drain.
        """
        if self._closed:
            return
        self._closed = True
        while True:
            msg = self.mailbox.try_get()
            if msg is None:
                break
            if msg is not _SHUTDOWN:
                self.fabric._dead_letter(msg, f"endpoint {self.name!r} stopped")
        for proc, msg in list(self._inflight.items()):
            if proc.is_alive:
                proc.interrupt(CommunicationError(
                    f"endpoint {self.name!r} stopped"))
            else:
                self.fabric._dead_letter(
                    msg, f"endpoint {self.name!r} stopped")
        if self._serving:
            self.mailbox.put(_SHUTDOWN)
            self._serving = False

    # -- sending ---------------------------------------------------------------

    def send(self, dst: str, op: str, payload: Any = None,
             nbytes: Optional[int] = None) -> Generator[Event, Any, None]:
        """One-way message (no reply expected)."""
        yield from self.fabric._transmit(self, dst, op, payload, nbytes, reply_to=None)

    def try_send(self, dst: str, op: str, payload: Any = None,
                 nbytes: Optional[int] = None) -> Generator[Event, Any, bool]:
        """Best-effort one-way message: False instead of raising.

        Push-mode estimate deltas use this — a parent that is stopped,
        unbound, or vanishes while the delta is on the wire is a liveness
        problem (heartbeats will deal with it), not the sender's: the pump
        must keep running, not unwind.
        """
        try:
            yield from self.fabric._transmit(self, dst, op, payload, nbytes,
                                             reply_to=None)
        except CommunicationError:
            return False
        return True

    def rpc(self, dst: str, op: str, payload: Any = None,
            nbytes: Optional[int] = None) -> Generator[Event, Any, Any]:
        """Remote invocation; suspends until the reply arrives.

        Returns the handler's value; re-raises the handler's exception.  When
        a :class:`DeadlineInterceptor` (endpoint chain first, then fabric)
        grants ``op`` a policy, the reply is raced against the deadline and
        the request re-sent up to ``retries`` times (waiting ``backoff *
        attempt`` between tries) before :class:`DeadlineExceededError`.
        """
        engine = self.fabric.engine
        policy = self.pipeline.rpc_policy(op) or self.fabric.pipeline.rpc_policy(op)
        attempt = 0
        while True:
            reply = Event(engine)
            msg = yield from self.fabric._transmit(
                self, dst, op, payload, nbytes, reply_to=reply, attempt=attempt)
            if policy is None:
                result = yield reply
            else:
                yield engine.any_of([reply, engine.timeout(policy.deadline)])
                if not reply.triggered:
                    if attempt < policy.retries:
                        attempt += 1
                        if policy.backoff > 0:
                            yield engine.timeout(policy.backoff * attempt)
                        continue
                    raise DeadlineExceededError(
                        f"rpc {op!r} to {dst!r} exceeded {policy.deadline}s "
                        f"deadline after {attempt + 1} attempt(s)")
                result = reply.value
            status, value, reply_nbytes = result
            ctx = MessageContext(self.fabric, msg, self, reply_nbytes,
                                 reply_status=status, reply_value=value,
                                 attempt=attempt)
            yield from self.run_chain("complete", ctx)
            if status == "error":
                # The traceback keeps this frame alive: drop every local
                # that still reaches the error (the reply event holds it
                # too), or error -> traceback -> frame -> error is a cycle
                # only the collector can free.
                error = value
                value = result = ctx = reply = msg = None
                try:
                    raise error
                finally:
                    del error
            return value


_SHUTDOWN = object()


class TransportFabric:
    """Endpoint namespace + message delivery over the simulated network."""

    def __init__(self, engine: Engine, network: Network,
                 params: Optional[TransportParams] = None):
        self.engine = engine
        self.network = network
        self.params = params or TransportParams()
        self._endpoints: Dict[str, Endpoint] = {}
        self._msg_ids = itertools.count(1)
        #: Request ids are fabric-scoped, not process-global: a campaign's
        #: ids are then a pure function of the campaign itself, so two runs
        #: of the same seeded experiment — in one process, in different
        #: processes, serial or under the parallel runner — label their
        #: traces identically.
        self._request_ids = itertools.count(1)
        #: Fabric-wide chain: cost model first (wire time), then accounting.
        self.pipeline = InterceptorPipeline()
        self.marshalling = self.pipeline.add(MarshallingInterceptor(self.params))
        self.accounting = self.pipeline.add(AccountingInterceptor())

    def new_request_id(self) -> int:
        """Next request id, unique within this fabric (all clients of a
        deployment share the counter, so ids never collide)."""
        return next(self._request_ids)

    # -- counters (kept as properties for the statistics layer) -----------------

    @property
    def messages_sent(self) -> int:
        return self.accounting.messages_sent

    @property
    def bytes_sent(self) -> int:
        return self.accounting.bytes_sent

    # -- naming service (omniNames substitute) -----------------------------------

    def endpoint(self, name: str, host_name: str,
                 interceptors: Iterable[Interceptor] = ()) -> Endpoint:
        """Create and register a named endpoint on ``host_name``."""
        if name in self._endpoints:
            raise CommunicationError(f"endpoint name {name!r} already bound")
        # Validate the host exists up front.
        self.network.host(host_name)
        ep = Endpoint(self, name, host_name, interceptors)
        self._endpoints[name] = ep
        return ep

    def resolve(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise CommunicationError(f"cannot resolve endpoint {name!r}") from None

    def unbind(self, name: str) -> None:
        ep = self._endpoints.pop(name, None)
        if ep is not None:
            ep.stop()

    # -- delivery -----------------------------------------------------------------

    def _dead_letter(self, msg: Message, reason: str) -> None:
        """A message that can never be processed: resume its caller (if any)
        with :class:`CommunicationError` instead of stranding it."""
        self.accounting.note_dead_letter()
        if msg.reply_to is not None and not msg.reply_to.triggered:
            msg.reply_to.succeed(("error", CommunicationError(reason), 0))

    def _transmit(self, src: Endpoint, dst_name: str, op: str, payload: Any,
                  nbytes: Optional[int], reply_to: Optional[Event],
                  attempt: int = 0) -> Generator[Event, Any, Message]:
        dst = self.resolve(dst_name)
        if dst.closed:
            raise CommunicationError(f"endpoint {dst_name!r} is stopped")
        size = self.params.control_payload if nbytes is None else int(nbytes)
        msg = Message(next(self._msg_ids), src.name, dst_name, op, payload,
                      size, reply_to, sent_at=self.engine.now)
        ctx = MessageContext(self, msg, src, size, attempt=attempt)
        try:
            # Sender-side chain: marshalling cost, accounting, tracing, faults.
            yield from src.run_chain("send", ctx)
        except MessageDropped:
            self.accounting.note_dropped()
            return msg
        yield from self.network.transfer(src.host_name, dst.host_name, ctx.nbytes)
        # The destination may have stopped or been unbound while the message
        # was on the wire; surface that to the sender rather than parking the
        # message in a mailbox nobody will ever read.
        if self._endpoints.get(dst_name) is not dst or dst.closed:
            self.accounting.note_dead_letter()
            raise CommunicationError(
                f"endpoint {dst_name!r} vanished while {op!r} was in flight")
        msg.delivered_at = self.engine.now
        dst.mailbox.put(msg)
        for _ in range(ctx.duplicates):
            dst.mailbox.put(msg)
        return msg

    def _deliver_reply(self, request: Message, replier: Endpoint, status: str,
                       value: Any, nbytes: int) -> None:
        """Ship an RPC reply back asynchronously (spawned process)."""
        self.engine.process(
            self._reply_proc(request, replier, status, value, nbytes),
            name=f"reply:{request.op}#{request.msg_id}")

    def _reply_proc(self, request: Message, replier: Endpoint, status: str,
                    value: Any, nbytes: int) -> Generator[Event, Any, None]:
        """The reply leg: ``reply`` chain, then the network back to the caller.

        Delivery is at-most-once: a duplicate reply (fault injection, or a
        retry racing a late original) is suppressed with an accounting mark.
        If the replier or the caller disappeared mid-flight the caller is
        resumed with :class:`CommunicationError` — never crash the engine on
        a name that no longer resolves.
        """
        reply_to = request.reply_to
        assert reply_to is not None
        if reply_to.triggered:
            self.accounting.note_suppressed_reply()
            return
        ctx = MessageContext(self, request, replier, nbytes,
                             reply_status=status, reply_value=value)
        try:
            yield from replier.run_chain("reply", ctx)
        except MessageDropped:
            self.accounting.note_dropped()
            return
        caller = self._endpoints.get(request.src)
        if replier.closed or self._endpoints.get(request.dst) is not replier:
            self._dead_letter(
                request, f"endpoint {request.dst!r} stopped before its "
                         f"{request.op!r} reply was sent")
            return
        if caller is None or caller.closed:
            self._dead_letter(
                request, f"caller {request.src!r} unbound before its "
                         f"{request.op!r} reply arrived")
            return
        yield from self.network.transfer(replier.host_name, caller.host_name,
                                         ctx.nbytes)
        if not reply_to.triggered:
            reply_to.succeed((status, value, ctx.nbytes))
        else:
            self.accounting.note_suppressed_reply()
