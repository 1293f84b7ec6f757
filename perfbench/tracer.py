"""Outside-in layer tracer: wall-clock self time and call counts per package.

The tracer never edits the program.  For the traced run it replaces, in
this process only, a fixed list of public entry points (and a few
private counting hooks) with wrappers, and wraps every callback handed
to ``Simulator.call_at``/``Simulator.at`` in a span attributed to the
package that owns the callback.  Wrappers add no events and change no
arguments, so the simulation is bit-identical with and without them.

A layer's *self time* is the wall time of its spans minus the time of
the spans nested inside them.  ``simnet.engine`` self time is therefore
``run()``/``run_until()`` time minus every callback span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import types
from typing import Callable, Dict, Iterator, List, Optional

#: The repo's packages, as named in the per-layer metrics.
LAYERS = (
    "simnet.engine", "simnet.nic", "simnet.switch", "simnet.cpu", "simnet.faults",
    "transport.ip", "transport.udp", "transport.rudp", "transport.tcp",
    "core.mpa", "core.ddp", "core.rdmap", "core.verbs", "core.socketif",
    "memory", "apps.sip",
)

#: Module prefix -> layer, longest prefix first.  Modules that carry no
#: layer of their own are folded into the layer that owns their work.
_MODULE_LAYERS = sorted(
    [
        ("repro.simnet.engine", "simnet.engine"),
        ("repro.simnet.nic", "simnet.nic"),
        ("repro.simnet.link", "simnet.nic"),
        ("repro.simnet.host", "simnet.nic"),
        ("repro.simnet.switch", "simnet.switch"),
        ("repro.simnet.cpu", "simnet.cpu"),
        ("repro.simnet.faults", "simnet.faults"),
        ("repro.simnet.loss", "simnet.faults"),
        ("repro.transport.ip", "transport.ip"),
        ("repro.transport.udp", "transport.udp"),
        ("repro.transport.rudp", "transport.rudp"),
        ("repro.transport.rto", "transport.rudp"),
        ("repro.transport.tcp", "transport.tcp"),
        ("repro.core.mpa", "core.mpa"),
        ("repro.core.ddp", "core.ddp"),
        ("repro.core.rdmap", "core.rdmap"),
        ("repro.core.verbs", "core.verbs"),
        ("repro.core.socketif", "core.socketif"),
        ("repro.memory", "memory"),
        ("repro.apps.sip", "apps.sip"),
        ("repro.", "other"),
    ],
    key=lambda kv: -len(kv[0]),
)

#: Attribute marking a function the tracer already spans, so a callback
#: that targets it is not spanned twice.
_MARK = "_perfbench_layer"


def layer_of_module(module: Optional[str]) -> str:
    """Layer that owns ``module``; code outside ``repro`` is the driver."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module.startswith(prefix):
                return layer
    return "driver"


def _owner(key: object) -> str:
    """Layer of a code object, or of a function (seen through counters
    and ``functools.partial``)."""
    if not isinstance(key, types.CodeType):
        func = inspect.unwrap(getattr(key, "func", key))
        code = getattr(func, "__code__", None)
        if code is None:
            return layer_of_module(getattr(func, "__module__", None))
        key = code
    return layer_of_module(_module_of_file(key.co_filename))


def _module_of_file(path: str) -> Optional[str]:
    marker = "/repro/"
    i = path.rfind("/src" + marker)
    if i < 0:
        return None
    return "repro." + path[i + len("/src") + len(marker):-3].replace("/", ".")


class LayerTracer:
    """Accumulates per-layer self time, call counts and named counters.

    ``clock`` returns integer nanoseconds; tests substitute a fake one.
    Raw spans ``(layer, start_ns, end_ns, depth)`` are kept in memory, up
    to ``span_cap`` of them, for :meth:`dump`.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns, span_cap: int = 200_000,
                 span_cost_ns: int = 0):
        self.clock = clock
        self.span_cap = span_cap
        #: Cost a span adds outside its own clock readings (the call into
        #: the wrapper, half a clock read, the closing bookkeeping).  It is
        #: added to the span's duration so that it is charged to the layer
        #: called rather than to its caller; see :func:`calibrate`.
        self.span_cost_ns = span_cost_ns
        self.recording = False
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.spans: List[list] = []
        self.spans_dropped = 0
        self.total_ns = 0
        self._stack: List[List[int]] = []
        self._layers: Dict[object, str] = {}  # callback_layer() cache
        self._undo: List[Callable[[], None]] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """Return ``fn`` wrapped in a span of ``layer`` (active while
        :attr:`recording`)."""
        tracer = self
        stack = self._stack
        clock = self.clock
        self_ns = self.self_ns
        calls = self.calls
        spans = self.spans
        extra = self.span_cost_ns
        self_ns.setdefault(layer, 0)
        calls.setdefault(layer, 0)

        # The span's own bookkeeping sits inside its clock readings, so
        # tracing cost lands on the layer called, not on its caller.
        def span(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            start = clock()
            frame = [0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                calls[layer] += 1
                record = None
                if len(spans) < tracer.span_cap:
                    record = [layer, start, start, len(stack)]
                    spans.append(record)
                else:
                    tracer.spans_dropped += 1
                dur = clock() - start + extra
                self_ns[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if record is not None:
                    record[2] = start + dur

        functools.update_wrapper(span, fn)
        setattr(span, _MARK, layer)
        return span

    def counter(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped so each call while recording bumps
        ``counts[name]`` (no span)."""
        tracer = self
        counts = self.counts
        counts.setdefault(name, 0)

        def count(*args, **kwargs):
            if tracer.recording:
                counts[name] += 1
            return fn(*args, **kwargs)

        # Carries the span mark of ``fn``, if any, and lets
        # callback_layer() see through to the function counted.
        functools.update_wrapper(count, fn)
        return count

    def callback_layer(self, fn: Callable) -> Optional[str]:
        """Layer owning a scheduled callback, or None when ``fn`` is an
        entry point that spans itself."""
        if getattr(fn, _MARK, None) is not None:
            return None
        func = getattr(fn, "__func__", fn)
        gen = getattr(getattr(fn, "__self__", None), "gen", None)
        if gen is not None and getattr(func, "__name__", None) == "_step":
            # A Process resuming its generator: the generator's package
            # owns the work, not the engine's process plumbing.
            key = gen.gi_code
        elif hasattr(func, "__wrapped__"):
            key = func  # a counter: one code object serves every counter
        else:
            key = getattr(func, "__code__", func)
        layer = self._layers.get(key)
        if layer is None:
            layer = self._layers[key] = _owner(key)
        return layer

    @contextlib.contextmanager
    def measure(self) -> Iterator["LayerTracer"]:
        """Record spans for the enclosed block and add its wall time to
        :attr:`total_ns`."""
        self.recording = True
        start = self.clock()
        try:
            yield self
        finally:
            self.total_ns += self.clock() - start
            self.recording = False

    # -- installation ------------------------------------------------------

    def patch_method(self, cls: type, name: str, layer: str) -> None:
        orig = cls.__dict__[name]
        setattr(cls, name, self.wrap(orig, layer))
        self._undo.append(lambda: setattr(cls, name, orig))

    def count_method(self, cls: type, name: str, counter: str) -> None:
        orig = cls.__dict__[name]
        setattr(cls, name, self.counter(orig, counter))
        self._undo.append(lambda: setattr(cls, name, orig))

    def patch_function(self, module: str, name: str, layer: str) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        orig = getattr(sys.modules[module], name)
        wrapped = self.wrap(orig, layer)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, name, None) is orig:
                setattr(mod, name, wrapped)
                self._undo.append(lambda m=mod: setattr(m, name, orig))

    def patch_scheduler(self, sim_cls: type) -> None:
        """Span every callback scheduled through ``call_at``/``at`` (the
        two primitives every other scheduling call funnels into)."""
        tracer = self
        wrappers: Dict[str, Callable] = {}

        def spanned(fn: Callable) -> Callable:
            if not tracer.recording:
                return fn
            layer = tracer.callback_layer(fn)
            if layer is None:
                return fn
            wrapper = wrappers.get(layer)
            if wrapper is None:
                wrapper = wrappers[layer] = tracer.wrap(_call, layer)
            return _Bound(wrapper, fn)

        for name in ("call_at", "at"):
            orig = sim_cls.__dict__[name]

            def patched(sim, time_ns, fn, *args, _orig=orig):
                return _orig(sim, time_ns, spanned(fn), *args)

            setattr(sim_cls, name, patched)
            self._undo.append(lambda n=name, o=orig: setattr(sim_cls, n, o))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def dump(self) -> dict:
        """Raw spans and totals, for writing out after the run."""
        return {
            "total_ns": self.total_ns,
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans_dropped": self.spans_dropped,
            "spans": {
                "layer": [s[0] for s in self.spans],
                "start_ns": [s[1] for s in self.spans],
                "end_ns": [s[2] for s in self.spans],
                "depth": [s[3] for s in self.spans],
            },
        }


class _Target:
    def method(self, arg):
        return arg


def calibrate(trials: int = 7, calls: int = 4000) -> int:
    """Median cost, in ns, that a span adds to its caller's self time:
    the caller's self time over ``calls`` calls of a traced one-argument
    method, less the same loop over the untraced method."""
    clock = time.perf_counter_ns
    estimates = []
    for _ in range(trials):
        probe = LayerTracer(clock, span_cap=0)
        traced = type("_Traced", (), {"method": probe.wrap(_Target.method, "probe")})()
        plain = _Target()
        loop = probe.wrap(lambda obj: [obj.method(i) for i in range(calls)], "loop")
        with probe.measure():
            loop(traced)
        t0 = clock()
        loop.__wrapped__(plain)
        baseline = clock() - t0
        estimates.append((probe.self_ns["loop"] - baseline) // calls)
    estimates.sort()
    return max(0, estimates[len(estimates) // 2])


def _call(fn: Callable, *args):
    return fn(*args)


class _Bound:
    """A scheduled callback bound to the span wrapper of its layer."""

    __slots__ = ("span", "fn")

    def __init__(self, span: Callable, fn: Callable):
        self.span = span
        self.fn = fn

    def __call__(self, *args):
        return self.span(self.fn, *args)


def install(tracer: LayerTracer) -> LayerTracer:
    """Wrap the repo's layer entry points and counting hooks.  Must run
    before any testbed is built: objects keep the bound methods they
    captured at construction."""
    from repro.apps.sip.server import SipServer
    from repro.core.ddp.headers import DdpSegment
    from repro.core.ddp.segmentation import UntaggedReassembly
    from repro.core.mpa.connection import MpaConnection
    from repro.core.rdmap.engine import RdmapRx, RdmapTx
    from repro.core.socketif.interface import IwSocketInterface
    from repro.core.verbs.cq import CompletionQueue
    from repro.core.verbs.qp import QueuePair, UdQp
    from repro.core.verbs.wr import RecvWR, SendWR
    from repro.memory.accounting import MemoryMeter
    from repro.memory.region import MemoryRegion
    from repro.memory.sge import Sge
    from repro.memory.validity import ValidityMap
    from repro.simnet.cpu import CpuResource
    from repro.simnet.engine import Future, Process, Simulator
    from repro.simnet.faults import FaultModel
    from repro.simnet.loss import LossModel
    from repro.simnet.nic import NicPort
    from repro.simnet.switch import Switch
    from repro.transport.ip import IpStack
    from repro.transport.rudp import RudpSocket
    from repro.transport.tcp.connection import TcpConnection
    from repro.transport.udp import UdpSocket

    t = tracer
    t.patch_scheduler(Simulator)
    # Process/Future plumbing runs inside the callbacks of whoever waits,
    # so it needs spans of its own to be charged to the engine.
    for cls, names in (
        (Simulator, ("run", "run_until", "process", "future")),
        (Future, ("set_result", "add_callback")),
        (Process, ("_dispatch",)),
    ):
        for name in names:
            t.patch_method(cls, name, "simnet.engine")
    t.count_method(Simulator, "_note_cancel", "engine.cancels")
    for cls, names, layer in (
        (NicPort, ("enqueue", "deliver"), "simnet.nic"),
        (Switch, ("on_frame",), "simnet.switch"),
        (FaultModel, ("admit",), "simnet.faults"),
        (LossModel, ("should_drop",), "simnet.faults"),
        (IpStack, ("send", "on_packet"), "transport.ip"),
        (UdpSocket, ("sendto", "sendto_uncharged", "deliver"), "transport.udp"),
        (RudpSocket, ("sendto", "_on_datagram"), "transport.rudp"),
        (TcpConnection, ("send", "on_segment"), "transport.tcp"),
        (MpaConnection, ("send_ulpdu", "_on_bytes"), "core.mpa"),
        (DdpSegment, ("encode",), "core.ddp"),
        (UntaggedReassembly, ("place",), "core.ddp"),
        (RdmapTx, ("post",), "core.rdmap"),
        (RdmapRx, ("on_segment",), "core.rdmap"),
        (QueuePair, ("post_send", "post_recv"), "core.verbs"),
        (SendWR, ("__init__",), "core.verbs"),
        (RecvWR, ("__init__",), "core.verbs"),
        (Sge, ("__init__",), "memory"),
        (UdQp, ("_on_datagram",), "core.verbs"),
        (CompletionQueue, ("push", "poll_wait"), "core.verbs"),
        (IwSocketInterface, ("socket", "getsockname", "sendto", "recvfrom_future",
                             "connect_future", "listen", "accept_future", "send",
                             "recv_future", "close"), "core.socketif"),
        (MemoryRegion, ("write", "read"), "memory"),
        (ValidityMap, ("add",), "memory"),
        (MemoryMeter, ("alloc", "free"), "memory"),
        (SipServer, ("_handle",), "apps.sip"),
    ):
        for name in names:
            t.patch_method(cls, name, layer)
    t.patch_function("repro.core.ddp.headers", "decode_segment", "core.ddp")

    # Entry points that are also counted: the counter sits under the span.
    for cls, name, counter, layer in (
        (CompletionQueue, "poll", "verbs.polls", "core.verbs"),
        (CpuResource, "charge", "cpu.charges", "simnet.cpu"),
    ):
        t.count_method(cls, name, counter)
        t.patch_method(cls, name, layer)

    # The CPU wait is read at each submit, before the work is queued.
    submit = CpuResource.__dict__["submit"]

    def submit_waits(cpu, cost_ns, fn, *args):
        if t.recording:
            t.counts["cpu.submits"] += 1
            t.counts["cpu.wait_ns"] += cpu.free_at - cpu.sim.now
        return submit(cpu, cost_ns, fn, *args)

    t.counts.update({"cpu.submits": 0, "cpu.wait_ns": 0})
    CpuResource.submit = t.wrap(submit_waits, "simnet.cpu")
    t._undo.append(lambda: setattr(CpuResource, "submit", submit))

    for cls, name, counter in (
        (Simulator, "run", "engine.run_calls"),
        (CompletionQueue, "push", "verbs.completions"),
        (TcpConnection, "_send_ack", "tcp.acks"),
        (TcpConnection, "_note_retransmit", "tcp.retransmits"),
        (RudpSocket, "_flush_ack", "rudp.acks"),
        (RudpSocket, "_retransmit", "rudp.retransmits"),
        (RudpSocket, "_emit", "rudp.data_sent"),
        (RudpSocket, "_deliver", "rudp.delivered"),
    ):
        t.count_method(cls, name, counter)
    return t
