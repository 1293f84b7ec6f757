"""IP layer: host addressing, fragmentation, reassembly.

Fragmentation is load-bearing for the paper's results: a UDP datagram
larger than the 1500-byte Ethernet MTU is split into IP fragments, and
**loss of any fragment loses the whole datagram** after a reassembly
timeout.  That single mechanism produces the collapse of UD send/recv
bandwidth for multi-packet messages under loss (Fig. 7) and the 64 KB
cliff in the Write-Record curves (Fig. 8).

Fragments carry a reference to the original payload object plus exact
byte extents; the payload is delivered upward only once every byte of
the datagram has arrived, so loss semantics are exact while the
simulator avoids materializing per-fragment byte slices.

A fragment that overlaps bytes already received only in part drops its
whole datagram, as RFC 5722 has it for IPv6 and Linux does for IPv4
(``inet_frag_queue_insert``); one that lies inside received bytes is a
duplicate and changes nothing.  Honest senders cut every copy of a
datagram at the same offsets, so they never overlap.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import sim_registry
from ..simnet.engine import MS, Event, Simulator
from ..simnet.host import Host
from ..simnet.link import Link
from ..simnet.nic import NicPort
from ..simnet.packet import Frame

IP_HEADER = 20
#: Kernel reassembly timeout (Linux: 30 s; shortened to keep
#: simulations snappy while still far exceeding any in-flight window).
REASSEMBLY_TIMEOUT_NS = 200 * MS
#: Most datagrams one host reassembles at once.  A fragment that would
#: open one more is dropped and counted, so a peer spraying distinct
#: idents cannot grow the table; fig07's UD loss sweep peaks at 438.
MAX_REASSEMBLIES = 4096


class IpPacket:
    """One IP packet (possibly a fragment) as carried in a Frame.

    A plain ``__slots__`` class: large datagrams allocate one of these
    per MTU-sized fragment, so instance overhead is hot-path cost.
    """

    PROTO = "ip"

    __slots__ = ("src", "dst", "proto", "payload", "total_size", "ident",
                 "frag_offset", "frag_size", "more_frags")

    def __init__(
        self,
        src: int,
        dst: int,
        proto: str,            # upper-layer protocol name ("udp", "tcp", ...)
        payload: Any,          # the upper-layer object (shared across fragments)
        total_size: int,       # full upper-layer size in bytes
        ident: int,            # fragment group id
        frag_offset: int = 0,  # byte offset of this fragment's data
        frag_size: int = 0,    # bytes of upper-layer data in this fragment
        more_frags: bool = False,
    ):
        self.src = src
        self.dst = dst
        self.proto = proto
        self.payload = payload
        self.total_size = total_size
        self.ident = ident
        self.frag_offset = frag_offset
        self.frag_size = frag_size
        self.more_frags = more_frags


class FragmentOverlap(Exception):
    """A fragment overlaps the bytes received so far only in part."""


class _Reassembly:
    """State for one in-progress fragmented datagram."""

    __slots__ = ("ranges", "total", "payload", "proto", "timer")

    def __init__(self, payload: Any, proto: str, total: int):
        self.ranges: List[Tuple[int, int]] = []  # merged (start, end) intervals
        self.total = total
        self.payload = payload
        self.proto = proto
        self.timer = None

    def add(self, start: int, size: int) -> bool:
        """Record bytes ``[start, start + size)``; True once they make the
        datagram whole.  Raises :class:`FragmentOverlap` for a fragment
        that overlaps a received range without lying inside it."""
        end = start + size
        ranges = self.ranges
        if ranges:
            last_start, last_end = ranges[-1]
            if start > last_end:
                # In order past a gap: ranges stay sorted and disjoint.
                ranges.append((start, end))
                return False
            if start >= last_start:
                # In order, touching the last range: only it can grow
                # (every earlier range ends before ``last_start``).
                if end <= last_end:
                    return False  # a duplicate
                if start < last_end:
                    raise FragmentOverlap(f"[{start}, {end}) overlaps [{last_start}, {last_end})")
                ranges[-1] = (last_start, end)
                return not last_start and end == self.total and len(ranges) == 1
        else:
            ranges.append((start, end))
            return not start and end == self.total
        for s, e in ranges:
            if min(e, end) > max(s, start):
                if s <= start and end <= e:
                    return False  # a duplicate
                raise FragmentOverlap(f"[{start}, {end}) overlaps [{s}, {e})")
        merged: List[Tuple[int, int]] = []
        for s, e in ranges:
            if e < start or s > end:
                merged.append((s, e))
            else:
                # Absorb every interval touching [start, end).
                start, end = min(s, start), max(e, end)
        merged.append((start, end))
        merged.sort()
        # Second merge pass to coalesce adjacent intervals.
        out: List[Tuple[int, int]] = []
        for s, e in merged:
            if out and s <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], e))
            else:
                out.append((s, e))
        self.ranges = out
        return len(out) == 1 and out[0] == (0, self.total)


class IpStack:
    """Per-host IP: fragments on transmit, reassembles on receive, and
    demultiplexes complete datagrams to registered upper protocols."""

    #: Exported series (see :mod:`repro.obs.metrics`), labelled host.
    METRICS = (
        ("transport.ip.rx_fragments", "counter", "rx_fragments"),
        ("transport.ip.delivered", "counter", "delivered"),
        ("transport.ip.reassembly_timeouts", "counter", "reassembly_timeouts"),
        ("transport.ip.reassembly_overflows", "counter", "reassembly_overflows"),
        ("transport.ip.overlap_drops", "counter", "overlap_drops"),
    )

    def __init__(self, host: Host):
        self.host = host
        self.sim: Simulator = host.sim
        self._ident = itertools.count(1)
        self._upper: Dict[str, Callable[[Any, int, int], None]] = {}
        self._reassembly: Dict[Tuple[int, int], _Reassembly] = {}
        # The timer a completed reassembly left, for the next to rearm.
        self._spare_timer: Optional[Event] = None
        # The host's primary port and its link, kept once it is cabled
        # (nothing undoes a cable).
        self._egress: Optional[Tuple[NicPort, Link]] = None
        host.register_protocol("ip", self)
        # Statistics.
        self.tx_packets = 0
        self.rx_fragments = 0
        self.reassembly_timeouts = 0
        self.reassembly_overflows = 0
        self.overlap_drops = 0
        self.delivered = 0
        sim_registry(self.sim).watch(self, {"host": host.name})

    # -- upward interface ---------------------------------------------------

    def register(self, proto: str, handler: Callable[[Any, int, int], None]) -> None:
        """Register ``handler(payload, src_host, size)`` for ``proto``."""
        if proto in self._upper:
            raise ValueError(f"upper protocol {proto!r} already registered")
        self._upper[proto] = handler

    # -- transmit -------------------------------------------------------------

    def _cabled(self) -> Tuple[NicPort, Link]:
        """The host's primary port and its link, kept once it is cabled,
        so a datagram reaches them without ``Host.port``; RuntimeError
        before that."""
        port = self.host.port
        link = port.link
        if link is None:
            raise RuntimeError(f"{self.host.name} NIC is not cabled")
        self._egress = (port, link)
        return self._egress

    def mtu(self) -> int:
        return (self._egress or self._cabled())[1].mtu

    def fragments_needed(self, payload_size: int) -> int:
        """How many IP fragments a payload of this size produces."""
        mtu = (self._egress or self._cabled())[1].mtu
        if payload_size + IP_HEADER <= mtu:
            return 1
        # Fragment data sizes are multiples of 8 except the last.
        return -(-payload_size // ((mtu - IP_HEADER) // 8 * 8))  # ceil division

    def send(self, dst: int, proto: str, payload: Any, payload_size: int) -> int:
        """Emit ``payload`` toward host ``dst``; returns fragment count.

        The caller (transport layer) is responsible for CPU accounting;
        this method only creates frames and hands them to the NIC.
        """
        if payload_size < 0:
            raise ValueError(f"negative payload size: {payload_size}")
        port, link = self._egress or self._cabled()
        mtu = link.mtu
        src = self.host.host_id
        ident = next(self._ident)
        if payload_size + IP_HEADER <= mtu:
            pkt = IpPacket(src, dst, proto, payload, payload_size, ident, 0, payload_size)
            port.enqueue(Frame(src, dst, pkt, IP_HEADER + payload_size))
            self.tx_packets += 1
            return 1
        max_data = (mtu - IP_HEADER) // 8 * 8
        offset = 0
        count = 0
        while offset < payload_size:
            size = payload_size - offset
            more = size > max_data
            if more:
                size = max_data
            pkt = IpPacket(src, dst, proto, payload, payload_size, ident, offset, size, more)
            port.enqueue(Frame(src, dst, pkt, IP_HEADER + size))
            offset += size
            count += 1
        self.tx_packets += count
        return count

    # -- receive ---------------------------------------------------------------

    def on_packet(self, pkt: IpPacket, frame: Frame) -> None:
        if not pkt.more_frags and not pkt.frag_offset:
            handler = self._upper.get(pkt.proto)
            if handler is not None:
                self.delivered += 1
                handler(pkt.payload, pkt.src, pkt.total_size)
            return
        self.rx_fragments += 1
        key = (pkt.src, pkt.ident)
        state = self._reassembly.get(key)
        if state is None:
            if len(self._reassembly) >= MAX_REASSEMBLIES:
                self.reassembly_overflows += 1
                return
            state = _Reassembly(pkt.payload, pkt.proto, pkt.total_size)
            self._reassembly[key] = state
            timer = self._spare_timer
            if timer is None:
                timer = self.sim.at(self.sim.now + REASSEMBLY_TIMEOUT_NS, self._timeout, key)
            else:
                self._spare_timer = None
                self.sim.rearm(timer, self.sim.now + REASSEMBLY_TIMEOUT_NS, key)
            state.timer = timer
        try:
            whole = state.add(pkt.frag_offset, pkt.frag_size)
        except FragmentOverlap:
            # The datagram is dropped whole; its timer is free again.
            self.overlap_drops += 1
            state.timer.cancel()
            self._spare_timer = state.timer
            del self._reassembly[key]
            return
        if whole:
            state.timer.cancel()
            self._spare_timer = state.timer
            del self._reassembly[key]
            handler = self._upper.get(state.proto)
            if handler is not None:
                self.delivered += 1
                handler(state.payload, pkt.src, state.total)

    def _timeout(self, key: Tuple[int, int]) -> None:
        if key in self._reassembly:
            del self._reassembly[key]
            self.reassembly_timeouts += 1

    def pending_reassemblies(self) -> int:
        return len(self._reassembly)
