"""Tracer and host-dispatch tests."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.packet import Frame
from repro.simnet.topology import build_testbed
from repro.simnet.trace import Tracer


class TestTracer:
    def test_record_and_select(self):
        sim = Simulator()
        t = Tracer(sim)
        t.record("tx", port="a", size=10)
        sim.call_at(100, lambda: t.record("rx", port="b", size=10))
        sim.run()
        assert t.count("tx") == 1
        assert t.select("rx")[0].time == 100
        assert t.select(predicate=lambda r: r.fields.get("size") == 10)

    def test_capacity_limit(self):
        sim = Simulator()
        t = Tracer(sim, capacity=2)
        for i in range(5):
            t.record("k", i=i)
        assert len(t.records) == 2
        assert t.dropped_records == 3

    def test_clear(self):
        sim = Simulator()
        t = Tracer(sim)
        t.record("x")
        t.clear()
        assert t.records == [] and t.dropped_records == 0


class _P:
    PROTO = "p"


class TestHost:
    def test_duplicate_protocol_rejected(self):
        sim = Simulator()
        h = Host(sim, 0)
        h.register_protocol("p", object())
        with pytest.raises(ValueError):
            h.register_protocol("p", object())

    def test_protocol_lookup(self):
        sim = Simulator()
        h = Host(sim, 0)
        handler = object()
        h.register_protocol("p", handler)
        assert h.protocol("p") is handler

    def test_frames_for_other_hosts_ignored(self):
        tb = build_testbed(2)
        got = []

        class H:
            def on_packet(self, payload, frame):
                got.append(frame)

        tb.hosts[1].register_protocol("p", H())
        # dst host 1 but delivered to host 1 -> accepted; dst 0 frames
        # reaching host 1 (mis-switched) must be ignored.
        frame = Frame(src=0, dst=0, payload=_P(), payload_size=10)
        tb.hosts[1].on_frame(frame, tb.hosts[1].port)
        assert got == []

    def test_port_property_requires_nic(self):
        sim = Simulator()
        h = Host(sim, 0)
        with pytest.raises(RuntimeError):
            _ = h.port

    def test_unknown_payload_proto_dropped(self):
        tb = build_testbed(2)

        class Q:
            PROTO = "unregistered"

        tb.hosts[0].send_frame(Frame(src=0, dst=1, payload=Q(), payload_size=8))
        tb.sim.run()  # must not raise
