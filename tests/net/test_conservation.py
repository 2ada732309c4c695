"""Conservation laws of ports and switches, the switch forwarding cache,
and the per-packet reads of the mutable ECN/PFC configs."""

import pytest

from repro.net import (
    DatacenterFabric,
    EcnConfig,
    PfcConfig,
    TopologyConfig,
    TrafficClass,
    idle,
)
from repro.net.links import Port
from repro.net.switch import Switch
from repro.sim import Environment, RandomStreams

from .test_fabric_pinned import switches
from .test_links_switch import make_packet


def make_switch(env, **kwargs):
    return Switch(env, "sw", "tor", forwarding_latency=0.5e-6,
                  rng=RandomStreams(seed=0).stream("switch:sw"),
                  background=idle(), **kwargs)


class TestPortConservation:
    def test_rate_must_be_positive(self):
        env = Environment()
        with pytest.raises(ValueError):
            Port(env, "p", rate_bps=0)
        with pytest.raises(ValueError):
            Port(env, "p", rate_bps=-40e9)

    def test_law_holds_while_serializing_and_queued(self):
        env = Environment()
        port = Port(env, "p", rate_bps=1e6, distance_m=0.0,
                    deliver=lambda p: None)
        for _ in range(3):
            port.enqueue(make_packet(payload_bytes=500))
        assert port.conservation_violations() == []
        env.run(until=1e-3)  # first packet on the wire, two queued
        assert port._busy and port.stats.transmitted == 0
        assert port.conservation_violations() == []
        env.run()
        assert port.stats.transmitted == 3
        assert port.conservation_violations() == []

    def test_broken_count_reported(self):
        env = Environment()
        port = Port(env, "p", rate_bps=40e9, deliver=lambda p: None)
        port.enqueue(make_packet())
        env.run()
        port.stats.transmitted += 1
        assert len(port.conservation_violations()) == 1


class TestSwitchConservation:
    def test_law_counts_packets_in_forwarding(self):
        env = Environment()
        switch = make_switch(env)
        port = Port(env, "out", rate_bps=40e9, deliver=lambda p: None)
        switch.add_port("out", port)
        switch.set_router(lambda sw, pkt: "out")
        for _ in range(4):
            switch.receive(make_packet())
        assert switch.stats.forwarded == 0
        assert switch.conservation_violations() == []
        env.run()
        assert switch.stats.forwarded == 4
        assert switch.conservation_violations() == []

    def test_routing_failures_and_tail_drops_balance(self):
        env = Environment()
        switch = make_switch(env)
        port = Port(env, "out", rate_bps=1e3, deliver=lambda p: None,
                    queue_capacity_bytes=300)
        switch.add_port("out", port)
        switch.set_router(
            lambda sw, pkt: "out" if pkt.eth.dst_mac.endswith("00")
            else "missing")
        for _ in range(5):
            switch.receive(make_packet(payload_bytes=100, dst_index=0))
        switch.receive(make_packet(dst_index=1))
        env.run(until=1e-3)
        s = switch.stats
        assert (s.received, s.routing_failures) == (6, 1)
        assert s.dropped > 0 and s.forwarded + s.dropped == 5
        assert s.dropped == port.stats.dropped
        assert switch.conservation_violations() == []

    def test_broken_count_reported(self):
        env = Environment()
        switch = make_switch(env)
        switch.stats.received += 1
        assert len(switch.conservation_violations()) == 1


class TestIncastConservation:
    """Lossless bursts from three tiers converge on one host under tight
    PFC watermarks; every law holds after every slice."""

    RECEIVER = 0
    SENDERS = (1, 2, 3, 4, 5, 6, 7, 30, 31, 60, 5000, 5001)
    BURST = 12
    SLICE_S = 2e-6

    def test_laws_hold_every_slice(self):
        env = Environment()
        config = TopologyConfig(
            background=idle(),
            pfc=PfcConfig(xoff_bytes=6000, xon_bytes=3000),
            ecn=EcnConfig(kmin_bytes=3000, kmax_bytes=30000, pmax=0.5))
        fabric = DatacenterFabric(env, config, RandomStreams(seed=3))
        got = []
        fabric.attach(self.RECEIVER, got.append)
        senders = [fabric.attach(h, lambda p: None) for h in self.SENDERS]
        for i in range(self.BURST):
            for a in senders:
                a.send(a.make_packet(
                    self.RECEIVER, payload=(a.host_index, i),
                    payload_bytes=1400,
                    traffic_class=TrafficClass.LOSSLESS))
        ports = [a.uplink for a in senders]
        ports.append(fabric.attachment(self.RECEIVER).uplink)
        slices = 0
        while len(got) < len(senders) * self.BURST:
            slices += 1
            assert slices < 1000, "incast did not drain"
            env.run(until=env.now + self.SLICE_S)
            for switch in switches(fabric):
                assert switch.conservation_violations() == []
                for port in switch.ports.values():
                    assert port.conservation_violations() == []
            for port in ports:
                assert port.conservation_violations() == []
        assert slices > 10
        stats = [s.stats for s in switches(fabric)]
        assert sum(s.pfc_pause_sent for s in stats) > 0
        assert sum(s.pfc_resume_sent for s in stats) > 0
        assert all(s.dropped == 0 for s in stats)
        # Every sender's burst arrives in order.
        for a in senders:
            assert [p.payload[1] for p in got
                    if p.payload[0] == a.host_index] == \
                list(range(self.BURST))


class TestForwardingCache:
    def test_detach_with_warm_cache_fails_routing_then_reattach(self):
        env = Environment()
        fabric = DatacenterFabric(env, TopologyConfig(background=idle()))
        got = []
        a = fabric.attach(0, lambda p: None)
        fabric.attach(1, got.append)
        tor = fabric.topology.tor(0, 0)
        a.send(a.make_packet(1, b"warm"))
        env.run()
        assert len(got) == 1 and tor._routes  # cache is warm

        fabric.detach(1)
        failures = tor.stats.routing_failures
        a.send(a.make_packet(1, b"lost"))
        env.run()
        assert tor.stats.routing_failures == failures + 1
        assert len(got) == 1

        fabric.reattach(1)
        a.send(a.make_packet(1, b"back"))
        env.run()
        assert [p.payload for p in got] == [b"warm", b"back"]
        assert tor.conservation_violations() == []

    def test_routing_failure_not_cached(self):
        env = Environment()
        switch = make_switch(env)
        switch.set_router(lambda sw, pkt: "out")
        switch.receive(make_packet())
        env.run()
        assert switch.stats.routing_failures == 1
        got = []
        switch.add_port("out", Port(env, "out", rate_bps=40e9,
                                    deliver=got.append))
        switch.receive(make_packet())
        env.run()
        assert len(got) == 1

    def test_set_router_clears_cache(self):
        env = Environment()
        switch = make_switch(env)
        got = {"a": [], "b": []}
        for key in got:
            switch.add_port(key, Port(env, key, rate_bps=40e9,
                                      deliver=got[key].append))
        switch.set_router(lambda sw, pkt: "a")
        switch.receive(make_packet())
        env.run()
        switch.set_router(lambda sw, pkt: "b")
        switch.receive(make_packet())
        env.run()
        assert (len(got["a"]), len(got["b"])) == (1, 1)


class TestMutableThresholds:
    """Thresholds are read from the config objects on every packet, so a
    config changed after construction takes effect at once."""

    def _congested(self, env, switch, n=20):
        port = Port(env, "out", rate_bps=1e6, distance_m=0.0,
                    deliver=lambda p: None)
        switch.add_port("out", port)
        switch.set_router(lambda sw, pkt: "out")
        upstream = Port(env, "up", rate_bps=40e9)
        switch.register_upstream("neighbor", upstream)
        for _ in range(n):
            switch.receive(make_packet(payload_bytes=500,
                                       tc=TrafficClass.LOSSLESS,
                                       with_ip=True))
        env.run(until=1e-3)
        return upstream

    def test_ecn_kmin_lowered_after_construction(self):
        env = Environment()
        ecn = EcnConfig()
        switch = make_switch(env, ecn=ecn)
        ecn.kmin_bytes, ecn.kmax_bytes, ecn.pmax = 100, 200, 1.0
        self._congested(env, switch)
        assert switch.stats.ecn_marked > 0

    def test_pfc_xoff_lowered_after_construction(self):
        env = Environment()
        pfc = PfcConfig()
        switch = make_switch(env, pfc=pfc)
        pfc.xoff_bytes, pfc.xon_bytes = 2000, 500
        upstream = self._congested(env, switch)
        assert switch.stats.pfc_pause_sent == 1
        assert upstream.is_paused(TrafficClass.LOSSLESS)
