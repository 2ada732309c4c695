"""Pinned outputs of the fabric's per-hop datapath.

About fifty seeded random small fabrics (4 hosts per TOR, 2 TORs per
pod, 2 pods) carry mixed-class traffic sent at coarse-grid instants, so
same-instant batches meet at every tier.  Tight PFC watermarks make
pauses and resumes fire; some runs also ramp ECN marking from a low
``kmin`` so that marks draw from the switches' random streams.  Half
the runs add background jitter, half are ``idle()``; every tenth run
detaches the hottest host mid-stream and reattaches it.

The digest is SHA-256 over every delivery ``(host, payload, time)``,
each run's ``env.events_processed`` and every switch's counters.  A
change to the switch or port datapath must leave it bit-identical.
After every ``run(until=)`` slice, every switch and every port in use
must keep its conservation law.
"""

import hashlib
import random

from repro.net import (
    DatacenterFabric,
    EcnConfig,
    PfcConfig,
    TopologyConfig,
    TrafficClass,
    idle,
)
from repro.net.latency import BackgroundTrafficModel
from repro.sim import Environment, RandomStreams

RUNS = 50
HOSTS = 16
SENDS = 80
GRID_S = 1e-6
GRID_SLOTS = 10
SLICE_S = 5e-6
HORIZON_S = 150e-6
DETACH_AT_S = 4e-6
REATTACH_AT_S = 11e-6
#: Traffic-class mix, weighted to the lossless class so PFC engages.
CLASSES = TrafficClass.ALL + (TrafficClass.LOSSLESS,) * 2

FABRIC_DIGEST = \
    "2a20bac6c50e4288f5204a527a448ad34c4a773d480e55887448f0131e763871"
#: Totals over all runs: events, deliveries, PFC pauses, PFC resumes,
#: ECN marks, routing failures.
FABRIC_TOTALS = (68140, 3908, 51, 51, 7, 91)


def build(seed: int):
    rng = random.Random(seed)
    config = TopologyConfig(
        hosts_per_tor=4, tors_per_pod=2, pods=2,
        background=BackgroundTrafficModel() if seed % 2 else idle(),
        pfc=PfcConfig(xoff_bytes=2000, xon_bytes=800),
        ecn=(EcnConfig(kmin_bytes=600, kmax_bytes=6000, pmax=0.8)
             if seed % 3 == 0 else EcnConfig()))
    env = Environment()
    fabric = DatacenterFabric(env, config, RandomStreams(seed=seed))
    log = []
    attachments = [
        fabric.attach(h, lambda pkt, h=h: log.append(
            (h, pkt.payload, env.now)))
        for h in range(HOSTS)]
    hot = rng.randrange(HOSTS)
    for i in range(SENDS):
        src = rng.randrange(HOSTS)
        dst = hot if rng.random() < 0.5 else rng.randrange(HOSTS)
        if dst == src:
            dst = (dst + 1) % HOSTS
        packet = attachments[src].make_packet(
            dst, payload=i, payload_bytes=rng.randint(64, 1400),
            traffic_class=rng.choice(CLASSES))
        env.call_at(rng.randrange(GRID_SLOTS) * GRID_S,
                    attachments[src].send, packet)
    if seed % 10 == 9:
        env.call_at(DETACH_AT_S, fabric.detach, hot)
        env.call_at(REATTACH_AT_S, fabric.reattach, hot)
    return env, fabric, log, [a.uplink for a in attachments]


def switches(fabric):
    """Every switch the fabric has materialized: TORs, L1s, then L2."""
    topo = fabric.topology
    found = list(topo._tors.values()) + list(topo._l1s.values())
    if topo._l2 is not None:
        found.append(topo._l2)
    return found


def conservation_violations(fabric, uplinks):
    broken = []
    for switch in switches(fabric):
        broken += switch.conservation_violations()
        for port in switch.ports.values():
            broken += port.conservation_violations()
    for port in uplinks:
        broken += port.conservation_violations()
    return broken


def run_all():
    h = hashlib.sha256()
    totals = [0] * 6
    for seed in range(RUNS):
        env, fabric, log, uplinks = build(seed)
        until = SLICE_S
        while until <= HORIZON_S:
            env.run(until=until)
            assert conservation_violations(fabric, uplinks) == []
            until += SLICE_S
        h.update(repr((seed, log, env.events_processed)).encode())
        totals[0] += env.events_processed
        totals[1] += len(log)
        for switch in switches(fabric):
            s = switch.stats
            h.update(repr((switch.name, s.received, s.forwarded,
                           s.routing_failures, s.ecn_marked,
                           s.pfc_pause_sent, s.pfc_resume_sent,
                           s.lossless_overflow)).encode())
            totals[2] += s.pfc_pause_sent
            totals[3] += s.pfc_resume_sent
            totals[4] += s.ecn_marked
            totals[5] += s.routing_failures
    return h.hexdigest(), tuple(totals)


def test_fabric_outputs_pinned():
    digest, totals = run_all()
    assert (digest, totals) == (FABRIC_DIGEST, FABRIC_TOTALS)
