"""Pinned outputs of the Elastic Router.

Fifty seeded random scenarios drive single routers (2-6 ports, 1-4 VCs,
static and elastic credit policies) and small composed networks
(``RingNetwork``, ``MeshNetwork``).  Credits per port are tight, so
injection stalls; messages mix 1-flit and 44-flit sizes with sizes in
between; sends land on a coarse grid of instants, so several arrive at
once, some at clock edges and some between them.  Some messages carry a
trace context, and some carry a deadline that has already expired when
they are sent.  Every run advances in ``run(until=)`` slices.

The digest is SHA-256 over every delivery ``(port, payload, time)``,
every ``done`` time, every trace tap, each router's ``asdict(stats)``
and each run's ``env.events_processed``.  A change to the router's
representation or clock must leave it bit-identical.  After every
slice, every router must keep its conservation laws.
"""

import hashlib
import random
from dataclasses import asdict

from repro.router import ElasticRouter, MeshNetwork, RingNetwork
from repro.sim import Environment

RUNS = 50
SENDS = 36
CYCLE = 1.0 / 175e6
#: Sends land on ``GRID_SLOTS`` instants ``GRID_CYCLES`` cycles apart.
GRID_CYCLES = 6
GRID_SLOTS = 12
SLICE_S = 7.5 * CYCLE
#: Every run drains in under 600 cycles; a router that never idles (a
#: lock never released) fails here instead of looping forever.
HORIZON_S = 6000 * CYCLE
#: 1-flit and 44-flit messages at 32 B flits, weighted, plus odd sizes.
LENGTHS = (1, 16, 32, 1400, 1400, 1400, 33, 100, 333)

ROUTER_DIGEST = \
    "442780277d6bab69555c3cc8646b479ca8a63f4dba2c5fdd75ead539eae2ac01"
#: Totals over all runs: events, deliveries, done events, deadline drops,
#: injection stall cycles.
ROUTER_TOTALS = (33977, 1688, 1800, 112, 13728)


class Taps:
    """A trace context that logs its taps."""

    def __init__(self, log, label):
        self.log = log
        self.label = label

    def tap(self, stage, now):
        self.log.append(("tap", self.label, str(stage), now))

    def abandon(self, now):
        self.log.append(("abandon", self.label, now))


def build_single(rng, env, log):
    vcs = rng.randint(1, 4)
    router = ElasticRouter(
        env, num_ports=rng.randint(2, 6), num_vcs=vcs,
        credit_policy=rng.choice(("static", "elastic")),
        credits_per_port=vcs + rng.randint(0, 3))
    for port in range(router.num_ports):
        router.set_endpoint(port, lambda m, p=port: log.append(
            ("deliver", p, m.payload, env.now)))

    def send(label, src, dst, vc, length, traced, expired):
        deadline = None
        if expired:
            deadline = env.now - CYCLE
        elif rng.random() < 0.2:
            deadline = env.now + 1e-3
        trace = Taps(log, label) if traced else None
        src %= router.num_ports
        dst %= router.num_ports
        return router.send(src, dst, label, length, vc=vc % vcs,
                           deadline=deadline, trace=trace)

    return [router], send


def build_composed(rng, env, log, kind):
    vcs = rng.randint(1, 3)
    kwargs = dict(num_vcs=vcs, credits_per_port=vcs + rng.randint(0, 3),
                  credit_policy=rng.choice(("static", "elastic")))
    if kind == "ring":
        net = RingNetwork(env, rng.randint(2, 5), **kwargs)
    else:
        net = MeshNetwork(env, 2, rng.randint(1, 2), **kwargs)
    count = len(net.routers)
    for idx in range(count):
        net.set_local_handler(idx, lambda i, payload: log.append(
            ("deliver", i, payload, env.now)))

    def send(label, src, dst, vc, length, traced, expired):
        # A composed network's send() takes no deadline or trace.
        return net.send(src % count, dst % count, label, length,
                        vc=vc % vcs)

    return net.routers, send


def build(seed):
    rng = random.Random(seed)
    env = Environment()
    log = []
    kind = ("single", "single", "single", "ring", "mesh")[seed % 5]
    if kind == "single":
        routers, send = build_single(rng, env, log)
    else:
        routers, send = build_composed(rng, env, log, kind)

    def fire(label, *args):
        done = send(label, *args)
        done.callbacks.append(
            lambda _e: log.append(("done", label, env.now)))

    for i in range(SENDS):
        args = (rng.randrange(6), rng.randrange(6), rng.randrange(4),
                rng.choice(LENGTHS), rng.random() < 0.15,
                rng.random() < 0.1)
        slot = rng.randrange(GRID_SLOTS)
        when = slot * GRID_CYCLES * CYCLE
        if rng.random() < 0.25:
            when += CYCLE / 3
        if when == 0.0:
            fire(f"m{i}", *args)
        else:
            env.call_at(when, fire, f"m{i}", *args)
    return env, routers, log


def run_all():
    h = hashlib.sha256()
    totals = [0] * 5
    for seed in range(RUNS):
        env, routers, log = build(seed)
        while env.peek() != float("inf"):
            assert env.now < HORIZON_S, f"run {seed} never drains"
            env.run(until=env.now + SLICE_S)
            for router in routers:
                assert router.conservation_violations() == []
        h.update(repr((seed, log, env.events_processed)).encode())
        totals[0] += env.events_processed
        for entry in log:
            if entry[0] == "deliver":
                totals[1] += 1
            elif entry[0] == "done":
                totals[2] += 1
        for router in routers:
            h.update(repr((router.name, asdict(router.stats))).encode())
            totals[3] += router.stats.deadline_drops
            totals[4] += router.stats.injection_stall_cycles
    return h.hexdigest(), tuple(totals)


def test_router_outputs_pinned():
    digest, totals = run_all()
    assert (digest, totals) == (ROUTER_DIGEST, ROUTER_TOTALS)
