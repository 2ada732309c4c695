"""Pinned outputs of the DNN pool's request paths.

The seeded latency samples of ``DnnPool.request`` and
``DnnPool.request_hedged`` are their behavioural contract: a refactor
of either path must leave every sample bit-identical.  The digests
below are SHA-256 over the little-endian IEEE-754 doubles of the
samples, in completion order, next to the counters the same run
produces.  The schedule-size pin counts the kernel's entries per
request and each layer's Python calls, so a change that folds or adds
an entry, or adds Python work, fails by name.
"""

import hashlib
import struct

from repro.dnn.pool import (
    DnnPool,
    RemoteNetworkModel,
    run_oversubscription_point,
)
from repro.overload.hedging import HedgeConfig, HedgeController
from repro.sim import Environment, RandomStreams
from tests.layer_calls import repro_calls


def digest(samples) -> str:
    return hashlib.sha256(
        struct.pack(f"<{len(samples)}d", *samples)).hexdigest()


def test_local_one_to_one_point_pinned():
    result = run_oversubscription_point(num_clients=4, num_fpgas=4,
                                        requests_per_client=200, seed=5)
    samples = result.latency.samples
    assert len(samples) == 760
    assert digest(samples) == \
        "c6a0ebc7cd89c7437bcd4a3b36f95c7b79fb5f2157079bad4f70071971a98b46"


def test_remote_two_to_one_point_pinned():
    result = run_oversubscription_point(num_clients=8, num_fpgas=4,
                                        remote=RemoteNetworkModel(),
                                        requests_per_client=150, seed=6)
    samples = result.latency.samples
    assert len(samples) == 1140
    assert digest(samples) == \
        "41416c63f1ed995bd399f834a8b339d81f5aae9d7463414b19122b98bd852252"


def test_hedged_requests_pinned():
    """One limplocked FPGA in four, a generous hedge budget: hedges are
    issued, won and lost, and queued losers are cancelled."""
    env = Environment()
    streams = RandomStreams(seed=9)
    pool = DnnPool(env, 4, rng=streams.stream("dnn-pool"),
                   remote=RemoteNetworkModel())
    pool.set_slow(0, 8.0)
    hedge = HedgeController(HedgeConfig(budget_fraction=0.2))
    rate = 0.5 * pool.num_fpgas / pool.accelerators[0].mean_service_time

    def client():
        rng = streams.stream("client")
        for _ in range(800):
            env.process(pool.request_hedged(hedge))
            yield env.timeout(rng.expovariate(rate))

    env.process(client())
    env.run()
    stats = hedge.stats
    assert digest(pool.latency.samples) == \
        "0a29dc9dcabb98aa6000ab8f024b45008b3b0f925a06de875c5e30e7954ae2ce"
    assert [pool.completed, pool.backend_served, stats.hedges_issued,
            stats.hedge_wins, stats.primary_wins,
            stats.hedges_cancelled_unstarted,
            stats.hedges_suppressed_budget] == [800, 843, 55, 52, 3, 11, 0]
    assert env.events_processed == 10527
    # Every slot came back and every queue drained.
    assert [r.count for r in pool._slots] == [0, 0, 0, 0]
    assert [len(r.queue) for r in pool._slots] == [0, 0, 0, 0]
    assert pool._queue_depth == [0, 0, 0, 0]


def test_deadline_drops_pinned():
    """Every tenth request arrives already expired; the rest carry
    budgets of 1-6 mean service times into a 1.2x oversubscribed pool,
    so some expire while queued for a slot."""
    env = Environment()
    streams = RandomStreams(seed=11)
    pool = DnnPool(env, 2, rng=streams.stream("dnn-pool"))
    mean = pool.accelerators[0].mean_service_time

    def client():
        rng = streams.stream("client")
        for i in range(600):
            if i % 10 == 0:
                deadline = env.now - 1e-6
            else:
                deadline = env.now + rng.uniform(1, 6) * mean
            env.process(pool.request(deadline=deadline))
            yield env.timeout(rng.expovariate(2.4 / mean))

    env.process(client())
    env.run()
    assert digest(pool.latency.samples) == \
        "650eb34ce69f7e125efcb2fec8b72720f2b3a008a07313010355063f909c2082"
    assert [pool.completed, pool.backend_served, pool.deadline_drops,
            env.events_processed] == [481, 481, 119, 2823]
    assert [r.count for r in pool._slots] == [0, 0]
    assert pool._queue_depth == [0, 0]


def test_schedule_size_pinned():
    """The perfbench ``accel_dnn`` shape, scaled down: 12 Poisson
    clients on a remote 6-FPGA pool.  A request makes 7 schedule
    entries (arrival timeout, process start, two network halves, slot
    grant, service timeout, process end); each client adds its own
    start and end.  The Python calls per layer are pinned next to
    them."""
    def run():
        env = Environment()
        streams = RandomStreams(seed=1)
        pool = DnnPool(env, 6, rng=streams.stream("dnn-pool"),
                       remote=RemoteNetworkModel())

        def client(cid: int):
            rng = streams.stream(f"client-{cid}")
            for _ in range(250):
                env.process(pool.request())
                yield env.timeout(rng.expovariate(283.43))

        for cid in range(12):
            env.process(client(cid))
        env.run()
        return env, pool

    (env, pool), calls = repro_calls(run)
    assert pool.completed == 3000
    assert env.events_processed == 7 * 3000 + 2 * 12
    assert calls == {"sim": 34509, "dnn": 36007, "overload": 3000,
                     "core": 3001}
