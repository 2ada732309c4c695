"""Pinned outputs of the ranking server's query path.

The seeded latency samples of ``run_open_loop`` and ``run_surge`` are
the behavioural contract of ``RankingServer.handle_query``: a refactor
of the query path must leave every sample bit-identical.  The digests
below are SHA-256 over the little-endian IEEE-754 doubles of the
samples, in completion order.  The traced stage order of one query per
mode pins which taps the path takes.
"""

import hashlib
import random
import struct

import pytest

from repro.ranking.ffu import QueryWork
from repro.ranking.service import (
    AccelerationMode,
    OverloadConfig,
    RankingServer,
    RankingServiceConfig,
    run_open_loop,
    run_surge,
)
from repro.sim import Environment
from repro.trace import TraceContext
from repro.trace.stages import Stage
from repro.workloads import FlashCrowdProfile
from tests.layer_calls import repro_calls


def digest(samples) -> str:
    return hashlib.sha256(
        struct.pack(f"<{len(samples)}d", *samples)).hexdigest()


OPEN_LOOP_DIGESTS = {
    AccelerationMode.SOFTWARE:
        "86d8a433a1f39c76cd9f1dfa63691bf6e7c55549913dece3a62a6fdac197423c",
    AccelerationMode.LOCAL_FPGA:
        "12b6fc470b52a2ba9c73f05e7e2e970c9e7cf73266462dc8287a16e4c29be86b",
    AccelerationMode.REMOTE_FPGA:
        "df3133714b860542d10a910666b8d23004fd5310b4db7369653453d6c75b09d6",
}

SURGE_DIGESTS = {
    # protected -> (samples digest, [rejected, degraded, deadline drops])
    True: ("93341664737f8bcfdf66a2ae82986db2226f172629b1880a7fc196947eb9d9ed",
           [885, 3036, 0]),
    False: ("6908262f3f4e6f63ee471e23a68806d7b5879e4b36e6431016740d704cbf981f",
            [0, 0, 0]),
}


@pytest.mark.parametrize("mode", list(AccelerationMode))
def test_open_loop_samples_pinned(mode):
    result = run_open_loop(RankingServiceConfig(mode=mode), 5000.0,
                           num_queries=600, seed=7)
    assert digest(result.latency.samples) == OPEN_LOOP_DIGESTS[mode]


@pytest.mark.parametrize("protected", [True, False])
def test_surge_samples_pinned(protected):
    config = RankingServiceConfig(
        mode=AccelerationMode.REMOTE_FPGA,
        overload=OverloadConfig(protected=protected))
    profile = FlashCrowdProfile(baseline_qps=10000.0, surge_multiplier=4.0,
                                surge_start=0.05, surge_duration=0.1)
    result = run_surge(config, profile, seed=3)
    samples = [x for name in ("pre", "surge", "post")
               for x in result.phases[name].latency.samples]
    counters = [result.server.rejected, result.server.degraded_queries,
                result.server.deadline_stats.total]
    assert (digest(samples), counters) == SURGE_DIGESTS[protected]


ACCELERATED_STAGES = [Stage.CORE_QUEUE, Stage.SW_PRE, Stage.FPGA_QUEUE,
                      Stage.ROLE_SERVICE, Stage.POST_QUEUE, Stage.SW_POST]
STAGE_ORDER = {
    AccelerationMode.SOFTWARE: [Stage.CORE_QUEUE, Stage.CORE_SOFTWARE],
    AccelerationMode.LOCAL_FPGA: ACCELERATED_STAGES,
    AccelerationMode.REMOTE_FPGA: ACCELERATED_STAGES,
}


@pytest.mark.parametrize("mode", list(AccelerationMode))
def test_traced_stage_order(mode):
    env = Environment()
    server = RankingServer(env, RankingServiceConfig(mode=mode),
                           rng=random.Random(1))
    work = QueryWork(num_docs=100, total_terms=20_000, query_terms=4,
                     trace=TraceContext(0.0))
    env.process(server.handle_query(work))
    env.run()
    assert server.completed == 1
    assert [stage for stage, _ in work.trace.marks] == STAGE_ORDER[mode]


def test_schedule_size_pinned():
    """The perfbench ``accel_ranking`` shape, scaled down: Poisson
    queries at 11,000 qps into a protected remote-FPGA server.  An
    accelerated query makes 9 schedule entries (arrival timeout, process
    start, three slot grants, three hold timeouts, process end); the
    generator adds its own start and end.  The Python calls per layer
    are pinned next to them."""
    def run():
        env = Environment()
        config = RankingServiceConfig(mode=AccelerationMode.REMOTE_FPGA,
                                      overload=OverloadConfig())
        server = RankingServer(env, config, rng=random.Random(2))
        arrivals = random.Random(1)

        def generator():
            for _ in range(4000):
                env.process(server.handle_query())
                yield env.timeout(arrivals.expovariate(11_000.0))

        env.process(generator())
        env.run()
        return env, server

    (env, server), calls = repro_calls(run)
    assert server.completed == 4000
    assert env.events_processed == 9 * 4000 + 2
    assert calls == {"sim": 63434, "ranking": 68002, "overload": 40045,
                     "core": 16001}
