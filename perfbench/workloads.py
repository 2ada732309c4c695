"""The benchmark's workloads, driven through the simulator's public API.

Each workload is a function ``build(seed)`` that does the set-up (builds
the simulated system) and returns a ``measure(tick)`` callable that runs
the measured phase and returns an :class:`Outcome`.  ``measure`` calls
``tick()`` at the end of every segment of simulation (one Fig. 10 pair,
one slice of simulated time), and once the simulation is over, so the
runner can time the phase in segments and calibrate the host between
them.  Every
load point below is an absolute constant: nothing is derived at run time
from a model output (``saturation_qps``, ``capacity_rps``, ...), so a
model change cannot move the load point.  All load is generated in
simulated time, so a generator can never run late.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.cloud import ConfigurableCloud
from repro.dnn.pool import DnnPool, RemoteNetworkModel
from repro.fpga.shell import ShellConfig
from repro.net.switch import PfcConfig
from repro.net.topology import TopologyConfig
from repro.net.packet import TrafficClass
from repro.ranking.service import (
    AccelerationMode,
    OverloadConfig,
    RankingServer,
    RankingServiceConfig,
)
from repro.sim import Environment, RandomStreams

# ----------------------------------------------------------------------
# fig10_idle: Fig. 10's idle-fabric LTL round trips.
# ----------------------------------------------------------------------
#: tier -> (sender, receiver) pairs; the 14 pairs of Fig. 10's sweep.
FIG10_PAIRS: Dict[str, List[Tuple[int, int]]] = {
    "L0": [(0, 1), (2, 3), (4, 5), (6, 7)],
    "L1": [(8, 30), (9, 200), (10, 500), (11, 900)],
    "L2": [(12, 5_000), (13, 50_000), (14, 120_000), (15, 200_000),
           (16, 250_000), (17, 99_000)],
}
#: The seed also places the pods (their fiber runs to the L2 tier), and
#: six L2 pairs sample few pods, so one run sweeps the pairs in eight
#: datacenters seeded ``seed * 8 + k``.
FIG10_DATACENTERS = 8
#: 64 B probes every 100 us of simulated time: the paper's "very low
#: rate".  25 probes per pair in each datacenter give 1,200 L2 samples,
#: so the p99 has twelve samples beyond it.
FIG10_PROBES_PER_PAIR = 25
FIG10_GAP_S = 100e-6
FIG10_PAYLOAD_BYTES = 64
#: Fig. 10's measured average round trips (us) and the L2 envelope.
FIG10_PAPER_AVG_US = {"L0": 2.88, "L1": 7.72, "L2": 18.71}
FIG10_L2_ENVELOPE_US = 23.5

# ----------------------------------------------------------------------
# ltl_incast: bulk LTL transfer converging on one receiver.
# ----------------------------------------------------------------------
INCAST_RECEIVER = 0
#: Six senders in the receiver's rack, five in other racks of its pod
#: and five in other pods.
INCAST_SENDERS = (1, 2, 3, 4, 5, 6,
                  24, 48, 240, 480, 935,
                  960, 5_000, 50_000, 120_000, 250_000)
INCAST_MESSAGES_PER_SENDER = 100
INCAST_MESSAGE_BYTES = 1400
#: PFC watermarks of the lossless-class ablation (bench_ablation_lossless).
INCAST_PFC = (8 * 1024, 4 * 1024)
#: The burst is advanced in slices of this much simulated time until
#: every message is delivered or the horizon passes.
INCAST_SLICE_S = 20e-6
INCAST_HORIZON_S = 0.1

# ----------------------------------------------------------------------
# accel_ranking: remote-FPGA ranking server near Fig. 6's knee.
# ----------------------------------------------------------------------
#: About 1.56x the software-mode base load of Fig. 6 (0.9 x software
#: saturation, 7,049 qps with the default timing model), well below the
#: remote-FPGA server's saturation (about 19,500 qps).  A query is shed
#: at the door when the predicted core-queue delay passes 1 ms; at this
#: rate the largest prediction in a run is about 0.4 ms (0.6 ms in the
#: worst of 40 seeds), so no query fails.  At 13,000 qps it is about
#: 0.67 ms and roughly one seed in a hundred sheds a query.
RANKING_QPS = 11_000.0
RANKING_QUERIES = 40_000
RANKING_SLICE_S = 0.1

# ----------------------------------------------------------------------
# accel_dnn: Fig. 12's pool at 2:1 oversubscription.
# ----------------------------------------------------------------------
DNN_CLIENTS = 12
DNN_FPGAS = 6
#: Per-client Poisson rate: the stress rate of Fig. 12 (a third of one
#: default accelerator's 850.29 requests/s).
DNN_CLIENT_RATE = 283.43
DNN_REQUESTS_PER_CLIENT = 3_000
DNN_SLICE_S = 1.0


@dataclass
class Outcome:
    """What one measured phase produced."""

    #: Operations completed (the numerator of ``ops_per_s``).
    ops: int
    attempted: int
    failed: int
    #: What an operation is, as the latency metrics are printed
    #: (``<op_name>_p50_us``), and its simulated latencies (us), ascending;
    #: ``op_p50_us`` and ``op_p99_us`` are read from them.
    op_name: str
    latencies_us: List[float]
    #: Workload-specific simulated metrics: name -> (value, unit).
    extra: Dict[str, Tuple[float, str]]
    #: Named output checks; the run is incorrect if any is False.
    checks: Dict[str, bool]
    #: SHA-256 over the simulated outputs.
    digest: str
    #: Layer counters read from the public stats objects.
    counters: Dict[str, float]


Measure = Callable[[Callable[[], None]], Outcome]


def digest_of(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def run_sliced(env: Environment, slice_s: float, tick) -> None:
    """Run ``env`` to exhaustion in slices of ``slice_s`` simulated
    seconds, calling ``tick`` after each."""
    while env.peek() != float("inf"):
        env.run(until=env.now + slice_s)
        tick()


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def fabric_counters(clouds: List[ConfigurableCloud]) -> Dict[str, float]:
    """Net, router and LTL counters of every switch and shell in use,
    summed over ``clouds``."""
    net = {"forwarded": 0, "drops": 0, "pfc_pauses": 0, "ecn_marks": 0}
    router = {"cycles": 0, "flits": 0, "stall_cycles": 0}
    ltl = {"frames_sent": 0, "retransmissions": 0, "timeouts": 0,
           "duplicates_dropped": 0}
    events = deadline_drops = 0
    for cloud in clouds:
        events += cloud.env.events_processed
        topology = cloud.fabric.topology
        switches = {}
        for host in cloud.servers:
            c = topology.coords(host)
            for switch in (topology.tor(c.pod, c.tor), topology.l1(c.pod),
                           topology.l2()):
                switches[switch.name] = switch
        for switch in switches.values():
            net["forwarded"] += switch.stats.forwarded
            net["drops"] += (switch.stats.lossless_overflow
                             + sum(p.stats.dropped
                                   for p in switch.ports.values()))
            net["pfc_pauses"] += switch.stats.pfc_pause_sent
            net["ecn_marks"] += switch.stats.ecn_marked
        for server in cloud.servers.values():
            er, engine = server.shell.er.stats, server.shell.ltl.stats
            router["cycles"] += er.cycles
            router["flits"] += er.flits_switched
            router["stall_cycles"] += er.injection_stall_cycles
            deadline_drops += (er.deadline_drops
                               + engine.deadline_expired_tx
                               + engine.deadline_expired_rx)
            for key in ltl:
                ltl[key] += getattr(engine, key)
    out = {"sim.events": events, "overload.deadline_drops": deadline_drops}
    out.update({f"net.{k}": v for k, v in net.items()})
    out.update({f"router.{k}": v for k, v in router.items()})
    out.update({f"ltl.{k}": v for k, v in ltl.items()})
    sent = ltl["frames_sent"]
    out["ltl.useful_frac"] = (sent - ltl["retransmissions"]) / sent \
        if sent else 0.0
    return out


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def build_fig10_idle(seed: int) -> Measure:
    clouds = [ConfigurableCloud(seed=seed * FIG10_DATACENTERS + k)
              for k in range(FIG10_DATACENTERS)]
    for cloud in clouds:
        for pairs in FIG10_PAIRS.values():
            for pair in pairs:
                for host in pair:
                    cloud.add_server(host, enroll=False)

    def measure(tick) -> Outcome:
        by_tier: Dict[str, List[float]] = {t: [] for t in FIG10_PAIRS}
        short = 0
        for cloud in clouds:
            for tier, pairs in FIG10_PAIRS.items():
                for src, dst in pairs:
                    got = cloud.measure_ltl_rtt(
                        src, dst, messages=FIG10_PROBES_PER_PAIR,
                        payload_bytes=FIG10_PAYLOAD_BYTES,
                        gap_seconds=FIG10_GAP_S)
                    short += abs(FIG10_PROBES_PER_PAIR - len(got))
                    by_tier[tier].extend(got)
            tick()
        avg_us = {t: statistics.fmean(s) * 1e6 for t, s in by_tier.items()}
        l2_us = sorted(s * 1e6 for s in by_tier["L2"])
        err = statistics.fmean(
            abs(avg_us[t] - FIG10_PAPER_AVG_US[t]) / FIG10_PAPER_AVG_US[t]
            for t in FIG10_PAPER_AVG_US) * 100
        attempted = FIG10_DATACENTERS * FIG10_PROBES_PER_PAIR * sum(
            len(p) for p in FIG10_PAIRS.values())
        extra = {f"rtt_{t.lower()}_avg_us": (v, "us")
                 for t, v in avg_us.items()}
        extra["rtt_err_pct"] = (err, "%")
        return Outcome(
            ops=attempted - short, attempted=attempted, failed=short,
            op_name="rtt_l2", latencies_us=l2_us, extra=extra,
            checks={
                "one_rtt_sample_per_probe": short == 0,
                "avg_rtt_l0_lt_l1_lt_l2":
                    avg_us["L0"] < avg_us["L1"] < avg_us["L2"],
                "l2_rtt_within_23.5us_envelope":
                    l2_us[-1] < FIG10_L2_ENVELOPE_US,
            },
            digest=digest_of(by_tier),
            counters=fabric_counters(clouds))

    return measure


def build_ltl_incast(seed: int) -> Measure:
    xoff, xon = INCAST_PFC
    topology = TopologyConfig(pfc=PfcConfig(xoff_bytes=xoff, xon_bytes=xon))
    cloud = ConfigurableCloud(topology=topology, seed=seed)
    config = ShellConfig(ltl_traffic_class=TrafficClass.LOSSLESS)
    receiver = cloud.add_server(INCAST_RECEIVER, enroll=False,
                                shell_config=config)
    senders = [cloud.add_server(h, enroll=False, shell_config=config)
               for h in INCAST_SENDERS]
    for sender in senders:
        sender.shell.connect_to(receiver.shell)
    env = cloud.env
    deliveries: List[Tuple[int, int, float]] = []
    receiver.shell.role_receive = \
        lambda payload, _n: deliveries.append((*payload, env.now))
    expected = len(INCAST_SENDERS) * INCAST_MESSAGES_PER_SENDER

    def measure(tick) -> Outcome:
        start = env.now
        for sender in senders:
            for seq in range(INCAST_MESSAGES_PER_SENDER):
                sender.shell.remote_send(INCAST_RECEIVER,
                                         (sender.host_index, seq),
                                         INCAST_MESSAGE_BYTES)
        while len(deliveries) < expected and \
                env.now < start + INCAST_HORIZON_S:
            env.run(until=env.now + INCAST_SLICE_S)
            tick()
        order: Dict[int, List[int]] = {h: [] for h in INCAST_SENDERS}
        for host, seq, _t in deliveries:
            order[host].append(seq)
        in_order = all(seqs == list(range(INCAST_MESSAGES_PER_SENDER))
                       for seqs in order.values())
        latencies = sorted((t - start) * 1e6 for _h, _s, t in deliveries)
        counters = fabric_counters([cloud])
        span = max(t for _h, _s, t in deliveries) - start
        goodput = len(deliveries) * INCAST_MESSAGE_BYTES * 8 / span / 1e9
        return Outcome(
            ops=len(deliveries), attempted=expected,
            failed=expected - len(deliveries), op_name="msg",
            latencies_us=latencies,
            extra={"goodput_gbps": (goodput, "Gb/s")},
            checks={
                "every_message_delivered_once_in_order":
                    len(deliveries) == expected and in_order,
                "zero_switch_drops_on_lossless_class":
                    counters["net.drops"] == 0,
            },
            digest=digest_of(deliveries),
            counters=counters)

    return measure


def build_accel_ranking(seed: int) -> Measure:
    # Drives RankingServer.handle_query as run_open_loop does, but keeps
    # the server so its shed/expired counters can be checked.
    env = Environment()
    config = RankingServiceConfig(mode=AccelerationMode.REMOTE_FPGA,
                                  overload=OverloadConfig())
    server = RankingServer(env, config, rng=random.Random(seed + 1))
    arrivals = random.Random(seed)

    def generator():
        for _ in range(RANKING_QUERIES):
            env.process(server.handle_query())
            yield env.timeout(arrivals.expovariate(RANKING_QPS))

    def measure(tick) -> Outcome:
        env.process(generator())
        run_sliced(env, RANKING_SLICE_S, tick)
        latencies = sorted(s * 1e6 for s in server.latency.samples)
        expired = server.deadline_stats.total
        return Outcome(
            ops=server.completed, attempted=RANKING_QUERIES,
            failed=server.rejected + expired, op_name="query",
            latencies_us=latencies,
            extra={},
            checks={"completed_shed_expired_equals_offered":
                    server.completed + server.rejected + expired
                    == RANKING_QUERIES},
            digest=digest_of(server.latency.samples),
            counters={"sim.events": env.events_processed,
                      "ranking.degraded": server.degraded_queries,
                      "ranking.shed": server.rejected,
                      "overload.deadline_drops": expired})

    return measure


def build_accel_dnn(seed: int) -> Measure:
    # Mirrors run_oversubscription_point with the rate fixed, keeping the
    # environment and pool so their counters can be read.
    env = Environment()
    streams = RandomStreams(seed=seed)
    pool = DnnPool(env, DNN_FPGAS, rng=streams.stream("dnn-pool"),
                   remote=RemoteNetworkModel())
    offered = DNN_CLIENTS * DNN_REQUESTS_PER_CLIENT

    def client(cid: int):
        rng = streams.stream(f"client-{cid}")
        for _ in range(DNN_REQUESTS_PER_CLIENT):
            env.process(pool.request())
            yield env.timeout(rng.expovariate(DNN_CLIENT_RATE))

    def measure(tick) -> Outcome:
        for cid in range(DNN_CLIENTS):
            env.process(client(cid))
        run_sliced(env, DNN_SLICE_S, tick)
        latencies = sorted(s * 1e6 for s in pool.latency.samples)
        return Outcome(
            ops=pool.completed, attempted=offered,
            failed=offered - pool.completed, op_name="dnn",
            latencies_us=latencies,
            extra={},
            checks={"every_dnn_request_answered":
                    pool.completed == offered
                    and pool.deadline_drops == 0},
            digest=digest_of(pool.latency.samples),
            counters={"sim.events": env.events_processed,
                      "overload.deadline_drops": pool.deadline_drops})

    return measure


WORKLOADS: Dict[str, Callable[[int], Measure]] = {
    "fig10_idle": build_fig10_idle,
    "ltl_incast": build_ltl_incast,
    "accel_ranking": build_accel_ranking,
    "accel_dnn": build_accel_dnn,
}
