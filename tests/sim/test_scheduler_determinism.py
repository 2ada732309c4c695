"""Determinism guarantees of the event schedule.

The kernel orders every entry by ``(time, priority, seq)``.  These tests
pin the observable contract as literals: same-instant FIFO, URGENT
before NORMAL, ``call_at``/``call_later`` interleaving, clock-edge
order, and — the integration-level check — the Fig. 10 digest and
event count recorded before the schedule became a single heap, next to
the sweep's Python calls per layer.
"""

import hashlib

from repro.core.cloud import ConfigurableCloud
from repro.experiments.fig10 import DEFAULT_TIER_PAIRS
from repro.sim import Environment
from repro.sim.events import NORMAL, URGENT, Event
from tests.layer_calls import repro_calls


class TestSameInstantFifo:
    def test_call_later_same_instant_fifo(self):
        env = Environment()
        order = []
        for i in range(50):
            env.call_later(1e-6, order.append, i)
        env.run()
        assert order == list(range(50))

    def test_fifo_across_clock_advance(self):
        """Entries for one instant stay FIFO when some are pushed long
        before it is due and others after the clock moved closer."""
        env = Environment()
        order = []
        when = 1e-3
        for i in range(10):
            env.call_at(when, order.append, i)
        env.call_later(when / 2, lambda: None)
        env.run(until=when / 2)
        for i in range(10, 20):
            env.call_at(when, order.append, i)
        env.run()
        assert order == list(range(20))


class TestPriorities:
    def test_urgent_before_normal_same_instant(self):
        env = Environment()
        order = []

        def make(tag):
            event = Event(env)
            event.callbacks.append(lambda _e: order.append(tag))
            event._ok = True
            event._value = None
            return event

        # NORMAL scheduled first, URGENT second — URGENT must still win.
        env.schedule(make("normal-0"), NORMAL, delay=1e-6)
        env.schedule(make("urgent-0"), URGENT, delay=1e-6)
        env.schedule(make("normal-1"), NORMAL, delay=1e-6)
        env.schedule(make("urgent-1"), URGENT, delay=1e-6)
        env.run()
        assert order == ["urgent-0", "urgent-1", "normal-0", "normal-1"]


class TestCallAtCallLaterInterleaving:
    def test_interleaved_global_order(self):
        env = Environment()
        order = []
        # Mixed absolute/relative scheduling landing on shared instants,
        # inserted out of time order, microseconds to milliseconds out.
        env.call_at(3e-6, order.append, "at-3us")
        env.call_later(1e-6, order.append, "later-1us")
        env.call_at(1e-6, order.append, "at-1us")       # ties later-1us
        env.call_later(3e-6, order.append, "later-3us")  # ties at-3us
        env.call_at(2e-3, order.append, "at-2ms")
        env.call_later(0.0, order.append, "later-0")
        env.call_later(2e-3, order.append, "later-2ms")  # ties at-2ms
        env.run()
        assert order == ["later-0", "later-1us", "at-1us", "at-3us",
                         "later-3us", "at-2ms", "later-2ms"]

    def test_dense_schedule_order(self):
        env = Environment()
        order = []
        pushed = []
        # Deterministic pseudo-random delays via integer hashing: dense
        # ties over a 1 ms spread.
        for i in range(400):
            delay = ((i * 2654435761) % 1024) * 1e-6
            env.call_later(delay, order.append, i)
            pushed.append((delay, i))
        env.run()
        assert order == [i for _delay, i in sorted(pushed)]


class TestClockEdges:
    """Clock edges order by clock priority, not by when they were
    pushed: after every URGENT/NORMAL event at their instant, in clock
    creation order, and before a bounded run's stop sentinel."""

    def test_edges_after_normal_in_creation_order(self):
        env = Environment()
        first, second = env.new_clock_priority(), env.new_clock_priority()
        assert (first, second) == (2, 3)
        order = []
        env.call_edge(1e-6, second, order.append, "edge-second")
        env.call_edge(1e-6, first, order.append, "edge-first")
        env.call_later(1e-6, order.append, "normal")
        env.schedule(Event(env), URGENT, delay=1e-6)
        env.run()
        assert order == ["normal", "edge-first", "edge-second"]

    def test_bounded_run_processes_edges_at_its_horizon(self):
        env = Environment()
        priority = env.new_clock_priority()
        order = []
        env.call_edge(1e-6, priority, order.append, "edge")
        env.run(until=1e-6)
        assert order == ["edge"]
        # The stop sentinel counts as the last edge of its instant.
        assert env.edge_passed(priority)

    def test_edge_passed_tracks_the_last_dispatched_edge(self):
        env = Environment()
        low, high = env.new_clock_priority(), env.new_clock_priority()
        seen = []

        def at_edge():
            env.edge_dispatched(high)
            env.call_later(0.0, lambda: seen.append(
                (env.edge_passed(low), env.edge_passed(high))))

        env.call_later(1e-6, lambda: seen.append(
            (env.edge_passed(low), env.edge_passed(high))))
        env.call_edge(1e-6, high, at_edge)
        env.run()
        # Before the edge at 1 us nothing has passed; after the edge of
        # the higher-priority clock the lower one's edge has, even for
        # a NORMAL event pushed at the same instant.
        assert seen == [(False, False), (True, False)]


def fig10_sweep(messages: int):
    """The seed-10 Fig. 10 sweep, ``messages`` round trips per pair:
    returns its environment and every RTT sample."""
    env = Environment()
    cloud = ConfigurableCloud(env=env, seed=10)
    samples = []
    for _tier, (_reach, pairs) in DEFAULT_TIER_PAIRS.items():
        for src, dst in pairs:
            for host in (src, dst):
                if host not in cloud.servers:
                    cloud.add_server(host, enroll=False)
            samples.extend(cloud.measure_ltl_rtt(src, dst, messages=messages))
    return env, samples


class TestFig10Digest:
    #: SHA-256 of every RTT sample, the event count and the final clock
    #: of the seed-10 Fig. 10 sweep below.
    DIGEST = ("3b1e032b9e8daf2e77acc623880ecef6"
              "e36ba3e5149d7d512be64480c3d3f9d8")

    def test_fig10_digest_pinned(self):
        """The paper-headline workload reproduces to the bit: every RTT
        sample, the event count, the final clock and the Python calls
        each layer makes."""
        (env, samples), calls = repro_calls(fig10_sweep, 8)
        assert env.events_processed == 7584
        payload = repr((samples, env.events_processed, env.now))
        assert hashlib.sha256(payload.encode()).hexdigest() == self.DIGEST
        assert calls == {"sim": 16397, "net": 10672, "ltl": 6862,
                         "router": 5796, "fpga": 3262, "overload": 336,
                         "core": 253}

    def test_fig10_event_count_pinned(self):
        """60 round trips per pair make 56,152 events."""
        env, _samples = fig10_sweep(60)
        assert env.events_processed == 56152
