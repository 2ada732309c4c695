"""Determinism guarantees of the calendar-queue scheduler.

The kernel orders every entry by ``(time, priority, seq)`` no matter
which layer (head slot, calendar bucket, overflow heap) it lands in.
These tests pin the observable contract: same-instant FIFO, URGENT
before NORMAL, ``call_at``/``call_later`` interleaving, and — the
integration-level check — a bit-identical Fig. 10 digest whether the
calendar queue or the pure-heapq fallback runs the simulation.
"""

import hashlib

from repro.core.cloud import ConfigurableCloud
from repro.experiments.fig10 import DEFAULT_TIER_PAIRS
from repro.sim import Environment
from repro.sim.events import NORMAL, URGENT, Event


class TestSameInstantFifo:
    def test_call_later_same_instant_fifo(self):
        env = Environment()
        order = []
        for i in range(50):
            env.call_later(1e-6, order.append, i)
        env.run()
        assert order == list(range(50))

    def test_fifo_across_layers(self):
        """FIFO holds even when same-instant entries straddle the head
        slot, a calendar bucket and the overflow heap."""
        env = Environment(bucket_width=4e-6, horizon=512e-6)
        order = []
        when = 1e-3  # beyond the horizon: first entries overflow
        for i in range(10):
            env.call_at(when, order.append, i)
        # Drag *now* forward so the same instant is now bucketable and
        # later entries take the calendar/head path instead.
        env.call_later(when / 2, lambda: None)
        for i in range(10, 20):
            env.call_at(when, order.append, i)
        env.run()
        assert order == list(range(20))

    def test_fifo_under_heapq_fallback(self):
        env = Environment(scheduler="heapq")
        order = []
        for i in range(50):
            env.call_later(1e-6, order.append, i)
        env.run()
        assert order == list(range(50))


class TestPriorities:
    def _run_with_priorities(self, **env_kwargs):
        env = Environment(**env_kwargs)
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
        return order

    def test_urgent_before_normal_same_instant(self):
        assert self._run_with_priorities() == [
            "urgent-0", "urgent-1", "normal-0", "normal-1"]

    def test_urgent_before_normal_heapq(self):
        assert self._run_with_priorities(scheduler="heapq") == [
            "urgent-0", "urgent-1", "normal-0", "normal-1"]


class TestCallAtCallLaterInterleaving:
    def _interleave(self, **env_kwargs):
        env = Environment(**env_kwargs)
        order = []
        # Mixed absolute/relative scheduling landing on shared instants,
        # inserted out of time order, spanning bucket and overflow ranges.
        env.call_at(3e-6, order.append, "at-3us")
        env.call_later(1e-6, order.append, "later-1us")
        env.call_at(1e-6, order.append, "at-1us")       # ties later-1us
        env.call_later(3e-6, order.append, "later-3us")  # ties at-3us
        env.call_at(2e-3, order.append, "at-2ms")        # overflow range
        env.call_later(0.0, order.append, "later-0")
        env.call_later(2e-3, order.append, "later-2ms")  # ties at-2ms
        env.run()
        return order

    def test_interleaved_global_order(self):
        expected = ["later-0", "later-1us", "at-1us", "at-3us",
                    "later-3us", "at-2ms", "later-2ms"]
        assert self._interleave() == expected
        assert self._interleave(scheduler="heapq") == expected

    def test_calendar_matches_heapq_on_dense_schedule(self):
        def run(scheduler):
            env = Environment(scheduler=scheduler)
            order = []
            # Deterministic pseudo-random delays via integer hashing —
            # dense ties plus a spread wider than the calendar horizon.
            for i in range(400):
                delay = ((i * 2654435761) % 1024) * 1e-6
                env.call_later(delay, order.append, (i, round(delay, 9)))
            env.run()
            return order

        assert run("calendar") == run("heapq")


class TestClockEdges:
    """Clock edges order by clock priority, not by when they were
    pushed: after every URGENT/NORMAL event at their instant, in clock
    creation order, and before a bounded run's stop sentinel."""

    def test_edges_after_normal_in_creation_order(self):
        for scheduler in ("calendar", "heapq"):
            env = Environment(scheduler=scheduler)
            first, second = env.new_clock_priority(), \
                env.new_clock_priority()
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


class TestFig10Digest:
    @staticmethod
    def _digest(scheduler):
        env = Environment(scheduler=scheduler)
        cloud = ConfigurableCloud(env=env, seed=10)
        samples = []
        for _tier, (_reach, pairs) in DEFAULT_TIER_PAIRS.items():
            for src, dst in pairs:
                for host in (src, dst):
                    if host not in cloud.servers:
                        cloud.add_server(host, enroll=False)
                samples.extend(
                    cloud.measure_ltl_rtt(src, dst, messages=8))
        payload = repr((samples, env.events_processed, env.now))
        return hashlib.sha256(payload.encode()).hexdigest()

    def test_fig10_bit_identical_calendar_vs_heapq(self):
        """The paper-headline workload must not care which scheduler
        backend ran it: every RTT sample, the event count and the final
        clock must agree to the bit."""
        assert self._digest("calendar") == self._digest("heapq")
