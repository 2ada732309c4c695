"""The Elastic Router's fast-forwarded clock is exact.

While a single uncontended stream crosses the router, the clock skips the
cycles that have no effect outside it and applies them in bulk.  These
tests run the same schedule twice — once as is, once with the planner
patched to tick every cycle (the reference) — and require identical
delivery and ``done`` times, trace taps, ``RouterStats``,
``env.events_processed`` and buffer occupancy, read after every
``run(until=)`` slice and at the end.  The router's conservation laws are
checked after every bulk application of silent cycles and after every
slice.
"""

from contextlib import contextmanager
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.router import ElasticRouter, MeshNetwork, RingNetwork
from repro.sim import Environment

CYCLE = 1.0 / 175e6


def edge_grid(count):
    """Clock edge instants of a router booted at t = 0, by the same
    repeated addition the clock uses."""
    grid = [0.0]
    for _ in range(count):
        grid.append(grid[-1] + CYCLE)
    return grid


GRID = edge_grid(400)


class FakeTrace:
    """Records the taps a message's trace context receives."""

    def __init__(self, log, label):
        self.log = log
        self.label = label

    def tap(self, stage, now):
        self.log.append((self.label, str(stage), now))

    def abandon(self, now):
        self.log.append((self.label, "abandon", now))


@contextmanager
def per_cycle_clock():
    """Force the reference: the planner never finds silent cycles."""
    with mock.patch.object(ElasticRouter, "_plan",
                           lambda self: (-1, 0)):
        yield


@contextmanager
def conservation_checked(counter):
    """Check the conservation laws after every bulk application."""
    original = ElasticRouter._apply_silent

    def checked(self, cycles):
        original(self, cycles)
        if cycles:
            counter.append(cycles)
        assert self.conservation_violations() == []

    with mock.patch.object(ElasticRouter, "_apply_silent", checked):
        yield


def snapshot(env, routers):
    state = {"now": env.now, "events": env.events_processed}
    for router in routers:
        assert router.conservation_violations() == []
        state[router.name] = (
            asdict(router.stats),
            [router.buffer_occupancy(p) for p in range(router.num_ports)])
    return state


def run_schedule(spec, fast):
    """Run one schedule; return everything observable about it."""
    applied = []
    with conservation_checked(applied):
        if fast:
            result = _run(spec)
        else:
            with per_cycle_clock():
                result = _run(spec)
    return result, applied


def _run(spec):
    env = Environment()
    log = []
    if spec["topology"] == "single":
        router = ElasticRouter(
            env, num_ports=spec["ports"], num_vcs=spec["vcs"],
            flit_bytes=spec["flit_bytes"],
            credit_policy=spec["policy"],
            credits_per_port=spec["credits"])
        routers = [router]

        def endpoint(port):
            def deliver(message):
                log.append(("deliver", port, message.payload, env.now))
                reply = message.payload[1]
                if reply:
                    # A send from inside the delivering clock edge.
                    _send_one(env, router, log, reply)
            return deliver

        for port in range(spec["ports"]):
            router.set_endpoint(port, endpoint(port))
        send = lambda item: _send_one(env, router, log, item)  # noqa: E731
    else:
        if spec["topology"] == "ring":
            net = RingNetwork(env, spec["routers"], num_vcs=spec["vcs"],
                              credits_per_port=spec["credits"],
                              flit_bytes=spec["flit_bytes"])
        else:
            net = MeshNetwork(env, 2, 2, num_vcs=spec["vcs"],
                              credits_per_port=spec["credits"],
                              flit_bytes=spec["flit_bytes"])
        routers = net.routers
        for idx in range(len(routers)):
            net.set_local_handler(
                idx, lambda i, payload: log.append(
                    ("deliver", i, payload, env.now)))

        def send(item):
            done = net.send(item["src"] % len(routers),
                            item["dst"] % len(routers), item["label"],
                            item["length"], vc=item["vc"] % spec["vcs"])
            done.callbacks.append(
                lambda _e: log.append(("done", item["label"], env.now)))

    for item in spec["sends"]:
        when = GRID[item["slot"]]
        if item["off_grid"]:
            when += CYCLE / 3
        if when == 0.0 and not item["off_grid"]:
            send(item)
        else:
            env.call_at(when, send, item)
    states = []
    for stop in spec["stops"]:
        until = GRID[stop[0]] + (CYCLE / 2 if stop[1] else 0.0)
        if until < env.now:
            continue
        env.run(until=until)
        states.append(snapshot(env, routers))
    env.run()
    states.append(snapshot(env, routers))
    return log, states


def _send_one(env, router, log, item):
    ports = router.num_ports
    src, dst = item["src"] % ports, item["dst"] % ports
    trace = FakeTrace(log, item["label"]) if item["traced"] else None
    deadline = None
    if item["deadline"] is not None:
        deadline = env.now + item["deadline"] * CYCLE
    done = router.send(src, dst, (item["label"], item.get("reply")),
                       item["length"], vc=item["vc"] % router.num_vcs,
                       deadline=deadline, trace=trace)
    done.callbacks.append(
        lambda _e: log.append(("done", item["label"], env.now)))


def send_items(max_size):
    item = st.fixed_dictionaries({
        "slot": st.integers(0, 120),
        "off_grid": st.booleans(),
        "src": st.integers(0, 4),
        "dst": st.integers(0, 4),
        "vc": st.integers(0, 2),
        "length": st.integers(1, 400),
        "traced": st.booleans(),
        "deadline": st.none() | st.integers(0, 120),
    })
    reply = st.none() | st.fixed_dictionaries({
        "src": st.integers(0, 4),
        "dst": st.integers(0, 4),
        "vc": st.integers(0, 2),
        "length": st.integers(1, 200),
        "traced": st.booleans(),
        "deadline": st.none() | st.integers(0, 60),
    })
    return st.lists(st.tuples(item, reply), min_size=1, max_size=max_size)


@st.composite
def schedules(draw):
    topology = draw(st.sampled_from(["single", "single", "ring", "mesh"]))
    vcs = draw(st.integers(1, 3))
    spec = {
        "topology": topology,
        "ports": draw(st.integers(1, 5)),
        "routers": draw(st.integers(2, 4)),
        "vcs": vcs,
        "flit_bytes": draw(st.sampled_from([8, 32])),
        "policy": draw(st.sampled_from(["static", "elastic"])),
        "credits": draw(st.integers(max(vcs, 2), 12)),
        "stops": sorted(draw(st.lists(
            st.tuples(st.integers(0, 200), st.booleans()), max_size=4))),
    }
    sends = []
    for n, (item, reply) in enumerate(draw(send_items(10))):
        item = dict(item, label=f"m{n}")
        if reply is not None:
            item["reply"] = dict(reply, label=f"r{n}", reply=None)
        else:
            item["reply"] = None
        sends.append(item)
    spec["sends"] = sends
    return spec


@given(spec=schedules())
@settings(max_examples=150, deadline=None)
def test_fast_forward_matches_per_cycle_clock(spec):
    fast, _ = run_schedule(spec, fast=True)
    reference, _ = run_schedule(spec, fast=False)
    assert fast == reference


# ----------------------------------------------------------------------
# Hand-placed interrupts: a send at every edge of a stream's window.
# ----------------------------------------------------------------------
def _stream_with_interrupt(slot, src, dst=1):
    """A 12-flit stream from port 0 to port 1 on VC 0 at t = 0, and a
    message on VC 1 sent from ``src`` to ``dst`` at edge ``slot`` by a
    NORMAL event (``dst`` 1: it contends for the stream's output)."""
    return {
        "topology": "single", "ports": 4, "vcs": 2, "flit_bytes": 32,
        "policy": "elastic", "credits": 8, "stops": [],
        "sends": [
            {"slot": 0, "off_grid": False, "src": 0, "dst": 1, "vc": 0,
             "length": 12 * 32, "traced": False, "deadline": None,
             "reply": None, "label": "stream"},
            {"slot": slot, "off_grid": False, "src": src, "dst": dst,
             "vc": 1, "length": 64, "traced": False, "deadline": None,
             "reply": None, "label": "interrupt"},
        ],
    }


@pytest.mark.parametrize("slot", range(1, 15))
@pytest.mark.parametrize("src,dst", [(0, 1), (3, 1), (3, 2)])
def test_send_at_each_edge_of_the_window(slot, src, dst):
    """Slot 12 is the planned wake (the tail's edge); the others are
    virtual edges before it or edges after the stream ended."""
    spec = _stream_with_interrupt(slot, src, dst)
    fast, applied = run_schedule(spec, fast=True)
    reference, _ = run_schedule(spec, fast=False)
    assert fast == reference
    if slot > 1 or dst != 1 or src == 0:
        # (Interrupted before its first silent edge and then contended,
        # the stream keeps a flit buffered to its end: no silent cycle.)
        assert applied, "the stream was never fast-forwarded"


@pytest.mark.parametrize("stop", range(0, 14))
@pytest.mark.parametrize("half", [False, True])
def test_reads_after_mid_stream_slices(stop, half):
    spec = _stream_with_interrupt(40, 3)
    spec["stops"] = [(stop, half), (stop + 3, not half)]
    fast, _ = run_schedule(spec, fast=True)
    reference, _ = run_schedule(spec, fast=False)
    assert fast == reference


@pytest.mark.parametrize("stop", range(0, 14))
def test_ring_cross_router_sends_at_the_same_instant(stop):
    """Every ring router boots at t = 0, so their edges coincide and a
    delivery at one router's edge sends into its neighbour mid-instant."""
    spec = {
        "topology": "ring", "routers": 4, "vcs": 2, "flit_bytes": 32,
        "credits": 8, "stops": [(stop, False)],
        "sends": [
            {"slot": s, "off_grid": False, "src": src, "dst": dst,
             "vc": 0, "length": length, "label": f"m{i}"}
            for i, (s, src, dst, length) in enumerate([
                (0, 0, 2, 320), (0, 3, 1, 96), (5, 1, 3, 200),
                (9, 2, 2, 40), (11, 2, 0, 500)])],
    }
    fast, applied = run_schedule(spec, fast=True)
    reference, _ = run_schedule(spec, fast=False)
    assert fast == reference
    assert applied


def test_single_stream_takes_one_kernel_event_per_message():
    env = Environment()
    router = ElasticRouter(env, num_ports=4, flit_bytes=32)
    router.set_endpoint(1, lambda m: None)
    ticks = []
    original = ElasticRouter._tick

    def counting(self):
        ticks.append(self.env.now)
        original(self)

    env.run()  # boot and park the idle clock
    with mock.patch.object(ElasticRouter, "_tick", counting):
        router.inject(0, 1, "x", 1400)  # 44 flits
        env.run()
    assert len(ticks) == 1
    assert router.stats.cycles == 44
    assert router.stats.flits_switched == 44
    assert router.conservation_violations() == []


def test_traced_head_gets_its_own_edge():
    env = Environment()
    router = ElasticRouter(env, num_ports=2, flit_bytes=32)
    router.set_endpoint(1, lambda m: None)
    log = []
    router.send(0, 1, "x", 320, trace=FakeTrace(log, "m"))
    env.run()
    grid = edge_grid(10)
    assert [(stage, t) for _, stage, t in log] == [
        ("er.ingress", grid[1]), ("er.switch", grid[10])]


class TestConservation:
    def test_holds_under_contention(self):
        env = Environment()
        router = ElasticRouter(env, num_ports=3, num_vcs=2,
                               credits_per_port=4)
        for port in range(3):
            router.set_endpoint(port, lambda m: None)
        for i in range(6):
            router.inject(i % 3, (i + 1) % 3, i, 100 + 40 * i, vc=i % 2)
        while env.peek() != float("inf"):
            env.run(until=env.now + CYCLE * 2.5)
            assert router.conservation_violations() == []
        assert router.stats.flits_injected == router.stats.flits_switched

    def test_reports_a_leaked_credit(self):
        env = Environment()
        router = ElasticRouter(env, num_ports=2)
        router._credits[1].try_acquire(0)
        assert router.conservation_violations() == [
            "er port 1 vc 0: 1 credits in use, 0 flits buffered"]

    def test_reports_a_lost_flit(self):
        env = Environment()
        router = ElasticRouter(env, num_ports=2)
        router.inject(0, 1, "x", 64)
        # The pending run holds both flits; lose one of them.
        router._pending[0][0].count -= 1
        broken = router.conservation_violations()
        assert any("2 flits injected" in line for line in broken)
