"""Tests for Resource."""

import pytest

from repro.sim import Environment, Interrupt, Resource


class TestResource:
    def test_capacity_enforced(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        active = []
        peak = []

        def user(env):
            with resource.request() as req:
                yield req
                active.append(1)
                peak.append(len(active))
                yield env.timeout(1.0)
                active.pop()

        for _ in range(5):
            env.process(user(env))
        env.run()
        assert max(peak) == 2

    def test_fifo_grant_order(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def user(env, tag):
            with resource.request() as req:
                yield req
                order.append(tag)
                yield env.timeout(1.0)

        for tag in "abc":
            env.process(user(env, tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_release_idempotent(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def user(env):
            req = resource.request()
            yield req
            req.release()
            req.release()  # second release is a no-op

        env.process(user(env))
        env.run()
        assert resource.count == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)

    def test_count_tracks_users(self):
        env = Environment()
        resource = Resource(env, capacity=3)

        def holder(env):
            req = resource.request()
            yield req
            yield env.timeout(10.0)

        env.process(holder(env))
        env.process(holder(env))
        env.run(until=1.0)
        assert resource.count == 2


def holder_with(resource, hold, log, tag):
    """Hold one slot for ``hold`` through the context manager."""
    env = resource.env
    try:
        with resource.request() as req:
            yield req
            log.append((tag, "granted", env.now))
            yield env.timeout(hold)
    finally:
        log.append((tag, "done", env.now))


def holder_try(resource, hold, log, tag):
    """Hold one slot for ``hold`` with an explicit try/finally release."""
    env = resource.env
    req = resource.request()
    try:
        yield req
        log.append((tag, "granted", env.now))
        yield env.timeout(hold)
    finally:
        resource.release(req)
        log.append((tag, "done", env.now))


HOLDERS = [holder_with, holder_try]


class TestResourceEdgeCases:
    def test_queued_release_leaves_queue_and_never_resumes(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []
        env.process(holder_try(resource, 1.0, log, "h"))
        requests = {}

        def waiter(tag):
            req = requests[tag] = resource.request()
            yield req
            log.append((tag, "granted", env.now))
            yield env.timeout(1.0)
            resource.release(req)

        for tag in "abc":
            env.process(waiter(tag))

        def canceller():
            yield env.timeout(0.5)
            assert len(resource.queue) == 3
            resource.release(requests["a"])
            assert list(resource.queue) == [requests["b"], requests["c"]]
            assert resource.count == 1

        env.process(canceller())
        env.run()
        cancelled = requests["a"]
        assert cancelled._defused and not cancelled.triggered
        assert ("a", "granted") not in [(t, k) for t, k, _ in log]
        assert [(t, when) for t, k, when in log if k == "granted"] == [
            ("h", 0.0), ("b", 1.0), ("c", 2.0)]
        assert resource.count == 0 and not resource.queue

    def test_granted_undispatched_release_hands_slot_on_same_instant(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []
        first = resource.request()
        second = resource.request()
        third = resource.request()
        env.process(holder_try(resource, 1.0, log, "late"))

        def releaser():
            yield env.timeout(1.0)
            resource.release(first)
            # ``second`` is granted, its waiters not yet run.
            assert second.triggered and not second.processed
            resource.release(second)
            assert third.triggered
            assert resource.count == 1 and len(resource.queue) == 1
            log.append(("third", "granted", env.now))
            yield env.timeout(0.5)
            resource.release(third)

        env.process(releaser())
        env.run()
        assert [(t, when) for t, k, when in log if k == "granted"] == [
            ("third", 1.0), ("late", 1.5)]
        assert resource.count == 0 and not resource.queue

    def test_count_and_queue_under_contention(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        log = []
        for i in range(5):
            env.process(holder_try(resource, 1.0, log, i))
        seen = []
        for until in (0.5, 1.5, 2.5, 3.5):
            env.run(until=until)
            seen.append((resource.count, len(resource.queue)))
        assert seen == [(2, 3), (2, 1), (1, 0), (0, 0)]
        assert [(t, when) for t, k, when in log if k == "granted"] == [
            (0, 0.0), (1, 0.0), (2, 1.0), (3, 1.0), (4, 2.0)]

    def test_queued_release_twice_is_noop(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []
        env.process(holder_try(resource, 1.0, log, "h"))
        env.run(until=0.5)
        queued = resource.request()
        env.process(holder_try(resource, 1.0, log, "next"))
        env.run(until=0.6)
        resource.release(queued)
        resource.release(queued)
        assert resource.count == 1 and len(resource.queue) == 1
        env.run()
        assert [(t, when) for t, k, when in log if k == "granted"] == [
            ("h", 0.0), ("next", 1.0)]
        assert resource.count == 0 and not resource.queue

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_interrupted_holder_releases(self, holder):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []

        def victim():
            try:
                yield from holder(resource, 10.0, log, "victim")
            except Interrupt:
                log.append(("victim", "interrupted", env.now))

        proc = env.process(victim())
        env.process(holder_try(resource, 1.0, log, "next"))

        def interrupter():
            yield env.timeout(1.0)
            proc.interrupt("stop")

        env.process(interrupter())
        env.run()
        assert ("victim", "interrupted", 1.0) in log
        assert ("next", "granted", 1.0) in log
        assert resource.count == 0 and not resource.queue

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_closed_holder_releases(self, holder):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []
        proc = env.process(holder(resource, 10.0, log, "victim"))
        env.process(holder_try(resource, 1.0, log, "next"))

        def closer():
            yield env.timeout(1.0)
            proc.generator.close()

        env.process(closer())
        env.run()
        assert ("victim", "done", 1.0) in log
        assert ("next", "granted", 1.0) in log
        assert resource.count == 0 and not resource.queue
