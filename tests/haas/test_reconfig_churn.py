"""Lease churn during a reconfiguration.

A lease released while its owner's partial reconfiguration is still
running, and the host granted to a new owner at once: the new owner's
``configure`` waits for the old swap to finish, checks its fence again
and then runs (it used to raise "reconfiguration already in progress").
"""

from repro.core import ConfigurableCloud
from repro.fpga import Image, ShellConfig
from repro.fpga.reconfig import PARTIAL_RECONFIG_SECONDS
from repro.haas import Constraints
from repro.haas.fpga_manager import FpgaManager

OLD = Image("rank-v1", "ranking")
NEW = Image("rank-v2", "ranking")


def make_host():
    cloud = ConfigurableCloud(seed=0)
    server = cloud.add_server(0, enroll=False,
                              shell_config=ShellConfig(with_ltl=False))
    fm = FpgaManager(cloud.env, server.shell)
    cloud.resource_manager.register(fm)
    return cloud, fm


def configure(cloud, fm, image, lease, finished):
    def run():
        yield from fm.configure(image, fence=lease.fence)
        finished.append((image.name, cloud.env.now))
    cloud.env.process(run())


def test_new_owner_waits_for_superseded_reconfiguration():
    cloud, fm = make_host()
    rm = cloud.resource_manager
    finished = []
    lease = rm.acquire("a", Constraints(count=1))
    configure(cloud, fm, OLD, lease, finished)
    cloud.env.run(until=0.1)
    rm.release(lease)
    lease = rm.acquire("b", Constraints(count=1))
    configure(cloud, fm, NEW, lease, finished)
    cloud.env.run(until=1.0)
    assert finished == [("rank-v1", PARTIAL_RECONFIG_SECONDS),
                        ("rank-v2", 2 * PARTIAL_RECONFIG_SECONDS)]
    assert fm.configurations == 2
    assert fm.fence_rejections == 0
    assert fm.shell.configuration.live_image == NEW
    assert not fm.shell.configuration.reconfiguring


def test_fence_rechecked_after_the_wait():
    """An owner whose lease is superseded while it waits is rejected;
    the newest owner's image is the one deployed."""
    cloud, fm = make_host()
    rm = cloud.resource_manager
    finished = []
    lease = rm.acquire("a", Constraints(count=1))
    configure(cloud, fm, OLD, lease, finished)
    cloud.env.run(until=0.1)
    rm.release(lease)
    stale = rm.acquire("b", Constraints(count=1))
    configure(cloud, fm, OLD, stale, finished)
    cloud.env.run(until=0.2)
    rm.release(stale)
    lease = rm.acquire("c", Constraints(count=1))
    configure(cloud, fm, NEW, lease, finished)
    cloud.env.run(until=1.0)
    assert fm.fence_rejections == 1
    assert [name for name, _ in finished] == ["rank-v1", "rank-v1",
                                              "rank-v2"]
    assert fm.configurations == 2
    assert fm.shell.configuration.live_image == NEW
