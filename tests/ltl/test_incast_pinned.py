"""Pinned outputs of an LTL incast on the lossless class.

The perfbench ``ltl_incast`` shape, scaled down: the eight hosts that
share host 0's rack each send 25 LTL messages of 1,400 B to it at once,
on the lossless traffic class with PFC watermarks of 8 KiB and 4 KiB.
The TOR pauses the senders, full LTL windows time out and retransmit,
and every message must still arrive exactly once and in order.  The
event count, the pause and retransmit counts and each layer's Python
calls are pinned.
"""

from repro.core.cloud import ConfigurableCloud
from repro.fpga.shell import ShellConfig
from repro.net import PfcConfig, TopologyConfig, TrafficClass
from tests.layer_calls import repro_calls

SENDERS = range(1, 9)
MESSAGES = 25


def incast():
    topology = TopologyConfig(pfc=PfcConfig(xoff_bytes=8 * 1024,
                                            xon_bytes=4 * 1024))
    cloud = ConfigurableCloud(topology=topology, seed=1)
    config = ShellConfig(ltl_traffic_class=TrafficClass.LOSSLESS)
    receiver = cloud.add_server(0, enroll=False, shell_config=config)
    senders = [cloud.add_server(h, enroll=False, shell_config=config)
               for h in SENDERS]
    deliveries = []
    receiver.shell.role_receive = \
        lambda payload, _n: deliveries.append(payload)
    for sender in senders:
        sender.shell.connect_to(receiver.shell)
        for seq in range(MESSAGES):
            sender.shell.remote_send(0, (sender.host_index, seq), 1400)
    cloud.env.run(until=0.1)
    return cloud, deliveries


def test_incast_pinned():
    (cloud, deliveries), calls = repro_calls(incast)
    assert sorted(deliveries) == [(h, seq) for h in SENDERS
                                  for seq in range(MESSAGES)]
    for host in SENDERS:
        assert [seq for h, seq in deliveries if h == host] == \
            list(range(MESSAGES))
    tor = cloud.fabric.topology.tor(0, 0)
    assert tor.stats.pfc_pause_sent == 9
    assert tor.stats.lossless_overflow == 0
    assert sum(server.shell.ltl.stats.retransmissions
               for server in cloud.servers.values()) == 4
    assert cloud.env.events_processed == 25121
    assert calls == {"sim": 18978, "net": 10943, "ltl": 9969,
                     "router": 9599, "fpga": 5560, "overload": 600,
                     "core": 19}
