"""Fabric facade: attach endpoints, build packets, let them fly.

:class:`DatacenterFabric` is the public entry point to the network
substrate.  A host (in this library: the TOR-facing MAC of a bump-in-the-
wire FPGA, or a plain NIC in software-only experiments) calls
:meth:`attach` with a delivery callback and receives an
:class:`Attachment`, whose :meth:`Attachment.send` puts packets onto the
host's uplink into its TOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..sim import Environment, RandomStreams
from .links import Port
from .packet import Packet, TrafficClass, make_udp_packet
from .topology import ThreeTierTopology, TopologyConfig


@dataclass
class Attachment:
    """A host's connection point to the fabric."""

    host_index: int
    ip: str
    mac: str
    uplink: Port
    fabric: "DatacenterFabric"

    def send(self, packet: Packet) -> bool:
        """Transmit ``packet`` toward the TOR; False if tail-dropped."""
        packet.created_at = self.fabric.env.now
        return self.uplink.enqueue(packet)

    def make_packet(self, dst_index: int, payload, payload_bytes: int = -1,
                    src_port: int = 0, dst_port: int = 0,
                    traffic_class: int = TrafficClass.BEST_EFFORT) -> Packet:
        """Build a UDP packet from this host to ``dst_index``."""
        fabric = self.fabric
        return make_udp_packet(
            src_index=self.host_index, dst_index=dst_index,
            src_ip=self.ip, dst_ip=fabric.topology.ip_of(dst_index),
            src_mac=self.mac, dst_mac=fabric.topology.mac_of(dst_index),
            src_port=src_port, dst_port=dst_port,
            payload=payload, payload_bytes=payload_bytes,
            traffic_class=traffic_class)


class DatacenterFabric:
    """The shared datacenter Ethernet the Configurable Cloud rides on."""

    def __init__(self, env: Environment,
                 config: Optional[TopologyConfig] = None,
                 streams: Optional[RandomStreams] = None):
        self.env = env
        self.streams = streams or RandomStreams(seed=0)
        self.topology = ThreeTierTopology(env, config, self.streams)
        self._attachments: Dict[int, Attachment] = {}
        self._handlers: Dict[int, Callable[[Packet], None]] = {}
        #: Delivery taps per host: each gets the packet and returns it
        #: (possibly replaced) to pass on, or ``None`` to swallow it.
        self._taps: Dict[int, List[Callable[[Packet], Optional[Packet]]]] = {}
        #: Detached hosts kept warm for :meth:`reattach`.
        self._detached: Dict[int, Tuple[
            Attachment, Callable[[Packet], None], Port]] = {}

    @property
    def config(self) -> TopologyConfig:
        return self.topology.config

    def attach(self, host_index: int,
               deliver: Callable[[Packet], None]) -> Attachment:
        """Connect a host; ``deliver`` receives packets addressed to it."""
        if host_index in self._attachments:
            raise ValueError(f"host {host_index} already attached")
        topo = self.topology
        coords = topo.coords(host_index)
        tor = topo.tor(coords.pod, coords.tor)
        lat = self.config.latency

        # Host -> TOR direction.
        uplink = Port(self.env, f"host-{host_index}->tor",
                      rate_bps=lat.host_rate_bps,
                      distance_m=lat.host_tor_distance_m,
                      deliver=tor.receive)
        # TOR -> host direction (through the fault-injection taps).
        downlink = Port(self.env, f"tor->host-{host_index}",
                        rate_bps=lat.host_rate_bps,
                        distance_m=lat.host_tor_distance_m,
                        deliver=lambda pkt, h=host_index:
                        self._dispatch(h, pkt))
        tor.add_port(host_index, downlink)
        tor.register_upstream(f"host-{host_index}", uplink)

        attachment = Attachment(
            host_index=host_index, ip=topo.ip_of(host_index),
            mac=topo.mac_of(host_index), uplink=uplink, fabric=self)
        self._attachments[host_index] = attachment
        self._handlers[host_index] = deliver
        return attachment

    def detach(self, host_index: int) -> None:
        """Remove a host (its TOR port stops delivering).

        The attachment is stashed so :meth:`reattach` can bring the host
        back — modeling transient link loss as well as permanent death.
        """
        attachment = self._attachments.pop(host_index, None)
        if attachment is None:
            raise KeyError(f"host {host_index} not attached")
        handler = self._handlers.pop(host_index, None)
        coords = self.topology.coords(host_index)
        tor = self.topology.tor(coords.pod, coords.tor)
        port = tor.remove_port(host_index)
        if port is not None:
            port.deliver = None
        if handler is not None and port is not None:
            self._detached[host_index] = (attachment, handler, port)

    def reattach(self, host_index: int) -> Attachment:
        """Restore a previously detached host on its original TOR port."""
        if host_index in self._attachments:
            raise ValueError(f"host {host_index} already attached")
        try:
            attachment, handler, port = self._detached.pop(host_index)
        except KeyError:
            raise KeyError(
                f"host {host_index} was never attached; cannot reattach")
        coords = self.topology.coords(host_index)
        tor = self.topology.tor(coords.pod, coords.tor)
        port.deliver = lambda pkt, h=host_index: self._dispatch(h, pkt)
        tor.add_port(host_index, port)
        self._attachments[host_index] = attachment
        self._handlers[host_index] = handler
        return attachment

    # ------------------------------------------------------------------
    # Delivery taps (fault injection at the TOR->host hop)
    # ------------------------------------------------------------------
    def _dispatch(self, host_index: int, packet: Packet) -> None:
        for tap in list(self._taps.get(host_index, ())):
            result = tap(packet)
            if result is None:
                return
            packet = result
        handler = self._handlers.get(host_index)
        if handler is not None:
            handler(packet)

    def install_tap(self, host_index: int,
                    tap: Callable[[Packet], Optional[Packet]]) -> None:
        """Interpose ``tap`` on deliveries to ``host_index``."""
        self._taps.setdefault(host_index, []).append(tap)

    def remove_tap(self, host_index: int,
                   tap: Callable[[Packet], Optional[Packet]]) -> None:
        taps = self._taps.get(host_index, [])
        if tap in taps:
            taps.remove(tap)
        if not taps:
            self._taps.pop(host_index, None)

    def inject_delivery(self, host_index: int, packet: Packet) -> None:
        """Deliver ``packet`` to the host directly, bypassing the taps —
        used by taps that re-inject delayed (gray) traffic."""
        handler = self._handlers.get(host_index)
        if handler is not None:
            handler(packet)

    def attachment(self, host_index: int) -> Attachment:
        return self._attachments[host_index]

    def is_attached(self, host_index: int) -> bool:
        return host_index in self._attachments
