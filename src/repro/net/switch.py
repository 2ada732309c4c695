"""Output-queued datacenter switch with lossless-class support.

The switch models what the paper's fabric relies on:

* per-traffic-class output queues with strict-priority draining (in
  :class:`~repro.net.links.Port`),
* ECN marking with a DC-QCN-style probability ramp between ``kmin`` and
  ``kmax`` queue depths,
* Priority Flow Control: when a lossless-class queue exceeds ``xoff`` the
  switch pauses that class on its upstream neighbors, resuming below
  ``xon``,
* a per-traversal forwarding latency plus stochastic background-traffic
  jitter supplied by :class:`~repro.net.latency.BackgroundTrafficModel`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..sim import Environment
from ..trace.stages import SWITCH_STAGE_BY_TIER, Stage
from .latency import BackgroundTrafficModel, JitterStream
from .links import Port
from .packet import Packet, TrafficClass

# Hoisted Stage member for the per-packet ingress tap.
_STAGE_LINK_WIRE = Stage.LINK_WIRE
_LOSSLESS = TrafficClass.LOSSLESS


@dataclass
class EcnConfig:
    """DC-QCN ECN marking thresholds on output queues (bytes)."""

    kmin_bytes: int = 5 * 1024
    kmax_bytes: int = 200 * 1024
    pmax: float = 0.01

    def mark_probability(self, queue_bytes: int) -> float:
        """Marking probability for a queue currently ``queue_bytes`` deep."""
        if queue_bytes <= self.kmin_bytes:
            return 0.0
        if queue_bytes >= self.kmax_bytes:
            return 1.0
        span = self.kmax_bytes - self.kmin_bytes
        return self.pmax * (queue_bytes - self.kmin_bytes) / span


@dataclass
class PfcConfig:
    """PFC pause/resume watermarks on lossless output queues (bytes)."""

    xoff_bytes: int = 96 * 1024
    xon_bytes: int = 48 * 1024

    def __post_init__(self) -> None:
        if self.xon_bytes >= self.xoff_bytes:
            raise ValueError("xon watermark must be below xoff")


class SwitchStats:
    """Aggregate counters for one switch."""

    def __init__(self) -> None:
        self.received = 0
        self.forwarded = 0
        self.routing_failures = 0
        self.ecn_marked = 0
        self.pfc_pause_sent = 0
        self.pfc_resume_sent = 0
        self.lossless_overflow = 0
        #: Packets the output port refused at forward time (tail drop).
        self.dropped = 0


class Switch:
    """A single switch in the TOR/L1/L2 hierarchy.

    Ports are registered under hashable keys (e.g. a host index or the
    string ``"uplink"``).  Routing is a callable, installed by the topology
    builder, mapping a packet to an output-port key; it must depend on the
    packet's destination MAC alone, because the switch caches its answer
    per destination.  Upstream transmit ports register for PFC so the
    switch can push back on senders of lossless traffic.
    """

    def __init__(self, env: Environment, name: str, tier: str,
                 forwarding_latency: float, rng: random.Random,
                 background: Optional[BackgroundTrafficModel] = None,
                 ecn: Optional[EcnConfig] = None,
                 pfc: Optional[PfcConfig] = None):
        self.env = env
        self.name = name
        self.tier = tier
        self.forwarding_latency = forwarding_latency
        self.background = background
        # Required: every switch must be given its own derived child
        # stream (``RandomStreams.stream(f"switch:{name}")``).  The old
        # ``rng or random.Random(0)`` fallback silently gave distinct
        # switches an identical seed-0 stream, correlating jitter that
        # must be independent.
        self.rng = rng
        self.ecn = ecn or EcnConfig()
        self.pfc = pfc or PfcConfig()
        self.stats = SwitchStats()
        #: Trace stage this tier's traversal is attributed to (resolved
        #: once here, not per packet); ``None`` for unknown tiers.
        self._trace_stage = SWITCH_STAGE_BY_TIER.get(str(tier).lower())
        #: Buffered jitter sampler (created on first packet so that
        #: unknown tiers still fail at forward time, as before).
        self._jitter: Optional[JitterStream] = None
        self.ports: Dict[object, Port] = {}
        self._router: Optional[Callable[["Switch", Packet], object]] = None
        #: Destination MAC -> (port key, port) as resolved by the router;
        #: cleared whenever ``ports`` or the router changes.  A routing
        #: failure is never cached.
        self._routes: Dict[str, Tuple[object, Port]] = {}
        #: Upstream transmit ports to pause/resume, keyed by neighbor name.
        self._upstream: Dict[str, Port] = {}
        #: (port_key, tc) pairs currently holding upstreams paused, and
        #: how many there are: with none, a dequeue cannot resume anything.
        self._pausing: Dict[Tuple[object, int], bool] = {}
        self._pausing_count = 0

    # ------------------------------------------------------------------
    # Wiring (used by the topology builder)
    # ------------------------------------------------------------------
    def add_port(self, key: object, port: Port) -> None:
        if key in self.ports:
            raise ValueError(f"duplicate port key {key!r} on {self.name}")
        self.ports[key] = port
        port.on_transmit = partial(self._after_transmit, key, port)
        self._routes.clear()

    def remove_port(self, key: object) -> Optional[Port]:
        """Unregister and return the port under ``key`` (None if absent)."""
        self._routes.clear()
        return self.ports.pop(key, None)

    def set_router(self, router: Callable[["Switch", Packet], object]) -> None:
        self._router = router
        self._routes.clear()

    def register_upstream(self, neighbor_name: str, tx_port: Port) -> None:
        """Register a neighbor's transmit port for PFC pushback."""
        self._upstream[neighbor_name] = tx_port

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Accept a packet from a link; forwarding happens asynchronously."""
        self.stats.received += 1
        packet.hops += 1
        trace = packet.trace
        if trace is not None:
            # The interval since the previous mark is the upstream link:
            # serialization + propagation + port queueing.  Wire time is
            # attributed at the receiver because the sender's port drains
            # asynchronously (see repro.net.links).
            trace.tap(_STAGE_LINK_WIRE, self.env.now)
        delay = self.forwarding_latency
        if self.background is not None:
            jitter = self._jitter
            if jitter is None:
                jitter = self._jitter = self.background.batched(
                    self.tier, self.rng)
            delay += jitter.take()
        self.env.call_later(delay, self._forward, packet)

    def _forward(self, packet: Packet) -> None:
        trace = packet.trace
        if trace is not None and self._trace_stage is not None:
            # Forwarding latency + background-traffic jitter for this tier.
            trace.tap(self._trace_stage, self.env.now)
        dst = packet.eth.dst_mac
        route = self._routes.get(dst)
        if route is None:
            if self._router is None:
                self.stats.routing_failures += 1
                return
            key = self._router(self, packet)
            port = self.ports.get(key)
            if port is None:
                self.stats.routing_failures += 1
                return
            route = self._routes[dst] = (key, port)
        key, port = route
        tc = packet.eth.priority
        # ECN and PFC are consulted only past their thresholds: at or
        # below ``kmin`` the marking probability is 0 (and no random draw
        # is made), and below ``xoff`` with nothing paused PFC has nothing
        # to do.  Thresholds are read per packet; the configs are mutable.
        queued = port._queued_bytes[tc]
        if packet.ip is not None and queued > self.ecn.kmin_bytes:
            self._mark_ecn(packet, queued)
        if port.enqueue(packet):
            self.stats.forwarded += 1
        else:
            self.stats.dropped += 1
            if tc == _LOSSLESS:
                self.stats.lossless_overflow += 1
        if self._pausing_count or \
                port._queued_bytes[_LOSSLESS] > self.pfc.xoff_bytes:
            self._update_pfc(key, port)

    def _mark_ecn(self, packet: Packet, queue_bytes: int) -> None:
        prob = self.ecn.mark_probability(queue_bytes)
        if prob > 0 and self.rng.random() < prob:
            packet.ecn_marked = True
            packet.ip.ecn = 0b11  # Congestion Experienced
            self.stats.ecn_marked += 1

    def conservation_violations(self) -> List[str]:
        """Check ``received == forwarded + routing_failures + dropped +
        in forwarding``; return a description if it is broken.

        "In forwarding" counts packets between ingress and their
        scheduled forward (zero at quiescence), read from the schedule.
        """
        s = self.stats
        pending = self.env.scheduled_calls(self._forward)
        out = s.forwarded + s.routing_failures + s.dropped + pending
        if s.received == out:
            return []
        return [f"{self.name}: {s.received} received != {s.forwarded} "
                f"forwarded + {s.routing_failures} routing failures + "
                f"{s.dropped} dropped + {pending} in forwarding"]

    # ------------------------------------------------------------------
    # PFC
    # ------------------------------------------------------------------
    def _update_pfc(self, key: object, port: Port) -> None:
        tc = _LOSSLESS
        occupancy = port.queued_bytes(tc)
        paused = self._pausing.get((key, tc), False)
        if not paused and occupancy > self.pfc.xoff_bytes:
            self._pausing[(key, tc)] = True
            self._pausing_count += 1
            self.stats.pfc_pause_sent += 1
            for upstream in self._upstream.values():
                upstream.pause(tc)
        elif paused and occupancy < self.pfc.xon_bytes:
            self._pausing[(key, tc)] = False
            self._pausing_count -= 1
            self.stats.pfc_resume_sent += 1
            if not self._pausing_count:
                for upstream in self._upstream.values():
                    upstream.resume(tc)

    def _after_transmit(self, key: object, port: Port,
                        _packet: Packet) -> None:
        # With nothing pausing, a dequeue has nothing to resume and cannot
        # cross ``xoff``: occupancy only grows at enqueue, which checks it.
        if self._pausing_count:
            self._update_pfc(key, port)

    def __repr__(self) -> str:
        return f"<Switch {self.name} tier={self.tier}>"
