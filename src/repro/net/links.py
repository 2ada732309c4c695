"""Point-to-point links and transmit ports.

A :class:`Port` owns the transmit side of a link: packets queue per traffic
class, are serialized at the link rate, and arrive at the peer after the
link's propagation delay.  Priority-based flow control (PFC) pauses
individual traffic classes on the transmit side; the receiving switch
asserts/deasserts pause on its upstream ports.

Latency attribution: links carry no trace tap of their own — the
*receiving* end (switch ingress or shell) taps
:attr:`repro.trace.Stage.LINK_WIRE`, so serialization + propagation is
attributed per physical hop at the point of arrival.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..sim import Environment
from .packet import Packet, TrafficClass

#: Speed of light in fiber, metres per second (~2/3 c).
FIBER_METERS_PER_SECOND = 2.0e8

#: Strict-priority drain order (highest traffic class first), precomputed
#: once instead of re-sorting on every packet.
_DRAIN_ORDER = tuple(sorted(TrafficClass.ALL, reverse=True))
_LOSSLESS = TrafficClass.LOSSLESS


def propagation_delay(distance_m: float) -> float:
    """One-way propagation delay for ``distance_m`` metres of fiber."""
    if distance_m < 0:
        raise ValueError("distance must be non-negative")
    return distance_m / FIBER_METERS_PER_SECOND


class PortStats:
    """Counters for a single transmit port."""

    def __init__(self) -> None:
        self.enqueued = 0
        self.transmitted = 0
        self.dropped = 0
        self.bytes_transmitted = 0
        self.pause_events = 0

    def __repr__(self) -> str:
        return (f"PortStats(tx={self.transmitted}, drop={self.dropped}, "
                f"bytes={self.bytes_transmitted})")


class Port:
    """Transmit side of a link with per-traffic-class queues and PFC.

    ``deliver`` is the receive function on the far end: it is called with
    the packet once serialization + propagation complete.  Classes are
    drained strictly by priority (higher traffic-class number first), which
    models the switch giving the lossless class precedence.

    The drain is a callback state machine rather than a process: a
    zero-delay kick when the idle port gets work, one
    :meth:`Environment.call_later` per serialization and one per
    propagation, with no generator, no wakeup store and no per-packet
    process objects on the datapath.
    """

    def __init__(self, env: Environment, name: str, rate_bps: float,
                 distance_m: float = 5.0,
                 deliver: Optional[Callable[[Packet], None]] = None,
                 queue_capacity_bytes: int = 1 << 20):
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.env = env
        self.name = name
        self.rate_bps = rate_bps
        self.propagation = propagation_delay(distance_m)
        self.deliver = deliver
        self.queue_capacity_bytes = queue_capacity_bytes
        self.stats = PortStats()
        #: Per-class FIFO of (packet, wire_bytes) — the size is computed
        #: once at enqueue and carried alongside, since ``wire_bytes`` is
        #: a derived property re-walking the header stack on every call.
        self._queues: Dict[int, Deque[Tuple[Packet, int]]] = {
            tc: deque() for tc in TrafficClass.ALL}
        self._queued_bytes: Dict[int, int] = {tc: 0 for tc in TrafficClass.ALL}
        #: Running sum of ``_queued_bytes`` — kept incrementally so the
        #: per-enqueue capacity check is O(1), not O(classes).
        self._queued_total = 0
        self._paused: Dict[int, bool] = {tc: False for tc in TrafficClass.ALL}
        #: True while a packet is being serialized onto the wire.
        self._busy = False
        #: True while an idle->busy kick is already scheduled.
        self._kick_pending = False
        #: Optional hook invoked with each transmitted packet (telemetry).
        self.on_transmit: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------
    # Enqueue / flow control
    # ------------------------------------------------------------------
    @property
    def queued_bytes_total(self) -> int:
        return self._queued_total

    def queued_bytes(self, tc: int) -> int:
        return self._queued_bytes[tc]

    def enqueue(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission.

        Returns False (and drops) if a non-lossless queue is full.  Lossless
        packets are always accepted — back-pressure is PFC's job; the switch
        asserting PFC too late shows up in stats as ``lossless_overflow``.
        """
        tc = packet.eth.priority
        size = packet.wire_bytes
        if tc != _LOSSLESS and \
                self._queued_total + size > self.queue_capacity_bytes:
            self.stats.dropped += 1
            trace = packet.trace
            if trace is not None and not trace.protected:
                # Terminal loss (no reliable transport will resend):
                # close the span here so the recorder counts the drop
                # instead of leaking an open span.
                trace.abandon(self.env.now)
            return False
        self._queues[tc].append((packet, size))
        self._queued_bytes[tc] += size
        self._queued_total += size
        self.stats.enqueued += 1
        # Kick an idle port one zero-delay event later: every enqueue
        # arriving at the same timestamp is visible before the port picks
        # a packet, so strict priority is decided over the whole
        # same-instant batch.
        if not self._busy and not self._kick_pending:
            self._kick_pending = True
            self.env.call_later(0.0, self._drain)
        return True

    def pause(self, tc: int) -> None:
        """PFC: stop transmitting class ``tc`` (idempotent)."""
        if not self._paused[tc]:
            self._paused[tc] = True
            self.stats.pause_events += 1

    def resume(self, tc: int) -> None:
        """PFC: resume transmitting class ``tc``."""
        if self._paused[tc]:
            self._paused[tc] = False
            if not self._busy and not self._kick_pending:
                self._kick_pending = True
                self.env.call_later(0.0, self._drain)

    def is_paused(self, tc: int) -> bool:
        return self._paused[tc]

    def conservation_violations(self) -> List[str]:
        """Check ``enqueued == transmitted + queued + serializing``;
        return a description if it is broken (it holds at any instant)."""
        s = self.stats
        queued = sum(len(queue) for queue in self._queues.values())
        serializing = 1 if self._busy else 0
        if s.enqueued == s.transmitted + queued + serializing:
            return []
        return [f"{self.name}: {s.enqueued} enqueued != {s.transmitted} "
                f"transmitted + {queued} queued + {serializing} "
                f"serializing"]

    # ------------------------------------------------------------------
    # Drain state machine
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Start serializing the highest-priority unpaused packet, if the
        port is idle and one is queued."""
        self._kick_pending = False
        if self._busy:
            return
        paused = self._paused
        for tc in _DRAIN_ORDER:
            queue = self._queues[tc]
            if queue and not paused[tc]:
                packet, size = queue.popleft()
                self._queued_bytes[tc] -= size
                self._queued_total -= size
                self._busy = True
                self.env.call_later(size * 8 / self.rate_bps,
                                    self._finish_tx, packet, size)
                return

    def _finish_tx(self, packet: Packet, size: int) -> None:
        """Serialization done: launch the packet, pick up the next one."""
        stats = self.stats
        stats.transmitted += 1
        stats.bytes_transmitted += size
        if self.on_transmit is not None:
            self.on_transmit(packet)
        deliver = self.deliver
        if deliver is not None:
            # A pause asserted mid-flight never recalls photons: the
            # packet propagates with whatever deliver target existed at
            # transmit completion, as before.
            if self.propagation <= 0:
                deliver(packet)
            else:
                self.env.call_later(self.propagation, deliver, packet)
        self._busy = False
        if self._queued_total:
            self._drain()
