"""The Elastic Router: an input-buffered, credit-flow-controlled crossbar.

Architecture per the paper (Section V-B):

* N ports x V virtual channels; any port may send to any port, including
  itself (U-turns are supported).
* Input-buffered: flits wait in per-(input-port, VC) queues; credits (one
  per flit) are granted by the input port's :class:`CreditPool`, which may
  be *static* (fixed per VC) or *elastic* (shared pool).
* Wormhole switching with per-VC output locking: once a head flit claims
  an (output, VC) pair, body/tail flits of the same message hold it until
  the tail passes, so messages never interleave within a VC.
* One flit per input port and one flit per output port per cycle;
  arbitration is round-robin per output for fairness.

In the production image the ER runs at 175 MHz (Fig. 5); the default
frequency matches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..sim import Environment, Event
from ..trace.stages import Stage
from .credits import CreditPool, make_credit_pool
from .flit import Flit, Message, packetize

#: Clock frequency of the ER in the production-deployed image (Fig. 5).
DEFAULT_FREQ_HZ = 175e6

# Hoisted Stage members for the per-flit tap sites.
_STAGE_ER_INGRESS = Stage.ER_INGRESS
_STAGE_ER_SWITCH = Stage.ER_SWITCH


@dataclass
class RouterStats:
    """Counters aggregated over a router's lifetime."""

    messages_injected: int = 0
    messages_delivered: int = 0
    flits_injected: int = 0
    flits_switched: int = 0
    cycles: int = 0
    injection_stall_cycles: int = 0
    peak_buffer_occupancy: int = 0
    per_vc_delivered: Dict[int, int] = field(default_factory=dict)
    #: Messages fully switched but dropped at the output port because
    #: their deadline expired in transit (see :mod:`repro.overload`).
    deadline_drops: int = 0


class ElasticRouter:
    """A single ER instance.

    Endpoints attach a delivery callback per port via :meth:`set_endpoint`
    and inject messages with :meth:`send` (an event the caller can yield
    on, succeeding when the last flit has been accepted into the input
    buffer) or fire-and-forget :meth:`inject`.
    """

    def __init__(self, env: Environment, name: str = "er",
                 num_ports: int = 4, num_vcs: int = 2,
                 flit_bytes: int = 32, freq_hz: float = DEFAULT_FREQ_HZ,
                 credit_policy: str = "elastic",
                 credits_per_port: int = 16, reserved_per_vc: int = 1):
        if num_ports < 1:
            raise ValueError("router needs at least one port")
        if num_vcs < 1:
            raise ValueError("router needs at least one VC")
        self.env = env
        self.name = name
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.flit_bytes = flit_bytes
        self.cycle_time = 1.0 / freq_hz
        self.credit_policy = credit_policy
        self.stats = RouterStats()

        self._credits: List[CreditPool] = [
            make_credit_pool(credit_policy, credits_per_port, num_vcs,
                             reserved_per_vc)
            for _ in range(num_ports)]
        # Input buffers: [port][vc] -> deque of flits.
        self._buffers: List[List[Deque[Flit]]] = [
            [deque() for _ in range(num_vcs)] for _ in range(num_ports)]
        # Pending injections: [port] -> deque of (flit, done_event, remaining)
        self._pending: List[Deque[Tuple[Flit, Event]]] = [
            deque() for _ in range(num_ports)]
        # Output (port, vc) -> (in_port, vc) holding the wormhole lock.
        self._output_locks: Dict[Tuple[int, int],
                                 Optional[Tuple[int, int]]] = {}
        # Reassembly: (out_port, vc) -> list of flits received so far.
        self._reassembly: Dict[Tuple[int, int], List[Flit]] = {}
        self._endpoints: List[Optional[Callable[[Message], None]]] = \
            [None] * num_ports
        # Round-robin arbitration pointer per output port.
        self._rr: List[int] = [0] * num_ports
        # Clock state machine (macro-event form of the old Store-parked
        # clock process; see _kick for the state/draw correspondence).
        self._running = False
        self._parked = False
        self._stored = False
        self._priority = env.new_clock_priority()
        # Running flit count across all input buffers, and the number of
        # input ports with pending flits, so the clock decides "any work
        # left?" and "single stream?" without re-scanning the queues.
        self._occupancy = 0
        self._busy_ports = 0
        # Fast-forward state (see _plan): the port of the one stream, the
        # silent edges not yet applied, the time of the last edge applied
        # and the generation of the planned wake (-1 port: not skipping).
        self._ff_port = -1
        self._ff_left = 0
        self._ff_time = 0.0
        self._ff_gen = 0
        env.call_later(0.0, self._boot)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def set_endpoint(self, port: int,
                     deliver: Callable[[Message], None]) -> None:
        """Attach the consumer of messages arriving at ``port``."""
        self._check_port(port)
        self._endpoints[port] = deliver

    def send(self, src_port: int, dst_port: int, payload: Any,
             length_bytes: int, vc: int = 0,
             deadline: Optional[float] = None,
             trace: Any = None) -> Event:
        """Inject a message; returns an event that succeeds once the last
        flit has entered the input buffer (i.e. the sender may reuse its
        staging space).  ``deadline`` is an absolute expiry instant; a
        message still in flight past it is dropped at delivery and
        counted in ``stats.deadline_drops``.  ``trace`` is an optional
        :class:`~repro.trace.TraceContext`: ``er.ingress`` is tapped when
        the head flit wins a buffer credit, ``er.switch`` when the tail
        flit exits the crossbar."""
        self._check_port(src_port)
        self._check_port(dst_port)
        if not 0 <= vc < self.num_vcs:
            raise ValueError(f"vc {vc} out of range")
        message = Message(src_port=src_port, dst_port=dst_port, vc=vc,
                          payload=payload, length_bytes=length_bytes,
                          injected_at=self.env.now, deadline=deadline,
                          trace=trace)
        flits = packetize(message, self.flit_bytes)
        done = self.env.event()
        if self._ff_port >= 0:
            self._interrupt()
        pending = self._pending[src_port]
        if not pending:
            self._busy_ports += 1
        for flit in flits:
            pending.append((flit, done))
        self.stats.messages_injected += 1
        self.stats.flits_injected += len(flits)
        self._kick()
        return done

    def inject(self, src_port: int, dst_port: int, payload: Any,
               length_bytes: int, vc: int = 0,
               deadline: Optional[float] = None,
               trace: Any = None) -> Message:
        """Fire-and-forget variant of :meth:`send`."""
        event = self.send(src_port, dst_port, payload, length_bytes, vc,
                          deadline=deadline, trace=trace)
        event._defused = True
        # The message object is reachable through the queued flits.
        return self._pending[src_port][-1][0].message

    def buffer_occupancy(self, port: int) -> int:
        """Flits currently buffered at ``port`` across all VCs."""
        return sum(len(q) for q in self._buffers[port])

    def conservation_violations(self) -> List[str]:
        """Check the router's flit and credit conservation laws; return a
        description of each broken one (empty when all hold).

        * per (port, VC): credits in use == flits buffered;
        * flits injected == switched + buffered + pending.

        Silent cycles of a fast-forwarded stream that are not applied yet
        keep their flits pending, so both laws hold at any instant.
        """
        broken = []
        buffered = pending = 0
        for port in range(self.num_ports):
            pool = self._credits[port]
            for vc, queue in enumerate(self._buffers[port]):
                buffered += len(queue)
                if pool.used(vc) != len(queue):
                    broken.append(
                        f"{self.name} port {port} vc {vc}: "
                        f"{pool.used(vc)} credits in use, "
                        f"{len(queue)} flits buffered")
            pending += len(self._pending[port])
        stats = self.stats
        if stats.flits_injected != stats.flits_switched + buffered + pending:
            broken.append(
                f"{self.name}: {stats.flits_injected} flits injected != "
                f"{stats.flits_switched} switched + {buffered} buffered + "
                f"{pending} pending")
        if buffered != self._occupancy:
            broken.append(f"{self.name}: occupancy {self._occupancy} != "
                          f"{buffered} flits buffered")
        busy = sum(1 for queue in self._pending if queue)
        if busy != self._busy_ports:
            broken.append(f"{self.name}: {self._busy_ports} busy ports "
                          f"counted, {busy} with pending flits")
        return broken

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    # The clock used to be a generator parked on a one-slot Store; every
    # wake cost a Process resume plus two Store events.  It is now a
    # macro-event state machine of chained Deferreds.  Determinism note:
    # each transition schedules exactly as many queue entries, at the
    # same instants, as the Store machine did — wakes collapse the old
    # consecutive StorePut+StoreGet pair into one Deferred, and stashed
    # kicks drop the StorePut entirely; both eliminations are no-op pops
    # compensated in ``events_processed`` so seeded event counts stay
    # bit-identical.  Cycle edges carry the router's clock priority
    # (see ``Environment.new_clock_priority``) and may be skipped in bulk
    # (see "Fast-forward" below).
    def _kick(self) -> None:
        if self._running or self._stored:
            return
        env = self.env
        if self._parked:
            # Wake the parked clock: one Deferred where the Store drew
            # StorePut (no-op) + StoreGet (resume) back to back.
            self._parked = False
            env.events_processed += 1
            env.call_later(0.0, self._wake)
        else:
            # Clock mid-boot, mid-wake, or bootstrap-running: the Store
            # stashed the kick as an item (one no-op StorePut event) and
            # replayed it as a spurious wake at the next park attempt.
            self._stored = True
            env.events_processed += 1

    def _has_work(self) -> bool:
        return self._busy_ports > 0 or self._occupancy > 0

    def _boot(self) -> None:
        """First scheduling decision (the old process bootstrap)."""
        if self._has_work():
            self._next_edge()
        elif self._stored:
            self._stored = False
            self.env.call_later(0.0, self._wake)
        else:
            self._parked = True

    def _wake(self) -> None:
        self._running = True
        self._next_edge()

    def _tick(self) -> None:
        self.env.edge_dispatched(self._priority)
        self._step()
        if self._has_work():
            self._next_edge()
        elif self._stored:
            # Replay a kick stashed while the clock was running: the old
            # machine's get() found the stored item and span one more
            # (idle) cycle before parking for real.
            self._stored = False
            self._running = False
            self.env.call_later(0.0, self._wake)
        else:
            self._running = False
            self._parked = True

    # ------------------------------------------------------------------
    # Fast-forward
    # ------------------------------------------------------------------
    # With no flit buffered and exactly one input port holding pending
    # flits, every cycle admits that port's next flit and switches it
    # straight through: nothing can contend.  Such a cycle is *silent*
    # (no effect outside the router) unless its flit is a tail (``done``
    # and delivery) or a traced head (the ``er.ingress`` tap).  The clock
    # then pushes one real edge, at the next cycle that is not silent,
    # and applies the silent cycles in bulk: when that edge fires, at the
    # end of each run() (``settle``), or when a send() interrupts the
    # stream.  Edges carry the router's clock priority, so the real edge
    # sorts exactly where the per-cycle chain would have put it.
    def _next_edge(self) -> None:
        """Schedule the edge after the one at ``now``: the very next
        cycle, or the first cycle with an outside effect."""
        env = self.env
        cycle = self.cycle_time
        port, silent = self._plan()
        when = env.now + cycle
        if not silent:
            env.call_edge(when, self._priority, self._tick)
            return
        # Repeated addition, not ``now + (silent + 1) * cycle``: the
        # per-cycle chain accumulates its edge times this way, and the
        # real edge must land on exactly the same float.
        for _ in range(silent):
            when += cycle
        self._ff_port = port
        self._ff_left = silent
        self._ff_time = env.now
        self._ff_gen += 1
        env.call_edge(when, self._priority, self._ff_wake, self._ff_gen)
        env.add_lazy_clock(self)

    def _plan(self) -> Tuple[int, int]:
        """``(port, silent cycles)`` of the stream ahead of the next edge;
        0 silent cycles means tick every cycle.

        O(1) but for the scan of ``num_ports`` deques that finds the one
        stream: the silent flits are the rest of the current message up
        to its tail (none if the next flit is a traced head).
        """
        if self._occupancy or self._busy_ports != 1:
            return -1, 0
        for port, pending in enumerate(self._pending):
            if pending:
                break
        flit = pending[0][0]
        message = flit.message
        if flit.is_head and message.trace is not None:
            return port, 0
        return port, (-(-message.length_bytes // self.flit_bytes)
                      - 1 - flit.index)

    def _ff_wake(self, gen: int) -> None:
        if gen != self._ff_gen:
            # Superseded by an interrupt: not a simulated event.
            self.env.events_processed -= 1
            return
        self._apply_silent(self._ff_left)
        self._stop_ff()
        self._tick()

    def settle(self) -> None:
        """Apply the silent cycles whose edges have passed by ``now``."""
        env = self.env
        now = env.now
        cycle = self.cycle_time
        when = self._ff_time
        elapsed = 0
        while elapsed < self._ff_left:
            edge = when + cycle
            if edge > now or (edge == now and
                              not env.edge_passed(self._priority)):
                break
            when = edge
            elapsed += 1
        if elapsed:
            self._apply_silent(elapsed)
            self._ff_time = when

    def _interrupt(self) -> None:
        """A send() arrived mid-stream: catch up, then tick per cycle
        from the next edge on (the planned wake becomes a no-op)."""
        self.settle()
        self._stop_ff()
        self._ff_gen += 1
        self.env.call_edge(self._ff_time + self.cycle_time, self._priority,
                           self._tick)

    def _stop_ff(self) -> None:
        self._ff_port = -1
        self.env.remove_lazy_clock(self)

    def _apply_silent(self, cycles: int) -> None:
        """Apply ``cycles`` silent cycles exactly as ``_step`` would:
        each admits the stream's next flit (its credit is taken and
        returned within the cycle) and switches it to the output."""
        if not cycles:
            return
        port = self._ff_port
        pending = self._pending[port]
        flit = pending[0][0]
        message = flit.message
        vc = message.vc
        key = (message.dst_port, vc)
        if flit.is_head:
            self._output_locks[key] = (port, vc)
        popleft = pending.popleft
        self._reassembly.setdefault(key, []).extend(
            [popleft()[0] for _ in range(cycles)])
        self._ff_left -= cycles
        self._rr[message.dst_port] = port * self.num_vcs + vc + 1
        stats = self.stats
        stats.cycles += cycles
        stats.flits_switched += cycles
        if stats.peak_buffer_occupancy < 1:
            stats.peak_buffer_occupancy = 1
        self.env.events_processed += cycles

    def _step(self) -> None:
        """One router cycle: buffer injections, then switch allocation."""
        self.stats.cycles += 1
        self._admit_pending()
        # Occupancy is sampled between admission and switch allocation —
        # the instant buffers are fullest within a cycle.
        if self._occupancy > self.stats.peak_buffer_occupancy:
            self.stats.peak_buffer_occupancy = self._occupancy
        self._allocate_and_switch()

    def _admit_pending(self) -> None:
        """Move at most one pending flit per port into its input buffer."""
        for port in range(self.num_ports):
            pending = self._pending[port]
            if not pending:
                continue
            flit, done = pending[0]
            vc = flit.message.vc
            if self._credits[port].try_acquire(vc):
                pending.popleft()
                if not pending:
                    self._busy_ports -= 1
                self._buffers[port][vc].append(flit)
                self._occupancy += 1
                if flit.is_head and flit.message.trace is not None:
                    # Pending wait + credit stalls up to buffer entry.
                    flit.message.trace.tap(_STAGE_ER_INGRESS, self.env.now)
                if flit.is_tail and not done.triggered:
                    done.succeed()
            else:
                self.stats.injection_stall_cycles += 1

    def _candidates(self) -> Dict[int, List[Tuple[int, int]]]:
        """(in_port, vc) pairs whose head-of-queue flit may proceed,
        grouped by requested output port.

        One pass over the input queues instead of one per output: safe
        because a move for an earlier output can only invalidate the
        head of a queue whose input port is already in ``inputs_used``
        (filtered below) and only touches that output's own lock.
        """
        wants: Dict[int, List[Tuple[int, int]]] = {}
        locks = self._output_locks
        for in_port in range(self.num_ports):
            for vc, queue in enumerate(self._buffers[in_port]):
                if not queue:
                    continue
                flit = queue[0]
                out_port = flit.message.dst_port
                lock = locks.get((out_port, vc))
                if (lock is None) if flit.is_head else \
                        (lock == (in_port, vc)):
                    wants.setdefault(out_port, []).append((in_port, vc))
        return wants

    def _allocate_and_switch(self) -> None:
        if not self._occupancy:
            return
        wants = self._candidates()
        inputs_used = set()
        for out_port in sorted(wants):
            candidates = [c for c in wants[out_port]
                          if c[0] not in inputs_used]
            if not candidates:
                continue
            if len(candidates) == 1:
                in_port, vc = candidates[0]
            else:
                # Round-robin: the first candidate at or after the
                # per-output pointer in (port, vc) order, wrapping.
                slots = self.num_ports * self.num_vcs
                pointer = self._rr[out_port] % slots
                num_vcs = self.num_vcs
                in_port, vc = min(candidates, key=lambda c: (
                    (c[0] * num_vcs + c[1] - pointer) % slots))
            self._rr[out_port] = (in_port * self.num_vcs + vc + 1)
            inputs_used.add(in_port)
            self._move_flit(in_port, vc, out_port)

    def _move_flit(self, in_port: int, vc: int, out_port: int) -> None:
        flit = self._buffers[in_port][vc].popleft()
        self._occupancy -= 1
        self._credits[in_port].release(vc)
        self.stats.flits_switched += 1
        if flit.is_head:
            self._output_locks[(out_port, vc)] = (in_port, vc)
        self._reassembly.setdefault((out_port, vc), []).append(flit)
        if flit.is_tail:
            self._output_locks[(out_port, vc)] = None
            flits = self._reassembly.pop((out_port, vc))
            self._deliver(out_port, vc, flits)

    def _deliver(self, out_port: int, vc: int, flits: List[Flit]) -> None:
        message = flits[0].message
        if any(f.message is not message for f in flits):
            raise RuntimeError(
                f"{self.name}: interleaved messages on output "
                f"({out_port}, vc {vc})")
        message.delivered_at = self.env.now
        if message.trace is not None:
            # Crossbar residency: buffer entry through tail-flit exit.
            message.trace.tap(_STAGE_ER_SWITCH, self.env.now)
        # Deadline check at the output port: an expired message has
        # already consumed its crossbar bandwidth, but the endpoint's
        # time is still worth saving (drop-and-account).
        if message.deadline is not None and self.env.now > message.deadline:
            self.stats.deadline_drops += 1
            if message.trace is not None:
                # Terminal drop: close the span so the recorder counts
                # the deadline-expired request instead of leaking it.
                message.trace.abandon(self.env.now)
            return
        self.stats.messages_delivered += 1
        self.stats.per_vc_delivered[vc] = \
            self.stats.per_vc_delivered.get(vc, 0) + 1
        endpoint = self._endpoints[out_port]
        if endpoint is not None:
            endpoint(message)

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.num_ports:
            raise ValueError(
                f"port {port} out of range for {self.num_ports}-port router")
