"""The Elastic Router: an input-buffered, credit-flow-controlled crossbar.

Architecture per the paper (Section V-B):

* N ports x V virtual channels; any port may send to any port, including
  itself (U-turns are supported).
* Input-buffered: flits wait in per-(input-port, VC) queues; credits (one
  per flit) are granted by the input port's :class:`CreditPool`, which may
  be *static* (fixed per VC) or *elastic* (shared pool).
* A message crosses as ``ceil(length / flit_bytes)`` flits (head / body /
  tail; a one-flit message is head+tail), but no object exists per flit:
  queues hold :class:`_Run` spans of a message's flits.  Credits still
  count single flits.
* Wormhole switching with per-VC output locking: once a head flit claims
  an (output, VC) pair, body/tail flits of the same message hold it until
  the tail passes, so messages never interleave within a VC.
* One flit per input port and one flit per output port per cycle;
  arbitration is round-robin per output for fairness.

In the production image the ER runs at 175 MHz (Fig. 5); the default
frequency matches.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..sim import Environment, Event
from ..trace.stages import Stage
from .credits import CreditPool, make_credit_pool

#: Clock frequency of the ER in the production-deployed image (Fig. 5).
DEFAULT_FREQ_HZ = 175e6

# Hoisted Stage members for the per-flit tap sites.
_STAGE_ER_INGRESS = Stage.ER_INGRESS
_STAGE_ER_SWITCH = Stage.ER_SWITCH

_message_ids = count()

# Slots make the per-message objects smaller and their attribute reads
# cheaper (``dataclass(slots=True)`` needs Python 3.10).
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTS)
class Message:
    """A variable-length payload crossing the ER between two ports."""

    src_port: int
    dst_port: int
    vc: int
    payload: Any
    length_bytes: int
    message_id: int = field(default_factory=lambda: next(_message_ids))
    injected_at: float = 0.0
    delivered_at: float = 0.0
    #: Absolute expiry (seconds of sim time) of the carried request, or
    #: ``None`` for no deadline.  The head flit carries it like routing
    #: state; the ER drops expired messages at delivery.
    deadline: Optional[float] = None
    #: Optional :class:`repro.trace.TraceContext`; rides the head flit's
    #: message like ``deadline`` does.  Not part of the flit format.
    trace: Any = None

    def __post_init__(self) -> None:
        if self.length_bytes <= 0:
            raise ValueError("message length must be positive")


class _Run:
    """Flits ``index .. index + count - 1`` of a message of ``last + 1``
    flits.  A pending run holds the rest of its message and the ``done``
    event of its send(); a buffered run, flits admitted to one (port, VC)
    queue and not yet switched."""

    __slots__ = ("message", "index", "count", "last", "done")

    def __init__(self, message: Message, index: int, count: int,
                 last: int, done: Optional[Event] = None):
        self.message = message
        self.index = index
        self.count = count
        self.last = last
        self.done = done


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
        if flit_bytes <= 0:
            raise ValueError("flit size must be positive")
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
        # Input buffers: [port][vc] -> deque of buffered runs.
        self._buffers: List[List[Deque[_Run]]] = [
            [deque() for _ in range(num_vcs)] for _ in range(num_ports)]
        # Pending injections: [port] -> deque of runs, one per message.
        self._pending: List[Deque[_Run]] = [
            deque() for _ in range(num_ports)]
        # Output (port, vc) -> (in_port, vc, message) holding the wormhole
        # lock: the message whose head has passed and whose tail has not.
        self._output_locks: Dict[Tuple[int, int],
                                 Tuple[int, int, Message]] = {}
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
        num_flits = -(-length_bytes // self.flit_bytes)
        done = self.env.event()
        if self._ff_port >= 0:
            self._interrupt()
        pending = self._pending[src_port]
        if not pending:
            self._busy_ports += 1
        pending.append(_Run(message, 0, num_flits, num_flits - 1, done))
        self.stats.messages_injected += 1
        self.stats.flits_injected += num_flits
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
        # The message rides the run just queued.
        return self._pending[src_port][-1].message

    def buffer_occupancy(self, port: int) -> int:
        """Flits currently buffered at ``port`` across all VCs."""
        return sum(run.count for queue in self._buffers[port]
                   for run in queue)

    def conservation_violations(self) -> List[str]:
        """Check the router's flit and credit conservation laws; return a
        description of each broken one (empty when all hold).

        * each input port's credit pool keeps its own laws;
        * per (port, VC): credits in use == flits buffered;
        * flits injected == switched + buffered + pending;
        * every run holds at least one flit, all within its message.

        Silent cycles of a fast-forwarded stream that are not applied yet
        keep their flits pending, so the laws hold at any instant.
        """
        broken = []
        runs: List[_Run] = []
        buffered = pending = 0
        for port in range(self.num_ports):
            pool = self._credits[port]
            broken += [f"{self.name} port {port}: {law}"
                       for law in pool.conservation_violations()]
            for vc, queue in enumerate(self._buffers[port]):
                flits = sum(run.count for run in queue)
                buffered += flits
                if pool.used(vc) != flits:
                    broken.append(
                        f"{self.name} port {port} vc {vc}: "
                        f"{pool.used(vc)} credits in use, "
                        f"{flits} flits buffered")
                runs += queue
            pending += sum(run.count for run in self._pending[port])
            runs += self._pending[port]
        broken += [f"{self.name}: run of message {run.message.message_id}"
                   f" holds {run.count} flits from {run.index} of "
                   f"{run.last + 1}" for run in runs
                   if not 0 <= run.index < run.index + run.count
                   <= run.last + 1]
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
        run = pending[0]
        if run.index == 0 and run.message.trace is not None:
            return port, 0
        return port, run.count - 1

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
        returned within the cycle) and switches it to the output.  The
        tail is never silent, so the run only advances."""
        if not cycles:
            return
        port = self._ff_port
        run = self._pending[port][0]
        message = run.message
        vc = message.vc
        if run.index == 0:
            self._output_locks[(message.dst_port, vc)] = (port, vc, message)
        run.index += cycles
        run.count -= cycles
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
            run = pending[0]
            message = run.message
            vc = message.vc
            if self._credits[port].try_acquire(vc):
                index = run.index
                if run.count == 1:
                    pending.popleft()
                    if not pending:
                        self._busy_ports -= 1
                else:
                    run.index = index + 1
                    run.count -= 1
                queue = self._buffers[port][vc]
                if queue and queue[-1].message is message:
                    queue[-1].count += 1
                else:
                    queue.append(_Run(message, index, 1, run.last))
                self._occupancy += 1
                if index == 0 and message.trace is not None:
                    # Pending wait + credit stalls up to buffer entry.
                    message.trace.tap(_STAGE_ER_INGRESS, self.env.now)
                if index == run.last and not run.done.triggered:
                    run.done.succeed()
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
                run = queue[0]
                out_port = run.message.dst_port
                lock = locks.get((out_port, vc))
                # A head needs a free output VC; a body or tail flit
                # follows its head, which locked it for this input.
                if (lock is None) if run.index == 0 else \
                        (lock is not None and lock[0] == in_port):
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
        queue = self._buffers[in_port][vc]
        run = queue[0]
        index = run.index
        if run.count == 1:
            queue.popleft()
        else:
            run.index = index + 1
            run.count -= 1
        self._occupancy -= 1
        self._credits[in_port].release(vc)
        self.stats.flits_switched += 1
        message = run.message
        key = (out_port, vc)
        if index == 0:
            self._output_locks[key] = (in_port, vc, message)
        if index == run.last:
            if self._output_locks.pop(key)[2] is not message:
                raise RuntimeError(
                    f"{self.name}: interleaved messages on output "
                    f"({out_port}, vc {vc})")
            self._deliver(out_port, vc, message)

    def _deliver(self, out_port: int, vc: int, message: Message) -> None:
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
