"""The discrete-event simulation environment.

:class:`Environment` owns virtual time and the event schedule.  All
simulated subsystems (network switches, LTL engines, FPGA roles, ranking
servers) schedule work here.  Time units are **seconds** throughout the
library; helpers for microseconds/nanoseconds live in
:mod:`repro.sim.units`.

Schedule
--------
The schedule is one binary heap (``heapq``) of ``(time, priority, seq,
event)`` entries.  ``seq`` is unique and increases with every push, so
entries due at the same instant and priority pop in FIFO order and a
seeded run is deterministic.  Priorities at one instant order URGENT,
then NORMAL, then clock edges in clock-creation order, then a bounded
run's stop sentinel.

Performance
-----------
``run()`` is the innermost loop of every experiment, so it inlines the
work of :meth:`Environment.step` (pop, callback dispatch) with all hot
names bound locally, plus two dispatch fast paths:

* an event whose only waiter is a :class:`~repro.sim.events.Process` is
  resumed inline (no bound-method allocation, no extra frame);
* when the event a process just yielded is itself the next event due
  (the common ``while True: yield timeout(d)`` shape), the loop chains
  straight into the next resume without re-entering the generic
  dispatcher.

One-shot latency callbacks (apply delay *d*, then call ``fn``) should
use :meth:`Environment.call_later` rather than spawning a process: a
:class:`~repro.sim.events.Deferred` costs one schedule entry and no
generator.

Instrumentation reading ``env.now`` must never write back: trace taps
(:mod:`repro.trace`) only record timestamps — they schedule no events
and draw no randomness, so enabling them cannot perturb seeded runs.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, Optional, Tuple

from .events import (
    NORMAL,
    PENDING,
    URGENT,
    AllOf,
    AnyOf,
    Deferred,
    Event,
    Process,
    ProcessGenerator,
    SimulationError,
    Timeout,
)

__all__ = ["EmptySchedule", "Environment", "NORMAL", "URGENT"]

_INF = float("inf")

#: Priority of the first clock's edges (see
#: :meth:`Environment.new_clock_priority`): after URGENT and NORMAL.
_FIRST_CLOCK = 2
#: Priority of a bounded run's stop sentinel: sorts after every URGENT
#: and NORMAL event and every clock edge scheduled at the same instant,
#: so a run(until=t) still processes everything due at exactly ``t``
#: first.
_LAST = sys.maxsize


class _StopRun(BaseException):
    """Internal control-flow signal: a bounded run reached its horizon.

    Derives from :class:`BaseException` so simulation code catching
    ``Exception`` can never swallow it (it is only ever raised in the
    kernel's own dispatch loop, never inside user generators).
    """


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Execution environment for a discrete-event simulation.

    The environment keeps one heap of ``(time, priority, seq, event)``
    entries.  ``seq`` is a monotonically increasing tie-breaker so that
    events scheduled at the same instant are processed in FIFO order,
    which keeps runs deterministic.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._seq = 0
        #: The schedule: a heap of ``(time, priority, seq, event)``.
        self._queue: list = []
        #: Identity token of the currently armed bounded-run sentinel
        #: (None outside a bounded run).  A sentinel left behind by a
        #: run that terminated with an exception no-ops on mismatch.
        self._stop_token: Optional[object] = None
        self._active_process: Optional[Process] = None
        #: Total events (including deferred callbacks) processed so far —
        #: the numerator of every events/sec benchmark.  Macro-event
        #: sites that collapse several formerly scheduled hops into one
        #: callback add the subsumed count here so the metric (and the
        #: seed-pinned Fig. 10 event count) stays comparable across
        #: kernel generations.
        self.events_processed: int = 0
        #: Clock priorities handed out so far (new_clock_priority).
        self._clocks = 0
        #: (time, priority) of the last clock edge dispatched; the stop
        #: sentinel counts as the edge after every clock.
        self._edge_time = -_INF
        self._edge_prio = 0
        #: Lazily clocked components currently skipping silent edges,
        #: settled at the end of every run() (see add_lazy_clock).
        self._lazy_clocks: dict = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between steps)."""
        return self._active_process

    def __len__(self) -> int:
        """Number of scheduled entries."""
        return len(self._queue)

    def peek(self) -> float:
        """Return the time of the next scheduled event, or ``inf``."""
        queue = self._queue
        return queue[0][0] if queue else _INF

    def scheduled_calls(self, fn: Callable[..., None]) -> int:
        """Number of pending :meth:`call_later`/:meth:`call_at` entries
        that will run ``fn`` (a scan of the schedule: for checks, not for
        hot paths)."""
        return sum(1 for entry in self._queue
                   if entry[3].__class__ is Deferred and entry[3].fn == fn)

    # ------------------------------------------------------------------
    # Event creation
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event owned by this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Timeout.__init__ + push: timeouts are the single most
        # created object in any simulation.
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = []
        t._value = value
        t._ok = True
        t._defused = False
        t.delay = delay
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, NORMAL, seq, t))
        return t

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> Process:
        """Start a new process from a generator of events."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event succeeding when any of ``events`` succeeds."""
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event succeeding when all of ``events`` have succeeded."""
        return AllOf(self, list(events))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _push(self, when: float, priority: int, event: Any) -> None:
        """Schedule ``event`` at absolute time ``when`` (no validation)."""
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (when, priority, seq, event))

    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Place a triggered event on the schedule ``delay`` s from now."""
        if delay < 0:
            raise ValueError(f"negative schedule delay: {delay}")
        self._push(self._now + delay, priority, event)

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time.

        The fast path for one-shot latency modeling: one slotted
        schedule entry, no :class:`Event` machinery, nothing to wait on.
        Use a process (or ``timeout``) when something must be able to
        wait on the result.  (``_push`` is inlined: with macro-events
        this is the kernel's most-trafficked insert path.)
        """
        if delay < 0:
            raise ValueError(f"negative call_later delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue,
                 (self._now + delay, NORMAL, seq, Deferred(fn, args)))

    def call_at(self, when: float, fn: Callable[..., None],
                *args: Any) -> None:
        """Run ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self._now:
            raise ValueError(
                f"call_at({when}) is in the past (now={self._now})")
        self._push(when, NORMAL, Deferred(fn, args))

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------
    # A clock (an Elastic Router's cycle tick) schedules its edges with a
    # priority of its own, handed out in creation order.  Edges then sort
    # after every URGENT/NORMAL event at the same instant, and
    # same-instant edges of different clocks run in creation order, so an
    # edge's place in the schedule does not depend on when it was pushed.
    # That lets a clock skip edges that have no effect outside it and
    # push only the next edge that does: it sorts exactly where the
    # per-cycle chain would have put it.
    def new_clock_priority(self) -> int:
        """Priority for a new clock's edges: ``2 + creation index``."""
        priority = _FIRST_CLOCK + self._clocks
        self._clocks += 1
        return priority

    def call_edge(self, when: float, priority: int,
                  fn: Callable[..., None], *args: Any) -> None:
        """Schedule clock edge ``fn(*args)`` at ``when`` with the clock's
        ``priority`` (from :meth:`new_clock_priority`)."""
        self._push(when, priority, Deferred(fn, args))

    def edge_dispatched(self, priority: int) -> None:
        """Record that the clock with ``priority`` runs an edge now."""
        self._edge_time = self._now
        self._edge_prio = priority

    def edge_passed(self, priority: int) -> bool:
        """Whether an edge at ``(now, priority)`` would already have been
        dispatched, had it been scheduled.

        Clock edges at one instant run in priority order after every
        URGENT/NORMAL event due before them, so the answer is yes iff a
        clock edge with a larger priority (or the stop sentinel) already
        ran at this instant.
        """
        return self._edge_time == self._now and self._edge_prio > priority

    def add_lazy_clock(self, clock: Any) -> None:
        """Register a clock that is skipping silent edges.  Its
        ``settle()`` runs at the end of every :meth:`run`, so counters
        read between runs equal the per-edge values."""
        self._lazy_clocks[clock] = None

    def remove_lazy_clock(self, clock: Any) -> None:
        del self._lazy_clocks[clock]

    def _settle_clocks(self) -> None:
        for clock in list(self._lazy_clocks):
            clock.settle()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event; raise :class:`EmptySchedule` if none."""
        if not self._queue:
            raise EmptySchedule("no scheduled events remain")
        when, _priority, _seq, event = heappop(self._queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        self.events_processed += 1
        if event.__class__ is Deferred:
            event.fn(*event.args)
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event nobody handled: surface the error.
            raise event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run until
        that simulation time) or an :class:`Event` (run until it triggers and
        return its value).
        """
        if until is None:
            stop_event = None
            stop_time = _INF
        elif isinstance(until, Event):
            stop_event = until
            stop_time = _INF
            if stop_event.callbacks is None:
                # Already processed.
                if stop_event._ok:
                    return stop_event._value
                # Re-raising counts as handling: defuse so teardown (or a
                # later run) doesn't surface the same failure twice.
                stop_event._defused = True
                raise stop_event._value
        else:
            stop_event = None
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until ({stop_time}) is in the past (now={self._now})")

        if stop_event is not None:
            done = []

            def _mark(ev: Event) -> None:
                done.append(ev)

            stop_event.callbacks.append(_mark)
            while not done:
                try:
                    self.step()
                except EmptySchedule:
                    raise SimulationError(
                        "simulation ended before the awaited event triggered"
                    ) from None
            if self._lazy_clocks:
                self._settle_clocks()
            if stop_event._ok:
                return stop_event._value
            stop_event._defused = True
            raise stop_event._value

        # Tight loop: inline step() with all hot names bound locally.
        queue = self._queue
        # Processed-event count via sequence accounting: every seq
        # draw enters the schedule exactly once, so pops = draws
        # minus the change in queued entries.  Saves an interpreted
        # increment per event in the hottest loop of the repo.
        seq0 = self._seq
        size0 = len(queue)
        sentinel: Optional[Tuple] = None
        if stop_time != _INF:
            # Bounded run.  Comparing ``entry[0] > stop_time`` on every
            # pop costs ~40% of loop throughput, so instead a sentinel
            # is scheduled *at* the stop time with a priority that sorts
            # after every simulation event due at that instant;
            # dispatching it raises :class:`_StopRun`, ending the run.
            # The entry tuple is kept so a run that terminates with an
            # exception can remove its own sentinel in the ``finally``
            # below — left behind, it would be a phantom schedule entry
            # (``len``/``peek`` would report a nonexistent event at
            # ``stop_time``) that the next bounded run would pop and
            # miscount.  The identity token additionally keeps any stale
            # sentinel from stopping a later run.
            token = self._stop_token = object()
            seq = self._seq
            self._seq = seq + 1
            sentinel = (stop_time, _LAST, seq,
                        Deferred(self._raise_stop, (token,)))
            heappush(queue, sentinel)
        consumed = False
        try:
            while queue:
                entry = heappop(queue)
                self._now = entry[0]
                event = entry[3]
                if event.__class__ is Deferred:
                    event.fn(*event.args)
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1 and \
                        (proc := callbacks[0]).__class__ is Process:
                    # Inlined Process._resume (keep in sync with
                    # events.Process._resume): resuming a process is
                    # the second-hottest operation after Deferred
                    # dispatch, and the inline saves a bound-method
                    # allocation plus a frame per event.
                    while True:
                        self._active_process = proc
                        proc._target = None
                        try:
                            if event._ok:
                                result = proc.generator.send(event._value)
                            else:
                                event._defused = True
                                result = proc.generator.throw(
                                    event._value)
                        except StopIteration as stop:
                            self._active_process = None
                            proc._ok = True
                            proc._value = stop.value
                            seq = self._seq
                            self._seq = seq + 1
                            heappush(queue, (self._now, NORMAL, seq, proc))
                            break
                        except BaseException as exc:
                            self._active_process = None
                            proc._ok = False
                            proc._value = exc
                            self._push(self._now, NORMAL, proc)
                            break
                        self._active_process = None
                        try:
                            rcb = result.callbacks
                        except AttributeError:
                            raise SimulationError(
                                f"process {proc.name!r} yielded "
                                f"non-event {result!r}") from None
                        if rcb is None:
                            proc._continue_processed(result)
                            break
                        sole = not rcb
                        rcb.append(proc)
                        proc._target = result
                        if not result._ok and \
                                result._value is not PENDING:
                            result._defused = True
                        # Chain: if the event the process just
                        # yielded is itself the next event due (and
                        # has no other waiter), dispatch it without
                        # re-entering the generic loop.
                        if not sole or not queue or \
                                queue[0][3] is not result:
                            break
                        self._now = heappop(queue)[0]
                        result.callbacks = None
                        event = result
                    continue
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except _StopRun:
            consumed = True
        finally:
            self._stop_token = None
            if sentinel is not None:
                if not consumed:
                    # An exception escaped mid-window: pull the unspent
                    # sentinel back out so repeated bounded runs stay
                    # exactly equivalent to one long run.  ``seq`` is
                    # unique, so equality finds exactly this entry.
                    queue.remove(sentinel)
                    heapify(queue)
                # The sentinel's own seq draw is not a simulation event
                # (whether it was dispatched or removed).
                seq0 += 1
            self.events_processed += (self._seq - seq0) - (
                len(queue) - size0)
        if stop_time != _INF:
            self._now = stop_time
        if self._lazy_clocks:
            self._settle_clocks()
        return None

    def _raise_stop(self, token: object) -> None:
        """Dispatch target of the bounded-run stop sentinel."""
        if token is self._stop_token:
            self._edge_time = self._now
            self._edge_prio = _LAST
            raise _StopRun
