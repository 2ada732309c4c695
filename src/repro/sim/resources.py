"""Shared resources for simulation processes.

:class:`Resource` is a counted resource with a FIFO request queue (models
a CPU core pool, an FPGA role slot, a DMA channel, ...).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, TYPE_CHECKING

from .events import NORMAL, PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Environment


class ResourceRequest(Event):
    """Claim on a :class:`Resource` slot: granted iff triggered."""

    __slots__ = ("resource", "released")

    def release(self) -> None:
        """Give the slot back (idempotent)."""
        self.resource.release(self)

    # Context-manager sugar so processes can write
    # ``with resource.request() as req: yield req``.
    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """Counted resource with a FIFO wait queue.

    ``capacity`` slots exist; ``request()`` returns an event that succeeds
    when a slot is granted.  Slots are returned via ``release`` (or the
    request's context manager).  ``count`` slots are held; ``queue`` (the
    requests not yet granted) is non-empty only while all of them are.
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.count = 0
        self.queue: Deque[ResourceRequest] = deque()

    def request(self) -> ResourceRequest:
        # Inlined Event.__init__ and succeed(): one request per query stage.
        env = self.env
        request = ResourceRequest.__new__(ResourceRequest)
        request.env = env
        request.callbacks = []
        request._ok = True
        request._defused = False
        request.resource = self
        request.released = False
        if self.count < self.capacity:
            self.count += 1
            request._value = None
            seq = env._seq
            env._seq = seq + 1
            heappush(env._queue, (env._now, NORMAL, seq, request))
        else:
            request._value = PENDING
            self.queue.append(request)
        return request

    def release(self, request: ResourceRequest) -> None:
        if request.released:
            return
        request.released = True
        if request._value is PENDING:
            # Cancelled before being granted.
            self.queue.remove(request)
            request._defused = True
        elif self.queue:
            self.queue.popleft().succeed()
        else:
            self.count -= 1
