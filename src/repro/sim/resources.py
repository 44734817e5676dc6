"""Contention primitive: a counted resource.

:class:`Resource` holds N interchangeable slots (e.g. the CPUs of a grid
site).  Requests queue FIFO and are granted in request order as slots
free up.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush

from repro.sim.engine import Environment, Event, PENDING, SimulationError
from repro.sim.engine import _NORMAL_BASE

__all__ = ["Resource", "Request"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Yields to the requesting process once granted.  Use as a context token:
    the holder must eventually call ``resource.release(request)``.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Event.__init__ inlined: requests are created once per simulated
        # job, a hot allocation site in every scheduling scenario.
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource


class Resource:
    """``capacity`` interchangeable slots with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = int(capacity)
        #: granted requests; a set so release() is O(1) with hundreds of
        #: concurrent holders (a big site's CPUs)
        self._users: set[Request] = set()
        #: slots held by nobody in particular (:meth:`take`): counted only
        self._anonymous = 0
        self._queue: deque[Request] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users) + self._anonymous

    @property
    def anonymous(self) -> int:
        """How many of the held slots were taken with :meth:`take`."""
        return self._anonymous

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        req = Request(self)
        users = self._users
        if not self._queue and len(users) + self._anonymous < self._capacity:
            # Uncontended fast path: grant immediately, skipping the
            # queue round-trip (identical ordering — _grant would pop
            # this request right back).
            users.add(req)
            req._value = req
            env = req.env
            env._seq += 1
            heappush(env._heap, (env._now, _NORMAL_BASE + env._seq, req))
        else:
            self._queue.append(req)
            self._grant()
        return req

    def take(self, n: int) -> int:
        """Hold up to ``n`` *uncontended* slots anonymously, in place: no
        :class:`Request`, no wake-up.  Returns how many were free — 0 when
        anything is queued.  Each is returned with :meth:`give_back`."""
        if self._queue:
            return 0
        free = self._capacity - len(self._users) - self._anonymous
        if n > free:
            n = max(free, 0)
        self._anonymous += n
        return n

    def give_back(self) -> None:
        """Return one slot held through :meth:`take`."""
        if self._anonymous <= 0:
            raise SimulationError("give_back() with no anonymous slot held")
        self._anonymous -= 1
        self._grant()

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        try:
            self._users.remove(request)
        except KeyError:
            raise SimulationError("release() of a request that does not hold a slot")
        request._value = None  # was itself: now it can die by refcount
        self._grant()

    def cancel(self, request: Request) -> None:
        """Withdraw a queued (not yet granted) request."""
        try:
            self._queue.remove(request)
        except ValueError:
            raise SimulationError("cancel() of a request that is not queued")

    def resize(self, capacity: int) -> None:
        """Change capacity at runtime (models CPUs going on/offline).

        Shrinking never evicts current holders; it only throttles grants.
        """
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self._capacity = int(capacity)
        self._grant()

    def _grant(self) -> None:
        queue = self._queue
        users = self._users
        cap = self._capacity - self._anonymous
        while queue and len(users) < cap:
            req = queue.popleft()
            users.add(req)
            # Event.succeed(req) inlined — a queued Request is pending by
            # construction (cancel() removes it from the queue first).
            req._value = req
            env = req.env
            env._seq += 1
            heappush(env._heap, (env._now, _NORMAL_BASE + env._seq, req))

