"""Event loop and core event types for the simulation kernel.

The kernel is deliberately small: an :class:`Environment` owns a monotone
clock and a binary heap of pending events.  Everything else (processes,
resources, the grid) is built on three operations:

* ``env.schedule(event, delay)`` — enqueue an event,
* ``event.succeed(value)`` / ``event.fail(exc)`` — settle an event,
* ``event.add_callback(fn)`` — run ``fn(event)`` when the event settles.

Determinism contract
--------------------
Events scheduled for the same timestamp fire in (priority, insertion
order).  No iteration over sets or dicts decides ordering anywhere in the
kernel, so a fixed seed yields a bit-identical trace.

No bookkeeping events
---------------------
The heap holds only events somebody waits on: an event that settles
successfully with **no subscribers** skips the heap round-trip and is
marked processed in place (late subscribers still observe it through
:meth:`Event.add_callback`'s processed branch), and a process runs to
its first ``yield`` inline at its spawn instant — there is no boot event.
"""

from __future__ import annotations

import heapq
from heapq import heappush
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Wakeup",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "PENDING",
    "NORMAL",
    "URGENT",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-settle, running a dead loop...)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.process.Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


#: Sentinel for "event not settled yet".
PENDING = object()

#: Priorities: URGENT events at a timestamp fire before NORMAL ones.  Used
#: by the kernel to make process resumption happen before newly scheduled
#: work at the same instant.
URGENT = 0
NORMAL = 1

#: Heap entries are ``(when, key, event)`` where ``key`` packs priority and
#: insertion order into one integer — ``(priority << 62) + seq`` — so the
#: (priority, insertion order) tie-break costs one comparison instead of
#: two tuple slots per entry.  ``seq`` stays far below 2**62 in any run.
_KEY_SHIFT = 62
_NORMAL_BASE = NORMAL << _KEY_SHIFT


class Event:
    """A one-shot occurrence with a value or an exception.

    Events move through three states: pending (not scheduled), triggered
    (scheduled on the heap, value decided), processed (callbacks ran).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and sits on the event heap."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is PENDING:
            raise SimulationError("value of a pending event is undefined")
        return self._value

    # -- settling --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Settle the event successfully and schedule its callbacks."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        if not self.callbacks:
            # Nobody is subscribed, so the heap round-trip would fire
            # zero callbacks.  Mark processed in place; a late
            # subscriber goes through add_callback's processed branch.
            self.callbacks = None
            return self
        env = self.env
        env._seq += 1
        heappush(env._heap, (env._now, (priority << _KEY_SHIFT) + env._seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Settle the event with an exception.

        If no callback *defuses* the failure (a process waiting on it),
        the exception propagates out of :meth:`Environment.run` — silent
        failures are bugs in a scheduler study.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        env = self.env
        env._seq += 1
        heappush(env._heap, (env._now, (priority << _KEY_SHIFT) + env._seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(self)`` when the event is processed."""
        if self.callbacks is None:
            # Already processed: run at the current instant, urgently, so
            # late subscribers still observe the settled value.
            wrapper = Event(self.env)
            wrapper.add_callback(lambda _e: fn(self))
            wrapper.succeed(priority=URGENT)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.processed:
            state = "processed"
        elif self.triggered:
            state = "triggered"
        return f"<{type(self).__name__} {state} at t={self.env.now:.3f}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    Armed by :meth:`Environment.timeout` or :meth:`Environment.timeout_at`;
    the class itself takes no delay.
    """

    __slots__ = ()

    def cancel(self) -> None:
        """Withdraw the timer: its heap entry becomes a tombstone.

        The entry cannot be removed from the binary heap, but a
        cancelled timer pops silently and is excluded from
        ``event_count`` — the kernel never processed it.  Any remaining
        callbacks are dropped, so only cancel a timer whose subscribers
        no longer care (e.g. the losing branch of a resolved
        :class:`AnyOf`).  Call sites use this to keep stale safety-net
        timers out of the event ledger.
        """
        if self.callbacks is None:
            raise SimulationError("cancel() of a fired or cancelled timeout")
        self.callbacks = None


class Wakeup:
    """A re-armable, level-triggered signal — the control-plane latch.

    An :class:`Event` fires exactly once; event-driven control loops
    instead need a doorbell that can ring any number of times and that
    never loses a ring.  ``set()`` releases the currently armed
    ``wait()`` event; a ``set()`` with no armed waiter is *latched*, so
    the next ``wait()`` returns an already-triggered event and the loop
    runs a pass immediately (no lost-wakeup race).  After the armed
    event fires, the next ``wait()`` re-arms with a fresh event.

    Concurrent waiters share the armed event; a ``Wakeup`` itself never
    touches the event heap until it is actually signaled, so an idle
    loop blocked on ``wait()`` costs zero kernel events.
    """

    __slots__ = ("env", "_armed", "_pending")

    def __init__(self, env: "Environment"):
        self.env = env
        self._armed: Optional[Event] = None
        self._pending = False

    @property
    def pending(self) -> bool:
        """True when a set() is latched and the next wait() won't block."""
        return self._pending

    def set(self) -> None:
        """Signal the wakeup: release the armed waiter or latch the ring."""
        armed = self._armed
        if armed is not None and not armed.triggered:
            self._armed = None
            armed.succeed()
        else:
            self._pending = True

    def wait(self) -> Event:
        """The event the next pass blocks on (pre-fired when latched)."""
        if self._pending:
            self._pending = False
            return Event(self.env).succeed()
        armed = self._armed
        if armed is None or armed.triggered:
            armed = self._armed = Event(self.env)
        return armed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._pending else (
            "armed" if self._armed is not None and not self._armed.triggered
            else "idle"
        )
        return f"<Wakeup {state} at t={self.env.now:.3f}>"


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._done = 0
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
            ev.add_callback(self._check)
        if not self._events:
            self.succeed({})

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count: a Timeout carries its value from
        # construction, so `triggered` alone would leak future values.
        return {ev: ev.value for ev in self._events if ev.processed and ev.ok}

    def _check(self, ev: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when the first of its constituent events fires."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            if not ev.ok:
                ev.defuse()
            return
        if not ev.ok:
            ev.defuse()
            self.fail(ev.value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires when all of its constituent events have fired."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            if not ev.ok:
                ev.defuse()
            return
        if not ev.ok:
            ev.defuse()
            self.fail(ev.value)
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed(self._collect())


class Environment:
    """Owns the simulation clock and the pending-event heap."""

    __slots__ = ("_now", "_heap", "_seq", "event_count", "obs_tally",
                 "heartbeat")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: number of events processed so far (profiling / debugging aid)
        self.event_count = 0
        #: observability hook: set to a dict (event type name -> count)
        #: to tally every processed event by type.
        self.obs_tally: Optional[dict[str, int]] = None
        #: observability hook: a :class:`repro.obs.runtime.Heartbeat`
        #: whose ``tick(sim_now, events_processed)`` :meth:`run` calls
        #: every ``_HB_STRIDE`` processed events.  Wall-clock
        #: only — it never touches the heap, the clock, or any RNG, so
        #: a heartbeat run stays bit-identical to a bare one.
        self.heartbeat = None

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (seconds by convention)."""
        return self._now

    # -- scheduling primitives --------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Put a settled (or pre-valued) event on the heap."""
        if not delay >= 0:  # negative or NaN
            raise ValueError(f"schedule delay must be >= 0, got {delay!r}")
        self._seq += 1
        heappush(self._heap, (self._now + delay, (priority << _KEY_SHIFT) + self._seq, event))

    def event(self) -> Event:
        """A fresh, unsettled event."""
        return Event(self)

    def timeout(
        self,
        delay: float,
        value: Any = None,
        _new=Timeout.__new__,
        _cls=Timeout,
        _push=heappush,
        _base=_NORMAL_BASE,
    ) -> Timeout:
        """An event that fires ``delay`` time units from now.

        Builds the Timeout via ``__new__`` + direct slot stores — the
        same fields :class:`Event.__init__` sets — skipping the type
        call and ``__init__`` frame on the hottest allocation site.
        (The ``_``-prefixed defaults bind hot globals as locals; do not
        pass them.)
        """
        if not delay >= 0:  # negative or NaN
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        ev = _new(_cls)
        ev.env = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._defused = False
        self._seq = seq = self._seq + 1
        _push(self._heap, (self._now + delay, _base + seq, ev))
        return ev

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A timer that fires at the *absolute* instant ``when``.

        ``timeout(when - now)`` lands on ``now + (when - now)``, which
        can be one ulp off ``when``; a caller that computed an exact
        finish instant earlier (the network's link scheduler) arms it
        here instead.  Instants before ``now`` are rejected.
        """
        if not when >= self._now:
            raise ValueError(
                f"cannot arm a timer at {when!r} < now {self._now!r}"
            )
        ev = Timeout(self)
        ev._value = value
        self._seq += 1
        heappush(self._heap, (when, _NORMAL_BASE + self._seq, ev))
        return ev

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def process(self, generator) -> "Process":
        """Spawn a generator as a simulation process."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- main loop ---------------------------------------------------------
    def peek(self) -> float:
        """Timestamp of the next event, or ``inf`` when the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    #: processed events between heartbeat cadence checks.  4096 events
    #: take ~1 ms, so a wall-clock heartbeat interval is honoured to
    #: within a millisecond while the per-event cost stays one decrement
    #: + one branch.
    _HB_STRIDE = 4096

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the loop.

        ``until`` may be:

        * ``None`` — run until no events remain,
        * a number — run until the clock would pass that time,
        * an :class:`Event` — run until that event is processed and return
          its value (raising its exception if it failed).

        One loop serves all three: it stops when the heap is empty, when
        the next event lies past ``stop`` (``inf`` unless ``until`` is a
        number), or when the target event's sentinel callback has run —
        checked only after callbacks ran, the one place it can change.
        The observability hooks are tested per processed event:
        :attr:`obs_tally` counts it by type, and :attr:`heartbeat` gets a
        tick at loop entry and then every ``_HB_STRIDE`` events
        (wall-clock work only — the simulation cannot observe either).

        ``event_count`` is not incremented per pop: every push bumps
        ``_seq``, so pops = (entries at entry + pushes during the run)
        − entries left − cancelled tombstones popped, computed once on
        exit (a cancelled timer was never processed; see
        :meth:`Timeout.cancel`).  The heartbeat's count is the same sum.
        """
        heap = self._heap
        pop = heapq.heappop
        tally = self.obs_tally
        heartbeat = self.heartbeat
        hb_left = hb_stride = self._HB_STRIDE
        target = until if isinstance(until, Event) else None
        finished: list[Event] = []
        stop = float("inf")
        if target is not None:
            target.add_callback(finished.append)
        elif until is not None:
            stop = float(until)
            if stop < self._now:
                raise ValueError(f"cannot run until {stop} < now {self._now}")
        base = self.event_count
        seq0 = self._seq
        len0 = len(heap)
        skipped = 0
        if heartbeat is not None:
            # Start the wall clock at loop entry, not at the first
            # stride boundary — cumulative events/s stays honest even
            # when the run is only a few strides long.
            heartbeat.tick(self._now, base)
        try:
            # The ``self._now = when`` store sits inside the callbacks
            # branch: an event with no callbacks runs no code, so the
            # intermediate clock value is unobservable; the loop exit (or
            # raise) restores the invariant with one final store.
            when = self._now
            while heap and heap[0][0] <= stop:
                when, _key, event = pop(heap)
                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:
                    skipped += 1  # cancelled tombstone
                    continue
                if tally is not None:
                    name = type(event).__name__
                    tally[name] = tally.get(name, 0) + 1
                if heartbeat is not None:
                    hb_left -= 1
                    if not hb_left:
                        hb_left = hb_stride
                        heartbeat.tick(when, base + len0 + (self._seq - seq0)
                                       - len(heap) - skipped)
                if callbacks:
                    self._now = when
                    for cb in callbacks:
                        cb(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if finished:
                        break
                elif not event._ok and not event._defused:
                    self._now = when
                    raise event._value
            if target is None:
                self._now = when if until is None else stop
                return None
            self._now = when
            if not finished:
                raise SimulationError(
                    "run(until=event) exhausted the event heap before "
                    "the target event fired"
                )
            if not target.ok:
                raise target.value
            return target.value
        finally:
            self.event_count += len0 + (self._seq - seq0) - len(heap) - skipped
