"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: every value the generator
yields must be an :class:`~repro.sim.engine.Event`; the process suspends
until that event settles and is resumed with the event's value (or the
event's exception thrown in).  The process itself is an event that settles
with the generator's return value, so processes compose (a process can
``yield`` another process to join it).
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator

from heapq import heappush

from repro.sim.engine import Event, Interrupt, PENDING, SimulationError, URGENT
from repro.sim.engine import _NORMAL_BASE

__all__ = ["Process"]


class Process(Event):
    """Wraps a generator as a schedulable, interruptible process."""

    __slots__ = ("_generator", "_target", "_interrupted_away_from", "_name")

    def __init__(self, env, generator: Generator[Event, Any, Any], name: str | None = None):
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self._target: Event | None = None
        self._interrupted_away_from: Event | None = None
        self._name = name
        # Run the body to its first yield right now: the pre-settled
        # stand-in below never touches the heap.
        boot = Event.__new__(Event)
        boot.env = env
        boot.callbacks = None
        boot._value = None
        boot._ok = True
        boot._defused = False
        self._resume(boot)

    @property
    def name(self) -> str:
        """Process name (defaults to the generator's name, resolved lazily)."""
        n = self._name
        if n is None:
            gen = self._generator
            n = self._name = getattr(gen, "__name__", type(gen).__name__)
        return n

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process is an error; interrupting a process
        that is about to be resumed this instant is allowed and wins over
        the pending resumption.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        if self._target is not None:
            # We cannot cheaply remove our callback from the awaited event;
            # instead remember it so the stale resume is ignored when it fires.
            self._interrupted_away_from, self._target = self._target, None
        kick = Event(self.env)
        kick.add_callback(lambda _e: self._step(throw=Interrupt(cause)))
        kick.succeed(priority=URGENT)

    # -- internals --------------------------------------------------------
    # ``_resume`` runs once per process wake-up — the hottest non-kernel
    # path in the system — so it reads settled-event slots (``_ok``/
    # ``_value``) directly and drives the generator inline instead of
    # delegating the common send path to ``_step``.
    def _resume(self, event: Event) -> None:
        if self._target is not None and event is not self._target:
            # A stale wake-up from an event we were interrupted away from.
            if not event._ok:
                event.defuse()
            return
        if self._interrupted_away_from is event:
            if not event._ok:
                event.defuse()
            self._interrupted_away_from = None
            return
        self._target = None
        if not event._ok:
            event.defuse()
            self._step(throw=event._value)
            return
        if self._value is not PENDING:  # already finished
            return
        try:
            yielded = self._generator.send(event._value)
        except StopIteration as stop:
            # Event.succeed inlined: a process that just returned cannot
            # already be settled (guarded by the PENDING check above).
            self._value = stop.value
            if not self.callbacks:
                # Nobody joined this process; settle in place (late
                # joiners use add_callback's processed path).
                self.callbacks = None
                return
            env = self.env
            env._seq += 1
            heappush(env._heap, (env._now, _NORMAL_BASE + env._seq, self))
            return
        except BaseException as exc:
            self.fail(exc)
            return
        self._await(yielded)

    def _step(self, send: Any = None, throw: BaseException | None = None) -> None:
        if self._value is not PENDING:  # already finished
            return
        try:
            if throw is not None:
                yielded = self._generator.throw(throw)
            else:
                yielded = self._generator.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        self._await(yielded)

    def _await(self, yielded: Any) -> None:
        if not isinstance(yielded, Event):
            err = SimulationError(
                f"process {self.name!r} yielded {yielded!r}; processes may "
                f"only yield Events"
            )
            self.fail(err)
            return
        if yielded.env is not self.env:
            self.fail(SimulationError("yielded event belongs to another environment"))
            return
        self._target = yielded
        cbs = yielded.callbacks
        if cbs is None:  # already processed: late-subscribe path
            yielded.add_callback(self._resume)
        else:
            cbs.append(self._resume)
