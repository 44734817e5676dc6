"""Discrete-event simulation kernel.

This package is the foundational substrate for the SPHINX reproduction:
every other subsystem (grid sites, middleware services, the SPHINX server
and client) runs as processes on this kernel.

Design goals, in order:

1. **Determinism** — identical seeds and identical call ordering produce
   bit-identical traces.  Event ties are broken by (priority, sequence
   number), never by object identity or hash order.
2. **Legibility** — a small simpy-style API (`Process`, `timeout`,
   `Resource`) so simulation code reads like the protocol it models.
3. **Speed** — one heapq-based event loop, with or without the
   observability hooks; an entire Grid3-scale day (120 DAGs x 4
   concurrent schedulers) simulates in seconds.

Public API::

    from repro.sim import Environment, Process, Resource

    env = Environment()

    def worker(env):
        yield env.timeout(5.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
"""

from repro.sim.engine import Environment, Event, Interrupt, SimulationError, Wakeup
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.sim.rng import RngStreams

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "RngStreams",
    "SimulationError",
    "Wakeup",
]
