"""Unit tests for Resource."""

import pytest

from repro.sim import Environment, Resource
from repro.sim.engine import SimulationError


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def worker(env, res, name, hold):
        req = res.request()
        yield req
        grants.append((env.now, name))
        yield env.timeout(hold)
        res.release(req)

    env.process(worker(env, res, "a", 5.0))
    env.process(worker(env, res, "b", 5.0))
    env.process(worker(env, res, "c", 5.0))
    env.run()
    assert grants == [(0.0, "a"), (0.0, "b"), (5.0, "c")]


def test_resource_count_and_queued():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        req = res.request()
        yield req
        yield env.timeout(10.0)
        res.release(req)

    env.process(holder(env, res))
    env.process(holder(env, res))
    env.run(until=1.0)
    assert res.count == 1
    assert res.queued == 1
    env.run()
    assert res.count == 0 and res.queued == 0


def test_resource_priority_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, res, name, prio):
        req = res.request(priority=prio)
        yield req
        order.append(name)
        yield env.timeout(1.0)
        res.release(req)

    def spawn(env):
        first = res.request()
        yield first  # occupy the slot so others queue
        env.process(worker(env, res, "low", 10))
        env.process(worker(env, res, "high", 0))
        env.process(worker(env, res, "mid", 5))
        yield env.timeout(1.0)
        res.release(first)

    env.process(spawn(env))
    env.run()
    assert order == ["high", "mid", "low"]


def test_release_unheld_request_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    other = res.request()  # queued, not granted
    env.run()
    with pytest.raises(SimulationError):
        res.release(other)
    res.release(req)


def test_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    queued = res.request()
    res.cancel(queued)
    assert res.queued == 0
    with pytest.raises(SimulationError):
        res.cancel(queued)
    env.run()
    res.release(held)


def test_resize_up_grants_waiters():
    env = Environment()
    res = Resource(env, capacity=1)
    res.request()
    second = res.request()
    assert res.queued == 1
    res.resize(2)
    assert res.queued == 0
    env.run()
    assert second.triggered


def test_resize_down_does_not_evict():
    env = Environment()
    res = Resource(env, capacity=2)
    a = res.request()
    b = res.request()
    env.run()
    res.resize(1)
    assert res.count == 2  # both holders keep their slots
    res.release(a)
    res.release(b)
    # New request only granted when under the new capacity
    c = res.request()
    env.run()
    assert c.triggered


def test_take_holds_uncontended_slots_anonymously():
    env = Environment()
    res = Resource(env, capacity=3)
    first = res.request()
    assert res.take(5) == 2                # what is free, not what was asked
    assert (res.count, res.anonymous) == (3, 2)
    assert res.take(1) == 0                # full
    queued = res.request()
    res.release(first)                     # goes to the queued request ...
    assert res.take(1) == 0 and queued.triggered
    res.give_back()
    waiting = res.request()                # ... an uncontended one is granted
    assert waiting.triggered and res.count == 3
    late = res.request()
    assert res.take(1) == 0                # something is queued: never jump it
    res.give_back()
    assert late.triggered and (res.count, res.anonymous) == (3, 0)
    with pytest.raises(SimulationError, match="no anonymous slot"):
        res.give_back()


def test_take_on_a_shrunk_resource_takes_nothing():
    env = Environment()
    res = Resource(env, capacity=2)
    assert res.take(2) == 2
    res.resize(0)                          # frozen with both slots out
    assert res.take(1) == 0 and res.count == 2
    res.give_back()
    res.give_back()
    assert res.take(1) == 0 and res.count == 0
    res.resize(1)
    assert res.take(3) == 1
