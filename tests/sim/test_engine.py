"""Unit tests for the event loop and core event types."""

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    SimulationError,
    Timeout,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(5.0)
    env.run()
    assert env.now == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


@pytest.mark.parametrize("delay", [-1.0, float("nan")])
def test_unordered_delays_rejected_at_every_entry_point(delay):
    # NaN compares False to everything, so a ``delay < 0`` guard lets it
    # through: it would then sort arbitrarily in the heap and set
    # ``env.now`` to NaN when it fires.
    env = Environment()
    with pytest.raises(ValueError, match=">= 0"):
        env.timeout(delay)
    with pytest.raises(ValueError, match=">= 0"):
        env.schedule(env.event(), delay)
    assert env.peek() == float("inf")  # nothing reached the heap


def test_run_until_number_stops_clock_exactly():
    env = Environment()
    env.timeout(3.0)
    env.timeout(10.0)
    env.run(until=7.0)
    assert env.now == 7.0


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_events_fire_in_time_order():
    env = Environment()
    fired = []
    for delay in (5.0, 1.0, 3.0):
        env.timeout(delay).add_callback(lambda ev, d=delay: fired.append(d))
    env.run()
    assert fired == [1.0, 3.0, 5.0]


def test_same_time_events_fire_in_insertion_order():
    env = Environment()
    fired = []
    for i in range(10):
        env.timeout(1.0).add_callback(lambda ev, i=i: fired.append(i))
    env.run()
    assert fired == list(range(10))


def test_event_value():
    env = Environment()
    ev = env.event()
    ev.succeed(42)
    env.run()
    assert ev.ok and ev.value == 42


def test_event_double_succeed_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_pending_event_value_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_undefused_failure_propagates():
    env = Environment()
    env.event().fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_defused_failure_is_swallowed():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("boom"))
    ev.defuse()
    env.run()
    assert not ev.ok


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_callback_added_after_processing_still_runs():
    env = Environment()
    ev = env.timeout(1.0, value="late")
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    env.run()
    assert seen == ["late"]


def test_run_until_event_returns_value():
    env = Environment()
    ev = env.timeout(2.0, value="payload")
    assert env.run(until=ev) == "payload"
    assert env.now == 2.0


def test_run_until_never_fired_event_raises():
    env = Environment()
    target = env.event()  # never settled
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=target)


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(4.5)
    assert env.peek() == 4.5


def test_event_count_increments():
    env = Environment()
    for _ in range(7):
        env.timeout(1.0)
    env.run()
    assert env.event_count == 7


class TestAnyOf:
    def test_fires_on_first(self):
        env = Environment()
        a, b = env.timeout(1.0, "a"), env.timeout(2.0, "b")
        cond = AnyOf(env, [a, b])
        env.run(until=cond)
        assert env.now == 1.0
        assert list(cond.value.values()) == ["a"]

    def test_empty_fires_immediately(self):
        env = Environment()
        cond = AnyOf(env, [])
        env.run()
        assert cond.triggered and cond.value == {}

    def test_failure_propagates(self):
        env = Environment()
        bad = env.event()
        bad.fail(ValueError("x"))
        cond = AnyOf(env, [bad, env.timeout(5.0)])
        cond.defuse()
        env.run(until=5.0)
        assert not cond.ok


class TestAllOf:
    def test_waits_for_all(self):
        env = Environment()
        a, b = env.timeout(1.0, "a"), env.timeout(2.0, "b")
        cond = AllOf(env, [a, b])
        env.run(until=cond)
        assert env.now == 2.0
        assert set(cond.value.values()) == {"a", "b"}

    def test_cross_environment_rejected(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(SimulationError):
            AllOf(env1, [env2.timeout(1.0)])


def test_timeout_is_event_subclass():
    env = Environment()
    assert isinstance(env.timeout(0.0), Event)
    assert isinstance(env.timeout(0.0), Timeout)
