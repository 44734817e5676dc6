"""The absolute-instant timer, ``Environment.timeout_at``.

The network's link scheduler computes a flow's finish instant once
(``t_settle + remaining / share``) and may arm its timer for it at a
later ``now``; the timer must fire at exactly that float.
"""

import math

import pytest

from repro.sim.engine import Environment, Timeout


def test_fires_at_exactly_the_given_float():
    env = Environment()
    # A pair where the relative form lands one ulp late:
    # 12.09 + (45.43 - 12.09) is 45.43000000000001.
    now, when = 12.09, 45.43
    assert now + (when - now) != when
    env.run(until=now)
    fired = []
    env.timeout_at(when, "v").add_callback(lambda ev: fired.append((env.now, ev.value)))
    rel = env.timeout(when - now)
    rel.add_callback(lambda ev: fired.append((env.now, "relative")))
    env.run()
    assert fired == [(45.43, "v"), (45.43000000000001, "relative")]


def test_is_a_timeout_and_may_fire_now():
    env = Environment()
    env.run(until=5.0)
    timer = env.timeout_at(5.0)
    assert isinstance(timer, Timeout)
    env.run()
    assert timer.processed and env.now == 5.0


def test_same_instant_timers_fire_in_arming_order():
    env = Environment()
    order = []
    for tag in "abc":
        env.timeout_at(2.0, tag).add_callback(lambda ev: order.append(ev.value))
    env.timeout(2.0, "d").add_callback(lambda ev: order.append(ev.value))
    env.run()
    assert order == ["a", "b", "c", "d"]


@pytest.mark.parametrize("bad", [4.999999, -1.0, -math.inf, math.nan])
def test_past_instant_raises(bad):
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.timeout_at(bad)
    assert not env._heap  # nothing was scheduled


def test_cancel_leaves_a_tombstone_outside_event_count():
    env = Environment()
    keep = env.timeout_at(1.0)
    stale = env.timeout_at(100.0)
    stale.cancel()
    env.run()
    assert keep.processed
    assert env.now == 100.0  # the tombstone still pops (silently) ...
    assert env.event_count == 1  # ... but was never processed
