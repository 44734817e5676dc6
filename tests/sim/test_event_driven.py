"""Edge cases the event-driven control plane leans on.

The control plane composes conditions from events in every state
(already-triggered terminals, empty watch lists), re-arms its wakeup
latch every pass, and relies on the kernel keeping bookkeeping off the
heap (lazy settling, inline process start, cancellable timers).  These
tests pin the kernel semantics those paths assume.
"""

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    SimulationError,
    Wakeup,
)


# --------------------------------------------------- conditions on odd inputs
class TestAlreadyTriggered:
    def test_any_of_with_pre_triggered_event_fires_now(self):
        env = Environment()
        done = env.event().succeed("early")
        cond = AnyOf(env, [done, env.timeout(10.0)])
        env.run(until=cond)
        assert env.now == 0.0
        assert list(cond.value.values()) == ["early"]

    def test_all_of_with_all_pre_triggered_fires_now(self):
        env = Environment()
        a = env.event().succeed("a")
        b = env.event().succeed("b")
        cond = AllOf(env, [a, b])
        env.run(until=cond)
        assert env.now == 0.0
        assert set(cond.value.values()) == {"a", "b"}

    def test_all_of_mixed_waits_for_the_pending_one(self):
        env = Environment()
        early = env.event().succeed("early")
        late = env.timeout(3.0, "late")
        cond = AllOf(env, [early, late])
        env.run(until=cond)
        assert env.now == 3.0
        assert set(cond.value.values()) == {"early", "late"}

    def test_empty_all_of_fires_immediately(self):
        env = Environment()
        cond = AllOf(env, [])
        env.run()
        assert cond.triggered and cond.value == {}


# ------------------------------------------------------------- wakeup latch
class TestWakeup:
    def test_set_before_wait_is_latched(self):
        env = Environment()
        w = Wakeup(env)
        w.set()
        assert w.pending
        ev = w.wait()
        assert ev.triggered  # no lost wakeup
        assert not w.pending

    def test_wait_rearms_after_fire(self):
        env = Environment()
        w = Wakeup(env)
        passes = []

        def loop():
            while len(passes) < 3:
                yield w.wait()
                passes.append(env.now)

        def ringer():
            for _ in range(3):
                yield env.timeout(1.0)
                w.set()

        env.process(loop())
        env.process(ringer())
        env.run()
        assert passes == [1.0, 2.0, 3.0]

    def test_sets_between_waits_coalesce(self):
        env = Environment()
        w = Wakeup(env)
        w.set()
        w.set()
        w.set()
        assert w.wait().triggered  # one latched ring...
        armed = w.wait()
        assert not armed.triggered  # ...not three

    def test_idle_wait_costs_zero_kernel_events(self):
        env = Environment()
        w = Wakeup(env)
        w.wait()
        env.timeout(5.0)
        env.run()
        assert env.event_count == 1  # only the timeout


# ------------------------------------------- no bookkeeping on the heap
class TestLeanKernel:
    def test_lazy_settle_skips_the_heap(self):
        env = Environment()
        ev = env.event()
        ev.succeed("v")
        assert ev.processed  # settled in place, nothing scheduled
        env.timeout(1.0)
        env.run()
        assert env.event_count == 1

    def test_late_subscriber_to_lazy_settled_event_still_runs(self):
        env = Environment()
        ev = env.event()
        ev.succeed("v")
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        env.run()
        assert seen == ["v"]

    def test_fail_is_never_lazy(self):
        env = Environment()
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            env.run()

    def test_inline_process_start(self):
        env = Environment()
        trace = []

        def body():
            trace.append("started")
            yield env.timeout(1.0)
            trace.append("resumed")

        env.process(body())
        assert trace == ["started"]  # ran to first yield at spawn
        env.run()
        assert trace == ["started", "resumed"]


# ------------------------------------------------------------ timer cancel
class TestTimeoutCancel:
    def test_cancelled_timer_not_counted(self):
        env = Environment()
        keep = env.timeout(1.0)
        stale = env.timeout(100.0)
        stale.cancel()
        env.run()
        # The tombstone pops silently: it runs no code and is excluded
        # from the ledger — the kernel never processed it.
        assert keep.processed
        assert env.event_count == 1

    def test_cancel_fired_timer_raises(self):
        env = Environment()
        t = env.timeout(1.0)
        env.run()
        with pytest.raises(SimulationError):
            t.cancel()

    def test_cancel_twice_raises(self):
        env = Environment()
        t = env.timeout(1.0)
        t.cancel()
        with pytest.raises(SimulationError):
            t.cancel()

    def test_cancelled_losing_branch_of_any_of(self):
        env = Environment()
        fast = env.timeout(1.0, "fast")
        slow = env.timeout(50.0)
        cond = env.any_of([fast, slow])
        env.run(until=cond)
        assert not slow.processed
        slow.cancel()
        env.run()
        # The winner plus the condition's own settle (run(until=cond)
        # subscribes to it); the 50 s tombstone never enters the ledger.
        assert env.event_count == 2


def test_timeout_cancel_is_timeout_only():
    # Plain events have no heap entry to withdraw; the API is on Timeout.
    env = Environment()
    assert hasattr(env.timeout(1.0), "cancel")
    assert not hasattr(Event(env), "cancel")
