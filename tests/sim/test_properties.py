"""Property-based tests of kernel invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource
from repro.sim.engine import NORMAL, URGENT


@given(delays=st.lists(st.floats(0.0, 1e6), max_size=60))
@settings(max_examples=60, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []
    for d in delays:
        env.timeout(d).add_callback(lambda ev: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_clock_never_runs_backwards(delays):
    env = Environment()
    observed = []

    def watcher(env):
        last = env.now
        while True:
            yield env.timeout(1.0)
            assert env.now >= last
            last = env.now
            observed.append(env.now)
            if env.peek() == float("inf"):
                return

    for d in delays:
        env.timeout(d)
    env.process(watcher(env))
    env.run()
    assert observed == sorted(observed)


@given(n=st.integers(1, 50))
@settings(max_examples=30, deadline=None)
def test_same_instant_priority_ordering(n):
    """URGENT events at a timestamp always precede NORMAL ones."""
    env = Environment()
    fired = []
    for i in range(n):
        ev = env.event()
        ev.add_callback(lambda e, i=i: fired.append(("n", i)))
        ev.succeed(priority=NORMAL)
        ev2 = env.event()
        ev2.add_callback(lambda e, i=i: fired.append(("u", i)))
        ev2.succeed(priority=URGENT)
    env.run()
    kinds = [k for k, _i in fired]
    assert kinds == ["u"] * n + ["n"] * n
    # Within a priority class, insertion order is preserved.
    assert [i for k, i in fired if k == "u"] == list(range(n))
    assert [i for k, i in fired if k == "n"] == list(range(n))


@given(
    capacity=st.integers(1, 8),
    jobs=st.lists(st.tuples(st.floats(0.1, 50.0), st.integers(0, 3)),
                  min_size=1, max_size=40),
)
@settings(max_examples=40, deadline=None)
def test_resource_never_exceeds_capacity(capacity, jobs):
    """At no instant do more than ``capacity`` holders exist, every job
    eventually runs, and the queue drains completely."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    peak = [0]
    completed = [0]

    def worker(env, res, hold, prio):
        req = res.request(priority=prio)
        yield req
        peak[0] = max(peak[0], res.count)
        yield env.timeout(hold)
        res.release(req)
        completed[0] += 1

    for hold, prio in jobs:
        env.process(worker(env, res, hold, prio))
    env.run()
    assert peak[0] <= capacity
    assert completed[0] == len(jobs)
    assert res.count == 0 and res.queued == 0


@given(
    seed=st.integers(0, 10_000),
    n_procs=st.integers(1, 20),
)
@settings(max_examples=30, deadline=None)
def test_random_process_graphs_run_deterministically(seed, n_procs):
    """A random fork/join/sleep process graph produces an identical
    trace when run twice — the determinism contract end to end."""

    def build_and_run():
        import numpy as np

        rng = np.random.default_rng(seed)
        env = Environment()
        trace = []

        def body(env, depth, ident):
            for _step in range(int(rng.integers(1, 4))):
                choice = rng.random()
                if choice < 0.6 or depth >= 2:
                    yield env.timeout(float(rng.random() * 10))
                    trace.append(("t", ident, env.now))
                else:
                    child = env.process(body(env, depth + 1,
                                              ident * 31 + 7))
                    yield child
                    trace.append(("j", ident, env.now))
            return ident

        for i in range(n_procs):
            env.process(body(env, 0, i))
        env.run()
        return trace

    assert build_and_run() == build_and_run()

