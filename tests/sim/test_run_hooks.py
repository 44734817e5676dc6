"""``Environment.run`` is one loop, whatever observability hooks are set.

Random small event programs run under ``run()``, ``run(until=t)`` and
``run(until=event)``, each bare, with ``obs_tally`` set, with a recording
heartbeat stub, and with both.  Every variant must leave the same
callback log, clock, ``event_count`` and outcome (return value, or
exception type and message) of every call, and an empty heap.  Within a
call the tally counts exactly the events the call processed, and the
heartbeat sees one tick at loop entry and then one every ``_HB_STRIDE``
processed events.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment

DELAYS = (0.0, 1.0, 2.0, 3.0, 5.0)
FORMS = ("none", "time", "event")
HOOKS = ((), ("tally",), ("heartbeat",), ("tally", "heartbeat"))

_timer = st.tuples(st.just("timer"), st.sampled_from(DELAYS),
                   st.sampled_from(("keep", "cancel", "cancel-later")))
_event = st.tuples(st.just("event"),
                   st.sampled_from(("ok", "defused", "raise", "never")),
                   st.sampled_from((None,) + DELAYS), st.booleans())
_proc = st.tuples(st.just("proc"),
                  st.lists(st.sampled_from(DELAYS), min_size=1, max_size=3),
                  st.booleans())
programs = st.lists(st.one_of(_timer, _event, _proc), min_size=1, max_size=12)


def build(env, program, log):
    """Lay ``program`` out on ``env``; returns its events, one per op."""
    events = []
    for i, op in enumerate(program):
        label = f"{op[0]}{i}"
        if op[0] == "timer":
            _, delay, fate = op
            timer = env.timeout(delay, value=label)
            timer.add_callback(lambda _e, label=label: log.append((env.now, label)))
            if fate == "cancel":
                timer.cancel()
            elif fate == "cancel-later":
                # withdrawn at runtime by an earlier timer, if still pending
                env.timeout(delay / 2).add_callback(
                    lambda _e, t=timer: t.processed or t.cancel())
            events.append(timer)
        elif op[0] == "event":
            _, fate, at, watched = op
            ev = env.event()
            if watched:
                ev.add_callback(
                    lambda e, label=label: log.append((env.now, label, e.ok)))

            def settle(_e=None, ev=ev, fate=fate, label=label):
                if fate == "ok":
                    ev.succeed(label)
                    return
                ev.fail(ValueError(label))
                if fate == "defused":
                    ev.defuse()

            if fate != "never":
                if at is None:
                    settle()
                else:
                    env.timeout(at).add_callback(settle)
            events.append(ev)
        else:
            _, delays, catch = op

            def body(label=label, delays=delays, catch=catch):
                for k, delay in enumerate(delays):
                    yield env.timeout(delay)
                    log.append((env.now, f"{label}.{k}"))
                if catch:
                    bad = env.event()
                    bad.fail(KeyError(label))
                    try:
                        yield bad
                    except KeyError:
                        log.append((env.now, f"{label}.caught"))
                return label

            events.append(env.process(body()))
    return events


class _Heartbeat:
    def __init__(self):
        self.ticks = []

    def tick(self, sim_now, events):
        self.ticks.append((sim_now, events))


def play(program, form, t, pick, hooks, stride):
    env = Environment()
    log = []
    events = build(env, program, log)
    tally = env.obs_tally = {} if "tally" in hooks else None
    beat = env.heartbeat = _Heartbeat() if "heartbeat" in hooks else None
    outcomes = []

    def call(until):
        count0, now0 = env.event_count, env.now
        tally0 = sum(tally.values()) if tally is not None else 0
        ticks0 = len(beat.ticks) if beat is not None else 0
        try:
            out = ("returned", env.run(until))
        except Exception as exc:
            out = ("raised", type(exc).__name__, str(exc))
        outcomes.append((out, env.now, env.event_count))
        processed = env.event_count - count0
        if tally is not None:
            assert sum(tally.values()) - tally0 == processed
        if beat is not None:
            ticks = beat.ticks[ticks0:]
            assert ticks[0] == (now0, count0)
            assert len(ticks) == 1 + processed // stride
            for k, (when, n) in enumerate(ticks[1:], 1):
                assert n == count0 + k * stride
                assert now0 <= when <= env.now

    with mock.patch.object(Environment, "_HB_STRIDE", stride):
        call({"none": None, "time": t,
              "event": events[pick % len(events)]}[form])
        call(None)  # a second run resumes the first
        while env._heap:  # each undefused failure stops one run
            call(None)
        done = [ev for ev in events if ev.processed]
        if done:  # run(until=event) on an already-processed event
            call(done[pick % len(done)])
    assert not env._heap
    return log, outcomes, env.now, env.event_count


@given(program=programs, t=st.sampled_from((1.0, 2.0, 2.5, 4.0)),
       on_t=st.booleans(), pick=st.integers(0, 50), stride=st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_run_is_the_same_loop_whatever_the_hooks(program, t, on_t, pick,
                                                 stride):
    if on_t:
        program = program + [("timer", t, "keep")]  # lands exactly on t
    for form in FORMS:
        bare, *hooked = [play(program, form, t, pick, hooks, stride)
                         for hooks in HOOKS]
        for other in hooked:
            assert other == bare
