"""Unit tests for the fault-injecting RPC bus."""

import pytest

from repro.chaos import ChaosPlan, ChaoticBus, FaultRule, PartitionWindow
from repro.services import RpcFault
from repro.services.rpc import LATENCY_S
from repro.sim import Environment


def call_sync(env, bus, *args, **kwargs):
    result = {}

    def caller(env):
        try:
            result["value"] = yield bus.call(*args, **kwargs)
        except RpcFault as fault:
            result["fault"] = fault

    env.process(caller(env))
    env.run()
    return result


def make_bus(env, **plan_kwargs):
    return ChaoticBus(env, ChaosPlan(**plan_kwargs))


def test_unmatched_services_pass_clean():
    env = Environment()
    bus = make_bus(env, rule=FaultRule(drop_p=1.0))
    bus.register("other", "ping", lambda: "pong")
    assert call_sync(env, bus, "p", "other", "ping")["value"] == "pong"
    assert bus.fault_log == []


def test_an_inactive_rule_passes_calls_clean():
    env = Environment()
    bus = make_bus(env, rule=FaultRule())
    bus.register("sphinx-svc", "ping", lambda: "pong")
    assert call_sync(env, bus, "p", "sphinx-svc", "ping")["value"] == "pong"
    assert bus.fault_log == []


def test_certain_drop_faults_with_retryable_text():
    env = Environment()
    bus = make_bus(env, rule=FaultRule(drop_p=1.0))
    calls = []
    bus.register("sphinx-svc", "ping", lambda: calls.append(1))
    r = call_sync(env, bus, "p", "sphinx-svc", "ping")
    # The injected fault must look transient so clients retry it.
    assert "unknown service" in str(r["fault"])
    kind = bus.fault_log[0][3]
    assert kind in ("drop-request", "drop-reply")
    # A reply-leg drop executes the handler anyway; a request-leg
    # drop must not.
    assert len(calls) == (1 if kind == "drop-reply" else 0)


def test_duplicate_runs_the_handler_twice():
    env = Environment()
    bus = make_bus(env, rule=FaultRule(dup_p=1.0))
    calls = []
    bus.register("sphinx-svc", "ping",
                 lambda: (calls.append(env.now), "pong")[1])
    r = call_sync(env, bus, "p", "sphinx-svc", "ping")
    assert r["value"] == "pong"  # the caller sees the first result
    assert len(calls) == 2
    assert calls[1] > calls[0]  # the ghost lands later
    assert bus.injected == {"duplicate": 1}


def test_delay_defers_the_round_trip():
    env = Environment()
    bus = make_bus(
        env,
        rule=FaultRule(delay_p=1.0, max_extra_delay_s=5.0),
    )
    bus.register("sphinx-svc", "ping", lambda: "pong")
    done = {}

    def caller(env):
        done["value"] = yield bus.call("p", "sphinx-svc", "ping")
        done["at"] = env.now

    env.process(caller(env))
    env.run()
    assert done["value"] == "pong"
    assert done["at"] > 2.0 * LATENCY_S  # slower than a clean call


def test_partition_faults_matching_services_inside_window():
    env = Environment()
    bus = make_bus(
        env,
        partitions=(PartitionWindow(service="sphinx-svc", start_s=0.0,
                                    end_s=10.0),),
    )
    calls = []
    bus.register("sphinx-svc", "ping", lambda: calls.append(1))
    r = call_sync(env, bus, "p", "sphinx-svc", "ping")
    assert "unknown service" in str(r["fault"])
    assert calls == []  # partitioned: the handler never ran

    # After the window the same call goes through.
    env2 = Environment()
    bus2 = ChaoticBus(
        env2,
        ChaosPlan(partitions=(
            PartitionWindow(service="sphinx-svc", start_s=100.0, end_s=200.0),
        )),
    )
    bus2.register("sphinx-svc", "ping", lambda: "pong")
    assert call_sync(env2, bus2, "p", "sphinx-svc", "ping")["value"] == "pong"


def test_duplicate_failures_are_defused():
    """A ghost dispatch whose handler faults must not crash the run."""
    env = Environment()
    bus = make_bus(env, rule=FaultRule(dup_p=1.0))

    def boom():
        raise RuntimeError("handler exploded")

    bus.register("sphinx-svc", "boom", boom)
    r = call_sync(env, bus, "p", "sphinx-svc", "boom")
    assert "fault" in r
    env.run()  # the ghost's failure must already be defused


@pytest.mark.parametrize("seed", [0, 3])
def test_fault_schedule_is_deterministic(seed):
    def one_run():
        env = Environment()
        bus = ChaoticBus(env, ChaosPlan(
            seed=seed,
            rule=FaultRule(drop_p=0.3, dup_p=0.2,
                           delay_p=0.3, max_extra_delay_s=2.0),
        ))
        bus.register("sphinx-svc", "ping", lambda: "pong")

        def caller(env):
            for _ in range(50):
                try:
                    yield bus.call("p", "sphinx-svc", "ping")
                except RpcFault:
                    pass
                yield env.timeout(1.0)

        env.process(caller(env))
        env.run()
        return bus.fault_log

    first, second = one_run(), one_run()
    assert first == second
    assert first  # the probabilities guarantee some injections in 50 calls


def test_call_count_counts_only_dispatched_calls():
    """The registry's rpc.calls reads bus.call_count, which must
    survive injection: dropped-request calls never reach the parent
    dispatch."""
    env = Environment()
    bus = make_bus(env, rule=FaultRule(drop_p=1.0))
    bus.register("sphinx-svc", "ping", lambda: "pong")
    before = bus.call_count
    r = call_sync(env, bus, "p", "sphinx-svc", "ping")
    assert "fault" in r
    kind = bus.fault_log[0][3]
    expected = 1 if kind == "drop-reply" else 0
    assert bus.call_count - before == expected
