"""Unit tests for the GSI RPC transport."""

import enum

import pytest

from repro.sim import Environment
from repro.services import RpcBus, RpcFault
from repro.services.rpc import LATENCY_S, _check_serializable


def call_sync(env, bus, *args, **kwargs):
    """Drive a call to completion and return (ok, value_or_fault)."""
    result = {}

    def caller(env):
        try:
            value = yield bus.call(*args, **kwargs)
            result["value"] = value
        except RpcFault as fault:
            result["fault"] = fault

    env.process(caller(env))
    env.run()
    return result


def test_basic_call():
    env = Environment()
    bus = RpcBus(env)
    bus.register("math", "add", lambda a, b: a + b)
    r = call_sync(env, bus, "/VO=x/CN=u", "math", "add", 2, 3)
    assert r["value"] == 5


def test_call_costs_round_trip():
    env = Environment()
    bus = RpcBus(env)
    bus.register("svc", "ping", lambda: "pong")
    times = {}

    def caller(env):
        value = yield bus.call("p", "svc", "ping")
        times["done"] = env.now
        assert value == "pong"

    env.process(caller(env))
    env.run()
    assert times["done"] == pytest.approx(2 * LATENCY_S)


def test_unknown_service_faults():
    env = Environment()
    bus = RpcBus(env)
    r = call_sync(env, bus, "p", "ghost", "m")
    assert "unknown service" in str(r["fault"])


def test_unknown_method_faults():
    env = Environment()
    bus = RpcBus(env)
    bus.register("svc", "a", lambda: 1)
    r = call_sync(env, bus, "p", "svc", "b")
    assert "unknown method" in str(r["fault"])


def test_duplicate_registration_rejected():
    bus = RpcBus(Environment())
    bus.register("svc", "m", lambda: 1)
    with pytest.raises(ValueError, match="already registered"):
        bus.register("svc", "m", lambda: 2)


def test_handler_exception_becomes_fault_with_cause():
    env = Environment()
    bus = RpcBus(env)

    def bad():
        raise KeyError("inner")

    bus.register("svc", "bad", bad)
    r = call_sync(env, bus, "p", "svc", "bad")
    assert isinstance(r["fault"].cause, KeyError)


def test_unserializable_argument_faults():
    env = Environment()
    bus = RpcBus(env)
    bus.register("svc", "m", lambda x: None)
    r = call_sync(env, bus, "p", "svc", "m", object())
    assert "not RPC-serializable" in str(r["fault"])


def test_unserializable_result_faults():
    env = Environment()
    bus = RpcBus(env)
    bus.register("svc", "m", lambda: {1: "non-string-key"})
    r = call_sync(env, bus, "p", "svc", "m")
    assert "fault" in r


def test_nested_payloads_allowed():
    env = Environment()
    bus = RpcBus(env)
    bus.register("svc", "echo", lambda x: x)
    payload = {"jobs": [{"id": "a", "sites": ["x", "y"], "ok": True, "n": 3}]}
    r = call_sync(env, bus, "p", "svc", "echo", payload)
    assert r["value"] == payload


class _Name(str):
    pass


class _Colour(enum.IntEnum):
    RED = 1


class _Thing:
    pass


# (payload, fault text after the path — None = accepted); the texts were
# captured from the recursive isinstance checker this one replaced.
_PAYLOADS = [
    ([1, 2.5, "s", True, None], None),
    ({"a": [1, (2, 3), {"b": None}], "c": ()}, None),
    (False, None),
    (_Name("x"), None),                       # subclasses of a scalar pass
    ({_Name("k"): 1}, None),
    ([_Colour.RED], None),
    (_Thing(), ": _Thing is not RPC-serializable"),
    ([1, [2, _Thing()]], "[1][1]: _Thing is not RPC-serializable"),
    ({"a": (0, {"b": _Thing()})}, "['a'][1]['b']: _Thing is not RPC-serializable"),
    ({"a": [{1: "x"}]}, "['a'][0]: dict key 1 is not a string"),
    ({b"k": 1}, ": dict key b'k' is not a string"),
    ({"a": {1, 2}}, "['a']: set is not RPC-serializable"),
    ([b"raw"], "[0]: bytes is not RPC-serializable"),
    ([_Thing(), {2: 3}], "[0]: _Thing is not RPC-serializable"),  # first wins
    ({"ok": 1, 3: _Thing()}, ": dict key 3 is not a string"),     # key first
]


@pytest.mark.parametrize("path", ["payload", "args"])
@pytest.mark.parametrize("payload,fault", _PAYLOADS)
def test_serializable_check_accepts_and_rejects_as_before(payload, fault, path):
    check = (lambda: _check_serializable(payload)) if path == "payload" \
        else (lambda: _check_serializable(payload, path))
    if fault is None:
        check()
        return
    with pytest.raises(RpcFault) as err:
        check()
    assert str(err.value) == path + fault


def test_ignored_fault_does_not_crash_simulation():
    env = Environment()
    bus = RpcBus(env)
    bus.call("p", "ghost", "m")  # fire and forget
    env.run()  # must not raise


class TestAuth:
    def test_proxy_acl(self):
        env = Environment()
        bus = RpcBus(env)
        bus.register("svc", "m", lambda: "ok",
                     allowed_proxies=["/VO=cms/CN=alice"])
        ok = call_sync(env, bus, "/VO=cms/CN=alice", "svc", "m")
        assert ok["value"] == "ok"
        env2 = Environment()
        bus2 = RpcBus(env2)
        bus2.register("svc", "m", lambda: "ok",
                      allowed_proxies=["/VO=cms/CN=alice"])
        bad = call_sync(env2, bus2, "/VO=cms/CN=eve", "svc", "m")
        assert "not authorized" in str(bad["fault"])

    def test_vo_acl(self):
        env = Environment()
        bus = RpcBus(env)
        bus.register("svc", "m", lambda: "ok", allowed_vos=["cms"])
        ok = call_sync(env, bus, "/VO=cms/CN=anyone", "svc", "m")
        assert ok["value"] == "ok"

    def test_vo_acl_rejects_other_vo(self):
        env = Environment()
        bus = RpcBus(env)
        bus.register("svc", "m", lambda: "ok", allowed_vos=["cms"])
        bad = call_sync(env, bus, "/VO=atlas/CN=anyone", "svc", "m")
        assert "not authorized" in str(bad["fault"])

    def test_no_acl_means_open(self):
        env = Environment()
        bus = RpcBus(env)
        bus.register("svc", "m", lambda: "ok")
        assert call_sync(env, bus, "anything", "svc", "m")["value"] == "ok"


def test_call_count_accumulates():
    env = Environment()
    bus = RpcBus(env)
    bus.register("svc", "m", lambda: 1)
    for _ in range(3):
        bus.call("p", "svc", "m")
    env.run()
    assert bus.call_count == 3


def test_services_listing():
    bus = RpcBus(Environment())
    bus.register("b", "m", lambda: 1)
    bus.register("a", "m", lambda: 1)
    assert bus.services() == ("a", "b")


class TestRegisterWaiters:
    """on_register lifecycle: fire on re-registration, no leaks."""

    def _bus(self):
        env = Environment()
        return env, RpcBus(env)

    def test_waiter_fires_on_reregistration(self):
        env, bus = self._bus()
        bus.register("svc", "ping", lambda: "pong")
        bus.unregister_service("svc")
        ev = bus.on_register("svc")
        assert not ev.triggered
        bus.register("svc", "ping", lambda: "pong")
        assert ev.triggered

    def test_discard_waiter_removes_and_empties_the_table(self):
        env, bus = self._bus()
        ev = bus.on_register("ghost")
        assert bus.discard_waiter("ghost", ev) is True
        # Removed entirely: no entry left to leak.
        assert "ghost" not in bus._register_waiters
        # Idempotent / unknown cases are harmless.
        assert bus.discard_waiter("ghost", ev) is False
        assert bus.discard_waiter("other", ev) is False

    def test_abandoned_settled_waiters_are_pruned_on_rearm(self):
        env, bus = self._bus()
        stale = [bus.on_register("svc") for _ in range(5)]
        bus.register("svc", "ping", lambda: "pong")  # fires + clears all
        bus.unregister_service("svc")
        # Leak scenario: a caller armed a waiter, then let it fire
        # without consuming it.  Re-arming prunes settled stragglers.
        for ev in stale:
            assert ev.triggered
            ev.defuse()
        kept = bus.on_register("svc")
        assert bus._register_waiters["svc"] == [kept]

    def test_waiters_do_not_accumulate_across_backoff_rounds(self):
        """The client retry-loop pattern: arm, lose the race to the
        backoff timer, discard.  N rounds must leave zero waiters."""
        env, bus = self._bus()
        for _ in range(50):
            ev = bus.on_register("svc")
            # backoff expired first; the caller walks away
            assert bus.discard_waiter("svc", ev)
        assert "svc" not in bus._register_waiters
