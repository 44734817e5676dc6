"""Unit tests for the replica location service."""

import pytest

from repro.sim import Environment
from repro.services import LocalReplicaCatalog, ReplicaLocationIndex, ReplicaService


class TestLrc:
    def test_register_and_query(self):
        lrc = LocalReplicaCatalog("ufl")
        lrc.register("data.root", 100.0)
        assert lrc.has("data.root")
        assert lrc.size_of("data.root") == 100.0
        assert len(lrc) == 1

    def test_validation(self):
        lrc = LocalReplicaCatalog("ufl")
        with pytest.raises(ValueError):
            lrc.register("", 1.0)
        with pytest.raises(ValueError):
            lrc.register("x", -1.0)

    def test_unregister(self):
        lrc = LocalReplicaCatalog("ufl")
        lrc.register("x")
        assert lrc.unregister("x") is True
        assert lrc.unregister("x") is False
        assert not lrc.has("x")

    def test_reregister_updates_size(self):
        lrc = LocalReplicaCatalog("ufl")
        lrc.register("x", 1.0)
        lrc.register("x", 2.0)
        assert lrc.size_of("x") == 2.0
        assert len(lrc) == 1


class TestRli:
    def test_direct_mode_always_fresh(self):
        env = Environment()
        rli = ReplicaLocationIndex(env, update_interval_s=0.0)
        lrc = LocalReplicaCatalog("a")
        rli.attach(lrc)
        assert rli.lookup("x") == ()
        lrc.register("x")
        assert rli.lookup("x") == ("a",)

    def test_duplicate_attach_rejected(self):
        rli = ReplicaLocationIndex(Environment())
        rli.attach(LocalReplicaCatalog("a"))
        with pytest.raises(ValueError):
            rli.attach(LocalReplicaCatalog("a"))

    def test_lrc_feeds_one_index_only(self):
        lrc = LocalReplicaCatalog("a")
        ReplicaLocationIndex(Environment()).attach(lrc)
        with pytest.raises(ValueError, match="another index"):
            ReplicaLocationIndex(Environment()).attach(lrc)

    def test_reregistering_adds_no_second_holder(self):
        rli = ReplicaLocationIndex(Environment())
        early, late = LocalReplicaCatalog("early"), LocalReplicaCatalog("late")
        late.register("x", 1.0)  # before attach
        rli.attach(early)
        rli.attach(late)
        early.register("x", 1.0)
        early.register("x", 2.0)  # size update
        late.register("x", 3.0)
        assert rli.lookup("x") == ("early", "late")  # attach order
        assert early.unregister("x") and rli.lookup("x") == ("late",)

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            ReplicaLocationIndex(Environment(), update_interval_s=-1)

    def test_soft_state_is_stale_between_refreshes(self):
        env = Environment()
        rli = ReplicaLocationIndex(env, update_interval_s=100.0)
        lrc = LocalReplicaCatalog("a")
        rli.attach(lrc)
        env.run(until=10.0)  # first refresh happened at t=0
        lrc.register("x")
        assert rli.lookup("x") == ()  # not yet visible
        env.run(until=150.0)  # refresh at t=100 picked it up
        assert rli.lookup("x") == ("a",)

    def test_multi_site_lookup_order_deterministic(self):
        env = Environment()
        rli = ReplicaLocationIndex(env)
        for name in ("a", "b", "c"):
            lrc = LocalReplicaCatalog(name)
            lrc.register("x")
            rli.attach(lrc)
        assert rli.lookup("x") == ("a", "b", "c")

    def test_bulk_lookup(self):
        env = Environment()
        rli = ReplicaLocationIndex(env)
        lrc = LocalReplicaCatalog("a")
        lrc.register("x")
        rli.attach(lrc)
        result = rli.bulk_lookup(["x", "y"])
        assert result == {"x": ("a",), "y": ()}

    def test_exists(self):
        env = Environment()
        rli = ReplicaLocationIndex(env)
        lrc = LocalReplicaCatalog("a")
        rli.attach(lrc)
        assert not rli.exists("x")
        lrc.register("x")
        assert rli.exists("x")

    def test_manual_refresh(self):
        env = Environment()
        rli = ReplicaLocationIndex(env, update_interval_s=1e9)
        lrc = LocalReplicaCatalog("a")
        rli.attach(lrc)
        lrc.register("x")
        rli.refresh()
        assert rli.lookup("x") == ("a",)
        assert rli.last_update_at == env.now


class TestReplicaService:
    def test_end_to_end(self):
        env = Environment()
        svc = ReplicaService(env, ["a", "b"])
        svc.register_replica("f", "a", 10.0)
        svc.register_replica("f", "b", 10.0)
        assert svc.locations("f") == ("a", "b")
        assert svc.exists("f")
        assert svc.size_of("f") == 10.0
        assert svc.unregister_replica("f", "a") is True
        assert svc.locations("f") == ("b",)

    def test_size_of_unknown_is_none(self):
        svc = ReplicaService(Environment(), ["a"])
        assert svc.size_of("ghost") is None

    def test_bulk_locations(self):
        env = Environment()
        svc = ReplicaService(env, ["a"])
        svc.register_replica("f", "a")
        assert svc.bulk_locations(["f", "g"]) == {"f": ("a",), "g": ()}

    def test_expose_on_rpc_bus(self):
        from repro.services import RpcBus

        env = Environment()
        svc = ReplicaService(env, ["a"])
        svc.register_replica("f", "a")
        bus = RpcBus(env)
        svc.expose(bus)
        out = {}

        def caller(env):
            out["lookup"] = yield bus.call("p", "rls", "lookup", "f")
            out["bulk"] = yield bus.call("p", "rls", "bulk_lookup", ["f", "g"])
            out["exists"] = yield bus.call("p", "rls", "exists", "g")

        env.process(caller(env))
        env.run()
        assert out == {
            "lookup": ["a"],
            "bulk": {"f": ["a"], "g": []},
            "exists": False,
        }
