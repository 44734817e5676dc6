"""Unit tests for the replica location service."""

import pytest

from repro.services import LocalReplicaCatalog, ReplicaLocationIndex, ReplicaService


class TestLrc:
    def test_register_and_query(self):
        lrc = LocalReplicaCatalog("ufl")
        lrc.register("data.root", 100.0)
        assert lrc.lfns == ("data.root",)
        assert lrc.size_of("data.root") == 100.0
        assert len(lrc) == 1

    def test_validation(self):
        lrc = LocalReplicaCatalog("ufl")
        with pytest.raises(ValueError):
            lrc.register("", 1.0)
        with pytest.raises(ValueError):
            lrc.register("x", -1.0)

    def test_reregister_updates_size(self):
        lrc = LocalReplicaCatalog("ufl")
        lrc.register("x", 1.0)
        lrc.register("x", 2.0)
        assert lrc.size_of("x") == 2.0
        assert len(lrc) == 1


class TestRli:
    def test_direct_mode_always_fresh(self):
        rli = ReplicaLocationIndex()
        lrc = LocalReplicaCatalog("a")
        rli.attach(lrc)
        assert rli.lookup("x") == ()
        lrc.register("x")
        assert rli.lookup("x") == ("a",)

    def test_duplicate_attach_rejected(self):
        rli = ReplicaLocationIndex()
        rli.attach(LocalReplicaCatalog("a"))
        with pytest.raises(ValueError):
            rli.attach(LocalReplicaCatalog("a"))

    def test_lrc_feeds_one_index_only(self):
        lrc = LocalReplicaCatalog("a")
        ReplicaLocationIndex().attach(lrc)
        with pytest.raises(ValueError, match="another index"):
            ReplicaLocationIndex().attach(lrc)

    def test_reregistering_adds_no_second_holder(self):
        rli = ReplicaLocationIndex()
        early, late = LocalReplicaCatalog("early"), LocalReplicaCatalog("late")
        late.register("x", 1.0)  # before attach
        rli.attach(early)
        rli.attach(late)
        early.register("x", 1.0)
        early.register("x", 2.0)  # size update
        late.register("x", 3.0)
        assert rli.lookup("x") == ("early", "late")  # attach order

    def test_multi_site_lookup_order_deterministic(self):
        rli = ReplicaLocationIndex()
        for name in ("a", "b", "c"):
            lrc = LocalReplicaCatalog(name)
            lrc.register("x")
            rli.attach(lrc)
        assert rli.lookup("x") == ("a", "b", "c")

    def test_bulk_lookup(self):
        rli = ReplicaLocationIndex()
        lrc = LocalReplicaCatalog("a")
        lrc.register("x")
        rli.attach(lrc)
        result = rli.bulk_lookup(["x", "y"])
        assert result == {"x": ("a",), "y": ()}

    def test_exists(self):
        rli = ReplicaLocationIndex()
        lrc = LocalReplicaCatalog("a")
        rli.attach(lrc)
        assert not rli.exists("x")
        lrc.register("x")
        assert rli.exists("x")


class TestReplicaService:
    def test_end_to_end(self):
        svc = ReplicaService(["a", "b"])
        svc.register_replica("f", "a", 10.0)
        svc.register_replica("f", "b", 10.0)
        assert svc.locations("f") == ("a", "b")
        assert svc.exists("f")
        assert svc.size_of("f") == 10.0

    def test_size_of_unknown_is_none(self):
        svc = ReplicaService(["a"])
        assert svc.size_of("ghost") is None

    def test_bulk_locations(self):
        svc = ReplicaService(["a"])
        svc.register_replica("f", "a")
        assert svc.bulk_locations(["f", "g"]) == {"f": ("a",), "g": ()}
