"""Unit tests: deterministic shard map + federation config naming."""

import zlib

import pytest

from repro.federation import FederationConfig
from repro.federation.shards import ShardMap

LABELS = ("shard0", "shard1", "shard2")


def test_home_is_crc32_of_user():
    m = ShardMap(LABELS)
    for user in ("/VO=repro/CN=user-000", "alice", "bob", ""):
        expect = LABELS[zlib.crc32(user.encode()) % 3]
        assert m.home(user) == expect


def test_home_is_stable_across_instances():
    users = [f"user-{i:03d}" for i in range(20)]
    a = [ShardMap(LABELS).home(u) for u in users]
    b = [ShardMap(tuple(LABELS)).home(u) for u in users]
    assert a == b


def test_empty_shard_list_rejected():
    with pytest.raises(ValueError):
        ShardMap(())


def test_route_prefers_home_even_when_dead():
    # Outages belong to the forward loop, not admission: a bouncing
    # shard must not scatter its users across the federation.
    m = ShardMap(LABELS)
    user = "u"
    home = m.home(user)
    alive = {lbl: lbl != home for lbl in LABELS}
    assert m.route(user, alive, {}, spill_threshold=None) == home
    assert m.route(user, alive, {home: 3}, spill_threshold=10) == home


def test_route_spills_saturated_home_to_least_loaded_live():
    m = ShardMap(LABELS)
    user = "u"
    home = m.home(user)
    others = [lbl for lbl in LABELS if lbl != home]
    alive = dict.fromkeys(LABELS, True)
    loads = {home: 5, others[0]: 2, others[1]: 1}
    assert m.route(user, alive, loads, spill_threshold=5) == others[1]
    # Dead peers never receive spill.
    alive[others[1]] = False
    assert m.route(user, alive, loads, spill_threshold=5) == others[0]


def test_route_spill_tie_breaks_on_shard_index():
    m = ShardMap(LABELS)
    user = "u"
    home = m.home(user)
    others = [lbl for lbl in LABELS if lbl != home]
    alive = dict.fromkeys(LABELS, True)
    loads = {home: 9, others[0]: 1, others[1]: 1}
    want = min(others, key=LABELS.index)
    assert m.route(user, alive, loads, spill_threshold=1) == want


def test_route_saturated_home_with_no_live_peer_stays_home():
    m = ShardMap(LABELS)
    user = "u"
    home = m.home(user)
    alive = {lbl: False for lbl in LABELS}
    assert m.route(user, alive, {home: 99}, spill_threshold=1) == home


def test_config_naming():
    fed = FederationConfig(name="f9", n_shards=2)
    assert fed.shard_labels() == ("shard0", "shard1")
    assert fed.shard_server_name("shard1") == "f9-shard1"
    assert fed.meta_service == "sphinx-meta-f9"


@pytest.mark.parametrize("kwargs", [
    {"n_shards": 0},
    {"digest_interval_s": -1.0},
    {"spill_threshold": 0},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        FederationConfig(**kwargs)
