"""Unit tests: deterministic shard map + federation config naming."""

import zlib

import pytest

from repro.core.serialize import dag_to_payload
from repro.federation import FederationConfig, MetaScheduler
from repro.federation.shards import ShardMap

from tests.federation.fedstack import FedStack, one_job_dag

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
    st = FedStack(n_shards=3)
    meta = MetaScheduler(st.env, st.bus, st.fed, st.services)
    user = "/VO=v/CN=u"
    home = ShardMap(tuple(st.services)).home(user)
    st.servers[home].shutdown()
    meta._rpc_submit_dag("c0", user, dag_to_payload(one_job_dag("d0")), 10)
    assert meta.entries["d0"].shard == home


def test_config_naming():
    fed = FederationConfig(name="f9", n_shards=2)
    assert fed.shard_labels() == ("shard0", "shard1")
    assert fed.shard_server_name("shard1") == "f9-shard1"
    assert fed.meta_service == "sphinx-meta-f9"


@pytest.mark.parametrize("kwargs", [
    {"n_shards": 0},
    {"digest_interval_s": -1.0},
    {"digest_interval_s": float("nan")},
    {"n_shards": float("inf")},
    {"n_shards": 2.5},
    {"n_shards": True},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        FederationConfig(**kwargs)
