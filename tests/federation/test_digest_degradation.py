"""Property-style sweep: digests are advisory, never load-bearing.

Whatever a shard's digest board holds — nothing at all, stale or
delayed peer state, ghost sites, absurd load claims, malformed
payloads — planning must still place every job, never crash, and
never plan onto a site outside the shard's own catalog.  Each case is
deterministic per seed, so a failure reproduces from the test id.
"""

import random

import pytest

from repro.core.states import JobState

from tests.federation.fedstack import USER, FedStack, one_job_dag


def random_digest(rng, seq, now, sites):
    """A peer digest of a random flavour, valid or hostile."""
    flavour = rng.choice(
        ["fresh", "stale-seq", "ancient", "ghost-sites", "huge-load",
         "malformed", "partial"]
    )
    base = {
        "shard": "shard1",
        "seq": seq,
        "issued_at": now,
        "sites": {s: [rng.randrange(4), rng.randrange(4)] for s in sites},
        "inflight_dags": rng.randrange(5),
    }
    if flavour == "stale-seq":
        base["seq"] = 0  # replays an old broadcast
    elif flavour == "ancient":
        base["issued_at"] = -1e6  # delivered aeons late
    elif flavour == "ghost-sites":
        base["sites"] = {"withdrawn-site": [99, 99],
                         rng.choice(sites): [1, 1]}
    elif flavour == "huge-load":
        base["sites"] = {s: [10**9, 10**9] for s in sites}
    elif flavour == "malformed":
        base = rng.choice([
            {"shard": "shard1"},
            {"shard": "shard1", "seq": "NaN", "sites": {}},
            {"no": "shard"},
        ])
    elif flavour == "partial":
        base["sites"] = {rng.choice(sites): [rng.randrange(4)]}
    return base


@pytest.mark.parametrize("seed", [0, 1, 7, 11, 23])
def test_planning_survives_arbitrary_digest_weather(seed):
    rng = random.Random(seed)
    st = FedStack(n_shards=2, n_sites=3)
    srv = st.servers["shard0"]
    srv.policy.grant_unlimited(USER)
    sites = sorted(st.catalog)
    for n_dag in range(6):
        for seq in range(rng.randrange(4)):
            srv._rpc_load_digest(
                random_digest(rng, seq + 10 * n_dag, st.env.now, sites)
            )
        st.submit("shard0", one_job_dag(f"d{n_dag}"))
        srv.tick()
        st.run(until=st.env.now + float(rng.randrange(1, 300)))
    jobs = list(srv.warehouse.table("jobs").select(copy=False))
    assert len(jobs) == 6
    for row in jobs:
        assert row["state"] != JobState.UNPLANNED.value
        assert row["site"] in st.catalog  # never a withdrawn/ghost site


@pytest.mark.parametrize("seed", [3, 5])
def test_quota_planning_survives_dropped_digests(seed):
    # No digest ever arrives (total drop): local truth alone must
    # still plan, including across a lease transfer.
    rng = random.Random(seed)
    st = FedStack(n_shards=2, n_sites=2)
    st.init_leases(2.0)  # 1.0 per shard
    order = ["shard0", "shard1"]
    rng.shuffle(order)
    for i, label in enumerate(order):
        st.submit(label, one_job_dag(f"d{i}", requirements={"slots": 1.0}))
        st.servers[label].tick()
    st.run(until=st.env.now + 600.0)
    for label in order:
        for row in st.servers[label].warehouse.table("jobs").select(
                copy=False):
            assert row["state"] != JobState.UNPLANNED.value
            assert row["site"] in st.catalog
