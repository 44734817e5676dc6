"""A peer digest that ages past the TTL must leave the planner's views.

``DigestBoard.remote_load`` stops counting a stale digest, but a site
row built while the digest was fresh kept the dead shard's load until
something else invalidated the site — the next monitoring refresh, and
never for a site that is DOWN.  Expiry is an invalidation of its own.
"""

from repro.federation.digest import DigestBoard
from repro.simgrid.site import SiteState

from tests.core.reference_views import naive_views
from tests.federation.fedstack import USER, FedStack, one_job_dag

TTL_S = 100.0


def test_expire_reports_each_aged_out_digest_once():
    board = DigestBoard("me", ttl_s=TTL_S)
    assert board.next_expiry == float("inf")
    board.apply({"shard": "p1", "seq": 1, "issued_at": 0.0,
                 "sites": {"s0": [1, 0], "s2": [0, 1]}})
    board.apply({"shard": "p2", "seq": 1, "issued_at": 50.0,
                 "sites": {"s1": [2, 0]}})
    assert board.next_expiry == TTL_S
    assert board.expire(now=TTL_S) == ()  # at the TTL is still fresh
    assert board.expire(now=120.0) == ("s0", "s2")
    assert board.next_expiry == 50.0 + TTL_S
    assert board.expire(now=130.0) == ()  # p1 was reported already
    # A newer digest from the expired peer counts (and can expire) again.
    board.apply({"shard": "p1", "seq": 2, "issued_at": 125.0,
                 "sites": {"s0": [1, 0]}})
    assert board.expire(now=500.0) == ("s0", "s1")
    assert board.next_expiry == float("inf")


def test_expired_peer_digest_leaves_the_views():
    st = FedStack(n_shards=2, n_sites=3, fed_kw={"digest_ttl_s": TTL_S})
    planner, peer = st.servers["shard0"], st.servers["shard1"]
    for server in st.servers.values():
        server.policy.grant_unlimited(USER)
    # The peer plans one job, publishes once, and then goes quiet.
    st.submit("shard1", one_job_dag("d0"))
    peer.tick()
    site = peer.warehouse.table("jobs").get("d0.a")["site"]
    peer.publish_digest()
    st.run(until=st.env.now + 1.0)
    row = planner._site_row[site]
    assert planner._site_views()[row].planned_jobs == 1
    # The shared site dies, so no monitoring poll replaces its snapshot:
    # nothing but the expiry itself can refresh the row.
    st.grid.site(site).set_state(SiteState.DOWN)
    st.run(until=st.env.now + TTL_S + 1.0)
    assert planner.board.remote_load(site, st.env.now) == (0, 0)
    assert planner._site_views() == naive_views(planner)
    assert planner._site_views()[row].planned_jobs == 0
