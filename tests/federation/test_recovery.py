"""Multi-server crash recovery: a recovered shard rebuilds its site
views and quota-lease state from the checkpoint without double-charging
(the federated extension of the single-server recovery tests)."""

from repro.core import recover_server
from repro.core.states import JobState
from repro.federation import FederatedSphinxServer
from repro.federation.digest import DigestBoard

from tests.federation.fedstack import USER, FedStack, one_job_dag


def recover_shard(st, label):
    """Crash one shard and bring up its replacement, re-federated."""
    old = st.servers[label]
    checkpoint = old.checkpoint()
    old.shutdown()
    replacement = recover_server(
        st.env, st.bus, st.configs[label], st.catalog, st.monitoring,
        st.rls, checkpoint, server_cls=type(old),
    )
    replacement.enable_federation(st.fed, label, st.services)
    st.servers[label] = replacement
    return replacement


def test_recovered_shard_restores_leases_and_grants():
    st = FedStack()
    st.init_leases(2.0)
    donor = st.servers["shard0"]
    gave = donor.ledger.grant_transfer(USER, "s0", "slots", 0.5,
                                       "shard1", "t:1")
    assert gave == 0.5
    server2 = recover_shard(st, "shard0")
    # Lease rows rode the checkpoint; the ledger re-derived the policy
    # grants from them (grants live outside the warehouse).
    assert server2.ledger.lease_amount(USER, "s0", "slots") == 0.5
    assert server2.ledger.lease_amount(USER, "s1", "slots") == 1.0
    assert server2.policy.remaining(USER, "s0", "slots") == 0.5
    assert len(server2.ledger.debits) == 1
    # Conservation across the crash: 0.5 here + 1.0 on the peer + the
    # 0.5 in-flight debit == the 2.0 global grant.
    peer = st.servers["shard1"].ledger.lease_amount(USER, "s0", "slots")
    assert peer == 1.0


def test_recovered_shard_does_not_double_charge():
    st = FedStack(n_sites=1)
    st.init_leases(2.0)  # 1.0 per shard: exactly one planned job's worth
    srv = st.servers["shard0"]
    st.submit("shard0", one_job_dag("d0", requirements={"slots": 1.0}))
    srv.tick()
    assert srv.warehouse.table("jobs").get("d0.a")["state"] == (
        JobState.PLANNED.value)
    assert srv.policy.used(USER, "s0", "slots") == 1.0
    server2 = recover_shard(st, "shard0")
    # The in-flight job was requeued and its reservation refunded once;
    # re-applying lease grants must not have re-applied the usage.
    row = server2.warehouse.table("jobs").get("d0.a")
    assert row["state"] == JobState.CANCELLED.value
    assert server2.policy.used(USER, "s0", "slots") == 0.0
    assert server2.policy.remaining(USER, "s0", "slots") == 1.0
    # ...so the replacement can plan the requeued job again.
    server2.tick()
    assert server2.policy.used(USER, "s0", "slots") == 1.0


def test_recovered_shard_rebuilds_site_views_from_digests():
    st = FedStack()
    for srv in st.servers.values():
        srv.policy.grant_unlimited(USER)
    server2 = recover_shard(st, "shard0")
    assert isinstance(server2, FederatedSphinxServer)
    # Fresh incarnation: empty digest board, remote-load seam wired,
    # every site-table row stale (pre-crash views never linger).
    assert isinstance(server2.board, DigestBoard)
    assert server2.board.digests == {}
    assert server2._remote_load("s0") == (0, 0)
    assert server2._stale == set(server2.site_catalog)
    # A peer digest flows into the replacement's site views.
    st.servers["shard1"].publish_digest()
    st.run(until=st.env.now + 1.0)
    assert server2.board.digests  # the broadcast landed
