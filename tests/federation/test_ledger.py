"""Unit tests: the shard quota ledger's transfer protocol.

Conservation is the headline property — the sum of all shards' leases
(plus debits whose credit never landed) must equal the global grant
through any sequence of transfers, replays, and recoveries.
"""

from tests.federation.fedstack import (
    USER,
    FedStack,
    lease_amount,
    unmatched_debits,
)
from tests.federation.test_recovery import recover_shard


def lease_total(st, site="s0", resource="slots", user=USER):
    return sum(
        lease_amount(srv.ledger, user, site, resource)
        for srv in st.servers.values()
    )


def test_init_lease_mirrors_policy_grant():
    st = FedStack()
    st.init_leases(2.0)
    for srv in st.servers.values():
        assert lease_amount(srv.ledger, USER, "s0", "slots") == 1.0
        assert srv.policy.remaining(USER, "s0", "slots") == 1.0


def test_grant_transfer_gives_full_spare_up_to_request():
    st = FedStack()
    st.init_leases(2.0)
    donor = st.servers["shard0"].ledger
    # Ask for more than the spare: capped at the donor's full spare —
    # partial (e.g. halved) grants would converge on the pool only
    # asymptotically and starve a k-full-slot user forever.
    gave = donor.grant_transfer(USER, "s0", "slots", 1.5, "shard1", "x:1")
    assert gave == 1.0
    assert lease_amount(donor, USER, "s0", "slots") == 0.0
    # Ask within the spare: granted exactly.
    donor2 = st.servers["shard1"].ledger
    assert donor2.grant_transfer(USER, "s0", "slots", 0.25,
                                 "shard0", "y:1") == 0.25
    assert lease_amount(donor2, USER, "s0", "slots") == 0.75


def test_grant_transfer_respects_reserved_usage():
    st = FedStack()
    st.init_leases(4.0)  # 2.0 per shard
    srv = st.servers["shard0"]
    srv.policy.charge(USER, "s0", {"slots": 1.5})
    gave = srv.ledger.grant_transfer(USER, "s0", "slots", 2.0,
                                     "shard1", "x:1")
    assert gave == 0.5  # spare = 2.0 lease - 1.5 reserved


def test_grant_transfer_replay_is_idempotent():
    st = FedStack()
    st.init_leases(2.0)
    donor = st.servers["shard0"].ledger
    first = donor.grant_transfer(USER, "s0", "slots", 0.5, "shard1", "t:1")
    again = donor.grant_transfer(USER, "s0", "slots", 0.5, "shard1", "t:1")
    assert first == again == 0.5
    assert lease_amount(donor, USER, "s0", "slots") == 0.5  # debited once
    assert len(donor.debits) == 1


def test_apply_credit_replay_is_idempotent():
    st = FedStack()
    st.init_leases(2.0)
    taker = st.servers["shard1"].ledger
    taker.apply_credit("t:1", USER, "s0", "slots", 0.5, "shard0")
    taker.apply_credit("t:1", USER, "s0", "slots", 0.5, "shard0")
    assert lease_amount(taker, USER, "s0", "slots") == 1.5  # credited once
    assert len(taker.credits) == 1


def test_apply_credit_recreates_lost_lease_row():
    st = FedStack()
    taker = st.servers["shard1"].ledger
    assert not taker.has_lease(USER, "s0", "slots")
    taker.apply_credit("t:9", USER, "s0", "slots", 0.75, "shard0")
    assert lease_amount(taker, USER, "s0", "slots") == 0.75
    assert taker.server.policy.remaining(USER, "s0", "slots") == 0.75


def test_transfers_conserve_the_global_grant():
    st = FedStack(n_shards=3)
    st.init_leases(3.0)
    ledgers = [srv.ledger for srv in st.servers.values()]
    moves = [(0, 1, 0.4), (1, 2, 0.9), (2, 0, 0.3), (0, 2, 1.1)]
    for n, (i, j, amount) in enumerate(moves):
        tid = f"m:{n}"
        gave = ledgers[i].grant_transfer(USER, "s0", "slots", amount,
                                         f"shard{j}", tid)
        ledgers[j].apply_credit(tid, USER, "s0", "slots", gave, f"shard{i}")
        assert abs(lease_total(st) - 3.0) < 1e-9


def test_lost_credit_shows_as_unmatched_debit():
    st = FedStack()
    st.init_leases(2.0)
    donor = st.servers["shard0"].ledger
    gave = donor.grant_transfer(USER, "s0", "slots", 0.5, "shard1", "t:1")
    assert gave == 0.5
    # The reply died with the requester: quota burns conservatively but
    # the books still balance once unmatched debits are counted.
    assert lease_total(st) == 1.5
    unmatched = unmatched_debits(donor, matched_ids=set())
    assert [r["transfer_id"] for r in unmatched] == ["t:1"]
    assert lease_total(st) + sum(r["amount"] for r in unmatched) == 2.0
    assert unmatched_debits(donor, matched_ids={"t:1"}) == []


def test_debit_survives_a_donor_crash():
    # Every warehouse write is durable when made, so a donor that
    # crashes right after granting comes back holding its debits: a
    # credit the requester applied is never minted twice.
    st = FedStack()
    st.init_leases(2.0)
    donor = st.servers["shard0"].ledger
    taker = st.servers["shard1"].ledger
    gave = donor.grant_transfer(USER, "s0", "slots", 0.5, "shard1", "t:1")
    taker.apply_credit("t:1", USER, "s0", "slots", gave, "shard0")
    donor.grant_transfer(USER, "s0", "slots", 0.25, "shard1", "t:2")
    recovered = recover_shard(st, "shard0").ledger
    assert lease_amount(recovered, USER, "s0", "slots") == 0.25
    assert [r["transfer_id"] for r in recovered.debits.select()] == [
        "t:1", "t:2"]
    # t:2's reply died with the crash: its debit stays unmatched.
    matched = {r["transfer_id"] for r in taker.credits.select()}
    unmatched = unmatched_debits(recovered, matched)
    assert lease_total(st) + sum(r["amount"] for r in unmatched) == 2.0
