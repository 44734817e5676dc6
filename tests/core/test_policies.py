"""Unit and property tests for the quota policy engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import PolicyEngine, QuotaExceededError
from repro.core.warehouse import Warehouse


def engine():
    return PolicyEngine(Warehouse())


def test_no_grant_means_zero_quota():
    pe = engine()
    assert pe.granted("u", "s", "cpu") == 0.0
    assert pe.remaining("u", "s", "cpu") == 0.0


def test_grant_validation():
    with pytest.raises(ValueError):
        engine().grant("u", "s", "cpu", -1.0)


@pytest.mark.parametrize("amount", [-1.0, float("nan")])
def test_grant_rejects_amounts_that_are_not_nonnegative(amount):
    pe = engine()
    with pytest.raises(ValueError, match=r"u\|s\|cpu"):
        pe.grant("u", "s", "cpu", amount)
    assert pe.granted("u", "s", "cpu") == 0.0  # nothing was recorded


def test_charge_and_remaining():
    pe = engine()
    pe.grant("u", "s", "cpu", 100.0)
    pe.charge("u", "s", {"cpu": 30.0})
    assert pe.used("u", "s", "cpu") == 30.0
    assert pe.remaining("u", "s", "cpu") == 70.0


def test_charge_beyond_quota_rejected():
    pe = engine()
    pe.grant("u", "s", "cpu", 10.0)
    with pytest.raises(QuotaExceededError):
        pe.charge("u", "s", {"cpu": 11.0})
    assert pe.used("u", "s", "cpu") == 0.0  # nothing partially applied


def test_charge_is_all_or_nothing_across_resources():
    pe = engine()
    pe.grant("u", "s", "cpu", 100.0)
    pe.grant("u", "s", "disk", 5.0)
    with pytest.raises(QuotaExceededError):
        pe.charge("u", "s", {"cpu": 10.0, "disk": 10.0})
    assert pe.used("u", "s", "cpu") == 0.0


def test_refund_restores_quota():
    pe = engine()
    pe.grant("u", "s", "cpu", 100.0)
    pe.charge("u", "s", {"cpu": 40.0})
    pe.refund("u", "s", {"cpu": 40.0})
    assert pe.remaining("u", "s", "cpu") == 100.0


def test_refund_never_charged_rejected():
    pe = engine()
    with pytest.raises(QuotaExceededError):
        pe.refund("u", "s", {"cpu": 1.0})


def test_over_refund_rejected():
    pe = engine()
    pe.grant("u", "s", "cpu", 100.0)
    pe.charge("u", "s", {"cpu": 10.0})
    with pytest.raises(QuotaExceededError):
        pe.refund("u", "s", {"cpu": 20.0})


def test_unlimited_user_skips_everything():
    pe = engine()
    pe.grant_unlimited("root")
    pe.charge("root", "s", {"cpu": 1e9})
    pe.refund("root", "s", {"cpu": 1e9})
    assert pe.remaining("root", "s", "cpu") == float("inf")


def test_empty_requirements_always_pass():
    pe = engine()
    pe.charge("u", "s", {})  # no resources, no check
    assert pe.feasible_sites("u", {}, ["a", "b"]) == ("a", "b")


class TestFeasibleSites:
    def test_eq4_filter(self):
        pe = engine()
        pe.grant("u", "big", "cpu", 1000.0)
        pe.grant("u", "small", "cpu", 10.0)
        sites = pe.feasible_sites("u", {"cpu": 50.0}, ["big", "small"])
        assert sites == ("big",)

    def test_filter_accounts_for_usage(self):
        pe = engine()
        pe.grant("u", "s", "cpu", 100.0)
        assert pe.feasible_sites("u", {"cpu": 60.0}, ["s"]) == ("s",)
        pe.charge("u", "s", {"cpu": 60.0})
        assert pe.feasible_sites("u", {"cpu": 60.0}, ["s"]) == ()

    def test_multiple_resources_all_must_fit(self):
        pe = engine()
        pe.grant("u", "s", "cpu", 100.0)
        pe.grant("u", "s", "disk", 1.0)
        assert pe.feasible_sites("u", {"cpu": 10.0, "disk": 5.0}, ["s"]) == ()

    def test_per_user_isolation(self):
        pe = engine()
        pe.grant("alice", "s", "cpu", 100.0)
        assert pe.feasible_sites("alice", {"cpu": 10.0}, ["s"]) == ("s",)
        assert pe.feasible_sites("bob", {"cpu": 10.0}, ["s"]) == ()

    def test_unlimited_user_sees_all(self):
        pe = engine()
        pe.grant_unlimited("root")
        assert pe.feasible_sites("root", {"cpu": 1e9}, ["a", "b"]) == ("a", "b")


class TestHeadroom:
    """The tuple-pool fast path: per-user tight sets kept by the writers."""

    POOL = ("a", "b", "c")

    def bound(self, amount=10.0):
        pe = engine()
        for site in self.POOL:
            pe.grant("u", site, "cpu", amount)
        return pe

    def test_unfiltered_pool_comes_back_as_the_same_object(self):
        pe = self.bound()
        assert pe.feasible_sites("u", {"cpu": 4.0}, self.POOL) is self.POOL
        assert pe._headroom["u"].tight == set()

    def test_charge_and_refund_move_a_site_in_and_out(self):
        pe = self.bound()
        pe.feasible_sites("u", {"cpu": 4.0}, self.POOL)
        pe.charge("u", "b", {"cpu": 8.0})
        assert pe._headroom["u"].tight == {"b"}
        assert pe.feasible_sites("u", {"cpu": 4.0}, self.POOL) == ("a", "c")
        # A tight site is tested exactly: a smaller job still fits it.
        assert pe.feasible_sites("u", {"cpu": 2.0}, self.POOL) is self.POOL
        pe.refund("u", "b", {"cpu": 8.0})
        assert pe._headroom["u"].tight == set()
        assert pe.feasible_sites("u", {"cpu": 4.0}, self.POOL) is self.POOL

    def test_grant_rechecks_its_site(self):
        pe = self.bound()
        pe.feasible_sites("u", {"cpu": 4.0}, self.POOL)
        pe.grant("u", "c", "cpu", 1.0)
        assert pe.feasible_sites("u", {"cpu": 4.0}, self.POOL) == ("a", "b")
        pe.grant("u", "c", "cpu", 10.0)
        assert pe.feasible_sites("u", {"cpu": 4.0}, self.POOL) is self.POOL

    def test_larger_amount_or_new_resource_rebuilds_the_set(self):
        pe = self.bound()
        pe.charge("u", "a", {"cpu": 5.0})
        assert pe.feasible_sites("u", {"cpu": 4.0}, self.POOL) is self.POOL
        assert pe.feasible_sites("u", {"cpu": 6.0}, self.POOL) == ("b", "c")
        assert pe._headroom["u"].high == {"cpu": 6.0}
        # Nobody holds a disk grant: a resource first seen now must not
        # ride on the cpu-only classification.
        assert pe.feasible_sites("u", {"disk": 1.0}, self.POOL) == ()
        pe.grant("u", "b", "disk", 2.0)
        assert pe.feasible_sites("u", {"disk": 1.0}, self.POOL) == ("b",)

    def test_another_pool_is_classified_afresh(self):
        pe = self.bound()
        assert pe.feasible_sites("u", {"cpu": 4.0}, self.POOL) is self.POOL
        wider = self.POOL + ("ungranted",)
        assert pe.feasible_sites("u", {"cpu": 4.0}, wider) == self.POOL

    def test_unlimited_grant_drops_the_entry(self):
        pe = self.bound()
        pe.feasible_sites("u", {"cpu": 4.0}, self.POOL)
        pe.grant_unlimited("u")
        assert "u" not in pe._headroom
        assert pe.feasible_sites("u", {"cpu": 1e9}, self.POOL) is self.POOL

    def test_nan_amount_is_never_feasible(self):
        pe = self.bound()
        assert pe.feasible_sites("u", {"cpu": float("nan")}, self.POOL) == ()
        assert pe.feasible_sites("u", {"cpu": 4.0}, self.POOL) is self.POOL


def test_usage_survives_warehouse_round_trip():
    w = Warehouse()
    pe = PolicyEngine(w)
    pe.grant("u", "s", "cpu", 100.0)
    pe.charge("u", "s", {"cpu": 30.0})
    w2 = Warehouse()
    w2.restore(w.snapshot())
    pe2 = PolicyEngine(w2)
    pe2.grant("u", "s", "cpu", 100.0)  # grants are static config
    assert pe2.used("u", "s", "cpu") == 30.0
    assert pe2.remaining("u", "s", "cpu") == 70.0


@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.floats(0.1, 50.0)),
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_usage_never_negative_never_over_quota(ops):
    """Invariant: 0 <= used <= granted under any charge/refund sequence."""
    pe = engine()
    quota = 200.0
    pe.grant("u", "s", "cpu", quota)
    outstanding = []
    for is_charge, amount in ops:
        if is_charge:
            try:
                pe.charge("u", "s", {"cpu": amount})
                outstanding.append(amount)
            except QuotaExceededError:
                pass
        elif outstanding:
            pe.refund("u", "s", {"cpu": outstanding.pop()})
        used = pe.used("u", "s", "cpu")
        assert -1e-9 <= used <= quota + 1e-9
        assert used == pytest.approx(sum(outstanding), abs=1e-6)
