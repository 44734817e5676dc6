"""Unit tests for chaos plan construction and validation."""

import json

import pytest

from repro.chaos import (
    PRESET_PLANS,
    ChaosPlan,
    CrashSpec,
    FaultRule,
    PartitionWindow,
    make_plan,
    random_plan,
)


NAN = float("nan")


def crash(**kw):
    return CrashSpec("server", **{"at_s": 1.0, **kw})


def partition(**kw):
    return PartitionWindow(**{"service": "x", "start_s": 10.0,
                              "end_s": 20.0, **kw})


@pytest.mark.parametrize("build, bound, fields, bads", [
    (FaultRule, r"in \[0, 1\]", ("drop_p", "dup_p", "delay_p"),
     (-0.1, 1.5, NAN)),
    (FaultRule, ">= 0", ("max_extra_delay_s", "dup_delay_s"), (-1.0, NAN)),
    (partition, ">= 0", ("start_s",), (-1.0, NAN)),
    (partition, "> start_s", ("end_s",), (10.0, 5.0, NAN)),
    (crash, ">= 0", ("at_s",), (-1.0, NAN)),
    (crash, "> 0", ("down_s",), (0.0, -1.0, NAN)),
    (ChaosPlan, "> 0",
     ("site_mtbf_s", "site_mttr_s", "presume_lost_after_s",
      "eviction_mtbf_s", "eviction_outage_s"), (0.0, -1.0, NAN)),
    (ChaosPlan, ">= 0",
     ("eviction_notice_s", "job_checkpoint_interval_s",
      "job_checkpoint_cost_s"), (-1.0, NAN)),
])
def test_bad_numbers_are_rejected_naming_class_and_field(build, bound,
                                                         fields, bads):
    # ``x < 0`` style checks let NaN through; every bound is written
    # ``not x >= 0`` and the message names class and field.
    for field in fields:
        for bad in bads:
            with pytest.raises(
                ValueError, match=rf"^[A-Z]\w+\.{field} must be {bound}, got",
            ):
                build(**{field: bad})


class TestFaultRule:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultRule(drop_p=-0.1)
        with pytest.raises(ValueError):
            FaultRule(dup_p=1.5)
        with pytest.raises(ValueError):
            FaultRule(drop_p=0.5, dup_p=0.4, delay_p=0.2)  # sums > 1
        with pytest.raises(ValueError):
            FaultRule(max_extra_delay_s=-1.0)

    def test_matching_is_glob_based(self):
        rule = FaultRule(service="sphinx-server-*", method="report_*")
        assert rule.matches("sphinx-server-a", "report_status")
        assert not rule.matches("sphinx-client-a", "report_status")
        assert not rule.matches("sphinx-server-a", "submit_dag")

    def test_activity(self):
        assert not FaultRule().active
        assert FaultRule(drop_p=0.1).active


class TestPartitionWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionWindow(service="x", start_s=10.0, end_s=10.0)
        with pytest.raises(ValueError):
            PartitionWindow(service="x", start_s=-1.0, end_s=5.0)

    def test_covers_half_open_interval(self):
        w = PartitionWindow(service="sphinx-*", start_s=10.0, end_s=20.0)
        assert w.covers("sphinx-server-a", 10.0)
        assert w.covers("sphinx-server-a", 19.9)
        assert not w.covers("sphinx-server-a", 20.0)
        assert not w.covers("other", 15.0)


class TestCrashSpec:
    def test_needs_an_instant_or_a_window(self):
        with pytest.raises(ValueError):
            CrashSpec(component="server")
        CrashSpec(component="server", at_s=100.0)
        CrashSpec(component="client", window=(100.0, 200.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            CrashSpec(component="database", at_s=1.0)
        with pytest.raises(ValueError):
            CrashSpec(component="server", at_s=1.0, down_s=0.0)
        with pytest.raises(ValueError):
            CrashSpec(component="server", window=(200.0, 100.0))


class TestChaosPlan:
    def test_default_plan_is_inert(self):
        plan = ChaosPlan()
        assert not plan.active
        assert not plan.transport_active

    def test_activity_per_layer(self):
        assert ChaosPlan(rules=(FaultRule(drop_p=0.1),)).transport_active
        assert ChaosPlan(
            crashes=(CrashSpec(component="server", at_s=1.0),)
        ).active
        assert ChaosPlan(site_mtbf_s=3600.0).active
        # Inactive rules do not make the transport active.
        assert not ChaosPlan(rules=(FaultRule(),)).transport_active

    def test_rule_for_returns_first_active_match(self):
        specific = FaultRule(service="sphinx-server-*", drop_p=0.2)
        broad = FaultRule(service="sphinx-*", drop_p=0.1)
        plan = ChaosPlan(rules=(specific, broad))
        assert plan.rule_for("sphinx-server-a", "m") is specific
        assert plan.rule_for("sphinx-client-a", "m") is broad
        assert plan.rule_for("other", "m") is None

    def test_presets_build_and_serialize(self):
        for name in PRESET_PLANS:
            plan = make_plan(name, seed=7)
            assert plan.name == name
            assert plan.seed == 7
            json.dumps(plan.to_dict())  # must be JSON-ready

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown chaos plan"):
            make_plan("nope")


class TestRandomPlan:
    def test_deterministic_per_seed(self):
        assert random_plan(5) == random_plan(5)
        assert random_plan(5) != random_plan(6)

    def test_stays_inside_liveness_envelope(self):
        for seed in range(20):
            plan = random_plan(seed)
            rule = plan.rules[0]
            assert rule.drop_p <= 0.20
            assert rule.drop_p + rule.dup_p + rule.delay_p <= 1.0
            for crash in plan.crashes:
                assert crash.component == "server"
                assert crash.down_s <= 300.0
