"""End-to-end chaos drills: presets pass, violations are detected."""

import dataclasses

import pytest

from repro.chaos import ChaosPlan, CrashSpec, make_plan, run_chaos
from repro.core.server import SphinxServer
from repro.core.warehouse import Warehouse
from repro.experiments.figures import fig2_scenario

N_DAGS = 3
SEED = 42
HORIZON_S = 12 * 3600.0


def scenario():
    return fig2_scenario(N_DAGS, SEED, horizon_s=HORIZON_S)


@pytest.mark.parametrize("preset", ["lossy", "partition", "crash", "full"])
def test_preset_drill_completes_with_zero_violations(preset):
    res = run_chaos(scenario(), make_plan(preset, seed=1))
    assert res.ok, res.report.format_text()
    stats = res.report.stats
    assert stats["finished_dags"] == stats["dags"] > 0
    # The drill must actually have injected something.
    sched = res.fault_schedule
    assert (sched["transport_counts"] or sched["crashes"]
            or sched["sites"])


def test_double_server_crash_in_one_run():
    plan = ChaosPlan(
        name="double-crash",
        seed=2,
        crashes=(
            CrashSpec(component="server", at_s=900.0, down_s=120.0),
            CrashSpec(component="server", at_s=2600.0, down_s=120.0),
        ),
    )
    res = run_chaos(scenario(), plan)
    assert res.ok, res.report.format_text()
    # Two crash + two recover events per server label.
    per_label = {}
    for _t, _c, label, what in res.fault_schedule["crashes"]:
        per_label.setdefault(label, []).append(what)
    for events in per_label.values():
        assert events == ["crash", "recover", "crash", "recover"]


def test_recovery_re_exempts_the_user_before_refunding():
    """Quota-exempt users whose jobs carry requirements: the recovered
    server must have the exemption back before it refunds the requeued
    in-flight jobs, or the refund reads as "never charged"."""
    res = run_chaos(
        dataclasses.replace(fig2_scenario(3, 42),
                            job_requirements={"cpu_s": 60.0}),
        make_plan("crash", 1),
    )
    assert res.ok, res.report.format_text()


def test_crash_before_first_checkpoint_is_detected(monkeypatch):
    """A crash that leaves no image of the database behind (the database
    itself is lost) amnesia-wipes the server; the invariant checker
    must report the dags the client lost."""
    monkeypatch.setattr(SphinxServer, "checkpoint",
                        lambda self: Warehouse().snapshot())
    plan = ChaosPlan(
        name="amnesia",
        seed=3,
        crashes=(CrashSpec(component="server", at_s=60.0, down_s=60.0),),
    )
    res = run_chaos(scenario(), plan)
    assert not res.ok
    codes = {v.code for v in res.report.violations}
    assert "dag-lost" in codes


def test_identical_inputs_yield_identical_reports():
    plan = make_plan("full", seed=9)
    first = run_chaos(scenario(), plan)
    second = run_chaos(scenario(), plan)
    assert first.to_dict() == second.to_dict()
