"""The invariant checker must *detect*, not just bless.

Strategy: run a healthy (chaos-inert) drill, confirm it audits clean,
then tamper with the end state and assert the corresponding check
fires.  Tampering after the run keeps each test cheap and makes the
failure mode explicit.
"""

import pytest

from repro.chaos import ChaosPlan, make_plan, run_chaos
from repro.chaos.drills import ChaosController
from repro.chaos.invariants import check_invariants
from repro.experiments.figures import fig2_scenario, fig7_scenario
from repro.experiments.runner import run_scenario
from repro.sim import Environment

HORIZON_S = 12 * 3600.0


@pytest.fixture(scope="module")
def healthy():
    """One inert-plan run with the controller attached (shared: the
    tamper tests each re-audit their own copy of the violation)."""
    scenario = fig2_scenario(2, 42, horizon_s=HORIZON_S)
    controller = ChaosController(ChaosPlan())
    env = Environment()
    run_scenario(scenario, env=env, obs=None, chaos=controller)
    return scenario, controller


def audit(scenario, controller):
    return check_invariants(controller.servers, controller.clients,
                            scenario)


def test_healthy_run_audits_clean(healthy):
    scenario, controller = healthy
    report = audit(scenario, controller)
    assert report.ok, report.format_text()
    assert report.stats["finished_dags"] == report.stats["dags"]


def test_detects_excess_completion_tallies(healthy):
    scenario, controller = healthy
    label = sorted(controller.servers)[0]
    server = controller.servers[label]
    server.feedback.record_completion("s0")  # a double-applied effect
    try:
        report = audit(scenario, controller)
        codes = {(v.code, v.server) for v in report.violations}
        assert ("exactly-once-effects", label) in codes
    finally:
        server.feedback.record_cancellation("s0")  # keep counts sane
        server.warehouse.table("site_feedback").update(
            "s0", cancelled=0
        )


def test_detects_non_terminal_dag(healthy):
    scenario, controller = healthy
    label = sorted(controller.servers)[0]
    dags = controller.servers[label].warehouse.table("dags")
    dag_id = next(iter(r["dag_id"] for r in dags.select(copy=False)))
    original = dags.get(dag_id)["state"]
    dags.update(dag_id, state="running")
    try:
        report = audit(scenario, controller)
        codes = {v.code for v in report.violations}
        assert "dag-terminal" in codes
    finally:
        dags.update(dag_id, state=original)


def test_detects_job_orphaned_from_its_dag(healthy):
    scenario, controller = healthy
    label = sorted(controller.servers)[0]
    jobs = controller.servers[label].warehouse.table("jobs")
    job_id = next(iter(r["job_id"] for r in jobs.select(copy=False)))
    original = jobs.get(job_id)["dag_id"]
    jobs.update(job_id, dag_id="ghost-dag")
    try:
        report = audit(scenario, controller)
        codes = {v.code for v in report.violations}
        assert "job-referential" in codes
    finally:
        jobs.update(job_id, dag_id=original)


def test_detects_quota_ledger_drift():
    """Under a quota'd scenario, a corrupted usage row must be caught."""
    scenario = fig7_scenario(2, 42, horizon_s=HORIZON_S)
    res = run_chaos(scenario, make_plan("crash", seed=5))
    assert res.ok, res.report.format_text()

    # Re-run with a held controller so we can tamper with the ledger.
    controller = ChaosController(make_plan("crash", seed=5))
    env = Environment()
    run_scenario(scenario, env=env, chaos=controller)
    env.run(until=env.now + 60.0)
    label = sorted(controller.servers)[0]
    usage = controller.servers[label].warehouse.table("quota_usage")
    rows = list(usage.select(copy=False))
    assert rows, "quota'd scenario must have usage rows"
    usage.update(rows[0]["key"], used=rows[0]["used"] + 999.0)
    report = check_invariants(controller.servers, controller.clients,
                              scenario)
    assert any(v.code == "quota-conservation" and v.server == label
               for v in report.violations)
