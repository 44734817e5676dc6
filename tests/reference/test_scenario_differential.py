"""Whole-scenario differential: a run as shipped == on the reference stack.

The per-layer differentials drive one layer with random operations; here
two of the benchmark's workloads, at toy size, run end to end twice.  The
twins are event-for-event equivalents, so everything modelled must come
out equal — the kernel's ``event_count`` included.  The local load that
runs in cohorts as shipped is one recorded, process-driven job per
arrival member on the reference stack.  Deterministic: no
Hypothesis, fixed scenario and plan seeds.
"""

from unittest import mock

import pytest

from repro.chaos.plan import make_plan
from repro.chaos.run import run_chaos
from repro.experiments.figures import ext_eviction_scenario, ext_scale_scenario
from repro.experiments.runner import run_scenario

from tests.reference.stack import patch_reference_stack
from tests.simgrid.reference_local_scheduler import ReferenceLocalScheduler


def run_scale():
    return run_scenario(ext_scale_scenario(50, 30)), 0


def run_eviction():
    drill = run_chaos(ext_eviction_scenario(50, 3), make_plan("spot-eviction", 42))
    return drill.result, len(drill.report.violations)


def outcome(result, violations):
    return {
        "events": result.event_count,
        "rpcs": result.rpc_count,
        "elapsed_sim_s": result.elapsed_sim_s,
        "violations": violations,
        "servers": {
            label: (
                dict(s.dag_completion_times), dict(s.jobs_per_site),
                s.resubmissions, s.migrations, s.timeouts,
                s.checkpoint_restores,
            )
            for label, s in result.servers.items()
        },
    }


@pytest.mark.parametrize("run", [run_scale, run_eviction])
def test_shipped_run_equals_reference_stack_run(run, monkeypatch):
    shipped = outcome(*run())
    patch_reference_stack(monkeypatch)
    with mock.patch.object(
        ReferenceLocalScheduler, "submit", autospec=True,
        side_effect=ReferenceLocalScheduler.submit,
    ) as twin_submit, mock.patch.object(
        ReferenceLocalScheduler, "submit_local", autospec=True,
        side_effect=ReferenceLocalScheduler.submit_local,
    ) as twin_submit_local:
        reference = outcome(*run())
    # the twin really carried the run, local load included: every local
    # job went through its per-job submit, none through a cohort
    assert 0 < twin_submit_local.call_count < twin_submit.call_count
    assert "submit_local" in vars(ReferenceLocalScheduler)
    assert shipped["violations"] == 0
    assert all(times for times, *_ in shipped["servers"].values())
    assert reference == shipped
