"""Property-style sweep: random plans inside the liveness envelope
must always end with every DAG complete and zero violations.

Each plan is deterministic per seed (see random_plan), so a failure
here reproduces exactly from the seed in the test id.
"""

import pytest

from repro.chaos import random_plan, run_chaos
from repro.experiments.figures import fig2_scenario

HORIZON_S = 12 * 3600.0


@pytest.mark.parametrize("seed", [0, 1, 7, 11])
def test_random_plan_preserves_invariants(seed):
    scenario = fig2_scenario(3, 42, horizon_s=HORIZON_S)
    plan = random_plan(seed, horizon_s=HORIZON_S)
    res = run_chaos(scenario, plan)
    assert res.ok, (
        f"seed {seed}: {res.report.format_text()}\n"
        f"plan: {plan.to_dict()}"
    )
    stats = res.report.stats
    assert stats["finished_dags"] == stats["dags"] > 0
