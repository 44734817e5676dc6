"""A server crash forgets nothing the warehouse had written.

The paper keeps all scheduling state in database tables so the system
is "easily recoverable from internal component failures" (§3.1): every
transition is durable the moment it is made.  A crash drill therefore
hands the replacement the warehouse as it stood at the crash instant —
a completion the crashed server heard is never re-run, and no quota it
charged or refunded is charged or refunded again.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.chaos import ChaosController, ChaosPlan, CrashSpec, make_plan
from repro.chaos import check_invariants, run_chaos
from repro.core.states import DagState, JobState
from repro.experiments.figures import ext_eviction_scenario, fig345_scenario
from repro.workflow import Dag, Job, LogicalFile

from tests.integration.stack import FullStack


def test_eviction_storm_with_server_crash_conserves_quota():
    plan = dataclasses.replace(
        make_plan("spot-eviction", 42),
        crashes=(CrashSpec("server", at_s=1300.0, down_s=180.0),),
    )
    res = run_chaos(ext_eviction_scenario(250, 60, 42), plan)
    assert res.ok, res.report.format_text()


@pytest.mark.parametrize("seed", [3, 7])
def test_crash_drill_forgets_no_completion(seed):
    res = run_chaos(fig345_scenario(30, seed=seed), make_plan("crash", seed))
    assert res.ok, res.report.format_text()


CPU_S = 100.0


def test_completion_heard_before_the_crash_is_never_rerun():
    """``q.a`` finishes at ~400 s and the server hears it; the server
    crashes at 500 s while ``q.b`` runs.  The replacement must hold
    ``q.a`` finished on its first attempt, charged once."""
    st = FullStack(tick_s=2.0, quota={"cpu_s": 10 * CPU_S})
    out = LogicalFile("q.a.out", 1.0)
    st.submit(Dag("q", [
        Job("q.a", outputs=(out,), runtime_s=400.0,
            requirements={"cpu_s": CPU_S}),
        Job("q.b", inputs=(out,), runtime_s=300.0,
            requirements={"cpu_s": CPU_S}),
    ]))
    controller = ChaosController(ChaosPlan(
        crashes=(CrashSpec("server", at_s=500.0, down_s=60.0),),
    ))
    controller.bus = st.bus
    controller.register("it", server=st.server, client=st.client,
                        reconfigure=st.apply_policy)
    controller.install(st.env, st.grid)
    st.run(until=4 * 3600.0)

    server = controller.servers["it"]
    assert server is not st.server  # the drill did replace it
    jobs = server.warehouse.table("jobs")
    first = jobs.get("q.a")
    assert first["state"] == JobState.FINISHED.value
    assert first["finished_at"] < 500.0
    assert first["attempts"] == 1
    assert server.warehouse.table("dags").get("q")["state"] == \
        DagState.FINISHED.value
    charged = sum(
        server.policy.used(st.user.proxy, site, "cpu_s")
        for site in st.catalog
    )
    assert charged == 2 * CPU_S
    report = check_invariants(
        {"it": server}, {"it": st.client}, st.bus,
        SimpleNamespace(quota_per_site={"cpu_s": 10 * CPU_S}),
    )
    assert report.ok, report.format_text()
