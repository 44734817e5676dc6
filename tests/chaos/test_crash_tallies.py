"""Server tallies survive a crash: the reported counts are whole-run.

A crash late enough to follow requeues is the case that tells a
durable tally from one that restarts at zero with the replacement: the
``crash`` preset's 1,300 s instant comes before the first requeue of
the four-way comparison, so the drill moves it to 5,000 s.
"""

import dataclasses

import pytest

from repro.chaos import make_plan, run_chaos
from repro.core.recovery import recover_server
from repro.core.server import TALLIES
from repro.experiments.figures import fig345_scenario
from repro.obs import Obs, ObsConfig
from tests.integration.stack import FullStack

TALLY_NAMES = tuple(TALLIES)

#: ServerResult field -> the registry counter that counts it
COUNTERS = {
    "resubmissions": "server.resubmissions",
    "timeouts": "server.timeouts",
    "migrations": "server.migrations",
    "checkpoint_restores": "job.checkpoint_restores",
}


@pytest.fixture(scope="module")
def late_crash():
    plan = make_plan("crash", 1)
    (crash,) = plan.crashes
    plan = dataclasses.replace(
        plan, crashes=(dataclasses.replace(crash, at_s=5000.0),))
    obs = Obs(ObsConfig(spans=False))
    drill = run_chaos(fig345_scenario(30, 1), plan, obs=obs)
    return drill, obs


def test_the_drill_crashes_every_server_after_requeues(late_crash):
    drill, _obs = late_crash
    crashes = drill.fault_schedule["crashes"]
    assert [what for _t, _c, _l, what in crashes].count("crash") == 4
    assert all(t >= 5000.0 for t, *_ in crashes)
    assert drill.ok, drill.report.format_text()


@pytest.mark.parametrize("field", sorted(COUNTERS))
def test_server_result_reports_the_whole_run_count(late_crash, field):
    drill, obs = late_crash
    for label, server in drill.result.servers.items():
        (counted,) = [inst.value for labels, inst
                      in obs.metrics.find(COUNTERS[field])
                      if labels == {"server": label}]
        assert getattr(server, field) == counted, (label, field)
    assert drill.result["queue-length"].resubmissions > 0


def test_a_snapshot_reads_rpc_calls_from_the_bus(late_crash):
    drill, obs = late_crash
    (calls,) = [c["value"] for c in obs.metrics.snapshot()["counters"]
                if c["name"] == "rpc.calls"]
    assert calls == drill.result.rpc_count > 0


def _crash_and_recover(st, image):
    st.server.shutdown()
    return recover_server(st.env, st.bus, st.config, st.catalog,
                          st.monitoring, st.rls, image)


def test_recover_server_restores_every_tally_from_the_image():
    st = FullStack()
    counts = {name: i + 1 for i, name in enumerate(TALLY_NAMES)}
    counts["preempted_work_s"] = 12.5
    for name, n in counts.items():
        st.server._count(name, n)
    server = _crash_and_recover(st, st.server.checkpoint())
    assert {name: server.tally(name) for name in TALLY_NAMES} == counts


def test_an_image_without_the_tallies_table_recovers_to_zeros():
    st = FullStack()
    st.server._count("resubmissions", 3)
    image = st.server.checkpoint()
    del image["tables"]["tallies"]
    server = _crash_and_recover(st, image)
    assert {name: server.tally(name) for name in TALLY_NAMES} == TALLIES
    assert repr(server.tally("preempted_work_s")) == "0.0"
