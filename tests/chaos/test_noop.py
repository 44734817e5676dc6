"""Chaos disabled must mean *identical*, not just "close".

Same discipline as the obs no-op pin (tests/obs/test_noop_overhead.py):
a run with an inert ChaosController must be bit-identical — same kernel
event count, same metrics, same completion times — to a run with no
controller at all.  Any unconditional behaviour
change sneaking into the chaos wiring shows up here as drift.
"""

import pytest

from repro.chaos import ChaosController, ChaosPlan
from repro.experiments.figures import fig2_scenario
from repro.experiments.runner import run_scenario

N_DAGS = 3
SEED = 42
HORIZON_S = 12 * 3600.0


def run(chaos=None):
    scenario = fig2_scenario(N_DAGS, SEED, horizon_s=HORIZON_S)
    return run_scenario(scenario, chaos=chaos)


def headline(result):
    return {
        "event_count": result.event_count,
        "elapsed_sim_s": result.elapsed_sim_s,
        "horizon_reached": result.horizon_reached,
        "rpc_count": result.rpc_count,
        "servers": {
            label: (
                s.finished_dags,
                dict(sorted(s.dag_completion_times.items())),
                s.job_completion_times,
                s.resubmissions,
                s.timeouts,
            )
            for label, s in result.servers.items()
        },
    }


@pytest.fixture(scope="module")
def baseline():
    return headline(run())


def test_inert_controller_is_bit_identical(baseline):
    controller = ChaosController(ChaosPlan())
    assert headline(run(chaos=controller)) == baseline
    # And the controller stayed inert: nothing logged, nothing injected.
    assert controller.crash_log == []
    assert controller.fault_schedule()["transport_counts"] == {}


def test_inert_controller_leaves_server_configs_alone():
    controller = ChaosController(ChaosPlan())
    assert controller.server_config() == {}
    result = run(chaos=controller)
    for server in controller.servers.values():
        assert server.config.presume_lost_after_s == float("inf")
    assert result.servers  # the run actually produced results
