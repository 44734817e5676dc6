"""Observability must be invisible to the simulation.

The contract from :mod:`repro.obs`: tracer and registry are strictly
passive — no kernel events, no RNG draws, no clock movement — so an
instrumented run is *bit-identical* to a bare one.  These tests pin
that down for every collection mode:

* no obs vs metrics-only vs spans (with the kernel event-type tally):
  identical event counts and headline scheduling metrics;
* ``sample_sites`` (the one mode that *does* schedule events, for the
  telemetry sampler): scheduling metrics still identical, only the
  kernel event count grows by the sampler's ticks.
"""

import pytest

from repro.experiments.figures import fig2_scenario
from repro.experiments.runner import run_scenario
from repro.obs import Obs, ObsConfig

N_DAGS = 2
SEED = 7
HORIZON_S = 6 * 3600.0


def run(obs=None, heartbeat=None):
    scenario = fig2_scenario(N_DAGS, SEED, horizon_s=HORIZON_S)
    return run_scenario(scenario, obs=obs, heartbeat=heartbeat)


def headline(result):
    """Everything the experiments report, scheduling-wise."""
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
                dict(sorted(s.jobs_per_site.items())),
                dict(sorted(s.feedback_snapshot.items())),
            )
            for label, s in result.servers.items()
        },
    }


def scheduling_only(h):
    return {k: v for k, v in h.items() if k != "event_count"}


@pytest.fixture(scope="module")
def bare():
    return headline(run())


def test_metrics_only_obs_is_bit_identical(bare):
    obs = Obs(ObsConfig(spans=False))
    assert headline(run(obs=obs)) == bare


def test_span_tracing_is_bit_identical(bare):
    obs = Obs(ObsConfig(spans=True))
    result = run(obs=obs)
    assert headline(result) == bare
    # The tallied kernel loop really ran, and its per-type counts add
    # up to exactly the processed-event total.
    tallied = sum(
        inst.value for _l, inst in obs.metrics.find("kernel.events")
    )
    assert tallied == result.event_count
    assert obs.tracer.spans  # and spans were actually collected


def test_site_sampling_adds_only_sampler_events(bare):
    obs = Obs(ObsConfig(spans=False, sample_sites=True,
                        telemetry_interval_s=600.0))
    result = run(obs=obs)
    h = headline(result)
    assert scheduling_only(h) == scheduling_only(bare)
    assert h["event_count"] > bare["event_count"]
    assert obs.metrics.find("site.queue_depth")  # samples landed


def test_full_flight_recorder_is_bit_identical(bare, tmp_path):
    # The heaviest collection mode there is: streaming span sink,
    # histograms, open-span backstop, *and* a wall-clock
    # heartbeat driven from the kernel loop.  All of it is wall-clock
    # or file I/O work — the simulation cannot observe any of it.
    from repro.obs import Heartbeat
    from repro.obs.export import JsonlSpanSink

    sink = JsonlSpanSink(tmp_path / "spans.jsonl")
    obs = Obs(ObsConfig(spans=True, span_sink=sink, max_open_spans=10_000))
    hb = Heartbeat(path=tmp_path / "heartbeat.jsonl",
                   stream=None, every_events=1500)
    result = run(obs=obs, heartbeat=hb)
    assert headline(result) == bare
    assert hb.records[-1]["final"] is True
    assert hb.records[-1]["events"] == result.event_count
