"""Tests for the parallel suite runner (repro.experiments.parallel)."""

import json
import math

import pytest

from repro.experiments import (
    Scenario,
    ServerSpec,
    SuiteCase,
    default_suite,
    eviction_suite,
    federation_suite,
    headline_metrics,
    run_suite,
    scale_suite,
    suite_payload,
)
from repro.chaos import make_plan
from repro.experiments.parallel import _scaled, planning_latency_percentiles
from repro.federation import ext_federation_scenario, run_federation
from repro.obs import MetricsRegistry, Obs, ObsConfig
from repro.obs.metrics import Histogram
from repro.simgrid.grid import SiteSpec

#: A small fault-free grid so suite tests stay fast.
TINY_SITES = (
    SiteSpec("alpha", n_cpus=16, perf_factor=1.0, uplink_mbps=20.0,
             background_utilization=0.3, service_noise_sigma=0.05),
    SiteSpec("beta", n_cpus=8, perf_factor=1.5, uplink_mbps=10.0,
             background_utilization=0.2, service_noise_sigma=0.05),
)


def tiny_case(name, seed=7, **kw):
    kw.setdefault("servers", (ServerSpec("ct", "completion-time"),
                              ServerSpec("rr", "round-robin")))
    kw.setdefault("n_dags", 2)
    kw.setdefault("sites", TINY_SITES)
    kw.setdefault("fault_windows", ())
    kw.setdefault("horizon_s", 6 * 3600.0)
    return SuiteCase(name, Scenario(name=name, seed=seed, **kw))


TINY_CASES = (tiny_case("a", seed=7), tiny_case("b", seed=8),
              tiny_case("c", seed=9))


def test_sequential_and_parallel_metrics_bit_identical():
    """The tentpole contract: fanning over a process pool must not
    change a single simulation metric relative to an in-process run."""
    seq = run_suite(TINY_CASES, workers=1)
    par = run_suite(TINY_CASES, workers=2)
    assert [headline_metrics(r.result) for r in seq] == \
           [headline_metrics(r.result) for r in par]


def test_results_come_back_in_case_order():
    runs = run_suite(TINY_CASES, workers=2)
    assert [r.name for r in runs] == ["a", "b", "c"]


def test_wall_clock_measured_per_case():
    runs = run_suite(TINY_CASES[:1], workers=1)
    assert runs[0].wall_s > 0


def test_event_count_recorded():
    runs = run_suite(TINY_CASES[:1], workers=1)
    assert runs[0].result.event_count > 0


def test_workers_validation():
    with pytest.raises(ValueError):
        run_suite(TINY_CASES, workers=0)


def test_drilled_federated_case_runs_and_audits():
    """A planned case is a drill whatever its topology (it used to go to
    the competing-servers driver and die on ``scenario.servers``)."""
    case = SuiteCase(
        "x", ext_federation_scenario(n_shards=2, dags_per_user=1, seed=42),
        plan=make_plan("lossy", 1),
    )
    (run,) = run_suite([case], workers=1)
    assert run.result.event_count == 1628
    assert sum(s.finished_dags for s in run.result.servers.values()) == 4


def test_federated_run_starts_the_site_sampler():
    obs = Obs(ObsConfig(spans=False, sample_sites=True,
                        telemetry_interval_s=600.0))
    run_federation(
        ext_federation_scenario(n_shards=2, dags_per_user=1, seed=42),
        obs=obs,
    )
    assert obs.metrics.find("site.queue_depth")


def test_default_suite_covers_figures_and_ablations():
    cases = default_suite(scale=0.1)
    names = [c.name for c in cases]
    for expected in ("fig2", "fig3", "fig4", "fig5-pair-queue-length",
                     "fig5-pair-num-cpus", "fig5-pair-round-robin",
                     "fig6", "fig7", "fig8", "ablation-estimator",
                     "ablation-staleness-300s"):
        assert expected in names
    assert len(names) == len(set(names))


def test_default_suite_scales_workloads():
    full = {c.name: c.scenario.n_dags for c in default_suite(scale=1.0)}
    small = {c.name: c.scenario.n_dags for c in default_suite(scale=0.1)}
    assert full["fig8"] == 120
    assert small["fig8"] == 12
    assert small["fig2"] == 4  # floor of 4 DAGs
    with pytest.raises(ValueError):
        default_suite(scale=0.0)


BAD_SCALES = [math.inf, -math.inf, math.nan, 0, -1]


@pytest.mark.parametrize("scale", BAD_SCALES)
@pytest.mark.parametrize("build", [
    default_suite,
    eviction_suite,
    lambda scale: federation_suite([2], scale=scale),
    lambda scale: scale_suite([(25, 100)], scale=scale),
], ids=["default", "eviction", "federation", "ext-scale"])
def test_suite_builders_refuse_a_bad_scale(build, scale):
    with pytest.raises(ValueError, match="scale must be finite and > 0"):
        build(scale=scale)


def test_scaled_floor():
    assert _scaled(30, 0.01) == 4
    assert _scaled(120, 0.5) == 60


def test_suite_payload_schema():
    runs = run_suite(TINY_CASES[:2], workers=1)
    payload = suite_payload(runs, scale=0.1, workers=1)
    assert payload["schema"] == "repro-bench-suite/v1"
    assert payload["cases"] == ["a", "b"]
    assert payload["total_events"] == sum(r.result.event_count for r in runs)
    assert payload["total_wall_s"] > 0
    for name in ("a", "b"):
        fig = payload["figures"][name]
        assert fig["wall_s"] > 0
        assert fig["events_per_s"] > 0
        assert fig["event_count"] > 0
        assert fig["elapsed_sim_s"] > 0
        for server in fig["servers"].values():
            assert set(server) == {
                "finished_dags", "total_dags", "avg_dag_completion_s",
                "avg_job_execution_s", "avg_job_idle_s",
                "resubmissions", "timeouts",
                "migrations", "checkpoint_restores", "preempted_work_s",
            }
    json.dumps(payload)  # must be serializable as-is


def test_headline_metrics_json_safe_nan():
    """A server that finished nothing has NaN averages; the payload
    must encode them as null, not the non-JSON literal NaN."""
    runs = run_suite(
        [tiny_case("short", horizon_s=60.0)], workers=1)
    payload = suite_payload(runs, scale=1.0, workers=1)
    text = json.dumps(payload)
    assert "NaN" not in text


def test_suite_payload_sections_pinned():
    """Every report section, on the one case of each kind that fills it
    (federated, eviction drill) — the projection from a metrics
    snapshot to BENCH_SUITE.json is held to these numbers."""
    pinned = {"ext-federation-2shards", "ext-eviction"}
    cases = [c for c in (default_suite(scale=0.1, seed=42)
                         + federation_suite([2], seed=42, scale=0.4)
                         + eviction_suite(scale=0.3, seed=42))
             if c.name in pinned]
    figures = suite_payload(run_suite(cases, workers=1),
                            scale=0.1, workers=1)["figures"]

    def fingerprint(fig):
        return (fig["event_count"], fig["rpc_count"],
                repr(fig["elapsed_sim_s"]))

    zero_evictions = {"evictions": 0, "migrations": 0,
                      "checkpoint_restores": 0}

    fig = figures["ext-federation-2shards"]
    assert fingerprint(fig) == (2103, 345, "658.8995577940586")
    assert fig["federation"] == {"admitted": 8, "rehomed": 0}
    assert fig["shards"] == {
        "shard0": {"count": 0, "p50": None, "p95": None},
        "shard1": {"count": 80, "p50": 0.0, "p95": 0.10000000000002274}}
    assert fig["evictions"] == zero_evictions
    assert "preemption_loss_s" not in fig

    fig = figures["ext-eviction"]
    assert fingerprint(fig) == (27625, 522, "3246.158274889085")
    assert fig["evictions"] == {"evictions": 2594, "migrations": 2,
                                "checkpoint_restores": 2}
    assert fig["preemption_loss_s"] == {
        "migrate": {"count": 3, "p50": 40.25491423612225,
                    "p95": 43.673423080500925,
                    "total_s": 91.1422859159582},
        "resubmit": {"count": 3, "p50": 288.6414998091743,
                     "p95": 355.1208663191121,
                     "total_s": 838.0144374356403}}
    assert not {"shards", "federation"} & set(fig)


def _latency_snapshot(unlabeled=(), **shards):
    m = MetricsRegistry()
    for v in unlabeled:
        m.histogram("server.planning_latency_s").observe(v)
    m.histogram("server.planning_latency_s")
    for shard, values in shards.items():
        for v in values:
            m.histogram("server.planning_latency_s", shard=shard).observe(v)
    m.histogram("rpc.latency_s").observe(99.0)  # another name: ignored
    return m.snapshot(include_samples=True)


def test_federated_planning_percentiles_pool_every_shard_exactly():
    shards = {"s0": [0.5, 0.1, 0.9, 0.3], "s1": [2.0, 0.2],
              "s2": [0.05, 0.7, 1.5]}
    one = Histogram()
    for values in shards.values():
        for v in values:
            one.observe(v)
    assert planning_latency_percentiles(_latency_snapshot(**shards)) == \
        (one.percentile(50), one.percentile(95))


def test_single_server_planning_percentiles_short_circuit():
    snap = _latency_snapshot(unlabeled=[1.0, 2.0, 3.0], s0=[50.0, 60.0])
    assert planning_latency_percentiles(snap) == (2.0, 3.0)


def test_planning_percentiles_without_samples_are_none():
    assert planning_latency_percentiles(_latency_snapshot()) == (None, None)
    assert planning_latency_percentiles({}) == (None, None)
