"""End-to-end federation runs: determinism, suite payload, chaos."""

from repro.chaos import make_plan, run_chaos
from repro.experiments import run_suite, suite_payload
from repro.experiments.parallel import federation_suite
from repro.federation import ext_federation_scenario, run_federation


def small_scenario(**kw):
    kw.setdefault("n_shards", 2)
    kw.setdefault("dags_per_user", 2)
    kw.setdefault("jobs_per_dag", 3)
    kw.setdefault("seed", 7)
    return ext_federation_scenario(**kw)


def fingerprint(result):
    return (
        result.elapsed_sim_s,
        result.event_count,
        result.rpc_count,
        {label: sorted(sr.dag_completion_times)
         for label, sr in result.servers.items()},
    )


def test_small_run_finishes_every_dag():
    run = run_federation(small_scenario())
    assert not run.result.horizon_reached
    total = sum(sr.total_dags for sr in run.result.servers.values())
    finished = sum(sr.finished_dags for sr in run.result.servers.values())
    assert total == finished == 2 * len(run.users)  # dags_per_user = 2
    assert run.meta.unacked() == ()


def test_quota_covers_whole_jobs_per_site():
    # 30 jobs per user over 25 sites: a fair share of 1.2 jobs per
    # site.  A job takes a whole 1.0 slot, so a grant must round up to
    # two, or each user can place only 25 of its 30 jobs.
    scenario = ext_federation_scenario(n_shards=3, dags_per_user=3, seed=42,
                                       n_sites=25, horizon_s=1800.0)
    run = run_federation(scenario)
    assert not run.result.horizon_reached
    finished = sum(sr.finished_dags for sr in run.result.servers.values())
    assert finished == 3 * len(run.users)
    assert scenario.quota_per_site == {"slots": 2}


def test_same_seed_runs_are_bit_identical():
    a = run_federation(small_scenario())
    b = run_federation(small_scenario())
    assert fingerprint(a.result) == fingerprint(b.result)


def test_suite_payload_reports_per_shard_percentiles():
    runs = run_suite(federation_suite([2], seed=7, scale=0.4), workers=1)
    payload = suite_payload(runs, scale=0.4, workers=1)
    fig = payload["figures"]["ext-federation-2shards"]
    assert sorted(fig["shards"]) == ["shard0", "shard1"]
    # Homing is by user hash, so one shard may get every DAG; what must
    # hold is that the per-shard counts cover every planned job.
    total_jobs = sum(sr.total_dags for sr in runs[0].result.servers.values()
                     ) * 10  # jobs_per_dag
    assert sum(s["count"] for s in fig["shards"].values()) >= total_jobs
    for stats in fig["shards"].values():
        if stats["count"]:
            assert 0.0 <= stats["p50"] <= stats["p95"]
    assert fig["federation"]["admitted"] == sum(
        sr.total_dags for sr in runs[0].result.servers.values()
    )


def test_shard_outage_chaos_invariants_hold():
    # The 1600s stagger lands the second admission wave inside the
    # preset's 1500-2400s dark window, so re-homing really happens.
    scenario = ext_federation_scenario(
        n_shards=3, dags_per_user=2, seed=42, submit_interval_s=1600.0)
    res = run_chaos(scenario, make_plan("shard-outage", seed=0))
    assert res.report.ok, res.report.format_text()
    assert {"fed-dag-routed", "fed-lease-conservation"} <= set(
        res.report.checks)
    assert res.report.stats["fed_rehomed"] >= 1  # the outage path ran
    total = sum(sr.total_dags for sr in res.result.servers.values())
    finished = sum(sr.finished_dags for sr in res.result.servers.values())
    assert total == finished > 0


def test_transport_chaos_invariants_hold():
    # Dropped requests, dropped replies, and duplicated dispatches on
    # every sphinx-* service: the two-phase offer/confirm forward must
    # keep every DAG placed exactly once (fed-dag-routed audits that).
    res = run_chaos(small_scenario(), make_plan("lossy", seed=0))
    assert res.report.ok, res.report.format_text()
    assert "fed-dag-routed" in res.report.checks
    total = sum(sr.total_dags for sr in res.result.servers.values())
    finished = sum(sr.finished_dags for sr in res.result.servers.values())
    assert total == finished > 0
