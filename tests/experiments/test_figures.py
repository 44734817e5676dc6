"""The figure builders, the suite cases built from them, and the bench
scripts that render those cases.

Full-scale behaviour (and shape assertions) live in benchmarks/; these
check that each case is the experiment its figure describes and that
every case and server a bench script asks for exists — all without a
simulation, except one small run of Fig. 6's derived series.
"""

import importlib
from pathlib import Path

import pytest

from benchmarks import common
from repro.experiments import default_suite, eviction_suite, run_scenario
from repro.experiments.figures import (
    ALGORITHM_LINEUP,
    fig6_scenario,
    fig6_tables,
)

#: every bench script that renders suite cases (the reducer
#: microbenchmark runs no scenario)
BENCHES = sorted(
    path.stem
    for pattern in ("bench_fig*.py", "bench_ext_*.py", "bench_ablation_*.py")
    for path in Path(common.__file__).parent.glob(pattern)
    if path.stem != "bench_ext_dag_reduction"
)

#: cases that run the longer 36 h horizon; every other case runs 24 h
LONG_CASES = {"fig5-pair-queue-length", "fig5-pair-num-cpus",
              "fig5-pair-round-robin", "fig6", "fig7", "fig7-baseline",
              "fig8"}


@pytest.fixture(scope="module")
def cases():
    return {c.name: c for c in default_suite() + eviction_suite()}


def labels(case):
    return [s.label for s in case.scenario.servers]


def test_lineup_covers_the_papers_algorithms():
    assert [s.algorithm for s in ALGORITHM_LINEUP] == [
        "completion-time", "queue-length", "num-cpus", "round-robin",
    ]
    assert all(s.use_feedback for s in ALGORITHM_LINEUP)


def test_fig2_pairs_each_algorithm_with_and_without_feedback(cases):
    servers = {s.label: s for s in cases["fig2"].scenario.servers}
    assert list(servers) == ["round-robin+fb", "round-robin-nofb",
                             "num-cpus+fb", "num-cpus-nofb"]
    assert servers["round-robin+fb"].use_feedback
    assert not servers["round-robin-nofb"].use_feedback


def test_figs_3_and_4_run_the_lineup_at_30_and_60_dags(cases):
    for name, n_dags in (("fig3", 30), ("fig4", 60)):
        assert cases[name].scenario.servers == ALGORITHM_LINEUP
        assert cases[name].scenario.n_dags == n_dags


def test_fig5_meets_each_rival_head_to_head(cases):
    for rival in ("queue-length", "num-cpus", "round-robin"):
        case = cases[f"fig5-pair-{rival}"]
        assert labels(case) == ["completion-time", rival]
        assert case.scenario.n_dags == 120


def test_fig7_baseline_is_fig7_without_quotas(cases):
    fig7, base = cases["fig7"].scenario, cases["fig7-baseline"].scenario
    assert base.servers == fig7.servers == ALGORITHM_LINEUP
    assert base.n_dags == fig7.n_dags == 120
    assert fig7.quota_per_site and fig7.job_requirements
    assert base.quota_per_site is None and not base.job_requirements


def test_fig8_adds_the_no_feedback_variant(cases):
    (nofb,) = (s for s in cases["fig8"].scenario.servers
               if s.label == "num-cpus-nofb")
    assert not nofb.use_feedback
    assert labels(cases["fig8"])[:4] == [s.label for s in ALGORITHM_LINEUP]


def test_every_case_states_its_horizon(cases):
    assert LONG_CASES <= set(cases)
    for name, case in cases.items():
        hours = 36 if name in LONG_CASES else 24
        assert case.scenario.horizon_s == hours * 3600.0, name


def test_eviction_sweep_runs_the_storm_on_ten_sites(cases):
    storm = cases["ext-eviction"].plan
    assert storm.name == "spot-eviction"
    assert len(cases["ext-eviction"].scenario.sites) == 250
    for mtbf in (3600.0, 900.0):
        case = cases[f"ext-eviction-mtbf{mtbf:.0f}"]
        assert len(case.scenario.sites) == 10
        assert labels(case) == ["resubmit", "migrate"]
        assert case.plan.eviction_mtbf_s == mtbf
        assert case.plan.seed == storm.seed


def test_qos_case_is_fault_free_with_a_deadline(cases):
    scenario = cases["ext-qos"].scenario
    assert scenario.fault_windows == ()
    assert scenario.servers[0].algorithm_kwargs == {"deadline_s": 3600.0}


def test_fig6_tables_on_a_small_run():
    result = run_scenario(fig6_scenario(3, horizon_s=4 * 3600.0))
    tables, correlations = fig6_tables(result)
    assert set(tables) == {"completion-time", "num-cpus"}
    for rows in tables.values():
        for site, jobs, _avg in rows:
            assert isinstance(site, str) and jobs >= 1
    assert set(correlations) == {"completion-time", "num-cpus"}


@pytest.mark.parametrize("bench", BENCHES)
def test_bench_asks_for_suite_cases_and_their_servers(bench, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    suite = common.suite_cases()
    module = importlib.import_module(f"benchmarks.{bench}")
    assert module.CASES, bench
    for name, rendered in module.CASES.items():
        assert name in suite, f"{bench} asks for unknown case {name!r}"
        assert set(rendered) <= set(labels(suite[name])), (bench, name)


@pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
def test_bench_scale_goes_through_the_suite_rule(bad, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", bad)
    with pytest.raises(ValueError, match="scale must be finite and > 0"):
        common.suite_cases()


@pytest.mark.parametrize("scale, persisted", [("0.1", False), ("1", True)])
def test_emit_persists_only_scale_1_tables(scale, persisted, tmp_path,
                                           monkeypatch, capsys):
    # the committed benchmarks/output/ tables are the scale-1 run; a
    # smoke pass at another scale prints its tables and writes nothing
    monkeypatch.setenv("REPRO_BENCH_SCALE", scale)
    monkeypatch.setattr(common, "OUTPUT_DIR", tmp_path / "output")
    common.emit("fig0", "a table")
    assert "a table" in capsys.readouterr().out
    written = sorted(p.name for p in tmp_path.rglob("*.txt"))
    assert written == (["fig0.txt"] if persisted else [])
