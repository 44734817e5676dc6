"""The extreme-scale scenario family, synthetic catalog, and suite
wiring (``repro suite --ext-scale``)."""

import argparse
import dataclasses

import pytest

from repro.cli import _parse_scale_size, main
from repro.experiments import run_scenario
from repro.experiments.figures import ext_scale_scenario
from repro.experiments.parallel import scale_suite
from repro.simgrid.grid import synthetic_sites


class TestSyntheticSites:
    def test_deterministic(self):
        assert synthetic_sites(40) == synthetic_sites(40)

    def test_prefix_is_stable_under_growth(self):
        # The first N sites of a bigger catalog are the smaller catalog:
        # sweeps at different scales share their common sites.
        assert synthetic_sites(50)[:20] == synthetic_sites(20)

    def test_shape(self):
        specs = synthetic_sites(100)
        assert len({s.name for s in specs}) == 100
        for s in specs:
            assert 8 <= s.n_cpus <= 128
            assert s.catalog_cpus >= s.n_cpus  # advertised overstates
            assert 0.3 <= s.background_utilization <= 0.9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            synthetic_sites(0)


class TestExtScaleScenario:
    def test_shape(self):
        sc = ext_scale_scenario(25, 200)
        assert sc.name == "ext-scale-25x200"
        assert len(sc.sites) == 25
        assert sc.n_dags == 20 and sc.jobs_per_dag == 10
        assert sc.fault_windows == ()  # measures the kernel, not faults
        assert sc.background_batch_s == 300.0

    def test_rejects_sub_dag_workload(self):
        with pytest.raises(ValueError):
            ext_scale_scenario(10, 5)

    def test_smoke_run_completes(self):
        result = run_scenario(dataclasses.replace(ext_scale_scenario(
            n_sites=15, n_jobs=100), horizon_s=24 * 3600.0))
        server = result.servers["completion-time"]
        assert not result.horizon_reached
        assert server.finished_dags == server.total_dags == 10
        assert result.event_count > 0


class TestScaleSuite:
    def test_case_names_and_scaling(self):
        cases = scale_suite([(50, 2000), (250, 10000)], scale=0.1)
        assert [c.name for c in cases] == \
            ["ext-scale-50x200", "ext-scale-250x1000"]
        assert cases[0].scenario.n_dags == 20
        assert len(cases[1].scenario.sites) == 250  # sites never shrink

    def test_job_floor_is_one_dag(self):
        (case,) = scale_suite([(5, 20)], scale=0.001)
        assert case.scenario.n_dags == 1

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            scale_suite([(5, 100)], scale=0.0)


class TestCliWiring:
    def test_parse_scale_size(self):
        assert _parse_scale_size("250x10000") == (250, 10000)
        assert _parse_scale_size("50X2000") == (50, 2000)
        for bad in ("250", "x", "0x100", "50x5", "axb"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_scale_size(bad)

    def test_suite_only_ext_scale(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        rc = main(["suite", "--workers", "1", "--scale", "0.05",
                   "--ext-scale", "20x100", "--only", "ext-scale",
                   "--output", str(out)])
        assert rc == 0
        assert out.exists()
        # --scale 0.05 shrinks 100 jobs to the one-DAG floor of 10,
        # and the case name reflects what actually ran.
        assert "ext-scale-20x10" in capsys.readouterr().out
