"""Evaluation harness — regenerates every table and figure of the paper.

* :mod:`repro.experiments.scenarios` — scenario/server specifications
  and the default Grid3 fault script,
* :mod:`repro.experiments.runner` — assembles the full stack (grid +
  services + N concurrent SPHINX servers competing for the same
  resources, the paper's pair/group-wise protocol) and runs it,
* :mod:`repro.experiments.metrics` — per-server result extraction,
* :mod:`repro.experiments.figures` — one driver per paper figure,
* :mod:`repro.experiments.parallel` — the process-pool suite runner
  behind ``repro suite`` and BENCH_SUITE.json,
* :mod:`repro.experiments.report` — plain-text tables for the bench
  harness and EXPERIMENTS.md.
"""

from repro.experiments.scenarios import (
    Scenario,
    ServerSpec,
    default_fault_windows,
)
from repro.experiments.runner import ExperimentResult, ServerResult, run_scenario
from repro.experiments.figures import (
    ext_eviction,
    ext_eviction_scenario,
    ext_reservation,
    ext_reservation_scenario,
    ext_scale,
    ext_scale_scenario,
    fig2_feedback,
    fig3_algorithms,
    fig5_pairwise,
    fig6_site_distribution,
    fig7_policy,
    fig8_timeouts,
)
from repro.experiments.parallel import (
    SuiteCase,
    SuiteRun,
    default_suite,
    eviction_suite,
    federation_suite,
    headline_metrics,
    run_suite,
    scale_suite,
    suite_payload,
)
from repro.experiments.report import format_table

__all__ = [
    "ExperimentResult",
    "Scenario",
    "ServerResult",
    "ServerSpec",
    "SuiteCase",
    "SuiteRun",
    "default_fault_windows",
    "default_suite",
    "eviction_suite",
    "ext_eviction",
    "ext_eviction_scenario",
    "ext_reservation",
    "ext_reservation_scenario",
    "ext_scale",
    "ext_scale_scenario",
    "fig2_feedback",
    "fig3_algorithms",
    "fig5_pairwise",
    "fig6_site_distribution",
    "fig7_policy",
    "federation_suite",
    "fig8_timeouts",
    "format_table",
    "headline_metrics",
    "run_scenario",
    "run_suite",
    "scale_suite",
    "suite_payload",
]
