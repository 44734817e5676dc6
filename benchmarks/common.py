"""Shared infrastructure for the figure-reproduction benchmarks.

Every ``bench_{fig,ext,ablation}*.py`` names the suite cases it renders
(``CASES``: case name -> the server labels its table shows), runs them
once through :func:`repro.experiments.parallel.run_suite` under
``pytest-benchmark`` (rounds=1 — a full Grid3 day is not a
microbenchmark), prints the paper-style table, saves it under
``benchmarks/output/`` when run at scale 1, and asserts the figure's
*shape* criteria.
The cases are the ones ``repro suite --ext-eviction`` runs: a figure is
defined once, in the suite.

Scale control: ``REPRO_BENCH_SCALE`` (default 1.0 = the paper's
30/60/120 DAGs) is the suite's ``scale``, refused unless finite and
> 0, as ``repro suite --scale`` is.  Shape assertions are written to
hold at full scale and are only *checked* there.
"""

from __future__ import annotations

import os
import pathlib

from repro.experiments.parallel import default_suite, eviction_suite, run_suite

__all__ = ["suite_cases", "run_cases", "full_scale", "emit", "OUTPUT_DIR",
           "SEED"]

#: One seed for the whole evaluation, like one testbed session.
SEED = 42

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def suite_cases() -> dict:
    """Every case a bench may ask for, by name, at REPRO_BENCH_SCALE."""
    scale = _scale()
    cases = default_suite(scale, SEED) + eviction_suite(scale, SEED)
    return {case.name: case for case in cases}


def run_cases(benchmark, names) -> dict:
    """Run the named suite cases once, timed; {name: SuiteRun}."""
    cases = suite_cases()
    runs = benchmark.pedantic(
        lambda: run_suite([cases[name] for name in names]),
        rounds=1, iterations=1,
    )
    return {run.name: run for run in runs}


def full_scale() -> bool:
    """Whether the shape criteria apply (the paper's workload sizes)."""
    return _scale() >= 1.0


def emit(name: str, text: str) -> None:
    """Print a table; at scale 1 also persist it under benchmarks/output/
    (the committed tables are the scale-1 run, so a smoke pass at
    another scale must not overwrite them)."""
    print()
    print(text)
    if _scale() != 1.0:
        return
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
