"""Golden fingerprints for every topology x drill the drivers serve.

``test_fig2_golden.py`` pins the competing-servers run in depth; this
file pins one small case per way a stack is assembled and run —
competing servers and meta + shards, each bare and under the chaos
presets that change how it is built (bus, survivable ``ServerConfig``,
crash-recovery, eviction listeners, staggered submission) — by
``(event_count, rpc_count, repr(elapsed_sim_s))``.  Construction order
*is* process-creation and bus-registration order, so a driver change
that reorders a step moves a fingerprint here.
"""

import dataclasses
import functools

import pytest

from repro.chaos import make_plan, run_chaos
from repro.experiments.figures import (
    ext_eviction_scenario,
    ext_scale_scenario,
    fig2_scenario,
    fig345_scenario,
)
from repro.experiments.runner import run_scenario
from repro.federation import ext_federation_scenario, run_federation

from tests.federation.fedstack import on_synthetic_sites


def fingerprint(result):
    return (result.event_count, result.rpc_count, repr(result.elapsed_sim_s))


def fed3():
    return run_federation(
        ext_federation_scenario(n_shards=3, dags_per_user=1, seed=42)).result


def scale():
    return run_scenario(ext_scale_scenario(25, 40, 42))


def grid3():
    return run_scenario(fig345_scenario(n_dags=2, seed=42))


@pytest.mark.parametrize("run, golden", [
    (fed3, (2107, 462, "634.0146877989665")),
    (scale, (720, 113, "533.8427728960356")),
    (grid3, (8401, 259, "5657.643599069359")),
])
def test_fault_free_fingerprint(run, golden):
    assert fingerprint(run()) == golden


def fig2():
    return fig2_scenario(3, 42, 12 * 3600.0)


def fed3_staggered():
    return ext_federation_scenario(n_shards=3, dags_per_user=2, seed=42,
                                   submit_interval_s=1600.0)


def fed2_evicted():
    return on_synthetic_sites(
        ext_federation_scenario(n_shards=2, dags_per_user=6, seed=42), 25)


def eviction_900():
    return dataclasses.replace(make_plan("spot-eviction", 3),
                               eviction_mtbf_s=900.0)


DRILLS = {
    "evict-spot": (lambda: ext_eviction_scenario(50, 3, 42),
                   lambda: make_plan("spot-eviction", 42),
                   (6373, 177, "3270.559366809381")),
    "fig2-crash": (fig2, lambda: make_plan("crash", 1),
                   (19270, 385, "11572.815926701765")),
    "fig2-full": (fig2, lambda: make_plan("full", 1),
                  (16318, 419, "8817.338148929077")),
    "fed3-shard-outage": (fed3_staggered,
                          lambda: make_plan("shard-outage", 0),
                          (6268, 1068, "2764.971448554266")),
    "fed2-spot": (fed2_evicted, eviction_900,
                  (7642, 1095, "2705.5068275662466")),
}


@functools.cache
def drill(name):
    scenario, plan, _ = DRILLS[name]
    return run_chaos(scenario(), plan())


@pytest.mark.parametrize("name", DRILLS)
def test_drilled_fingerprint(name):
    assert drill(name).ok, drill(name).report.format_text()
    assert fingerprint(drill(name).result) == DRILLS[name][2]


def test_shard_outage_rehomes():
    assert drill("fed3-shard-outage").report.stats["fed_rehomed"] == 1


def test_federated_result_carries_eviction_counters():
    """Eviction x federation: a shard's ``ServerResult`` reports what the
    live shard counted (these three fields used to read 0 on every
    federated result)."""
    shard1 = drill("fed2-spot").result.servers["shard1"]
    assert shard1.checkpoint_restores == 4
    assert shard1.preempted_work_s == pytest.approx(155.2887, abs=1e-3)
