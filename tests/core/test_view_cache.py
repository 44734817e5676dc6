"""The maintained site table must be decision-identical.

Two layers of evidence:

* unit: after every kind of state transition every row of the table
  equals the test-local naive builder's from-scratch view
  (``tests/core/reference_views.py``), so the invalidation hooks fired
  where they had to, and a read with nothing stale rewrites no row;
* scenario: full runs as shipped and with the naive builder (and the
  list-scan algorithms) patched in produce identical deterministic
  results (event counts, completions, placements) — the property the
  fig2 golden test pins forever for the default configuration.

``test_candidate_pool_differential.py`` drives the same comparison
through every invalidation point in random order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ServerConfig, SphinxServer
from repro.core.serialize import dag_to_payload
from repro.experiments import Scenario, ServerSpec, run_scenario
from repro.experiments.parallel import headline_metrics
from repro.services import MonitoringService, ReplicaService, RpcBus
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid
from repro.simgrid.grid import SiteSpec
from repro.workflow import Dag, Job, LogicalFile
from tests.core.reference_algorithms import row_view
from tests.core.reference_views import naive_view, patch_naive


def _stack(n_sites=3, **config_kw):
    env = Environment()
    grid = Grid(env, RngStreams(0))
    for i in range(n_sites):
        grid.add_site(SiteSpec(f"s{i}", n_cpus=4,
                               background_utilization=0.0,
                               service_noise_sigma=0.0))
    bus = RpcBus(env)
    rls = ReplicaService(grid.site_names)
    monitoring = MonitoringService(env, grid, update_interval_s=60.0)
    config = ServerConfig(name="t", algorithm="round-robin", tick_s=1.0,
                          **config_kw)
    server = SphinxServer(env, bus, config,
                          {s: 4 for s in grid.site_names}, monitoring, rls)
    server.policy.grant_unlimited("/VO=v/CN=u")
    return env, server


def _dag(dag_id):
    return Dag(dag_id, [
        Job(f"{dag_id}.a", outputs=(LogicalFile(f"{dag_id}.a.out", 1.0),)),
        Job(f"{dag_id}.b", inputs=(LogicalFile(f"{dag_id}.a.out", 1.0),)),
    ])


def _table_view(server, site):
    return row_view(server._site_columns(), server._site_row[site])


def _count_rewrites(server, monkeypatch):
    """site -> rows rewritten from here on."""
    rewritten = []
    refresh = server._refresh_row
    monkeypatch.setattr(server, "_refresh_row",
                        lambda site: (rewritten.append(site), refresh(site)))
    return rewritten


def _assert_views_match(server, grid_sites):
    for site in grid_sites:
        assert _table_view(server, site) == naive_view(server, site), site


def test_cache_hit_returns_same_object(monkeypatch):
    """A read with nothing stale returns the table itself and rewrites
    no row."""
    env, server = _stack()
    _table_view(server, "s0")
    assert not server._stale
    rewritten = _count_rewrites(server, monkeypatch)
    assert server._site_columns() is server._site_table
    assert rewritten == []


def test_cache_invalidated_by_planning_transitions():
    env, server = _stack()
    sites = ("s0", "s1", "s2")
    _assert_views_match(server, sites)
    server._rpc_submit_dag("c0", "/VO=v/CN=u", dag_to_payload(_dag("d0")))
    env.run(until=env.timeout(3.0))  # ticks plan the ready job
    _assert_views_match(server, sites)
    planned = server.warehouse.table("jobs").select({"state": "planned"})
    assert planned, "expected the tick to plan a job"
    # The planned counter moved on some site; its cached view must have
    # been dropped, not served stale.
    site = planned[0]["site"]
    view = _table_view(server, site)
    assert view.planned_jobs >= 1
    assert view == naive_view(server, site)


def test_cache_invalidated_by_monitoring_refresh(monkeypatch):
    env, server = _stack()
    _table_view(server, "s0")
    polled = server.monitoring.snapshot("s0")  # the construction-time poll
    assert server._monitoring_poll == 1
    rewritten = _count_rewrites(server, monkeypatch)
    env.run(until=env.timeout(61.0))  # the next monitoring poll elapses
    assert server.monitoring.snapshot("s0") is not polled
    _assert_views_match(server, ("s0", "s1", "s2"))
    # The announced poll must have rewritten the row against the new
    # snapshot, not served the one built against the previous poll.
    assert server._monitoring_poll == 2
    assert "s0" in rewritten


def test_recovery_clears_cache():
    env, server = _stack()
    _table_view(server, "s0")
    snap = server.warehouse.snapshot()
    server.warehouse.restore(snap)
    server._rebuild_site_counters()
    assert server._stale == set(server.site_catalog)
    _assert_views_match(server, ("s0", "s1", "s2"))


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 5),        # dag id to submit
                  st.floats(0.5, 30.0)),    # then run this long
        min_size=1, max_size=6,
    )
)
@settings(max_examples=20, deadline=None)
def test_property_cached_views_equal_rebuild(ops):
    """Across randomized submit/run interleavings (planning passes,
    monitoring refreshes, estimator updates all fire at arbitrary
    points), every cached view equals a full rebuild."""
    env, server = _stack()
    sites = ("s0", "s1", "s2")
    seen = set()
    for dag_n, run_s in ops:
        if dag_n not in seen:
            seen.add(dag_n)
            server._rpc_submit_dag("c0", "/VO=v/CN=u",
                                   dag_to_payload(_dag(f"d{dag_n}")))
        env.run(until=env.timeout(run_s))
        _assert_views_match(server, sites)


@pytest.mark.parametrize("seed", [7, 42])
def test_scenario_identical_with_and_without_cache(seed, monkeypatch):
    """End to end: a full faulty-grid run (site
    deaths, timeouts, feedback flips, background load) reaches exactly
    the same result as shipped and on the naive builder."""
    def run():
        scenario = Scenario(
            name="cache-eqv",
            servers=(
                ServerSpec("ct", "completion-time"),
                ServerSpec("rr", "round-robin"),
            ),
            n_dags=3,
            seed=seed,
            horizon_s=6 * 3600.0,
        )
        result = run_scenario(scenario)
        return result.event_count, result.rpc_count, \
            headline_metrics(result), \
            {label: s.jobs_per_site for label, s in result.servers.items()}

    shipped = run()
    patch_naive(monkeypatch)
    assert run() == shipped


def test_unread_polls_refresh_every_row():
    """A poll announces only the sites *it* refreshed; a reader that
    slept through more than one cannot rely on the last announcement."""
    from repro.simgrid.site import SiteState

    env, server = _stack()
    _assert_views_match(server, ("s0", "s1", "s2"))
    grid = server.monitoring.grid
    grid.site("s0").submit_local([500.0], "local", "local", 0)
    env.run(until=env.timeout(61.0))   # poll 2 sees s0 busy (unread)
    grid.site("s0").set_state(SiteState.DOWN)
    env.run(until=env.timeout(60.0))   # poll 3 cannot reach s0
    assert "s0" not in server.monitoring.refreshed
    assert _table_view(server, "s0").monitored_running == 1
    _assert_views_match(server, ("s0", "s1", "s2"))
