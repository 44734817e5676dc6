"""Reserve-ahead planning end to end: server -> Condor-G RPC -> site.

Scaled-down smokes of the ext-reservation extension; the full-scale
comparison (and its shape assertion) lives in
``benchmarks/bench_ext_reservation.py``.
"""

from repro import obs as obs_mod
from repro.chaos import ChaosController, ChaosPlan, make_plan, run_chaos
from repro.core.server import SphinxServer
from repro.experiments import run_scenario
from repro.experiments.figures import ext_reservation_scenario
from repro.experiments.parallel import project

HORIZON_S = 12 * 3600.0


def test_reserve_ahead_run_reserves_and_finishes():
    obs = obs_mod.Obs(obs_mod.ObsConfig())
    result = run_scenario(
        ext_reservation_scenario(3, 42, horizon_s=HORIZON_S), obs=obs
    )
    for label in ("reactive", "reservation"):
        assert result[label].finished_dags == 3, label
    counts = project(obs.metrics.snapshot())["reservations"]
    assert counts["confirmed"] > 0
    # every confirmed reservation reached a terminal state by run end
    assert (counts["released"] + counts["expired"] + counts["cancelled"]
            == counts["confirmed"])


def test_reserve_ahead_is_opt_in():
    # The reactive-only lineup must never touch the calendar.
    sc = ext_reservation_scenario(2, 42, horizon_s=HORIZON_S)
    sc.servers = (sc.servers[0],)  # reactive only
    obs = obs_mod.Obs(obs_mod.ObsConfig())
    result = run_scenario(sc, obs=obs)
    assert result["reactive"].finished_dags == 2
    assert project(obs.metrics.snapshot())["reservations"]["confirmed"] == 0


def test_reservation_outage_drill_conserves_slots():
    """Sites crash while holding confirmed reservations; the
    reservation-conservation invariant must still audit clean."""
    scenario = ext_reservation_scenario(2, 42, horizon_s=HORIZON_S)
    res = run_chaos(scenario, make_plan("reservation-outage", seed=1))
    assert "reservation-conservation" in res.report.checks
    assert res.ok, res.report.format_text()


def test_no_site_keeps_a_reservation_the_server_was_refused(monkeypatch):
    """The reservation contract end to end: honoured, cancelled or
    reported gone — never kept by the site after the requester was told
    "rejected".  An estimator that yields NaN sizes every window NaN;
    each reserve call must come back refused *and* leave nothing held
    (the sites used to file the window, grant its CPUs and only then
    fail to arm its end timer)."""
    monkeypatch.setattr(SphinxServer, "_job_duration_estimate",
                        lambda self, job: float("nan"))
    controller = ChaosController(ChaosPlan())  # inert: the way to the grid
    result = run_scenario(
        ext_reservation_scenario(3, 42, horizon_s=HORIZON_S),
        chaos=controller,
    )
    assert result["reservation"].finished_dags == 3
    server = controller.servers["reservation"]
    assert server.reservations_requested > 0
    confirmed = {res_id
                 for res_id, group in server._reservation_groups.items()
                 if group["state"] == "confirmed"}
    for site in controller.grid:
        kept = {res.res_id for res in site.scheduler.reservations if res.live}
        assert kept <= confirmed, site.name
        assert site.scheduler.reservation_audit() == []
