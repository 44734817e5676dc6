"""The planning pass against its slow twin.

A pass asks ``choose_site`` once per declined ``(user, requirements)``
class until something commits, and a dag kept dirty only by an
unplanned ready job reuses the ready tuple its last pass computed.
Both are held here against ``tests/core/reference_planner.py``, which
recomputes every ready set and asks about every job:

* unit cases show each part doing its job (and fail without it);
* a Hypothesis property checks the contract the declined set rests on,
  for every registered algorithm;
* whole scenarios — the four paper algorithms, a scarce-quota
  federation with its lease hook, a spot-eviction drill, stage
  reservations, QoS deadlines — give the same simulation, the same
  plans in the same order and the same deferral counts either way.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.plan import make_plan
from repro.chaos.run import run_chaos
from repro.core.algorithms import SchedulingAlgorithm, SiteView, make_algorithm
from repro.core.algorithms.registry import _REGISTRY, available_algorithms
from repro.core.server import SphinxServer
from repro.core.states import JobState
from repro.experiments import Scenario, ServerSpec, run_scenario
from repro.experiments.figures import (
    ext_eviction_scenario,
    ext_reservation_scenario,
    fig345_scenario,
)
from repro.federation.runner import ext_federation_scenario, run_federation
from repro.obs import Obs, ObsConfig
from repro.workflow import Dag, Job, LogicalFile

from tests.core.reference_planner import patch_naive_planner
from tests.core.test_server import Stack, chain_dag


def _deferred(obs, reason):
    return sum(inst.value
               for labels, inst in obs.metrics.find("server.plan_deferred")
               if labels["reason"] == reason)


def _spy_choose(server):
    asked = []
    choose = server.algorithm.choose_site

    def spy(job_id, candidates):
        asked.append(job_id)
        return choose(job_id, candidates)

    server.algorithm.choose_site = spy
    return asked


# -- unit cases -----------------------------------------------------------
def test_declined_class_is_asked_once_per_pass():
    """Twenty ready jobs of one user behind in-flight probes: the
    completion-time hybrid declines the first, the other nineteen are
    deferred without a call, and every one is still counted."""
    obs = Obs(ObsConfig(spans=False))
    stack = Stack(algorithm="completion-time", obs=obs)
    stack.submit(Dag("probe", [Job(f"probe.{i}") for i in range(3)]))
    stack.server.tick()
    jobs = stack.server.warehouse.table("jobs")
    assert {jobs.get(f"probe.{i}")["site"] for i in range(3)} == \
        {"s0", "s1", "s2"}  # one unsampled probe in flight per site
    asked = _spy_choose(stack.server)
    stack.submit(Dag("wait", [Job(f"wait.{i:02d}") for i in range(20)]))
    stack.server.tick()
    assert asked == ["wait.00"]
    assert _deferred(obs, "no-site-chosen") == 20
    assert all(jobs.get(f"wait.{i:02d}")["state"] == JobState.UNPLANNED.value
               for i in range(20))
    # The set lives for one pass: the retry pass asks again, once.
    stack.server.tick()
    assert asked == ["wait.00", "wait.00"]
    assert _deferred(obs, "no-site-chosen") == 40


def test_a_commit_reopens_a_declined_class():
    """A quota-bound user sees only in-flight probes and is declined; a
    free user's plan onto the sampled site commits in between, so the
    bound user's next job is asked again rather than skipped."""
    stack = Stack(algorithm="completion-time")
    bound, needs = "/VO=v/CN=bound", {"cpu_seconds": 60.0}
    for site in ("s1", "s2"):
        stack.server.policy.grant(bound, site, "cpu_seconds", 1000.0)
    stack.server.estimator.record("s0", 50.0)
    stack.submit(Dag("probe", [Job(f"probe.{i}", requirements=needs)
                            for i in range(2)]), user=bound)
    stack.server.tick()  # probes in flight on s1 and s2, bound has no s0
    asked = _spy_choose(stack.server)
    stack.submit(Dag("a", [Job("a.0", requirements=needs)]), user=bound)
    stack.submit(Dag("b", [Job("b.0")]))
    stack.submit(Dag("c", [Job("c.0", requirements=needs)]), user=bound)
    stack.server.tick()
    assert asked == ["a.0", "b.0", "c.0"]
    assert stack.job_state("b.0") == JobState.PLANNED.value
    assert stack.job_state("c.0") == JobState.UNPLANNED.value


def test_requirements_are_part_of_the_class():
    """One user, two requirement maps: a big job that fits only the
    in-flight probe sites is declined, a small one that also fits the
    sampled site is still asked and plans there."""
    stack = Stack(algorithm="completion-time")
    stack.server.estimator.record("s0", 50.0)
    stack.submit(Dag("probe", [Job(f"probe.{i}") for i in range(2)]))
    stack.server.tick()  # unsampled s1 and s2 get one probe each
    bound = "/VO=v/CN=bound"
    stack.server.policy.grant(bound, "s0", "cpu_seconds", 100.0)
    for site in ("s1", "s2"):
        stack.server.policy.grant(bound, site, "cpu_seconds", 1000.0)
    asked = _spy_choose(stack.server)
    stack.submit(Dag("a", [Job("a.0", requirements={"cpu_seconds": 200.0})]),
              user=bound)
    stack.submit(Dag("b", [Job("b.0", requirements={"cpu_seconds": 60.0})]),
              user=bound)
    stack.server.tick()
    assert asked == ["a.0", "b.0"]
    assert stack.job_state("a.0") == JobState.UNPLANNED.value
    assert stack.server.warehouse.table("jobs").get("b.0")["site"] == "s0"


def test_a_reserved_job_of_a_declined_class_claims_its_booking():
    stack = Stack(algorithm="completion-time")
    stack.submit(Dag("probe", [Job(f"probe.{i}") for i in range(3)]))
    stack.server.tick()
    group = {"res_id": "t:b:L1:s1", "site": "s1", "state": "confirmed",
             "jobs": {"b.0"}, "claimed": 0}
    stack.server._reservation_groups[group["res_id"]] = group
    stack.server._job_reservations["b.0"] = group
    stack.submit(Dag("a", [Job("a.0")]))
    stack.submit(Dag("b", [Job("b.0")]))
    stack.server.tick()
    assert stack.job_state("a.0") == JobState.UNPLANNED.value  # declined
    plan = [m["payload"] for m in stack.drain() if m["kind"] == "plan"][-1]
    assert (plan["job_id"], plan["site"], plan["reservation_id"]) == \
        ("b.0", "s1", "t:b:L1:s1")


def test_a_context_aware_algorithm_is_asked_about_every_job():
    """Its None may depend on the job's DAG context, so no class is
    ever skipped for it."""

    class Picky(SchedulingAlgorithm):
        name = "picky"
        wants_context = True

        def choose_site(self, job_id, candidates):
            raise AssertionError("the planner passes context")

        def choose_site_ctx(self, job_id, candidates, ctx):
            asked.append(job_id)
            return candidates[0].name if ctx["remaining_levels"] == 1 \
                else None

    asked = []
    stack = Stack()
    stack.server.algorithm = Picky()
    stack.submit(chain_dag("a"))  # a.a has a level below it: declined
    stack.submit(Dag("b", [Job("b.0")]))
    stack.server.tick()
    assert asked == ["a.a", "b.0"]
    assert stack.job_state("b.0") == JobState.PLANNED.value


def test_retry_only_dag_reuses_its_ready_set(monkeypatch):
    """A dag dirty only because a ready job went unplanned keeps its
    ready tuple; a completion drops it and the successor plans."""
    stack = Stack(algorithm="completion-time", n_sites=1)
    stack.submit(Dag("probe", [Job("probe.0")]))
    stack.server.tick()
    stack.submit(chain_dag())
    computed = []
    ready_jobs = Dag.ready_jobs

    def counted(dag, completed):
        computed.append(dag.dag_id)
        return ready_jobs(dag, completed)

    monkeypatch.setattr(Dag, "ready_jobs", counted)
    stack.server.tick()  # d0.a declined: s0 is an unsampled probe in flight
    assert computed == ["d0"]
    assert stack.server._ready == {"d0": ("d0.a",)}
    stack.server.tick()
    assert computed == ["d0"]  # reused, not recomputed
    stack.server._rpc_report_status("probe.0", "completed", "s0", 30.0)
    stack.server.tick()  # s0 sampled now: d0.a plans, d0 leaves the dirty set
    assert stack.job_state("d0.a") == JobState.PLANNED.value
    assert stack.server._ready == {}
    stack.server._rpc_report_status("d0.a", "completed", "s0", 30.0)
    stack.server.tick()
    assert stack.job_state("d0.b") == JobState.PLANNED.value
    assert computed == ["d0", "d0"]


def test_a_completion_drops_the_kept_ready_set():
    """Quota for one job: ``x`` waits while ``a`` runs, so the dag keeps
    its ready tuple; ``a`` completing makes ``b`` ready, and the kept
    tuple must not hide it."""
    stack = Stack(n_sites=1)
    bound, needs = "/VO=v/CN=bound", {"cpu_seconds": 60.0}
    stack.server.policy.grant(bound, "s0", "cpu_seconds", 60.0)
    a_out = LogicalFile("d.a.out", 1.0)
    stack.submit(Dag("d", [
        Job("d.a", outputs=(a_out,), requirements=needs),
        Job("d.x", requirements=needs),
        Job("d.b", inputs=(a_out,), requirements=needs),
    ]), user=bound)
    stack.server.tick()
    assert stack.job_state("d.a") == JobState.PLANNED.value
    assert stack.server._ready == {"d": ("d.a", "d.x")}
    stack.server._rpc_report_status("d.a", "completed", "s0", 30.0)
    assert stack.server._ready == {}
    stack.server.tick()
    assert stack.server._ready == {"d": ("d.x", "d.b")}


# -- the contract ---------------------------------------------------------
VIEWS = st.lists(
    st.builds(
        SiteView,
        name=st.sampled_from([f"s{i}" for i in range(5)]),
        n_cpus=st.integers(1, 8),
        planned_jobs=st.integers(0, 2),
        unfinished_jobs=st.integers(0, 2),
        monitored_queued=st.none() | st.integers(0, 5),
        monitored_running=st.none() | st.integers(0, 5),
        avg_completion_s=st.none() | st.floats(1.0, 500.0),
        predicted_completion_s=st.none() | st.floats(1.0, 500.0),
    ),
    max_size=5,
)
IN_FLIGHT_PROBES = [SiteView(f"s{i}", 4, planned_jobs=1) for i in range(3)]


@given(name=st.sampled_from(available_algorithms()),
       warmup=st.lists(VIEWS, max_size=4), views=VIEWS)
@example(name="completion-time", warmup=[], views=IN_FLIGHT_PROBES)
@settings(max_examples=300, deadline=None)
def test_a_none_answer_depends_only_on_candidates(name, warmup, views):
    algorithm = make_algorithm(name)
    for i, pool in enumerate(warmup):  # move cursors off their start
        algorithm.choose_site(f"w{i}", pool)
    before = dict(vars(algorithm))
    if algorithm.choose_site("j0", views) is None:
        assert vars(algorithm) == before
        assert algorithm.choose_site("j1", views) is None
        assert vars(algorithm) == before


# -- whole scenarios ------------------------------------------------------
def _fig345(obs):
    return run_scenario(fig345_scenario(n_dags=20, seed=42), obs=obs), 0


def _federation(obs):
    scenario = ext_federation_scenario(n_shards=3, dags_per_user=3, seed=42)
    return run_federation(scenario, obs=obs).result, 0


def _eviction(obs):
    drill = run_chaos(ext_eviction_scenario(50, 3),
                      make_plan("spot-eviction", 42), obs=obs)
    return drill.result, len(drill.report.violations)


def _reservation(obs):
    return run_scenario(ext_reservation_scenario(n_dags=20, seed=42),
                        obs=obs), 0


def _qos(obs):
    scenario = Scenario(
        name="planning-pass-qos",
        servers=(
            ServerSpec("qos", "qos-deadline",
                       algorithm_kwargs={"deadline_s": 1800.0}),
            ServerSpec("ct", "completion-time"),
        ),
        n_dags=20,
        seed=42,
        horizon_s=6 * 3600.0,
    )
    return run_scenario(scenario, obs=obs), 0


def _observe(run, monkeypatch):
    """Run ``run`` with metrics on: what the twin must match (the fields
    ``sim_digest`` hashes, every plan in order, deferrals by server and
    reason), and how often the algorithm was asked and ready sets were
    computed."""
    obs = Obs(ObsConfig(spans=False))
    plans = []
    counts = {"choose_site": 0, "ready_jobs": 0}
    send = SphinxServer._send
    ready_jobs = Dag.ready_jobs

    def recording_send(self, client_id, kind, payload):
        if kind == "plan":
            plans.append((self.config.name, payload["job_id"],
                          payload["attempt"], payload["site"]))
        return send(self, client_id, kind, payload)

    def counted_ready(dag, completed):
        counts["ready_jobs"] += 1
        return ready_jobs(dag, completed)

    with monkeypatch.context() as patch:
        patch.setattr(SphinxServer, "_send", recording_send)
        patch.setattr(Dag, "ready_jobs", counted_ready)
        for cls in _REGISTRY.values():
            def counted_choose(self, job_id, candidates,
                               _choose=cls.choose_site):
                counts["choose_site"] += 1
                return _choose(self, job_id, candidates)

            patch.setattr(cls, "choose_site", counted_choose)
        result, violations = run(obs)
    servers = {
        label: (sorted(s.dag_completion_times.items()),
                sorted(s.jobs_per_site.items()), s.resubmissions,
                s.timeouts, s.migrations, s.checkpoint_restores)
        for label, s in result.servers.items()
    }
    deferred = {}
    for labels, inst in obs.metrics.find("server.plan_deferred"):
        key = (labels["server"], labels["reason"])
        deferred[key] = deferred.get(key, 0) + inst.value
    sim = (result.event_count, result.rpc_count, repr(result.elapsed_sim_s),
           servers, violations)
    return (sim, plans, deferred), counts


@pytest.mark.parametrize("run, declines", [
    (_fig345, True),
    (_federation, True),
    (_eviction, False),
    (_reservation, True),
    (_qos, True),
])
def test_scenario_identical_shipped_and_twin(run, declines, monkeypatch):
    shipped, shipped_counts = _observe(run, monkeypatch)
    sim, plans, deferred = shipped
    assert plans and sim[3]
    assert declines == any(reason == "no-site-chosen"
                           for _server, reason in deferred)
    patch_naive_planner(monkeypatch)
    twin, twin_counts = _observe(run, monkeypatch)
    assert twin == shipped
    if declines:  # the twin really did the work the shipped pass skips
        assert shipped_counts["choose_site"] < twin_counts["choose_site"]
        assert shipped_counts["ready_jobs"] < twin_counts["ready_jobs"]
    else:  # nothing declined, nothing to skip
        assert shipped_counts == twin_counts
