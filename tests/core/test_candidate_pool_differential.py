"""The planner's maintained candidate pool against its naive twin.

``SphinxServer`` keeps one site table (numpy columns) and rewrites only
the rows whose inputs changed, plus a drain column; ``PolicyEngine``
keeps per-user tight-site sets and tests only those.  All are held here
against ``tests/core/reference_views.py``, which recomputes everything
from the inputs on every call:

* a Hypothesis rig drives every invalidation point in random order —
  DAG submits, planning passes, running/completed/cancelled reports,
  monitoring polls with sites DOWN or BLACKHOLE, drain notices, feedback
  verdict flips, quota grants/charges/refunds on a two-resource user
  whose job amounts grow mid-sequence, a warehouse snapshot restored
  into a new server, peer digests applied and aged out — and after
  every step the table, the drain column, ``short_sites`` /
  ``feasible_sites`` and the exact candidates handed to the algorithm
  must equal the naive ones;
* a 250-site server shows the point of it all: a plan with nothing
  stale and nothing excluded makes no per-site call before the
  algorithm runs;
* whole scenarios (three algorithms, quota-bound users, faults) make the
  same plans in the same order as shipped and on the naive builders
  with the list-scan algorithms.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ServerConfig, SphinxServer
from repro.core.policies import QuotaExceededError
from repro.core.recovery import recover_server
from repro.core.serialize import dag_to_payload
from repro.experiments import Scenario, ServerSpec, run_scenario
from repro.federation import FederatedSphinxServer, FederationConfig
from repro.federation.digest import DIGEST_TTL_S
from repro.services import MonitoringService, ReplicaService, RpcBus
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid
from repro.simgrid.grid import SiteSpec
from repro.simgrid.site import SiteState
from repro.workflow import Dag, Job, LogicalFile

from tests.core.reference_algorithms import candidate_views, views_of
from tests.core.reference_views import (
    naive_candidates,
    naive_feasible_sites,
    naive_short_sites,
    naive_views,
    patch_naive,
)

BOUND = "/VO=v/CN=bound"
FREE = "/VO=v/CN=free"
STRANGER = "/VO=v/CN=stranger"  # no grant anywhere
USERS = (BOUND, FREE, STRANGER)
N_SITES = 6
TTL_S = DIGEST_TTL_S
#: longer than the TTL, so a digest can age out between two polls and
#: only the expiry itself can refresh the rows it touched
POLL_S = 2 * TTL_S
IN_FLIGHT = ("planned", "submitted")


def _grid(env, n_sites):
    grid = Grid(env, RngStreams(0))
    for i in range(n_sites):
        grid.add_site(SiteSpec(f"s{i}", n_cpus=4,
                               background_utilization=0.0,
                               service_noise_sigma=0.0))
    return grid


class Rig:
    """One server (plain or federated) and the twin it is held against."""

    def __init__(self, federated: bool, **config):
        self.env = Environment()
        self.grid = _grid(self.env, N_SITES)
        self.sites = tuple(self.grid.site_names)
        self.bus = RpcBus(self.env)
        self.rls = ReplicaService(self.sites)
        self.monitoring = MonitoringService(self.env, self.grid,
                                            update_interval_s=POLL_S)
        self.config = ServerConfig(name="t", algorithm="completion-time",
                                   tick_s=1.0, **config)
        self.catalog = {s: 4 for s in self.sites}
        self.fed = (
            FederationConfig(name="t", n_shards=2, digest_interval_s=0.0)
            if federated else None
        )
        #: BOUND's grants, re-applied after a restore (grants are policy
        #: configuration, not warehouse state); the last site has none.
        self.grants = {
            (site, resource): 10.0
            for site in self.sites[:-1] for resource in ("cpu", "disk")
        }
        #: largest amount each user has asked for so far, per resource
        self.largest = {user: {} for user in USERS}
        self.direct_charges = []
        self.n_dags = 0
        self.n_local_jobs = 0
        self.digest_seq = 0
        self.plans_checked = 0
        self.server = self._wire(
            (FederatedSphinxServer if federated else SphinxServer)(
                self.env, self.bus, self.config, self.catalog,
                self.monitoring, self.rls,
            )
        )

    def _wire(self, server):
        for (site, resource), amount in self.grants.items():
            server.policy.grant(BOUND, site, resource, amount)
        server.policy.grant_unlimited(FREE)
        if self.fed is not None:
            server.enable_federation(
                self.fed, "shard0",
                {"shard0": server.service_name, "shard1": "absent-peer"},
            )
        choose = server.algorithm.choose_site

        def checked_choose(job_id, pool):
            assert candidate_views(pool) == naive_candidates(server, job_id)
            self.plans_checked += 1
            return choose(job_id, pool)

        server.algorithm.choose_site = checked_choose
        return server

    # -- the operations ---------------------------------------------------
    def submit(self, user_i, cpu, disk):
        user = USERS[user_i]
        requirements = {}
        if user == BOUND:
            # (A quota-exempt user's jobs carry no amounts here: a
            # recovered server refunds requeued jobs before anyone can
            # re-exempt the user, and that refund of a never-made charge
            # raises — a recovery wart this test is not about.)
            requirements["cpu"] = float(cpu)
            if disk:
                requirements["disk"] = float(disk)
        self._asked(user, requirements)
        d = f"d{self.n_dags}"
        self.n_dags += 1
        out = LogicalFile(f"{d}.a.out", 1.0)
        dag = Dag(d, [
            Job(f"{d}.a", outputs=(out,), requirements=requirements),
            Job(f"{d}.b", requirements=requirements),
            Job(f"{d}.c", inputs=(out,), requirements=requirements),
        ])
        self.server._rpc_submit_dag("c0", user, dag_to_payload(dag))

    def tick(self):
        self.server.tick()

    def advance(self, dt):
        self.env.run(until=self.env.now + dt)

    def report(self, kind, k):
        rows = sorted(
            (r for r in self.server.warehouse.table("jobs").select()
             if r["state"] in IN_FLIGHT),
            key=lambda r: r["job_id"],
        )
        if not rows:
            return
        row = rows[k % len(rows)]
        extra = {}
        if kind == "completed":
            extra["completion_time_s"] = 30.0 + 7.0 * k
        elif kind == "cancelled":
            extra["reason"] = ("timeout", None, "evicted")[k % 3]
        self.server._rpc_report_status(row["job_id"], row["attempts"],
                                       kind, row["site"], **extra)

    def site_state(self, i, state):
        self.grid.site(self.sites[i]).set_state(state)

    def load(self, i, n_jobs):
        """Site-local batch jobs: what the next monitoring poll sees."""
        site = self.grid.site(self.sites[i])
        if site.state is SiteState.DOWN:
            return
        site.submit_local(
            [400.0] * n_jobs, "local", "local", self.n_local_jobs)
        self.n_local_jobs += n_jobs

    def drain(self, i, on):
        if on:
            self.server.drain_notice(self.sites[i], self.env.now + 120.0)
        else:
            self.server.drain_cleared(self.sites[i])

    def feedback(self, i, good):
        tracker = self.server.feedback
        (tracker.record_completion if good
         else tracker.record_cancellation)(self.sites[i])

    def grant(self, i, resource, amount):
        self.grants[(self.sites[i], resource)] = float(amount)
        self.server.policy.grant(BOUND, self.sites[i], resource,
                                 float(amount))

    def charge(self, i, amount):
        requirements = {"cpu": float(amount), "disk": 1.0}
        try:
            self.server.policy.charge(BOUND, self.sites[i], requirements)
        except QuotaExceededError:
            return
        self.direct_charges.append((self.sites[i], requirements))

    def refund(self, k):
        if self.direct_charges:
            site, requirements = self.direct_charges.pop(
                k % len(self.direct_charges)
            )
            self.server.policy.refund(BOUND, site, requirements)

    def probe(self, user_i, cpu, disk):
        """Ask the filter about an arbitrary requirement map."""
        requirements = {"cpu": float(cpu), "disk": float(disk)}
        self._asked(USERS[user_i], requirements)
        self._check_filter(USERS[user_i], requirements)

    def restore(self):
        old = self.server
        checkpoint = old.checkpoint()
        old.shutdown()
        self.server = self._wire(recover_server(
            self.env, self.bus, self.config, self.catalog, self.monitoring,
            self.rls, checkpoint, server_cls=type(old),
        ))

    def digest(self, age, loads):
        if self.fed is None:
            return
        self.digest_seq += 1
        self.server._rpc_load_digest({
            "shard": "shard1",
            "seq": self.digest_seq,
            "issued_at": self.env.now - age,
            "sites": {self.sites[i]: [p, r] for i, p, r in loads},
            "inflight_dags": 0,
        })

    # -- the comparison ---------------------------------------------------
    def _asked(self, user, requirements):
        seen = self.largest[user]
        for resource, amount in requirements.items():
            seen[resource] = max(seen.get(resource, 0.0), amount)

    def _check_filter(self, user, requirements):
        server = self.server
        pool = server._catalog_sites
        got = server.policy.feasible_sites(user, requirements, pool)
        want = naive_feasible_sites(server.policy, user, requirements, pool)
        assert got == want, (user, requirements)
        if len(want) == len(pool):
            assert got is pool  # an unfiltered pool is handed back as is
        assert server.policy.short_sites(user, requirements, pool) == \
            naive_short_sites(server.policy, user, requirements, pool)

    def check(self):
        server = self.server
        assert views_of(server._site_columns()) == naive_views(server)
        assert list(server._drain_free) == [
            s not in server._draining for s in server.site_catalog
        ]
        for user in USERS:
            self._check_filter(user, {})
            seen = self.largest[user]
            if seen:  # at, and below, the largest amounts asked so far
                self._check_filter(user, dict(seen))
                self._check_filter(
                    user, {r: a / 2.0 for r, a in seen.items()}
                )


AMOUNTS = st.sampled_from([1, 2, 4, 8, 12])
SITE = st.integers(0, N_SITES - 1)
OPS = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 1), AMOUNTS,
              st.sampled_from([0, 1, 3, 6])),
    st.tuples(st.just("tick")),
    st.tuples(st.just("advance"),
              st.sampled_from([1.0, 20.0, 61.0, 130.0, POLL_S + 1.0])),
    st.tuples(st.just("report"),
              st.sampled_from(["running", "completed", "cancelled"]),
              st.integers(0, 7)),
    st.tuples(st.just("site_state"), SITE,
              st.sampled_from([SiteState.DOWN, SiteState.BLACKHOLE,
                               SiteState.UP])),
    st.tuples(st.just("load"), SITE, st.integers(1, 6)),
    st.tuples(st.just("drain"), SITE, st.booleans()),
    st.tuples(st.just("feedback"), SITE, st.booleans()),
    st.tuples(st.just("grant"), SITE, st.sampled_from(["cpu", "disk"]),
              st.sampled_from([0, 2, 10, 50])),
    st.tuples(st.just("charge"), SITE, AMOUNTS),
    st.tuples(st.just("refund"), st.integers(0, 3)),
    st.tuples(st.just("probe"), st.integers(0, 2),
              st.sampled_from([0, 1, 3, 9, 13, 60]),
              st.sampled_from([0, 2, 7, 60])),
    st.tuples(st.just("restore")),
    st.tuples(st.just("digest"),
              st.sampled_from([0.0, TTL_S / 2, TTL_S - 1.0, 1.5 * TTL_S]),
              st.lists(st.tuples(SITE, st.integers(0, 3),
                                 st.integers(0, 3)),
                       max_size=3, unique_by=lambda load: load[0])),
)


@given(federated=st.booleans(), ops=st.lists(OPS, min_size=12, max_size=40))
@settings(max_examples=150, deadline=None)
def test_pool_equals_naive_after_every_step(federated, ops):
    rig = Rig(federated)
    rig.check()
    for name, *args in ops:
        getattr(rig, name)(*args)
        rig.check()


def test_differential_rig_reaches_the_planner():
    """The rig's choose_site check is live: a fixed sequence plans
    through quota-bound, draining, unreliable and remote-loaded pools."""
    rig = Rig(federated=True)
    script = [
        ("submit", 0, 4, 3), ("tick",), ("digest", 0.0, [(1, 2, 1)]),
        ("drain", 2, True), ("feedback", 3, False), ("submit", 1, 1, 0),
        ("tick",), ("report", "completed", 0), ("load", 4, 5),
        ("advance", POLL_S + 1.0),
        ("submit", 0, 8, 6), ("tick",), ("restore",), ("advance", 130.0),
        ("submit", 0, 2, 1), ("tick",),
    ]
    for name, *args in script:
        getattr(rig, name)(*args)
        rig.check()
    assert rig.plans_checked >= 8


def test_clean_table_plan_makes_no_per_site_call(monkeypatch):
    """Nothing stale, nothing excluded: between the start of a plan and
    ``choose_site`` no per-site Python call runs at all, and the
    algorithm is handed the table itself under the shared all-rows
    mask."""
    env = Environment()
    grid = _grid(env, 250)
    sites = tuple(grid.site_names)
    server = SphinxServer(
        env, RpcBus(env),
        ServerConfig(name="t", algorithm="round-robin", tick_s=1.0),
        {s: 4 for s in sites},
        MonitoringService(env, grid, update_interval_s=60.0),
        ReplicaService(sites),
    )
    server.policy.grant_unlimited(FREE)
    for site in sites:
        server.policy.grant(BOUND, site, "cpu", 100.0)

    def one_job(dag_id, user, requirements):
        dag = Dag(dag_id, [Job(f"{dag_id}.a", requirements=requirements)])
        server._rpc_submit_dag("c0", user, dag_to_payload(dag))

    # First plans: the table is built, BOUND's tight set is classified.
    one_job("warm-free", FREE, {})
    one_job("warm-bound", BOUND, {"cpu": 5.0})
    server.tick()
    server._site_columns()  # fold in the rows those two plans dirtied
    assert not server._stale

    calls = {"_refresh_row": 0, "snapshot": 0, "remaining": 0}

    def counted(cls, attr, key):
        real = getattr(cls, attr)

        def wrapper(self, *args, **kwargs):
            calls[key] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, attr, wrapper)

    counted(SphinxServer, "_refresh_row", "_refresh_row")
    counted(MonitoringService, "snapshot", "snapshot")
    counted(type(server.policy), "remaining", "remaining")
    handed = []
    choose = server.algorithm.choose_site

    def spy(job_id, pool):
        handed.append((pool, dict(calls)))
        return choose(job_id, pool)

    server.algorithm.choose_site = spy
    for dag_id, user, requirements in (
        ("second-free", FREE, {}),
        ("second-bound", BOUND, {"cpu": 5.0}),
    ):
        one_job(dag_id, user, requirements)
        server.tick()
        pool, calls_before_choose = handed.pop()
        assert pool.cols is server._site_table
        assert pool.mask is server._all_rows
        assert len(pool) == 250
        assert calls_before_choose == {
            "_refresh_row": 0, "snapshot": 0, "remaining": 0
        }
        assert not handed
        server._site_columns()
        for key in calls:
            calls[key] = 0


def _quota_scenario(seed):
    return Scenario(
        name="pool-eqv",
        servers=(
            ServerSpec("ct", "completion-time"),
            ServerSpec("rr", "round-robin"),
            ServerSpec("qos", "qos-deadline"),
        ),
        n_dags=3,
        seed=seed,
        horizon_s=6 * 3600.0,
        job_requirements={"cpu_seconds": 60.0, "disk_mb": 10.0},
        quota_per_site={"cpu_seconds": 300.0, "disk_mb": 40.0},
    )


@pytest.mark.parametrize("seed", [7, 42])
def test_scenario_identical_shipped_and_naive(seed, monkeypatch):
    """Quota-bound users on a faulty grid, three algorithms: the same
    event count, completions and placements, and the same plans in the
    same order, either way."""
    send = SphinxServer._send

    def run():
        plans = []

        def recording_send(self, client_id, kind, payload):
            if kind == "plan":
                plans.append((self.config.name, payload["job_id"],
                              payload["attempt"], payload["site"]))
            return send(self, client_id, kind, payload)

        with monkeypatch.context() as patch:
            patch.setattr(SphinxServer, "_send", recording_send)
            result = run_scenario(_quota_scenario(seed))
        return (
            result.event_count,
            {label: (s.finished_dags, s.dag_completion_times,
                     s.resubmissions, s.jobs_per_site)
             for label, s in result.servers.items()},
            plans,
        )

    shipped = run()
    # The quota must actually bind, or the tight sets sat idle.
    assert any(
        len(per_site) > 5
        for _f, _t, _r, per_site in shipped[1].values()
    )
    assert shipped[2]
    patch_naive(monkeypatch)
    assert run() == shipped
