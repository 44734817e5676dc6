"""Shared full-stack assembly for integration tests."""

from repro.core import ServerConfig, SphinxClient, SphinxServer
from repro.services import (
    CondorG,
    GridFtpService,
    MonitoringService,
    ReplicaService,
    RpcBus,
)
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid
from repro.simgrid.grid import SiteSpec
from repro.simgrid.vo import User, VirtualOrganization


class FullStack:
    """Environment + grid + services + one SPHINX server and client."""

    def __init__(self, n_sites=4, n_cpus=8, algorithm="completion-time",
                 seed=0, background=0.0, quota=None, **config_kw):
        self.env = Environment()
        self.rng = RngStreams(seed)
        self.grid = Grid(self.env, self.rng)
        for i in range(n_sites):
            self.grid.add_site(SiteSpec(
                f"s{i}", n_cpus=n_cpus,
                background_utilization=background,
                service_noise_sigma=0.0,
            ))
        if background > 0:
            self.grid.start_background()
        self.bus = RpcBus(self.env)
        self.rls = ReplicaService(self.env, self.grid.site_names)
        self.gridftp = GridFtpService(self.env, self.grid, self.rls)
        self.condorg = CondorG(self.env, self.grid)
        self.monitoring = MonitoringService(self.env, self.grid,
                                            update_interval_s=60.0)
        config_kw.setdefault("job_timeout_s", 600.0)
        config_kw.setdefault("tick_s", 2.0)
        self.config = ServerConfig(name="it", algorithm=algorithm, **config_kw)
        self.catalog = {s: n_cpus for s in self.grid.site_names}
        self.server = SphinxServer(self.env, self.bus, self.config,
                                   self.catalog, self.monitoring, self.rls)
        self.user = User("alice", VirtualOrganization("cms"))
        #: resource -> per-site grant for the user; None = quota-exempt
        self.quota = quota
        self.apply_policy(self.server)
        self.client = SphinxClient(
            self.env, self.bus, self.server.service_name, self.condorg,
            self.gridftp, self.rls, self.user, "c0", poll_s=1.0,
            rng=self.rng.stream("client-backoff"),
        )

    def apply_policy(self, server):
        """Grant the user's quota (policy lives outside the warehouse,
        so a recovered server needs it applied again)."""
        if self.quota is None:
            server.policy.grant_unlimited(self.user.proxy)
            return
        for site in self.catalog:
            for resource, amount in self.quota.items():
                server.policy.grant(self.user.proxy, site, resource, amount)

    def submit(self, dag, home="s0"):
        self.client.stage_external_inputs(dag, self.grid.site(home))
        self.env.process(self.client.submit_dag(dag))

    def run(self, until):
        self.env.run(until=until)
