"""Shared fixture: a minimal N-shard federation on one bus/grid.

Mirrors ``tests.core.test_server.Stack`` but builds
:class:`FederatedSphinxServer` shards wired together with
``enable_federation`` (no meta, no clients — tests add what they
need).
"""

from repro.core import ServerConfig
from repro.core.serialize import dag_to_payload
from repro.federation import FederationConfig, FederatedSphinxServer
from repro.services import MonitoringService, ReplicaService, RpcBus
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid
from repro.simgrid.grid import SiteSpec
from repro.workflow import Dag, Job, LogicalFile

USER = "/VO=v/CN=u"


def lf(name, size=1.0):
    return LogicalFile(name, size)


def one_job_dag(dag_id="d0", requirements=None):
    return Dag(dag_id, [Job(f"{dag_id}.a",
                            outputs=(lf(f"{dag_id}.out"),),
                            requirements=dict(requirements or {}))])


class FedStack:
    """N federated shards sharing one grid, bus, and monitoring."""

    def __init__(self, n_shards=2, n_sites=3, digest_interval_s=0.0,
                 lease_cooldown_s=30.0, fed_kw=None, bus_factory=RpcBus,
                 **config_kw):
        self.env = Environment()
        self.grid = Grid(self.env, RngStreams(0))
        for i in range(n_sites):
            self.grid.add_site(SiteSpec(f"s{i}", n_cpus=4,
                                        background_utilization=0.0,
                                        service_noise_sigma=0.0))
        self.bus = bus_factory(self.env)
        self.rls = ReplicaService(self.env, self.grid.site_names)
        self.monitoring = MonitoringService(self.env, self.grid,
                                            update_interval_s=60.0)
        self.catalog = {s: 4 for s in self.grid.site_names}
        self.fed = FederationConfig(
            name="t", n_shards=n_shards,
            digest_interval_s=digest_interval_s,
            lease_request_cooldown_s=lease_cooldown_s,
            **(fed_kw or {}),
        )
        self.servers = {}
        self.configs = {}
        for label in self.fed.shard_labels():
            config = ServerConfig(
                name=self.fed.shard_server_name(label),
                algorithm="round-robin", tick_s=1.0, **config_kw,
            )
            self.configs[label] = config
            self.servers[label] = FederatedSphinxServer(
                self.env, self.bus, config, self.catalog,
                self.monitoring, self.rls,
            )
        self.services = {
            lbl: srv.service_name for lbl, srv in self.servers.items()
        }
        for label, server in self.servers.items():
            server.enable_federation(self.fed, label, self.services)

    def init_leases(self, total, resource="slots", user=USER):
        """Split a per-(user, site) grant evenly across the shards."""
        n = len(self.servers)
        for server in self.servers.values():
            for site in self.catalog:
                server.ledger.init_lease(user, site, resource, total / n)

    def submit(self, label, dag, client_id="c0", user=USER):
        return self.servers[label]._rpc_submit_dag(
            client_id, user, dag_to_payload(dag)
        )

    def run(self, until=None):
        if until is None:
            self.env.run()
        else:
            self.env.run(until=until)
