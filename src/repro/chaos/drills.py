"""Component crash-restart drills + the chaos wiring harness.

:class:`ChaosController` is the object a
:class:`repro.experiments.runner.Stack` is armed with (see
``run_scenario(chaos=...)``).  It owns three jobs:

* build the (possibly fault-injecting) RPC bus for the run;
* contribute the ``ServerConfig`` fields that make a server survive
  the plan — transactional outbox delivery and the presumed-lost
  requeue window when the transport or a client can eat messages;
* run the drills: kill servers (warehouse image at the crash instant
  -> ``shutdown`` -> ``recover_server`` from that image under the
  same service name) and clients (``crash``/``restart``) at
  plan-scripted or plan-seeded instants, and layer the plan's
  resource faults onto the grid's injector.

With an inactive plan the controller is inert: plain bus, untouched
configs, no processes spawned — a chaos-disabled run is the same run.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import obs as obs_mod
from repro.chaos.bus import ChaoticBus
from repro.chaos.plan import ChaosPlan, CrashSpec
from repro.core.recovery import recover_server
from repro.services.rpc import RpcBus
from repro.sim.rng import RngStreams
from repro.simgrid.site import SiteState

__all__ = ["ChaosController"]


class ChaosController:
    """Executes one :class:`~repro.chaos.plan.ChaosPlan` over a run."""

    def __init__(self, plan: ChaosPlan, obs=None):
        self.plan = plan
        self.obs = obs_mod.get(obs)
        self._rngs = RngStreams(plan.seed)
        self.env = None
        self.bus: Optional[RpcBus] = None
        self.grid = None
        #: label -> live server/client; a recovery replaces the entry,
        #: and the stack collects results from the live incarnations.
        self.servers: dict = {}
        self.clients: dict = {}
        self._reconfigure: dict[str, Callable] = {}
        #: regenerations tallied by crashed incarnations (a recovered
        #: server restarts its counter at zero)
        self._regen_base: dict[str, int] = {}
        #: [(time, component, label, "crash"|"recover")]
        self.crash_log: list[tuple[float, str, str, str]] = []

    # -- stack hooks (called by repro.experiments.runner.Stack) -----------
    def make_bus(self, env, obs=None) -> RpcBus:
        """The run's bus: chaotic only if the plan perturbs transport."""
        self.env = env
        if self.plan.transport_active:
            self.bus = ChaoticBus(env, self.plan, obs=obs)
        else:
            self.bus = RpcBus(env, obs=obs)
        return self.bus

    def server_config(self, job_timeout_s: float) -> dict:
        """The ``ServerConfig`` fields this plan contributes so a server
        survives it (an inactive plan contributes none).

        They are defaults: the stack lays a spec's explicit eviction
        knobs over them, so an explicit False/0 — a deliberate
        kill-and-resubmit baseline — stays as written.
        """
        plan = self.plan
        fields: dict = {}
        if plan.eviction_active:
            fields.update(
                migrate_on_drain=plan.migrate_on_drain,
                job_checkpoint_interval_s=plan.job_checkpoint_interval_s,
                job_checkpoint_cost_s=plan.job_checkpoint_cost_s,
            )
        needs_redelivery = plan.transport_active or any(
            c.component == "client" for c in plan.crashes
        )
        if needs_redelivery:
            fields["reliable_delivery"] = True
        if needs_redelivery or plan.crashes or plan.eviction_active:
            window = plan.presume_lost_after_s
            if window is None:
                # Past the client's own timeout + a healthy grace for
                # backoff/retry storms, a silent job is a lost message.
                window = job_timeout_s + 900.0
            fields["presume_lost_after_s"] = window
        return fields

    def register(self, label: str, server=None, client=None,
                 reconfigure: Optional[Callable] = None) -> None:
        """One server and/or client + the closure that re-applies the
        server's out-of-warehouse wiring (policy grants, like the
        paper's policy config file; a shard's peer links) to a
        recovered replacement.

        Federated runs register shard servers and user clients under
        disjoint labels (a shard has no single client, a user has no
        server), so either side may be None — a crash spec with no
        explicit label then targets only the populated side."""
        if server is not None:
            self.servers[label] = server
            self._reconfigure[label] = reconfigure
        if client is not None:
            self.clients[label] = client

    def install(self, env, grid) -> None:
        """Arm the drills; called once, before the run starts."""
        self.env = env
        self.grid = grid
        if not self.plan.active:
            return
        if self.plan.site_windows:
            grid.failures.schedule_windows(self.plan.site_windows)
        if self.plan.site_mtbf_s is not None:
            grid.failures.start_stochastic(
                self._rngs.spawn("site-chaos"),
                mtbf_s=self.plan.site_mtbf_s,
                mttr_s=self.plan.site_mttr_s,
            )
        if self.plan.site_evictions:
            grid.failures.schedule_evictions(self.plan.site_evictions)
        if self.plan.eviction_mtbf_s is not None:
            grid.failures.start_eviction_storm(
                self._rngs.spawn("eviction-chaos"),
                mtbf_s=self.plan.eviction_mtbf_s,
                notice_s=self.plan.eviction_notice_s,
                outage_s=self.plan.eviction_outage_s,
            )
        if self.plan.eviction_active:
            # Drain notices reach schedulers the way a 2004 grid's did:
            # the site publishes, every planner listening reacts.  The
            # listener dispatches to the *live* server dict, so notices
            # land on recovered incarnations too.
            for site in grid:
                site.add_state_listener(self._drain_listener)
        for idx, spec in enumerate(self.plan.crashes):
            env.process(self._crash_drill(spec, idx))

    # -- the drills -------------------------------------------------------
    def _drain_listener(self, site, old, new) -> None:
        """Relay site drain transitions to every live server.

        DRAINING starts the clock (stop planning there, migrate if
        armed); the return to UP clears the block.  A DOWN transition
        needs no relay — ``_draining`` deliberately covers the outage
        so the planner keeps avoiding the site until it truly returns.
        """
        if new is SiteState.DRAINING:
            for server in list(self.servers.values()):
                server.drain_notice(site.name, site.drain_deadline)
        elif new is SiteState.UP:
            for server in list(self.servers.values()):
                server.drain_cleared(site.name)

    def _crash_instant(self, spec: CrashSpec, idx: int) -> float:
        if spec.at_s is not None:
            return spec.at_s
        lo, hi = spec.window
        return float(self._rngs.stream(f"crash:{idx}").uniform(lo, hi))

    def _labels(self, spec: CrashSpec) -> list[str]:
        pool = self.servers if spec.component == "server" else self.clients
        if spec.label is not None:
            if spec.label not in pool:
                raise KeyError(
                    f"chaos plan names unknown {spec.component} "
                    f"{spec.label!r}"
                )
            return [spec.label]
        return list(pool)

    def _crash_drill(self, spec: CrashSpec, idx: int):
        at = self._crash_instant(spec, idx)
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        labels = self._labels(spec)
        if spec.component == "server":
            images = {}
            for label in labels:
                server = self.servers[label]
                images[label] = server.checkpoint()
                server.shutdown()
                self._regen_base[label] = (
                    self._regen_base.get(label, 0)
                    + server.regeneration_count
                )
                self.crash_log.append(
                    (self.env.now, "server", label, "crash")
                )
            yield self.env.timeout(spec.down_s)
            for label in labels:
                old = self.servers[label]
                replacement = recover_server(
                    self.env, self.bus, old.config, old.site_catalog,
                    old.monitoring, old.rls, images[label],
                    obs=self.obs if self.obs.enabled else None,
                    server_cls=type(old),
                    reconfigure=self._reconfigure[label],
                )
                self.servers[label] = replacement
                self.crash_log.append(
                    (self.env.now, "server", label, "recover")
                )
        else:
            for label in labels:
                self.clients[label].crash()
                self.crash_log.append(
                    (self.env.now, "client", label, "crash")
                )
            yield self.env.timeout(spec.down_s)
            for label in labels:
                self.clients[label].restart()
                self.crash_log.append(
                    (self.env.now, "client", label, "recover")
                )

    def regen_slack(self) -> dict[str, int]:
        """label -> regenerations across all incarnations (the tolerance
        the exactly-once invariant grants for re-derived outputs)."""
        return {
            label: self._regen_base.get(label, 0)
            + server.regeneration_count
            for label, server in self.servers.items()
        }

    # -- reporting --------------------------------------------------------
    def fault_schedule(self) -> dict:
        """Everything injected, by layer — deterministic per (plan, seed)."""
        transport = []
        injected: dict[str, int] = {}
        if isinstance(self.bus, ChaoticBus):
            transport = [
                [round(t, 6), svc, method, kind]
                for t, svc, method, kind in self.bus.fault_log
            ]
            injected = dict(sorted(self.bus.injected.items()))
        sites = []
        if self.grid is not None:
            sites = [
                [round(t, 6), site, state.value]
                for t, site, state in self.grid.failures.log
            ]
        crashes = [
            [round(t, 6), component, label, what]
            for t, component, label, what in self.crash_log
        ]
        return {
            "transport": transport,
            "transport_counts": injected,
            "crashes": crashes,
            "sites": sites,
        }
