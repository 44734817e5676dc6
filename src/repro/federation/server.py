"""One federation shard — a SPHINX server with peer awareness bolted on.

:class:`FederatedSphinxServer` keeps the base constructor signature
(so :func:`repro.core.recovery.recover_server` rebuilds a crashed
shard with ``server_cls=type(old)`` untouched) and gains everything
federation-specific through :meth:`enable_federation`, called by the
runner after construction and again after every recovery:

* a :class:`DigestBoard` wired into the base planner's remote-load
  seam (``_remote_load``), so site views include fresh peer load;
* a periodic digest broadcast of its own :meth:`site_load_snapshot`
  to peers and the meta;
* a :class:`ShardQuotaLedger` plus the ``lease_transfer`` RPC, and a
  defer hook that requests leases from peers when planning stalls on
  quota;
* a shard-labelled planning-latency histogram, so the benchmark suite
  can report per-shard percentiles.

Without :meth:`enable_federation` the subclass behaves exactly like
the base class — the window between recovery and re-enabling is just
a normal single-server interval.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.server import SphinxServer
from repro.federation.config import FederationConfig
from repro.federation.digest import DigestBoard
from repro.federation.ledger import ShardQuotaLedger, lease_key
from repro.sim.engine import Interrupt

__all__ = ["FederatedSphinxServer"]


class FederatedSphinxServer(SphinxServer):
    """A SPHINX server that plans as one shard of a federation."""

    def __init__(self, *args, **kwargs):
        # Before super().__init__: the base constructor may run a first
        # control pass synchronously (recovery restores ready work),
        # and the overridden hooks below read these attributes.
        self.fed_config: Optional[FederationConfig] = None
        self.shard_label: Optional[str] = None
        self.board: Optional[DigestBoard] = None
        self.ledger: Optional[ShardQuotaLedger] = None
        self._peer_services: dict[str, str] = {}
        self._meta_service: Optional[str] = None
        #: dag_id -> (client_id, user, payload, priority): DAGs the
        #: meta has offered but not yet confirmed.  Deliberately
        #: in-memory — an offer the meta abandons (re-homed elsewhere)
        #: or that dies with a crash must leave no warehouse trace, or
        #: two shards could end up owning the same DAG.
        self._pending_admissions: dict[str, tuple] = {}
        self._digest_seq = 0
        self._transfer_seq = 0
        #: lease key -> last request instant (the cooldown memory)
        self._lease_asked_at: dict[str, float] = {}
        self._lease_retry_proc = None
        self._digest_proc = None
        super().__init__(*args, **kwargs)

    # -- wiring -----------------------------------------------------------
    def enable_federation(
        self,
        config: FederationConfig,
        label: str,
        peers: Mapping[str, str],
        meta_service: Optional[str] = None,
    ) -> None:
        """Attach this server to a federation as shard ``label``.

        ``peers`` maps the *other* shards' labels to their bus service
        names.  Called once at startup and again on every recovered
        incarnation (the warehouse carries leases across the crash;
        this call re-attaches everything that lives outside it).
        """
        self.fed_config = config
        self.shard_label = label
        self._peer_services = {
            lbl: svc for lbl, svc in peers.items() if lbl != label
        }
        self._meta_service = meta_service
        self.board = DigestBoard(label, config.digest_ttl_s)
        self.ledger = ShardQuotaLedger(self)
        self._remote_load = self._digest_remote_load
        # Remote load changes every row's inputs; start clean.
        self._stale.update(self._site_row)
        self.bus.register(self.service_name, "load_digest",
                          self._rpc_load_digest)
        self.bus.register(self.service_name, "lease_transfer",
                          self._rpc_lease_transfer)
        self.bus.register(self.service_name, "offer_dag",
                          self._rpc_offer_dag)
        self.bus.register(self.service_name, "confirm_dag",
                          self._rpc_confirm_dag)
        # Planning latency gets the shard label so the suite can split
        # percentiles per shard; the unlabeled histogram stays the
        # single-server export.
        self._m_planning_latency = self.obs.metrics.histogram(
            "server.planning_latency_s", shard=label
        )
        if config.digest_interval_s > 0:
            self._digest_proc = self.env.process(self._digest_loop())

    def shutdown(self) -> None:
        if self._digest_proc is not None and self._digest_proc.is_alive:
            self._digest_proc.interrupt("shutdown")
        if (self._lease_retry_proc is not None
                and self._lease_retry_proc.is_alive):
            self._lease_retry_proc.interrupt("shutdown")
        super().shutdown()

    # -- digests ----------------------------------------------------------
    def _digest_remote_load(self, site: str):
        return self.board.remote_load(site, self.env.now)

    def _site_views(self):
        board = self.board
        if board is not None and self.env.now >= board.next_expiry:
            # A digest aging out moves remote load like a new one does.
            self._stale.update(
                self._site_row.keys() & board.expire(self.env.now)
            )
        return super()._site_views()

    def _digest_loop(self):
        try:
            while True:
                yield self.env.timeout(self.fed_config.digest_interval_s)
                self.publish_digest()
        except Interrupt:
            return

    def publish_digest(self) -> dict:
        """Broadcast this shard's load to every live peer and the meta.

        Fire-and-forget: a peer that is down simply misses this round
        and catches the next; digests are advisory by design.
        """
        self._digest_seq += 1
        digest = {
            "shard": self.shard_label,
            "seq": self._digest_seq,
            "issued_at": self.env.now,
            **self.site_load_snapshot(),
        }
        for label in sorted(self._peer_services):
            service = self._peer_services[label]
            if self.bus.has_service(service):
                self.bus.call(self.config.name, service,
                              "load_digest", digest)
        if (self._meta_service is not None
                and self.bus.has_service(self._meta_service)):
            self.bus.call(self.config.name, self._meta_service,
                          "digest", digest)
        return digest

    # -- two-phase admission ----------------------------------------------
    def _rpc_offer_dag(self, client_id, user, dag_payload,
                       priority=10) -> str:
        """Phase 1 of the meta's forward: hold the DAG in memory only.

        Nothing durable happens here, so a duplicated dispatch or an
        offer the meta later re-homes to a peer leaves no warehouse
        trace.  Replays (including an offer for an already-confirmed
        DAG) are acks."""
        dag_id = dag_payload["dag_id"]
        if dag_id in self.warehouse.table("dags"):
            return "accepted"  # confirmed already; phase 2 will say so
        self._pending_admissions[dag_id] = (
            client_id, user, dag_payload, priority
        )
        return "accepted"

    def _rpc_confirm_dag(self, dag_id) -> str:
        """Phase 2: durably admit a previously offered DAG.

        Idempotent by warehouse lookup — a confirm whose reply died is
        re-sent by the meta and lands here as a no-op.  ``"unknown"``
        means the in-memory offer is gone (a crash wiped it before the
        confirm arrived) and tells the meta to replay phase 1."""
        if dag_id in self.warehouse.table("dags"):
            self._pending_admissions.pop(dag_id, None)
            return "confirmed"
        pending = self._pending_admissions.pop(dag_id, None)
        if pending is None:
            return "unknown"
        client_id, user, payload, priority = pending
        self._rpc_submit_dag(client_id, user, payload, priority)
        return "confirmed"

    def _rpc_load_digest(self, digest) -> str:
        self._stale.update(self._site_row.keys() & self.board.apply(digest))
        # No wake: remote load drifting does not make a stuck job
        # plannable by itself; the next ordinary pass sees it.
        return "ok"

    # -- leases -----------------------------------------------------------
    def _rpc_lease_transfer(self, user, site, resource, requested,
                            to_shard, transfer_id):
        """Peer-side entry point: give away spare lease (maybe 0)."""
        if self.ledger is None:
            return 0.0
        return self.ledger.grant_transfer(
            user, site, resource, requested, to_shard, transfer_id
        )

    def _plan_deferred(self, drow: dict, job_id: str, reason: str) -> None:
        # Lease requests must run before the base hook, which returns
        # early when observability is disabled.
        if (self.ledger is not None
                and reason in ("quota", "no-feasible-site")):
            self._request_leases(drow, job_id)
        super()._plan_deferred(drow, job_id, reason)

    def _request_leases(self, drow: dict, job_id: str) -> None:
        """Ask peers for quota headroom on every starved key.

        Each key that is leased here, short of one job's need, and off
        cooldown gets a request to every live peer — all in one burst,
        because a key whose peers are drained grants nothing and
        leaves no trace, so asking one key at a time can livelock on
        an exhausted site while a fixable one sits untouched.  The
        per-key cooldown bounds the chatter; replies land
        asynchronously via :meth:`_lease_reply_cb` and the planner
        retries the job on the wake that follows a credit.
        """
        user = drow["user"]
        requirements = self._dag(drow["dag_id"]).job(job_id).requirements
        if not requirements or not self._peer_services:
            return
        cooldown = self.fed_config.lease_request_cooldown_s
        earliest_retry = None
        for site in self._catalog_sites:
            for resource in sorted(requirements):
                amount = requirements[resource]
                if not self.ledger.has_lease(user, site, resource):
                    continue  # not a federated key (unlimited user etc.)
                if self.policy.remaining(user, site, resource) >= amount:
                    continue
                key = lease_key(user, site, resource)
                asked = self._lease_asked_at.get(key)
                if asked is not None and self.env.now - asked < cooldown:
                    expiry = asked + cooldown
                    if earliest_retry is None or expiry < earliest_retry:
                        earliest_retry = expiry
                    continue
                self._lease_asked_at[key] = self.env.now
                deficit = amount - self.policy.remaining(
                    user, site, resource
                )
                # Ask for the deficit plus one job of headroom so the
                # next job at this site doesn't immediately re-starve.
                want = deficit + amount
                for label in sorted(self._peer_services):
                    service = self._peer_services[label]
                    if not self.bus.has_service(service):
                        continue
                    self._transfer_seq += 1
                    transfer_id = (
                        f"{self.shard_label}:{self._transfer_seq:06d}"
                    )
                    ev = self.bus.call(
                        self.config.name, service, "lease_transfer",
                        user, site, resource, want,
                        self.shard_label, transfer_id,
                    )
                    ev.add_callback(
                        self._lease_reply_cb(
                            transfer_id, user, site, resource, label
                        )
                    )
        # Some deficient keys were on cooldown: if every in-flight ask
        # grants zero, no credit will arrive to wake the planner, the
        # cooldowns expire into silence, and the job hangs forever.
        # Wake ourselves when the earliest one ends.
        if earliest_retry is not None:
            self._schedule_lease_retry(earliest_retry)

    def _schedule_lease_retry(self, at_s: float) -> None:
        if (self._lease_retry_proc is not None
                and self._lease_retry_proc.is_alive):
            return  # one pending retry is enough; it re-dirties all dags
        self._lease_retry_proc = self.env.process(
            self._lease_retry(max(0.0, at_s - self.env.now))
        )

    def _lease_retry(self, delay_s: float):
        try:
            yield self.env.timeout(delay_s)
        except Interrupt:
            return
        for dag_id in self.unfinished_dags():
            self._dirty_dags.add(dag_id)
        self._wakeup.set()

    def _lease_reply_cb(self, transfer_id, user, site, resource,
                        from_shard):
        def _on_reply(event):
            if not event.ok:
                return  # peer fault (pre-defused); cooldown paces retry
            amount = event.value
            if amount and amount > 0.0 and self.ledger is not None:
                self.ledger.apply_credit(
                    transfer_id, user, site, resource, amount, from_shard
                )
                # Quota freed: starved dags may be plannable right now.
                for dag_id in self.unfinished_dags():
                    self._dirty_dags.add(dag_id)
                self._wakeup.set()
        return _on_reply
