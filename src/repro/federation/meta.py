"""The meta-scheduler — federation front door over the RpcBus.

Clients submit DAGs to the meta exactly as they would to a single
SPHINX server (same ``submit_dag`` RPC shape), so the client code is
federation-blind.  The meta does admission only: it picks a shard
(the user's deterministic home, re-homed only after a long outage),
forwards the DAG, and keeps retrying until some shard durably
acknowledges it.  Planning, quota, and client reporting all happen
shard-side — each plan carries its origin service, so execution
reports bypass the meta entirely.

Fault model: forwarding is at-least-once over a two-phase protocol.
An ``offer_dag`` parks the DAG shard-side **in memory only**; a
``confirm_dag`` makes it durable.  Offers are free to retry and to
re-home (an abandoned offer never touches a warehouse); confirms pin
the entry to one shard forever, because a confirm whose reply was
lost may have landed — so even under transport chaos (dropped
requests, dropped replies, duplicated dispatches) a DAG lands in
exactly one shard warehouse, which the chaos invariant checker
audits.  A shard that stays continuously unreachable past
``_REHOME_AFTER_S`` gets its **unoffered/unconfirmed-and-unpinned**
DAGs re-homed to a live peer; pinned ones stay put, because the dead
shard's warehouse may own them and its recovery will resume them
(re-homing those would run the work twice).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro import obs as obs_mod
from repro.federation.config import FederationConfig
from repro.federation.digest import DIGEST_TTL_S, DigestBoard
from repro.federation.shards import ShardMap
from repro.services.rpc import RpcBus, RpcFault
from repro.sim.engine import Environment, Interrupt

__all__ = ["MetaScheduler"]

#: admission proxy the meta forwards under (shard ACLs, if any, must
#: admit it; the default runs have no server ACLs).
_META_PROXY = "sphinx-meta"

#: how long a shard must stay continuously unreachable before the meta
#: re-homes that shard's unacknowledged DAGs.  Must exceed any planned
#: crash-recovery gap to be survived in place.
_REHOME_AFTER_S = 600.0

#: pause between forward attempts while a shard is unreachable (the
#: registration latch usually wins long before this fires).
_FORWARD_RETRY_S = 15.0


class _Entry:
    """One admitted DAG's routing state."""

    __slots__ = ("dag_id", "client_id", "proxy", "payload", "priority",
                 "user", "shard", "state", "proc")

    def __init__(self, dag_id, client_id, proxy, payload, priority,
                 user, shard):
        self.dag_id = dag_id
        self.client_id = client_id
        self.proxy = proxy
        self.payload = payload
        self.priority = priority
        self.user = user
        self.shard = shard
        self.state = "forwarding"  # -> "acked"
        self.proc = None


class MetaScheduler:
    """Admission + routing front end for N peer SPHINX shards."""

    def __init__(
        self,
        env: Environment,
        bus: RpcBus,
        config: FederationConfig,
        shard_services: Mapping[str, str],
        obs=None,
    ):
        self.env = env
        self.bus = bus
        self.config = config
        #: shard label -> bus service name, in shard order
        self.shard_services = dict(shard_services)
        self.shard_map = ShardMap(tuple(self.shard_services))
        self.service_name = config.meta_service
        #: the meta reuses DigestBoard for its routing view; its "own
        #: label" is a name no shard uses, so every digest counts.
        self.board = DigestBoard("__meta__", DIGEST_TTL_S)
        #: dag_id -> _Entry, admission order
        self.entries: dict[str, _Entry] = {}
        #: first instant each shard's forward went unreachable, or None
        self._unreachable_since: dict[str, Optional[float]] = {
            label: None for label in self.shard_services
        }
        self.rehomed_count = 0
        self.obs = obs_mod.get(obs)
        m = self.obs.metrics
        m.reading("meta.dags_admitted", lambda: len(self.entries),
                  fed=config.name)
        m.reading("meta.dags_rehomed", lambda: self.rehomed_count,
                  fed=config.name)
        if bus.has_service(self.service_name):
            raise ValueError(
                f"service {self.service_name!r} is already on the bus — "
                "give each concurrent federation a unique name"
            )
        bus.register(self.service_name, "submit_dag", self._rpc_submit_dag)
        bus.register(self.service_name, "digest", self._rpc_digest)

    # -- RPC surface ------------------------------------------------------
    def _rpc_submit_dag(self, client_id, proxy, payload, priority) -> str:
        """Admit one DAG; same shape as the server's ``submit_dag``.

        Idempotent: clients retry submission while we are unreachable,
        so a replay of an admitted dag_id is an ack, not a new DAG.
        """
        dag_id = payload["dag_id"]
        if dag_id in self.entries:
            return "accepted"
        shard = self.shard_map.home(proxy)
        entry = _Entry(dag_id, client_id, proxy, payload, priority,
                       proxy, shard)
        self.entries[dag_id] = entry
        entry.proc = self.env.process(self._forward(entry))
        return "accepted"

    def _rpc_digest(self, digest) -> str:
        """Shards copy the meta on every digest broadcast; the board
        keeps the newest per shard for routing decisions."""
        self.board.apply(digest)
        try:
            shard = digest["shard"]
        except (KeyError, TypeError):
            return "ok"
        if shard in self._unreachable_since:
            # A digest is proof of life: clear the outage clock so the
            # re-home grace always measures one *continuous* outage.
            self._unreachable_since[shard] = None
        return "ok"

    # -- routing ----------------------------------------------------------
    def _loads(self) -> dict[str, int]:
        """shard -> in-flight DAGs: fresh digest counts plus what this
        meta has forwarded since those digests were issued."""
        loads = dict.fromkeys(self.shard_services, 0)
        for shard, inflight in self.board.fresh_inflight(self.env.now).items():
            if shard in loads:
                loads[shard] = inflight
        for entry in self.entries.values():
            if entry.state == "forwarding":
                loads[entry.shard] = loads.get(entry.shard, 0) + 1
        return loads

    def _alive(self) -> dict[str, bool]:
        return {
            label: self.bus.has_service(service)
            for label, service in self.shard_services.items()
        }

    # -- forwarding -------------------------------------------------------
    def _forward(self, entry: _Entry):
        """Push one DAG to its shard until durably acknowledged.

        Two phases.  ``offer_dag`` parks the DAG shard-side in memory
        only, so a faulted offer is always safe to retry *or re-home*:
        an abandoned offer never reaches a warehouse.  ``confirm_dag``
        makes it durable — and from the first confirm attempt the entry
        is pinned to its shard, because a confirm whose reply died may
        have landed (every transport fault reads as ``unknown
        service``; a dropped reply is indistinguishable from a dropped
        request).  Re-homing past that point could place the DAG twice.
        A pinned confirm that comes back ``"unknown"`` means the offer
        died with a shard crash before the confirm arrived: replay
        phase 1 on the same shard.
        """
        try:
            offered = False  # True = pinned: a confirm may have landed
            while True:
                service = self.shard_services[entry.shard]
                if not offered:
                    try:
                        yield self.bus.call(
                            _META_PROXY, service, "offer_dag",
                            entry.client_id, entry.proxy, entry.payload,
                            entry.priority,
                        )
                    except RpcFault as fault:
                        if "unknown service" not in str(fault):
                            raise  # config error, not a fault to absorb
                        if self._note_unreachable(entry):
                            continue  # re-homed; offer to the new shard
                        yield from self.bus.await_service(
                            service, _FORWARD_RETRY_S)
                        continue
                    self._unreachable_since[entry.shard] = None
                    offered = True
                    continue
                try:
                    reply = yield self.bus.call(
                        _META_PROXY, service, "confirm_dag", entry.dag_id
                    )
                except RpcFault as fault:
                    if "unknown service" not in str(fault):
                        raise
                    # Pinned: never re-home; wait and re-send the
                    # confirm to the same shard.
                    yield from self.bus.await_service(
                        service, _FORWARD_RETRY_S)
                    continue
                self._unreachable_since[entry.shard] = None
                if reply == "unknown":
                    offered = False  # crash ate the offer; replay it
                    continue
                entry.state = "acked"
                return
        except Interrupt:
            return  # shutdown()

    def _note_unreachable(self, entry: _Entry) -> bool:
        """Track a shard's continuous outage; True if ``entry`` was
        re-homed (its shard changed) and the forward should retry now."""
        shard = entry.shard
        since = self._unreachable_since[shard]
        if since is None:
            self._unreachable_since[shard] = self.env.now
            return False
        if self.env.now - since < _REHOME_AFTER_S:
            return False
        replacement = self._rehome_target(exclude=shard)
        if replacement is None:
            return False  # nowhere to go; keep waiting for the shard
        entry.shard = replacement
        self.rehomed_count += 1
        return True

    def _rehome_target(self, exclude: str) -> Optional[str]:
        alive = self._alive()
        live = [
            lbl for lbl in self.shard_services
            if lbl != exclude and alive.get(lbl, False)
        ]
        if not live:
            return None
        loads = self._loads()
        order = tuple(self.shard_services)
        return min(live, key=lambda lbl: (loads.get(lbl, 0),
                                          order.index(lbl)))

    # -- audit / lifecycle ------------------------------------------------
    def unacked(self) -> tuple[str, ...]:
        return tuple(
            d for d, e in self.entries.items() if e.state != "acked"
        )

    def shutdown(self) -> None:
        self.bus.unregister_service(self.service_name)
        for entry in self.entries.values():
            if entry.proc is not None and entry.proc.is_alive:
                entry.proc.interrupt("meta-shutdown")
