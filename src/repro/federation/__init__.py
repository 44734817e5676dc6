"""Federated SPHINX — a meta-scheduler over sharded peer servers.

The paper's DB-decoupled server was designed so its modules could be
distributed; this package takes that to its conclusion (cf. DIANA's
scheduler hierarchies): N independent SPHINX servers ("shards"), each
with its own warehouse, plan concurrently against one grid while a
thin **meta-scheduler** admits DAGs and routes each to a shard by a
deterministic user shard map (re-homing to the least-loaded live shard
only a DAG whose home stays down past a grace).

Shards share no database.  Instead each periodically publishes a
compact **site-load digest** over the ordinary :class:`RpcBus`; peers
fold fresh digests into their site tables, so every shard plans against
near-global load without a shared warehouse.  Per-user quotas are
split into per-shard **leases** rebalanced by explicit lease-transfer
RPCs, with debit/credit rows that make cross-shard conservation an
auditable invariant.

Everything is opt-in via :class:`FederationConfig`; a single-server
run never touches this package and stays bit-identical.
"""

from repro.federation.config import FederationConfig
from repro.federation.digest import DigestBoard
from repro.federation.ledger import ShardQuotaLedger
from repro.federation.meta import MetaScheduler
from repro.federation.runner import (
    FederationRun,
    FederationScenario,
    ext_federation_scenario,
    run_federation,
)
from repro.federation.server import FederatedSphinxServer
from repro.federation.shards import ShardMap

__all__ = [
    "FederationConfig",
    "ShardMap",
    "DigestBoard",
    "ShardQuotaLedger",
    "MetaScheduler",
    "FederatedSphinxServer",
    "FederationScenario",
    "FederationRun",
    "ext_federation_scenario",
    "run_federation",
]
