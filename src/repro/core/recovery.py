"""Server crash recovery (paper §3.1: "robust and recoverable system").

Every warehouse write is durable the moment it is made, as the paper's
MySQL tables were, so a crash leaves behind the warehouse as it stood
at the crash instant (:meth:`~repro.core.server.SphinxServer.checkpoint`).
:func:`recover_server` builds a replacement from that image under the
*same service name*, so clients — which retry important reports while
the name is unreachable — reconnect transparently.

Recovery policy (documented at-least-once semantics):

* **in-flight jobs requeue** — jobs that were PLANNED/SUBMITTED at the
  crash cannot be trusted: the plan message, the client execution
  context, or the completion report may have been lost in the crash
  window.  They are marked CANCELLED (state, not feedback — the site
  did nothing wrong) and their quota reservations refunded; the control
  loop replans them on its first tick.  A duplicate completion from a
  surviving client-side attempt is absorbed by the server's duplicate
  guard.
* **undelivered plan messages drop** — requeuing supersedes them;
  delivering both would run the attempt twice for nothing.
* **dag-finished notifications keep** — idempotent for the client.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.core.serialize import payload_to_dag
from repro.core.server import ServerConfig, SphinxServer
from repro.core.states import JobState
from repro.core.warehouse import Warehouse

__all__ = ["recover_server"]

_IN_FLIGHT = (JobState.PLANNED.value, JobState.SUBMITTED.value)


def recover_server(
    env,
    bus,
    config: ServerConfig,
    site_catalog: Mapping[str, int],
    monitoring,
    rls,
    checkpoint: dict,
    obs=None,
    server_cls: type[SphinxServer] = SphinxServer,
    reconfigure: Optional[Callable[[SphinxServer], None]] = None,
) -> SphinxServer:
    """A replacement server resuming from the warehouse image
    ``checkpoint`` (``Warehouse().snapshot()`` models a lost database).

    ``obs`` hands the replacement the same observability facade the
    crashed instance used, so counters keep accumulating across the
    restart (observers live outside the failure domain).

    ``server_cls`` rebuilds subclassed servers (a federation shard) as
    their own kind; the constructor signature is the contract.

    ``reconfigure`` re-applies what lives outside the warehouse (policy
    grants and exemptions, a shard's peer links and digest handlers) to
    the replacement *before* requeued jobs are refunded: a refund for a
    user whose exemption is not back yet reads as "never charged".
    """
    warehouse = Warehouse()
    warehouse.restore(checkpoint)
    server_cls.init_tables(warehouse)
    _requeue_in_flight(warehouse)
    _drop_stale_plans(warehouse)
    server = server_cls(
        env, bus, config, site_catalog, monitoring, rls,
        warehouse=warehouse, obs=obs,
    )
    if reconfigure is not None:
        reconfigure(server)
    _refund_requeued(server)
    return server


def _requeue_in_flight(warehouse: Warehouse) -> None:
    jobs = warehouse.table("jobs")
    for row in jobs.select(predicate=lambda r: r["state"] in _IN_FLIGHT):
        jobs.update(
            row["job_id"],
            state=JobState.CANCELLED.value,
            last_status="recovered",
        )


def _drop_stale_plans(warehouse: Warehouse) -> None:
    outbox = warehouse.table("outbox")
    for msg in outbox.select(where={"kind": "plan"}):
        outbox.delete(msg["msg_id"])


def _refund_requeued(server: SphinxServer) -> None:
    """Return quota reservations of requeued jobs (site column intact)."""
    jobs = server.warehouse.table("jobs")
    dags = server.warehouse.table("dags")
    for row in jobs.select(where={"last_status": "recovered"}):
        site = row["site"]
        if site is None:
            continue
        drow = dags.get(row["dag_id"])
        dag = payload_to_dag(drow["payload"])
        server.policy.refund(
            drow["user"], site, dag.job(row["job_id"]).requirements
        )
        jobs.update(row["job_id"], site=None)
