"""Grid middleware services — the layer between SPHINX and the sites.

Reproductions of the services the paper's SPHINX deployment talked to:

* :mod:`repro.services.rpc` — the Clarens GSI-enabled XML-RPC transport,
* :mod:`repro.services.rls` — the Globus Replica Location Service
  (local catalogs + hierarchical index),
* :mod:`repro.services.gridftp` — GSI-FTP file transfers,
* :mod:`repro.services.monitoring` — the monitoring system (query jobs
  against remote batch queues, with the staleness the paper laments),
* :mod:`repro.services.condorg` — Condor-G/DAGMan grid job submission;
  it hands back the site's own job record, whose state is
  pending/running/completed/killed/failed.
"""

from repro.services.rpc import RpcBus, RpcFault
from repro.services.rls import LocalReplicaCatalog, ReplicaLocationIndex, ReplicaService
from repro.services.gridftp import GridFtpService, TransferError
from repro.services.monitoring import MonitoringService, SiteSnapshot
from repro.services.condorg import CondorG

__all__ = [
    "CondorG",
    "GridFtpService",
    "LocalReplicaCatalog",
    "MonitoringService",
    "ReplicaLocationIndex",
    "ReplicaService",
    "RpcBus",
    "RpcFault",
    "SiteSnapshot",
    "TransferError",
]
