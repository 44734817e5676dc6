"""Grid testbed simulator — the Grid3 substrate.

The paper evaluated SPHINX on Grid3: ~25 sites across the US and Korea,
2000+ CPUs, shared by 7 scientific applications, with decentralised
ownership, fluctuating background load, and unplanned downtime.  This
package reproduces that environment as a discrete-event simulation:

* :mod:`repro.simgrid.vo` — virtual organizations, users, proxies,
* :mod:`repro.simgrid.network` — site-pair bandwidth/latency model,
* :mod:`repro.simgrid.local_scheduler` — per-site batch queues (the
  condor_q / PBS layer whose queue lengths the paper monitors),
* :mod:`repro.simgrid.site` — a grid site: CPUs, storage, fault states,
* :mod:`repro.simgrid.background` — competing non-SPHINX load,
* :mod:`repro.simgrid.failures` — downtime / blackhole / degradation
  injection,
* :mod:`repro.simgrid.grid` — the site collection + Grid3 catalog.
"""

from repro.simgrid.vo import User, VirtualOrganization
from repro.simgrid.network import NetworkModel
from repro.simgrid.local_scheduler import (
    LocalScheduler,
    SiteJob,
    SiteJobStatus,
)
from repro.simgrid.site import GridSite, SiteState
from repro.simgrid.background import BackgroundLoad
from repro.simgrid.failures import DowntimeWindow, FailureInjector
from repro.simgrid.grid import Grid, GRID3_SITES, make_grid3

__all__ = [
    "BackgroundLoad",
    "DowntimeWindow",
    "FailureInjector",
    "GRID3_SITES",
    "Grid",
    "GridSite",
    "LocalScheduler",
    "NetworkModel",
    "SiteJob",
    "SiteJobStatus",
    "SiteState",
    "User",
    "VirtualOrganization",
    "make_grid3",
]
