"""GridFTP — GSI-secured file transfers between sites.

Moves a logical file's replica from a source site to a destination
site over the :class:`~repro.simgrid.network.NetworkModel` (so
concurrent transfers genuinely contend for uplink bandwidth), updates
the destination site's storage, and registers the new replica in the
RLS.  Transfers to or from a DOWN site fail with
:class:`TransferError`, which the SPHINX client treats like any other
execution failure (replan).
"""

from __future__ import annotations

from repro.sim.engine import Environment
from repro.simgrid.grid import Grid
from repro.simgrid.site import SiteState, StorageFullError
from repro.services.rls import ReplicaService

__all__ = ["GridFtpService", "TransferError"]


class TransferError(RuntimeError):
    """A transfer could not start or was interrupted by a site failure."""


class GridFtpService:
    """Third-party transfer engine over the grid's network model."""

    def __init__(self, env: Environment, grid: Grid, rls: ReplicaService):
        self.env = env
        self.grid = grid
        self.rls = rls
        #: completed transfer log: (time, lfn, src, dst, size_mb, seconds)
        self.log: list[tuple[float, str, str, str, float, float]] = []
        self.failed_count = 0

    def estimate_s(self, lfn: str, src: str, dst: str) -> float:
        """Planner-facing uncongested estimate."""
        size = self.rls.size_of(lfn)
        if size is None:
            raise TransferError(f"no replica of {lfn!r} known to RLS")
        return self.grid.network.transfer_time(size, src, dst)

    def transfer(self, lfn: str, src: str, dst: str, proxy: str = "unknown"):
        """A generator performing the transfer; yield it from a process.

        Returns elapsed seconds.  Raises :class:`TransferError` when the
        source replica is missing or either endpoint is down.
        """
        if src == dst:
            return 0.0
        src_site = self.grid.site(src)
        dst_site = self.grid.site(dst)
        if not src_site.has_file(lfn):
            self.failed_count += 1
            raise TransferError(f"{lfn!r} has no physical replica at {src}")
        if src_site.state is SiteState.DOWN or dst_site.state is SiteState.DOWN:
            self.failed_count += 1
            raise TransferError(f"endpoint down for {lfn!r}: {src}->{dst}")
        size = src_site._storage[lfn]
        if dst_site.free_mb < size:
            self.failed_count += 1
            raise TransferError(
                f"{dst} storage full: {size} MB does not fit for {lfn!r}"
            )
        start = self.env.now
        yield from self.grid.network.transfer_process(size, src, dst)
        # Destination may have died or filled up mid-flight.
        if dst_site.state is SiteState.DOWN:
            self.failed_count += 1
            raise TransferError(f"destination {dst} died during {lfn!r}")
        try:
            dst_site.store_file(lfn, size)
        except StorageFullError as exc:
            self.failed_count += 1
            raise TransferError(str(exc)) from exc
        self.rls.register_replica(lfn, dst, size)
        self.log.append((self.env.now, lfn, src, dst, size, self.env.now - start))
        return self.env.now - start

    def has_live_replica(self, lfn: str) -> bool:
        """True when some non-DOWN site physically holds ``lfn``."""
        return any(
            s in self.grid
            and self.grid.site(s).has_file(lfn)
            and self.grid.site(s).state is not SiteState.DOWN
            for s in self.rls.locations(lfn)
        )

    def stage_in(self, lfn: str, dst: str, proxy: str = "unknown"):
        """Transfer ``lfn`` to ``dst`` from the best available replica.

        "Choose the optimal transfer source for the input files"
        (planner step 3): the replica with the smallest estimated
        transfer time wins.  No-op generator when ``dst`` already has
        the file.
        """
        dst_site = self.grid.site(dst)
        if dst_site.has_file(lfn):
            return 0.0
        sources = [
            s for s in self.rls.locations(lfn)
            if s in self.grid
            and self.grid.site(s).has_file(lfn)
            and self.grid.site(s).state is not SiteState.DOWN
        ]
        if not sources:
            self.failed_count += 1
            raise TransferError(f"no live replica of {lfn!r} anywhere")
        best = min(
            sources,
            key=lambda s: (self.grid.network.transfer_time(
                self.grid.site(s)._storage[lfn], s, dst), s),
        )
        result = yield from self.transfer(lfn, best, dst, proxy)
        return result
