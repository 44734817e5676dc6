"""The pre-scheduler ``NetworkModel.transfer_process``, kept as the slow twin.

Test-only.  This is the generator that shipped before the central link
scheduler replaced it: every transfer start/finish settles a per-uplink
"epoch" event that wakes *every* in-flight transfer on that uplink, and
each woken transfer re-accounts itself and builds a fresh ``AnyOf`` +
``Timeout``.  It is obviously correct and very slow; the differential
test in ``test_network_differential.py`` holds the scheduler to it
bit-for-bit.  The body below is moved verbatim — do not optimise it.
"""

from __future__ import annotations

from repro.simgrid.network import NetworkModel

__all__ = ["ReferenceNetworkModel"]


class ReferenceNetworkModel(NetworkModel):
    """Topology and estimates from :class:`NetworkModel`; the simulated
    transfer is the historical epoch/``any_of`` loop."""

    def __init__(self, env, *args, **kwargs):
        super().__init__(env, *args, **kwargs)
        #: live transfer counts per site uplink, for congestion sharing.
        self._active: dict[str, int] = {}
        #: per-uplink "share changed" events; every active-count change
        #: settles the old event so in-flight transfers re-account.
        self._epoch: dict[str, object] = {}

    # -- simulated transfer ---------------------------------------------------------
    def active_transfers(self, site: str) -> int:
        """Number of live transfers crossing ``site``'s uplink."""
        return self._active.get(site, 0)

    def _bump(self, site: str, delta: int) -> None:
        self._active[site] = self._active.get(site, 0) + delta
        # Wake every in-flight transfer crossing this uplink so it
        # re-accounts at the new share.
        epoch = self._epoch.get(site)
        if epoch is not None and not epoch.triggered:
            epoch.succeed()
        self._epoch[site] = self.env.event()

    def _epoch_event(self, site: str):
        epoch = self._epoch.get(site)
        if epoch is None or epoch.triggered:
            epoch = self._epoch[site] = self.env.event()
        return epoch

    def transfer_process(self, size_mb: float, src: str, dst: str):
        """A generator that models the transfer with congestion.

        Yield it from a simulation process.  Exact fluid fair sharing:
        a transfer progresses at the path bandwidth divided by the
        busiest endpoint's active-transfer count, and re-accounts
        whenever any transfer starts or finishes on either uplink —
        event-driven, so cost scales with share *changes*, not with
        transfer duration.
        """
        if src == dst or size_mb == 0:
            if size_mb < 0:
                raise ValueError("size must be >= 0")
            return 0.0
        start = self.env.now
        yield self.env.timeout(self.latency_s(src, dst))
        self._bump(src, +1)
        self._bump(dst, +1)
        try:
            remaining = float(size_mb)
            while remaining > 1e-9:
                share = self.bandwidth_mbps(src, dst) / max(
                    self._active.get(src, 1), self._active.get(dst, 1)
                )
                slice_start = self.env.now
                done = self.env.timeout(remaining / share)
                yield self.env.any_of(
                    [done, self._epoch_event(src), self._epoch_event(dst)]
                )
                if not done.processed:
                    # A share change preempted this slice; the stale
                    # completion timer would pop much later for nothing.
                    done.cancel()
                remaining -= share * (self.env.now - slice_start)
        finally:
            self._bump(src, -1)
            self._bump(dst, -1)
        return self.env.now - start
