"""Wide-area network model between grid sites.

Transfer planning (planner step 3) and the GridFTP service need a
transfer-time estimate for moving a file between two sites.  The model
is deliberately simple and standard:

    time = latency + size_mb / effective_bandwidth(src, dst)

where the effective bandwidth of a path is the minimum of the two
sites' WAN uplinks and the latency is one network-wide constant.  Local
(same-site) access is free.

The model supports congestion: each site uplink is a counted channel;
concurrent transfers divide the bandwidth equally.  The analytic
estimate (:meth:`transfer_time`) ignores congestion — exactly like the
static monitoring data SPHINX had — while the simulated transfer
(:meth:`transfer_process`) experiences it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Container, Iterable, Optional

from repro.sim.engine import Event, Timeout

__all__ = ["NetworkModel"]

#: Default WAN uplink for a site with no explicit entry (MB/s).
DEFAULT_BANDWIDTH_MBPS = 10.0
#: Default one-way WAN latency (seconds).
DEFAULT_LATENCY_S = 0.2

#: A flow with no more than this many MB left has finished.
_DONE_MB = 1e-9
#: The finish instant of "no flow" (and of a flow not yet settled).
_NEVER = float("inf")


# Written so that NaN fails too.  An infinite bandwidth would livelock a
# transfer: ``inf * 0.0`` is NaN, so its flow never drains (_settle_many).
def _check_bandwidth(bandwidth_mbps: float, where: str) -> None:
    if not 0 < bandwidth_mbps < _NEVER:
        raise ValueError(f"bandwidth of {where} must be finite and > 0, "
                         f"got {bandwidth_mbps!r}")


def _check_latency(latency_s: float, where: str) -> None:
    if not 0 <= latency_s < _NEVER:
        raise ValueError(f"latency of {where} must be finite and >= 0, "
                         f"got {latency_s!r}")


class _Flow:
    """One live transfer in the link scheduler's table."""

    __slots__ = ("seq", "at_src", "at_dst", "bw", "remaining", "share", "t0",
                 "finish", "key", "done")

    def __init__(self, seq: int, at_src: dict, at_dst: dict, bw: float,
                 size_mb: float, now: float, done: Event):
        self.seq = seq          # start order, the completion tie-break
        self.at_src = at_src    # the flow tables of its two uplinks
        self.at_dst = at_dst
        self.bw = bw            # uncongested path bandwidth (MB/s)
        self.remaining = size_mb
        self.share = bw         # MB/s since t0
        self.t0 = now           # instant `remaining` was last settled
        self.finish = _NEVER    # t0 + remaining / share
        #: instant of this flow's one valid ``_due`` entry, never later
        #: than ``finish``; ``None`` once the flow has closed.
        self.key: Optional[float] = _NEVER
        self.done = done        # settled when the last byte arrives


class NetworkModel:
    """Per-site uplink bandwidths, one latency, fair-share congestion."""

    def __init__(
        self,
        env,
        default_bandwidth_mbps: float = DEFAULT_BANDWIDTH_MBPS,
        default_latency_s: float = DEFAULT_LATENCY_S,
    ):
        _check_bandwidth(default_bandwidth_mbps, "default")
        _check_latency(default_latency_s, "default")
        self.env = env
        self._default_bw = default_bandwidth_mbps
        self._default_lat = default_latency_s
        self._uplink_bw: dict[str, float] = {}
        #: the link scheduler's flow table: per site uplink, the live
        #: flows crossing it (insertion-ordered; a flow sits under both
        #: of its endpoints).
        self._flows: dict[str, dict[_Flow, None]] = {}
        self._flow_seq = 0
        #: ``(instant, flow seq, flow)`` min-heap over the live flows'
        #: finish instants, maintained lazily (see :meth:`_arm`).
        self._due: list[tuple[float, int, _Flow]] = []
        self._due_limit = 64
        #: the one kernel timer, armed at the earliest finish instant.
        self._timer: Optional[Timeout] = None
        self._timer_at = _NEVER

    # -- topology configuration ------------------------------------------------
    def set_uplink(self, site: str, bandwidth_mbps: float) -> None:
        """Set a site's WAN uplink capacity."""
        _check_bandwidth(bandwidth_mbps, f"uplink of {site!r}")
        self._uplink_bw[site] = bandwidth_mbps

    # -- analytic estimates ------------------------------------------------------
    def bandwidth_mbps(self, src: str, dst: str) -> float:
        """Uncongested path bandwidth (MB/s)."""
        if src == dst:
            return float("inf")
        return min(
            self._uplink_bw.get(src, self._default_bw),
            self._uplink_bw.get(dst, self._default_bw),
        )

    def latency_s(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        return self._default_lat

    def transfer_time(self, size_mb: float, src: str, dst: str) -> float:
        """Uncongested transfer-time estimate (what a planner would use)."""
        if size_mb < 0:
            raise ValueError("size must be >= 0")
        if src == dst:
            return 0.0
        return self.latency_s(src, dst) + size_mb / self.bandwidth_mbps(src, dst)

    # -- simulated transfer ---------------------------------------------------------
    #
    # The link scheduler.  Exact fluid fair sharing with no kernel event
    # per share change: the flow table holds, per live transfer, the MB
    # left at its last-settled instant and the share it has drained at
    # since.  Whenever a transfer opens or closes, every flow crossing
    # the two touched uplinks is settled in a plain loop (float
    # arithmetic only), and one kernel timer per network stays armed at
    # the earliest finish instant.  Tie-break: flows that finish at the
    # same instant complete in the order they started.

    def active_transfers(self, site: str) -> int:
        """Number of live transfers crossing ``site``'s uplink."""
        return len(self._flows.get(site, ()))

    def _settle_many(self, flows: Iterable[_Flow], skip: Container[_Flow],
                     now: float) -> None:
        """Account each of ``flows`` not in ``skip`` up to ``now`` and
        re-aim it at its new share."""
        due = self._due
        for flow in flows:
            if flow in skip:
                continue
            remaining = flow.remaining - flow.share * (now - flow.t0)
            flow.remaining = remaining
            flow.t0 = now
            if remaining > _DONE_MB:
                n, n_dst = len(flow.at_src), len(flow.at_dst)
                if n_dst > n:
                    n = n_dst
                flow.share = share = flow.bw / n
                finish = now + remaining / share
            else:
                finish = now  # the last byte is in: completes at this instant
            flow.finish = finish
            if finish < flow.key:
                # Moved earlier: the heap must know now.  A finish that
                # moved later keeps its old entry as a lower bound (_arm).
                flow.key = finish
                heappush(due, (finish, flow.seq, flow))

    def _settle_crossing(self, at_src: dict, at_dst: dict) -> None:
        """Settle every flow crossing either uplink — a transfer opened
        or closed on them, so the share of each may have changed."""
        now = self.env.now
        self._settle_many(at_src, (), now)
        self._settle_many(at_dst, at_src, now)

    def _open(self, size_mb: float, src: str, dst: str) -> _Flow:
        self._flow_seq += 1
        flow = _Flow(self._flow_seq,
                     self._flows.setdefault(src, {}),
                     self._flows.setdefault(dst, {}),
                     self.bandwidth_mbps(src, dst), size_mb,
                     self.env.now, self.env.event())
        flow.at_src[flow] = flow.at_dst[flow] = None
        self._settle_crossing(flow.at_src, flow.at_dst)
        self._arm()
        return flow

    def _close(self, flow: _Flow) -> None:
        """Drop ``flow`` from the table (the caller re-arms the timer)."""
        del flow.at_src[flow], flow.at_dst[flow]
        flow.key = None
        self._settle_crossing(flow.at_src, flow.at_dst)

    def _earliest(self) -> Optional[_Flow]:
        """The live flow that finishes first (ties: started first).

        ``_due`` is maintained lazily: a flow whose finish moved later
        keeps its old entry as a lower bound, and one whose finish moved
        earlier (or that closed) leaves a superseded entry behind.  Both
        are repaired here, and only once they reach the top — which
        then holds the true earliest ``(finish, seq)``.
        """
        due = self._due
        if len(due) > self._due_limit:
            # Superseded entries only leave at the top; under a hot
            # uplink every close supersedes one per crossing flow.  Drop
            # them wholesale once they outnumber the valid ones.
            due[:] = [entry for entry in due if entry[2].key == entry[0]]
            heapify(due)
            self._due_limit = 2 * len(due) + 64
        while due:
            when, seq, flow = due[0]
            if flow.key != when:        # superseded, or the flow closed
                heappop(due)
            elif flow.finish > when:    # lower bound: re-file at the truth
                flow.key = flow.finish
                heapreplace(due, (flow.finish, seq, flow))
            else:
                return flow
        return None

    def _arm(self) -> None:
        """Keep the one timer armed at the earliest finish instant."""
        flow = self._earliest()
        when = _NEVER if flow is None else flow.finish
        if when != self._timer_at:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._timer_at = when
            if flow is not None:
                self._timer = self.env.timeout_at(when)
                self._timer.add_callback(self._on_timer)

    def _on_timer(self, _event: Event) -> None:
        """Complete the flows that finish now, in (instant, start) order."""
        self._timer = None
        self._timer_at = _NEVER
        now = self.env.now
        while True:
            flow = self._earliest()
            if flow is None or flow.finish > now:
                break
            heappop(self._due)
            flow.key = _NEVER  # entry consumed; _settle_many files the next
            self._settle_many((flow,), (), now)
            if flow.remaining <= _DONE_MB:
                self._close(flow)
                flow.done.succeed()
            # else: float shortfall; it runs on for one more slice.
        self._arm()

    def transfer_process(self, size_mb: float, src: str, dst: str):
        """A generator that models the transfer with congestion.

        Yield it from a simulation process.  Exact fluid fair sharing:
        a transfer progresses at the path bandwidth (as configured when
        it leaves the latency phase) divided by the busiest endpoint's
        active-transfer count, and is re-accounted whenever any transfer
        starts or finishes on either uplink.  The re-accounting is done
        by the link scheduler above, not by this process: it sleeps on
        one event from open to last byte, however often its share moves.
        """
        if size_mb < 0:
            raise ValueError("size must be >= 0")
        if src == dst or size_mb == 0:
            return 0.0
        start = self.env.now
        yield self.env.timeout(self.latency_s(src, dst))
        flow = self._open(float(size_mb), src, dst)
        try:
            yield flow.done
        finally:
            if not flow.done.triggered:
                # Interrupted mid-flight: free the share at this instant.
                self._close(flow)
                self._arm()
        return self.env.now - start
