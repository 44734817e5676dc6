"""Site-load digests — how shards see each other without a shared DB.

Each shard periodically broadcasts ``{"shard", "seq", "issued_at",
"sites": {site: [planned, running]}, "inflight_dags"}`` to its peers
and the meta.  A :class:`DigestBoard` keeps the newest digest per peer
and answers "how much extra load do my peers have at this site?" —
the number a federated shard folds into its site table.

Digests are advisory: stale ones (older than the TTL) stop counting,
out-of-order ones are dropped by sequence number, and malformed ones
are ignored entirely.  A digest going stale changes the answer just as
a new digest does, so the board reports it the same way: :meth:`expire`
names the sites whose load just dropped (``next_expiry`` says when to
ask), and the shard invalidates those site-table rows.  A shard planning on a missing digest just sees
less remote load — it still plans, it never crashes.
"""

from __future__ import annotations

__all__ = ["DIGEST_TTL_S", "DigestBoard"]

#: a peer digest older than this no longer counts toward remote load —
#: better to plan on stale-free local truth than on a dead shard's last
#: words.
DIGEST_TTL_S = 300.0


class DigestBoard:
    """Newest-per-peer digest store with TTL-gated load summing."""

    def __init__(self, own_label: str, ttl_s: float):
        self.own_label = own_label
        self.ttl_s = ttl_s
        #: shard label -> last accepted digest dict
        self.digests: dict[str, dict] = {}
        #: shard label -> the instant its digest stops counting, for
        #: the digests :meth:`expire` has not reported yet
        self._fresh_until: dict[str, float] = {}
        #: earliest of those instants (inf = nothing left to expire)
        self.next_expiry = float("inf")

    def apply(self, digest) -> tuple[str, ...]:
        """Fold one incoming digest in; returns the sites whose remote
        load changed (the caller invalidates those view-cache rows).

        Malformed or stale input returns () — the bus is a shared
        medium and a bad peer must not take this shard down with it.
        """
        try:
            shard = digest["shard"]
            seq = int(digest["seq"])
            sites = dict(digest["sites"])
        except (KeyError, TypeError, ValueError):
            return ()
        if shard == self.own_label:
            return ()
        prev = self.digests.get(shard)
        if prev is not None and seq <= prev["seq"]:
            return ()
        issued_at = float(digest.get("issued_at", 0.0))
        self.digests[shard] = {
            "seq": seq,
            "issued_at": issued_at,
            "sites": sites,
            "inflight_dags": int(digest.get("inflight_dags", 0)),
        }
        self._fresh_until[shard] = issued_at + self.ttl_s
        self.next_expiry = min(self._fresh_until.values())
        changed = set(sites)
        if prev is not None:
            changed |= set(prev["sites"])
        return tuple(sorted(changed))

    def expire(self, now: float) -> tuple[str, ...]:
        """The sites whose remote load dropped because a digest aged
        past the TTL since the last call (each digest reported once)."""
        # The same test ``remote_load`` applies; in floats it can only
        # turn true at ``now >= next_expiry``, never before.
        expired = [
            shard for shard in self._fresh_until
            if now - self.digests[shard]["issued_at"] > self.ttl_s
        ]
        changed: set[str] = set()
        for shard in expired:
            del self._fresh_until[shard]
            changed.update(self.digests[shard]["sites"])
        self.next_expiry = min(self._fresh_until.values(),
                               default=float("inf"))
        return tuple(sorted(changed))

    def remote_load(self, site: str, now: float) -> tuple[int, int]:
        """(planned, running) summed over all fresh peer digests."""
        planned = running = 0
        for entry in self.digests.values():
            if now - entry["issued_at"] > self.ttl_s:
                continue
            counters = entry["sites"].get(site)
            if counters is None:
                continue
            try:
                p, r = int(counters[0]), int(counters[1])
            except (IndexError, TypeError, ValueError):
                continue  # malformed entry: neither half may count
            planned += p
            running += r
        return planned, running

    def fresh_inflight(self, now: float) -> dict[str, int]:
        """shard -> in-flight DAG count, fresh digests only."""
        return {
            shard: entry["inflight_dags"]
            for shard, entry in self.digests.items()
            if now - entry["issued_at"] <= self.ttl_s
        }
