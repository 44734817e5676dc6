"""Federated quota ledger — per-shard leases over one global grant.

A user's quota at a site is split into **leases**, one per shard; a
shard plans only against its own lease, so quota checks never cross
the bus on the hot path.  When a shard runs dry it asks a peer for a
slice via a ``lease_transfer`` RPC; the peer debits its lease and the
requester credits its own on the reply.

Conservation is the invariant that matters: the sum of all shards'
leases, plus debits whose credit never landed, must equal the global
grant.  Both sides write idempotent transfer rows into their own
warehouses (keyed by transfer id), and every warehouse write is
durable when made, so a received credit always implies a durable
debit.  The only loss mode is a debited slice whose reply died with
the requester: quota burns (conservative direction) and the unmatched
debit row keeps the books auditable.
"""

from __future__ import annotations

__all__ = ["ShardQuotaLedger", "lease_key"]

_LEASE_COLUMNS = ("key", "user", "site", "resource", "amount")
_DEBIT_COLUMNS = ("transfer_id", "key", "amount", "to_shard")
_CREDIT_COLUMNS = ("transfer_id", "key", "amount", "from_shard")


def lease_key(user: str, site: str, resource: str) -> str:
    return f"{user}|{site}|{resource}"


class ShardQuotaLedger:
    """One shard's slice of the federated quota, warehouse-durable."""

    def __init__(self, server):
        self.server = server
        wh = server.warehouse
        self.leases = (
            wh.table("quota_leases") if "quota_leases" in wh
            else wh.create_table("quota_leases", _LEASE_COLUMNS, key="key")
        )
        self.debits = (
            wh.table("lease_debits") if "lease_debits" in wh
            else wh.create_table("lease_debits", _DEBIT_COLUMNS,
                                 key="transfer_id")
        )
        self.credits = (
            wh.table("lease_credits") if "lease_credits" in wh
            else wh.create_table("lease_credits", _CREDIT_COLUMNS,
                                 key="transfer_id")
        )
        # A recovered shard's lease rows rode in on the checkpoint;
        # grants live outside the warehouse so they must be re-derived.
        self.reapply_grants()

    # -- setup / recovery ------------------------------------------------
    def init_lease(self, user: str, site: str, resource: str,
                   amount: float) -> None:
        """Set this shard's initial slice of the global grant."""
        key = lease_key(user, site, resource)
        self.leases.upsert(
            {"key": key, "user": user, "site": site,
             "resource": resource, "amount": float(amount)}
        )
        self.server.policy.grant(user, site, resource, float(amount))

    def reapply_grants(self) -> None:
        """Mirror every lease row into the policy engine's grant map."""
        for row in self.leases.select(copy=False):
            self.server.policy.grant(
                row["user"], row["site"], row["resource"], row["amount"]
            )

    def lease_amount(self, user: str, site: str, resource: str) -> float:
        row = self.leases.get(lease_key(user, site, resource), copy=False)
        return row["amount"] if row else 0.0

    def has_lease(self, user: str, site: str, resource: str) -> bool:
        return lease_key(user, site, resource) in self.leases

    # -- the transfer protocol -------------------------------------------
    def grant_transfer(self, user: str, site: str, resource: str,
                       requested: float, to_shard: str,
                       transfer_id: str) -> float:
        """Source side: give away spare lease, durably, idempotently.

        Returns the granted amount (0.0 when nothing to spare).  A
        replayed transfer_id returns the original grant without
        debiting twice.
        """
        prior = self.debits.get(transfer_id, copy=False)
        if prior is not None:
            return prior["amount"]
        key = lease_key(user, site, resource)
        row = self.leases.get(key, copy=False)
        if row is None:
            return 0.0
        # Spare = lease minus what this shard has actually reserved.
        # Grant the full ask (capped at spare): the requester already
        # bounds it to its deficit plus one job of headroom, and only a
        # user's *home* shard ever requests that user's keys, so there
        # is no competing claimant to hold anything back for.  Partial
        # grants (e.g. spare/2) would make the home's lease converge on
        # the pool only asymptotically — a user needing k full slots at
        # one site with a global grant of exactly k would starve
        # forever half a slot short.
        spare = row["amount"] - self.server.policy.used(user, site, resource)
        give = min(float(requested), spare)
        if give <= 0.0:
            return 0.0
        new_amount = row["amount"] - give
        self.leases.update(key, amount=new_amount)
        self.debits.insert(
            {"transfer_id": transfer_id, "key": key,
             "amount": give, "to_shard": to_shard}
        )
        self.server.policy.grant(user, site, resource, new_amount)
        return give

    def apply_credit(self, transfer_id: str, user: str, site: str,
                     resource: str, amount: float,
                     from_shard: str) -> None:
        """Requester side: fold a granted slice into the local lease."""
        if amount <= 0.0 or transfer_id in self.credits:
            return
        key = lease_key(user, site, resource)
        row = self.leases.get(key, copy=False)
        if row is None:
            # A credit for a key we never leased: the request predates
            # a recovery that lost the (empty) lease row.  Recreate it.
            self.leases.insert(
                {"key": key, "user": user, "site": site,
                 "resource": resource, "amount": 0.0}
            )
            row = self.leases.get(key, copy=False)
        new_amount = row["amount"] + float(amount)
        self.leases.update(key, amount=new_amount)
        self.credits.insert(
            {"transfer_id": transfer_id, "key": key,
             "amount": float(amount), "from_shard": from_shard}
        )
        self.server.policy.grant(user, site, resource, new_amount)

    # -- audit -----------------------------------------------------------
    def unmatched_debits(self, matched_ids) -> list[dict]:
        """Debit rows whose transfer id is not in ``matched_ids`` —
        quota burned by a reply that never landed (or not yet)."""
        return [
            row for row in self.debits.select()
            if row["transfer_id"] not in matched_ids
        ]
