"""Policy engine — per-user resource-usage quotas (eq. 4).

"Policy-constrained scheduling puts resource usage constraints on each
of the algorithms ... site s such that quota_i_s >= required_i_s" —
the feasible-site pool handed to any algorithm is first filtered by the
submitting user's remaining quota at each site, for every resource the
job requires (CPU-seconds, disk MB, ...).

Accounting model: quota is *charged at planning time* (a reservation —
the site must be able to take the job when we commit to it) and
*refunded on cancellation* (the work never happened).  Completed jobs
keep their charge.  Usage lives in a warehouse table so policy state
survives server recovery, addressing the paper's complaint that "no
such accounting exists currently in the grid".
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Iterable, Mapping

from repro.core.warehouse import Warehouse

__all__ = ["PolicyEngine", "QuotaExceededError"]

_COLUMNS = ("key", "user", "site", "resource", "used")


class QuotaExceededError(RuntimeError):
    """A charge was attempted beyond the granted quota."""


class _Headroom:
    """One quota-bound user's tight sites (see :meth:`feasible_sites`)."""

    __slots__ = ("pool", "high", "tight")

    def __init__(self, pool: tuple[str, ...]):
        #: the candidate pool ``tight`` was built over
        self.pool = pool
        #: resource -> largest amount any job of this user has asked for
        self.high: dict[str, float] = {}
        #: sites whose remaining quota falls short of ``high`` for some
        #: resource; every other site of ``pool`` covers any requirement
        #: map that stays within ``high``.
        self.tight: set[str] = set()


class PolicyEngine:
    """Quota grants + usage accounting + feasible-site filtering."""

    def __init__(self, warehouse: Warehouse, table_name: str = "quota_usage"):
        self._usage = (
            warehouse.table(table_name)
            if table_name in warehouse
            else warehouse.create_table(table_name, _COLUMNS, key="key")
        )
        #: (user, site, resource) -> granted amount.  Grants are static
        #: VO policy, not runtime state, so they live outside the
        #: warehouse (a recovered server is reconfigured with the same
        #: policy file, like any middleware).
        self._grants: dict[tuple[str, str, str], float] = {}
        self._unlimited_users: set[str] = set()
        #: user -> headroom bookkeeping.  Derived state, like the
        #: feedback tracker's unreliable set: a new (or recovered)
        #: engine holds none and builds a user's entry on that user's
        #: first ``feasible_sites``; ``grant`` and ``_add_usage`` — the
        #: only writers of what ``remaining`` reads — keep it current.
        self._headroom: dict[str, _Headroom] = {}

    # -- policy configuration ----------------------------------------------------
    def grant(self, user: str, site: str, resource: str, amount: float) -> None:
        if not amount >= 0:  # also rejects NaN
            raise ValueError(
                f"quota grant {user}|{site}|{resource} must be >= 0, "
                f"got {amount!r}"
            )
        self._grants[(user, site, resource)] = amount
        self._recheck(user, site)

    def grant_unlimited(self, user: str) -> None:
        """Exempt a user from quota checks entirely (no policy run)."""
        self._unlimited_users.add(user)
        self._headroom.pop(user, None)

    def granted(self, user: str, site: str, resource: str) -> float:
        """The grant, or 0.0 — no grant means no access to that resource."""
        return self._grants.get((user, site, resource), 0.0)

    # -- accounting -------------------------------------------------------------------
    def used(self, user: str, site: str, resource: str) -> float:
        row = self._usage.get(f"{user}|{site}|{resource}", copy=False)
        return row["used"] if row else 0.0

    def remaining(self, user: str, site: str, resource: str) -> float:
        if user in self._unlimited_users:
            return float("inf")
        return self.granted(user, site, resource) - self.used(user, site, resource)

    def charge(self, user: str, site: str,
               requirements: Mapping[str, float]) -> None:
        """Reserve quota for a planned job; all-or-nothing."""
        if user in self._unlimited_users or not requirements:
            return
        for resource, amount in requirements.items():
            if self.remaining(user, site, resource) < amount:
                raise QuotaExceededError(
                    f"{user} needs {amount} {resource} at {site}, has "
                    f"{self.remaining(user, site, resource)}"
                )
        for resource, amount in requirements.items():
            self._add_usage(user, site, resource, amount)

    def refund(self, user: str, site: str,
               requirements: Mapping[str, float]) -> None:
        """Return a cancelled job's reservation."""
        if user in self._unlimited_users:
            return
        for resource, amount in requirements.items():
            self._add_usage(user, site, resource, -amount)

    def _add_usage(self, user: str, site: str, resource: str,
                   delta: float) -> None:
        key = f"{user}|{site}|{resource}"
        row = self._usage.get(key, copy=False)
        if row is None:
            if delta < 0:
                raise QuotaExceededError(
                    f"refund of never-charged {resource} for {user}@{site}"
                )
            self._usage.insert(
                {"key": key, "user": user, "site": site,
                 "resource": resource, "used": delta}
            )
        else:
            new = row["used"] + delta
            if new < -1e-9:
                raise QuotaExceededError(
                    f"usage of {resource} for {user}@{site} went negative"
                )
            self._usage.update(key, used=max(new, 0.0))
        self._recheck(user, site)

    # -- the planner-facing filter (eq. 4) -------------------------------------------
    def _covers(self, user: str, site: str,
                requirements: Mapping[str, float]) -> bool:
        """Eq. 4 at one site: remaining quota covers every requirement."""
        for resource, amount in requirements.items():
            if not self.remaining(user, site, resource) >= amount:
                return False
        return True

    def _recheck(self, user: str, site: str) -> None:
        """Re-classify one site after a write to its grant or usage."""
        room = self._headroom.get(user)
        if room is None:
            return
        if self._covers(user, site, room.high):
            room.tight.discard(site)
        else:
            room.tight.add(site)

    def feasible_sites(
        self,
        user: str,
        requirements: Mapping[str, float],
        sites: Iterable[str],
    ) -> tuple[str, ...]:
        """Sites where the user's remaining quota covers the job.

        A tuple pool is answered from the user's headroom entry: a site
        outside ``tight`` covers every amount up to the user's high-water
        marks, so only the tight sites are tested, and a pool that loses
        no site comes back as the same object.  A requirement above a
        mark (or a different pool) rebuilds the entry over the whole
        pool first, so the answer is exact for any requirement map.
        """
        if user in self._unlimited_users or not requirements:
            return tuple(sites)
        if type(sites) is not tuple:
            # A mutable pool cannot be remembered by identity.
            return tuple(
                s for s in sites if self._covers(user, s, requirements)
            )
        room = self._headroom.get(user)
        grown = room is None or room.pool is not sites
        if grown:
            room = self._headroom[user] = _Headroom(sites)
        high = room.high
        for resource, amount in requirements.items():
            if resource not in high or not amount <= high[resource]:
                high[resource] = amount
                grown = True
        if grown:
            room.tight = {
                s for s in sites if not self._covers(user, s, high)
            }
        short = {
            s for s in room.tight if not self._covers(user, s, requirements)
        }
        if not short:
            return sites
        return tuple(filterfalse(short.__contains__, sites))
