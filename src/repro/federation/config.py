"""Federation knobs — one frozen config shared by meta and shards."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.server import require_non_negative, require_positive

__all__ = ["FederationConfig"]


@dataclass(frozen=True, slots=True)
class FederationConfig:
    """Opt-in switches for a federated (multi-shard) deployment.

    A run that never constructs one of these takes the single-server
    code path untouched; that is the bit-identity guarantee.
    """

    #: federation name — prefixes every shard's ServerConfig.name and
    #: the meta-scheduler's service name, so two federations can share
    #: a bus in tests without colliding.
    name: str = "fed"
    #: number of peer SPHINX servers behind the meta-scheduler.
    n_shards: int = 3
    #: period of each shard's site-load digest broadcast; 0 disables
    #: the loop (digests then only move when pushed explicitly).
    digest_interval_s: float = 60.0
    #: a peer digest older than this no longer counts toward remote
    #: load — better to plan on stale-free local truth than on a dead
    #: shard's last words.
    digest_ttl_s: float = 300.0
    #: in-flight DAGs at which the meta stops routing to a shard's
    #: home and spills to the least-loaded live peer; None = never.
    spill_threshold: Optional[int] = None
    #: how long a shard must stay continuously unreachable before the
    #: meta re-homes that shard's unacknowledged DAGs.  Must exceed
    #: any planned crash-recovery gap you want survived in place.
    rehome_after_s: float = 600.0
    #: pause between forward attempts while a shard is unreachable
    #: (the registration latch usually wins long before this fires).
    forward_retry_s: float = 15.0
    #: per-quota-key cooldown between a shard's lease-transfer request
    #: bursts, so a starved shard doesn't spam its peers every defer.
    lease_request_cooldown_s: float = 30.0

    def __post_init__(self):
        if not self.n_shards >= 1:
            raise ValueError(
                f"FederationConfig.n_shards must be >= 1, "
                f"got {self.n_shards!r}"
            )
        if self.spill_threshold is not None and not self.spill_threshold >= 1:
            raise ValueError(
                f"FederationConfig.spill_threshold must be >= 1 or None, "
                f"got {self.spill_threshold!r}"
            )
        require_positive(self, "digest_ttl_s", "rehome_after_s",
                         "forward_retry_s")
        require_non_negative(self, "digest_interval_s",
                             "lease_request_cooldown_s")

    # -- naming ----------------------------------------------------------
    def shard_labels(self) -> tuple[str, ...]:
        return tuple(f"shard{i}" for i in range(self.n_shards))

    def shard_server_name(self, label: str) -> str:
        """ServerConfig.name for one shard (service name derives from
        it as ``sphinx-server-{name}``, as for any server)."""
        return f"{self.name}-{label}"

    def shard_service(self, label: str) -> str:
        return f"sphinx-server-{self.shard_server_name(label)}"

    @property
    def meta_service(self) -> str:
        return f"sphinx-meta-{self.name}"
