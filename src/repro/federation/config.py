"""Federation knobs — one frozen config shared by meta and shards."""

from __future__ import annotations

from dataclasses import dataclass
from repro.core.server import require_non_negative

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

    def __post_init__(self):
        # type(...) is int: a float (2.5, inf, nan) or a bool is no count
        if type(self.n_shards) is not int or self.n_shards < 1:
            raise ValueError(
                f"FederationConfig.n_shards must be an int >= 1, "
                f"got {self.n_shards!r}"
            )
        require_non_negative(self, "digest_interval_s")

    # -- naming ----------------------------------------------------------
    def shard_labels(self) -> tuple[str, ...]:
        return tuple(f"shard{i}" for i in range(self.n_shards))

    def shard_server_name(self, label: str) -> str:
        """ServerConfig.name for one shard (service name derives from
        it as ``sphinx-server-{name}``, as for any server)."""
        return f"{self.name}-{label}"

    @property
    def meta_service(self) -> str:
        return f"sphinx-meta-{self.name}"
