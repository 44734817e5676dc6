"""Deterministic user -> shard routing.

The home shard is a pure function of the user name (crc32, not
Python's salted ``hash``), so every meta incarnation — including one
rebuilt after a crash — routes the same user the same way without any
shared state.  Admission always routes to the home shard, even a
dead one: outages belong to the meta's forward loop (registration
latch, retry timer, re-home grace), not to admission-time liveness
judgements, so a shard bouncing through a restart does not scatter its
users.
"""

from __future__ import annotations

import zlib
from typing import Sequence

__all__ = ["ShardMap"]


class ShardMap:
    """Static shard list + each user's home shard."""

    def __init__(self, labels: Sequence[str]):
        if not labels:
            raise ValueError("ShardMap needs at least one shard label")
        self.labels = tuple(labels)

    def home(self, user: str) -> str:
        return self.labels[zlib.crc32(user.encode()) % len(self.labels)]
