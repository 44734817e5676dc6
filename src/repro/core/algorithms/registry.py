"""Algorithm registry: name -> fresh instance.

Algorithms are stateful (round-robin cursors), so the registry hands
out a new instance per call — two servers never share cursors.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.algorithms.base import SchedulingAlgorithm
from repro.core.algorithms.paper import (
    CompletionTime, NumCpus, QueueLength, RoundRobin,
)
from repro.core.algorithms.qos import QosDeadline

__all__ = ["make_algorithm", "available_algorithms"]

_REGISTRY: dict[str, Callable[..., SchedulingAlgorithm]] = {
    RoundRobin.name: RoundRobin,
    NumCpus.name: NumCpus,
    QueueLength.name: QueueLength,
    CompletionTime.name: CompletionTime,
    QosDeadline.name: QosDeadline,
}


def available_algorithms() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_algorithm(name: str, **kwargs: Any) -> SchedulingAlgorithm:
    """A fresh instance of the named algorithm."""
    factory = _REGISTRY.get(name)
    if factory is None:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {available_algorithms()}"
        )
    return factory(**kwargs)
