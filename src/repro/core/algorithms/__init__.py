"""Site-selection algorithms (paper §4.1).

Four strategies evaluated by the paper, plus extensions:

================  ==============================================  =========
name              selection rule                                  info used
================  ==============================================  =========
round-robin       cycle the feasible site list                    none
num-cpus          min (planned+unfinished)/CPUs        (eq. 1)    SPHINX-local
queue-length      min (queued+running+planned)/CPUs    (eq. 2)    monitoring
completion-time   min normalized Avg_comp, RR bootstrap (eq. 3)   tracker
qos-deadline      cheapest site meeting a deadline (extension)    tracker
================  ==============================================  =========

All operate on the *feasible* pool — policy-filtered (eq. 4) and, when
feedback is enabled, reliability-filtered — as a mask over the
planner's site table, and declare their rule as a score over its
columns (``base.py``).
"""

from repro.core.algorithms.base import Candidates, SchedulingAlgorithm, SiteColumns
from repro.core.algorithms.registry import available_algorithms, make_algorithm
from repro.core.algorithms.paper import (
    CompletionTime, NumCpus, QueueLength, RoundRobin,
)
from repro.core.algorithms.qos import QosDeadline

__all__ = [
    "Candidates", "CompletionTime", "NumCpus", "QosDeadline", "QueueLength",
    "RoundRobin", "SchedulingAlgorithm", "SiteColumns",
    "available_algorithms", "make_algorithm",
]
