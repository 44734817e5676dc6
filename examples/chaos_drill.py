#!/usr/bin/env python
"""A chaos drill: server crash under a network partition, then audit.

Where examples/fault_tolerance.py hand-scripts each failure, this one
drives the declarative chaos layer (DESIGN.md §5e): one `ChaosPlan`
describes everything to break —

* 10% message drops + 10% delay jitter on every SPHINX service,
* a 400 s network partition cutting clients off from the server,
* a server crash *during* the partition, recovered from the warehouse
  as it stood at the crash under the same service name,

and the end-state invariant checker proves no DAG was lost, no effect
was double-applied, and the transactional outbox drained.

Run:  python examples/chaos_drill.py
"""

from repro.chaos import (
    ChaosPlan,
    CrashSpec,
    FaultRule,
    PartitionWindow,
    run_chaos,
)
from repro.experiments.figures import fig2_scenario


def main():
    plan = ChaosPlan(
        name="crash-under-partition",
        seed=11,
        rules=(
            FaultRule(service="sphinx-*", drop_p=0.10,
                      delay_p=0.10, max_extra_delay_s=3.0),
        ),
        # Clients cannot reach the server for [1200 s, 1600 s)...
        partitions=(
            PartitionWindow(service="sphinx-server-*",
                            start_s=1200.0, end_s=1600.0),
        ),
        # ...and in the middle of that silence, the server dies too.
        crashes=(
            CrashSpec(component="server", at_s=1350.0, down_s=150.0),
        ),
    )
    scenario = fig2_scenario(4, seed=42, horizon_s=12 * 3600.0)

    print(f"scenario: {scenario.name}  plan: {plan.name} "
          f"(seed {plan.seed})")
    print("running drill...")
    res = run_chaos(scenario, plan)

    print()
    print(res.format_text())
    print()
    counts = res.fault_schedule["transport_counts"]
    dropped = counts.get("drop-request", 0) + counts.get("drop-reply", 0)
    print(f"{dropped} messages dropped, "
          f"{counts.get('partition', 0)} calls partitioned, "
          f"{len(res.fault_schedule['crashes']) // 2} server "
          f"crash-recover cycles — and every DAG still finished.")
    return 0 if res.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
