"""One-call chaos drills: plan in, invariant report out.

:func:`run_chaos` is the facade the CLI, CI smoke job, and property
tests share: build a controller for the plan, run the scenario on the
topology its type names with chaos armed, give in-flight
delivery acks a short grace to land, then audit the end state with
:func:`~repro.chaos.invariants.check_invariants`.

Everything in the result is deterministic per (scenario, plan):
the fault schedule, the crash log, and the invariant report come out
identical on every run with the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.drills import ChaosController
from repro.chaos.invariants import InvariantReport, check_invariants
from repro.chaos.plan import ChaosPlan
from repro.experiments.parallel import headline_metrics
from repro.experiments.runner import ExperimentResult
from repro.federation.runner import run_topology
from repro.sim.engine import Environment

__all__ = ["ChaosRunResult", "run_chaos"]

#: post-run settle time: enough for one redelivery round trip so a
#: delivery ack in flight at the stop instant is not miscounted as an
#: undrained outbox
_DRAIN_GRACE_S = 30.0


@dataclass
class ChaosRunResult:
    """Everything one drill produced, JSON-ready."""

    scenario: str
    plan: ChaosPlan
    result: ExperimentResult
    report: InvariantReport
    fault_schedule: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def to_dict(self) -> dict:
        counts = self.fault_schedule.get("transport_counts", {})
        return {
            "scenario": self.scenario,
            "plan": self.plan.to_dict(),
            "ok": self.ok,
            "headline": headline_metrics(self.result),
            "report": self.report.to_dict(),
            "fault_schedule": {
                "transport_counts": counts,
                "transport_events": len(
                    self.fault_schedule.get("transport", [])
                ),
                "crashes": self.fault_schedule.get("crashes", []),
                "sites": self.fault_schedule.get("sites", []),
            },
        }

    def format_text(self) -> str:
        sched = self.fault_schedule
        counts = ", ".join(
            f"{k}={v}"
            for k, v in sorted(
                sched.get("transport_counts", {}).items()
            )
        ) or "none"
        lines = [
            f"chaos drill: plan={self.plan.name} seed={self.plan.seed} "
            f"scenario={self.scenario}",
            f"  transport faults: {counts}",
            f"  crash drills: {len(sched.get('crashes', []))} events",
            f"  site faults: {len(sched.get('sites', []))} events",
        ]
        for t, component, label, what in sched.get("crashes", []):
            lines.append(f"    t={t:>10.1f}s {component}/{label}: {what}")
        lines.append(self.report.format_text())
        lines.append("RESULT: " + ("OK" if self.ok else "VIOLATIONS"))
        return "\n".join(lines)


def run_chaos(scenario, plan: ChaosPlan, obs=None) -> ChaosRunResult:
    """Run ``scenario`` — competing servers or a federation — under
    ``plan`` and audit the wreckage.

    A federated scenario adds the federation audit (no DAG lost between
    meta and shards, placed exactly once, cross-shard lease
    conservation).  Transport faults are fair game there too: the
    meta's two-phase offer/confirm forward keeps placement exactly-once
    under dropped requests, dropped replies, and duplicated dispatches
    alike.
    """
    controller = ChaosController(plan, obs=obs)
    env = Environment()
    result, federation = run_topology(scenario, env=env, obs=obs,
                                      chaos=controller)
    # The run stops the instant the last DAG finishes; transactional
    # delivery acks for that very report may still be on the wire.
    env.run(until=env.now + scenario.tick_s + _DRAIN_GRACE_S)
    report = check_invariants(
        controller.servers, controller.clients, controller.bus,
        scenario, regen_slack=controller.regen_slack(), obs=obs,
        grid=controller.grid, federation=federation,
    )
    return ChaosRunResult(
        scenario=scenario.name,
        plan=plan,
        result=result,
        report=report,
        fault_schedule=controller.fault_schedule(),
    )
