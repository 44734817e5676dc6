"""End-state invariants: what must be true after the dust settles.

A chaos run is only a *test* if something checks the wreckage.  The
:class:`InvariantChecker` walks the final state of every server/client
pair and asserts the properties the paper's fault-tolerance story
promises (and the ones our at-least-once implementation documents):

* **completion** — every submitted DAG reached FINISHED on the server
  *and* the client heard about it; finished DAGs have only terminal
  jobs and sane timestamps;
* **exactly-once effects** — per-site completion tallies equal the
  number of FINISHED jobs (up to virtual-data regenerations): a
  duplicated or replayed completion report that slipped past the
  duplicate guard would show up as an excess tally;
* **quota conservation** — for every (user, site, resource), recorded
  usage equals the sum of reservations of jobs in charged states
  (PLANNED/SUBMITTED in flight, FINISHED keeps its charge); every
  requeue/cancel path must have refunded exactly once;
* **referential integrity** — every job row belongs to a known DAG,
  the job set per DAG matches its payload, executed sites exist;
* **delivery** — with transactional delivery, the outbox drained;
* **obs self-consistency** — when observability is on, the RPC call
  counter agrees with the bus's own count (the two are incremented on
  independent paths).

The checker only *reports*; callers decide whether a violation fails
the run.  Reports are deterministic: violations are sorted, floats
rounded, so the same end state yields byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.states import DagState, JobState

__all__ = ["Violation", "InvariantReport", "check_invariants"]

_JOB_PLANNED = JobState.PLANNED.value
_JOB_SUBMITTED = JobState.SUBMITTED.value
_JOB_FINISHED = JobState.FINISHED.value
_JOB_REMOVED = JobState.REMOVED.value
_JOB_TERMINAL = (_JOB_FINISHED, _JOB_REMOVED)
_JOB_CHARGED = (_JOB_PLANNED, _JOB_SUBMITTED, _JOB_FINISHED)
_DAG_FINISHED = DagState.FINISHED.value


@dataclass(frozen=True)
class Violation:
    """One broken invariant, anchored to a server and a subject."""

    code: str
    server: str
    subject: str
    detail: str

    def to_dict(self) -> dict:
        return {"code": self.code, "server": self.server,
                "subject": self.subject, "detail": self.detail}


@dataclass
class InvariantReport:
    """All violations found, plus summary stats for the drill report."""

    violations: list[Violation] = field(default_factory=list)
    checks: tuple[str, ...] = ()
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": list(self.checks),
            "violations": [v.to_dict() for v in self.violations],
            "stats": self.stats,
        }

    def format_text(self) -> str:
        lines = [
            f"invariants: {len(self.checks)} checks, "
            f"{len(self.violations)} violations"
        ]
        for key, value in sorted(self.stats.items()):
            lines.append(f"  {key}: {value}")
        for v in self.violations:
            lines.append(
                f"  VIOLATION [{v.code}] {v.server}/{v.subject}: {v.detail}"
            )
        return "\n".join(lines)


_CHECKS = (
    "dag-lost",
    "dag-terminal",
    "dag-consistency",
    "client-notified",
    "job-referential",
    "exactly-once-effects",
    "quota-conservation",
    "checkpoint-progress",
    "outbox-drained",
    "reservation-conservation",
    "obs-consistency",
    "fed-dag-routed",
    "fed-lease-conservation",
)


def check_invariants(servers: dict, clients: dict, bus, scenario,
                     regen_slack: dict | None = None,
                     obs=None, grid=None,
                     federation=None) -> InvariantReport:
    """Audit the end state of a run; see the module docstring.

    ``regen_slack`` maps server label -> cumulative virtual-data
    regeneration count across all of that label's incarnations (crash
    drills replace the server object, losing its counter); it widens
    the exactly-once tolerance, since a regenerated job legitimately
    completes twice.

    ``grid`` (when supplied) additionally runs the **reservation
    conservation** audit on every site's local scheduler: no terminal
    reservation may still hold slots, no past-window reservation may
    still be live, and the resource's occupied-slot count must equal
    running jobs plus live held slots — a site outage that failed to
    release a confirmed reservation's holds shows up here as a leak.

    ``federation`` (a :class:`repro.federation.runner.FederationRun`,
    duck-typed — this module never imports federation) switches on the
    cross-shard audits.  ``servers`` are then the shard incarnations
    and ``clients`` the per-user clients (labels disjoint, so the
    per-server pairing checks above skip themselves):

    * **fed-dag-routed** — every DAG a user submitted sits in exactly
      one shard warehouse (meta→shard handoff lost nothing, and
      re-homing never double-placed), every meta admission ended
      acknowledged, and a shard-FINISHED dag reached its client;
    * **fed-lease-conservation** — for every (user, site, resource)
      the shards' leases plus debits whose credit never landed sum to
      the global grant: lease transfers move quota, never mint it.
    """
    out: list[Violation] = []
    stats: dict = {"servers": len(servers)}
    regen_slack = regen_slack or {}
    total_dags = total_finished_dags = 0
    total_jobs = total_finished_jobs = 0

    for label in sorted(servers):
        server = servers[label]
        client = clients.get(label)
        dags = server.warehouse.table("dags")
        jobs = server.warehouse.table("jobs")
        dag_rows = {r["dag_id"]: r for r in dags.select(copy=False)}
        job_rows = list(jobs.select(copy=False))
        by_dag: dict[str, list[dict]] = {}
        for row in job_rows:
            by_dag.setdefault(row["dag_id"], []).append(row)

        total_dags += len(dag_rows)
        total_jobs += len(job_rows)

        # -- the server must remember every dag the client submitted ------
        if client is not None:
            for dag_id in sorted(client.dag_times):
                if dag_id not in dag_rows:
                    out.append(Violation(
                        "dag-lost", label, dag_id,
                        "accepted from the client but absent from the "
                        "warehouse (was the database itself lost?)",
                    ))

        # -- completion + per-dag consistency -----------------------------
        for dag_id in sorted(dag_rows):
            drow = dag_rows[dag_id]
            if drow["state"] != _DAG_FINISHED:
                out.append(Violation(
                    "dag-terminal", label, dag_id,
                    f"end state {drow['state']!r}, expected finished",
                ))
                continue
            total_finished_dags += 1
            if drow["finished_at"] is None or (
                drow["finished_at"] < drow["received_at"]
            ):
                out.append(Violation(
                    "dag-consistency", label, dag_id,
                    f"finished_at {drow['finished_at']} vs "
                    f"received_at {drow['received_at']}",
                ))
            for jrow in by_dag.get(dag_id, ()):
                if jrow["state"] not in _JOB_TERMINAL:
                    out.append(Violation(
                        "dag-consistency", label, jrow["job_id"],
                        f"dag finished but job is {jrow['state']!r}",
                    ))
            if client is not None:
                times = client.dag_times.get(dag_id)
                if times is None or times[1] is None:
                    out.append(Violation(
                        "client-notified", label, dag_id,
                        "server finished the dag; the client was never "
                        "notified",
                    ))

        # -- referential integrity ----------------------------------------
        for jrow in job_rows:
            if jrow["dag_id"] not in dag_rows:
                out.append(Violation(
                    "job-referential", label, jrow["job_id"],
                    f"references unknown dag {jrow['dag_id']!r}",
                ))
            if jrow["state"] == _JOB_FINISHED:
                total_finished_jobs += 1
                site = jrow["site"]
                if site is not None and site not in server.site_catalog:
                    out.append(Violation(
                        "job-referential", label, jrow["job_id"],
                        f"finished at unknown site {site!r}",
                    ))
        for dag_id in sorted(dag_rows):
            payload_jobs = {
                j["job_id"] for j in dag_rows[dag_id]["payload"]["jobs"]
            }
            table_jobs = {r["job_id"] for r in by_dag.get(dag_id, ())}
            if payload_jobs != table_jobs:
                out.append(Violation(
                    "job-referential", label, dag_id,
                    f"payload has {len(payload_jobs)} jobs, table has "
                    f"{len(table_jobs)}",
                ))

        # -- exactly-once effects -----------------------------------------
        finished_here = sum(
            1 for r in job_rows if r["state"] == _JOB_FINISHED
        )
        completions = sum(
            c for c, _x in server.feedback.snapshot().values()
        )
        slack = regen_slack.get(label, server.regeneration_count)
        delta = completions - finished_here
        if delta < 0 or delta > slack:
            out.append(Violation(
                "exactly-once-effects", label, "feedback",
                f"{completions} completion tallies for {finished_here} "
                f"finished jobs (allowed regeneration slack {slack})",
            ))

        # -- quota conservation -------------------------------------------
        if scenario.quota_per_site is not None:
            expected: dict[tuple[str, str, str], float] = {}
            for jrow in job_rows:
                if jrow["state"] not in _JOB_CHARGED:
                    continue
                site = jrow["site"]
                if site is None:
                    continue  # requeued; its reservation was refunded
                drow = dag_rows.get(jrow["dag_id"])
                if drow is None:
                    continue  # already flagged as job-referential
                dag = server._dag(jrow["dag_id"])
                user = drow["user"]
                for resource, amount in dag.job(
                    jrow["job_id"]
                ).requirements.items():
                    key = (user, site, resource)
                    expected[key] = expected.get(key, 0.0) + amount
            seen: set[tuple[str, str, str]] = set()
            for row in server.warehouse.table("quota_usage").select(
                copy=False
            ):
                key = (row["user"], row["site"], row["resource"])
                seen.add(key)
                want = expected.get(key, 0.0)
                if abs(row["used"] - want) > 1e-6:
                    out.append(Violation(
                        "quota-conservation", label, "|".join(key),
                        f"recorded usage {row['used']:.3f}, live "
                        f"reservations sum to {want:.3f}",
                    ))
            for key in sorted(set(expected) - seen):
                if expected[key] > 1e-6:
                    out.append(Violation(
                        "quota-conservation", label, "|".join(key),
                        f"reservations sum to {expected[key]:.3f} but "
                        "no usage row exists",
                    ))

        # -- checkpoint progress --------------------------------------------
        # A job's persisted resume fraction is a physical quantity:
        # outside [0, 1] the accumulation math (or a stale report) has
        # corrupted it, and the next replan would compute a negative or
        # runaway remaining runtime.
        for jrow in job_rows:
            fraction = jrow.get("checkpoint_fraction", 0.0)
            if not 0.0 <= fraction <= 1.0:
                out.append(Violation(
                    "checkpoint-progress", label, jrow["job_id"],
                    f"checkpoint fraction {fraction!r} outside [0, 1]",
                ))

        # -- delivery ------------------------------------------------------
        if server.config.reliable_delivery:
            left = len(server.warehouse.table("outbox"))
            if left:
                out.append(Violation(
                    "outbox-drained", label, "outbox",
                    f"{left} undelivered messages at run end",
                ))

    # -- reservation conservation (site side) -----------------------------
    if grid is not None:
        for site in grid:
            for problem in site.scheduler.reservation_audit():
                out.append(Violation(
                    "reservation-conservation", "*", site.name, problem,
                ))

    # -- federation: routing + lease conservation --------------------------
    if federation is not None:
        placement: dict[str, list[str]] = {}
        for label in sorted(servers):
            for row in servers[label].warehouse.table("dags").select(
                copy=False
            ):
                placement.setdefault(row["dag_id"], []).append(label)
        for dag_id in sorted(federation.meta.unacked()):
            out.append(Violation(
                "fed-dag-routed", "meta", dag_id,
                "admitted but never acknowledged by any shard",
            ))
        for ulabel in sorted(clients):
            client = clients[ulabel]
            for dag_id in sorted(client.dag_times):
                homes = placement.get(dag_id, [])
                if not homes:
                    out.append(Violation(
                        "fed-dag-routed", "meta", dag_id,
                        f"submitted by {ulabel} but absent from every "
                        "shard warehouse",
                    ))
                    continue
                if len(homes) > 1:
                    out.append(Violation(
                        "fed-dag-routed", "meta", dag_id,
                        "placed on multiple shards: "
                        + ", ".join(homes),
                    ))
                    continue
                shard = homes[0]
                drow = servers[shard].warehouse.table("dags").get(
                    dag_id, copy=False
                )
                if drow["state"] == _DAG_FINISHED:
                    times = client.dag_times.get(dag_id)
                    if times is None or times[1] is None:
                        out.append(Violation(
                            "client-notified", shard, dag_id,
                            "shard finished the dag; the client was "
                            "never notified",
                        ))
        stats["fed_rehomed"] = federation.meta.rehomed_count
        stats["fed_spilled"] = federation.meta.spilled_count

        if scenario.quota_per_site is not None:
            landed: set[str] = set()
            ledgers = []
            for label in sorted(servers):
                ledger = getattr(servers[label], "ledger", None)
                if ledger is None:
                    continue
                ledgers.append(ledger)
                for row in ledger.credits.select(copy=False):
                    landed.add(row["transfer_id"])
            totals: dict[str, float] = {}
            for ledger in ledgers:
                for row in ledger.leases.select(copy=False):
                    totals[row["key"]] = (
                        totals.get(row["key"], 0.0) + row["amount"]
                    )
                # A debit whose credit never landed is quota burned,
                # not quota lost from the books: it still counts
                # toward the conserved total.
                for row in ledger.debits.select(copy=False):
                    if row["transfer_id"] not in landed:
                        totals[row["key"]] = (
                            totals.get(row["key"], 0.0) + row["amount"]
                        )
            for key in sorted(totals):
                resource = key.rsplit("|", 1)[1]
                want = scenario.quota_per_site.get(resource)
                if want is None:
                    continue
                if abs(totals[key] - want) > 1e-6:
                    out.append(Violation(
                        "fed-lease-conservation", "*", key,
                        f"shard leases + unmatched debits sum to "
                        f"{totals[key]:.6f}, grant is {want:.6f}",
                    ))

    # -- obs self-consistency ---------------------------------------------
    if obs is not None and obs.enabled and bus is not None:
        counted = sum(
            inst.value for _l, inst in obs.metrics.find("rpc.calls")
        )
        if counted != bus.call_count:
            out.append(Violation(
                "obs-consistency", "*", "rpc.calls",
                f"metric says {counted}, bus dispatched "
                f"{bus.call_count}",
            ))

    stats.update(
        dags=total_dags,
        finished_dags=total_finished_dags,
        jobs=total_jobs,
        finished_jobs=total_finished_jobs,
    )
    out.sort(key=lambda v: (v.code, v.server, v.subject, v.detail))
    return InvariantReport(violations=out, checks=_CHECKS, stats=stats)
