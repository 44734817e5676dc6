"""Recovery edge cases around spot eviction and migration.

Two seams the end-to-end drills exercise only probabilistically, pinned
here deterministically and audited with the chaos invariant checker:

* a server crash **mid-migration** — the evict message is out but the
  kill report never came back before the checkpoint.  Recovery must
  resolve it as a plain requeue (no target was ever charged; the
  draining site's reservation comes back), and the dying attempt's
  straggler kill report must read as a duplicate;
* a drain notice that lands **after the job already finished** — there
  is nothing in flight to move, so it must be a pure planner hint: no
  migration, no resubmission, no refund of the FINISHED job's held
  charge.
"""

from types import SimpleNamespace

from repro.chaos.invariants import check_invariants
from repro.core import recover_server
from repro.core.states import JobState
from repro.workflow import Dag, Job, LogicalFile

from tests.core.test_server import Stack

QUSER = "/VO=v/CN=quota"


def lf(name):
    return LogicalFile(name, 1.0)


def one_job(dag_id, runtime_s):
    return Dag(dag_id, [Job(f"{dag_id}.a", outputs=(lf(f"{dag_id}.out"),),
                            runtime_s=runtime_s,
                            requirements={"slots": 1.0})])


def quota_stack(**kw):
    st = Stack(**kw)
    for site in st.catalog:
        st.server.policy.grant(QUSER, site, "slots", 4.0)
    return st


def audit(st, server):
    """The end-state invariants of ``server``.  The stack has no client
    service, so the audited server's outbox is first drained as that
    client's delivery acks would."""
    outbox = server.warehouse.table("outbox")
    for msg in outbox.select():
        outbox.delete(msg["msg_id"])
    scenario = SimpleNamespace(quota_per_site={"slots": 4.0})
    return check_invariants({"t": server}, {}, scenario)


def test_crash_mid_migration_resolves_to_a_clean_requeue():
    st = quota_stack(migrate_on_drain=True)
    st.submit(one_job("m", runtime_s=600.0), user=QUSER)
    st.server.tick()
    site = st.server.warehouse.table("jobs").get("m.a")["site"]
    st.server._rpc_report_status("m.a", 1, "running", site)
    # A 10s notice window against 600s of remaining work: migrate.
    st.server.drain_notice(site, deadline_s=st.env.now + 10.0)
    assert st.server.tally("migrations") == 1
    assert any(m["kind"] == "evict"
               for m in st.server.warehouse.table("outbox"))
    # Crash before the eviction kill report makes it back.
    checkpoint = st.server.checkpoint()
    st.server.shutdown()
    server2 = recover_server(st.env, st.bus, st.config, st.catalog,
                             st.monitoring, st.rls, checkpoint)
    row = server2.warehouse.table("jobs").get("m.a")
    assert row["state"] == JobState.CANCELLED.value
    assert row["site"] is None
    # No migration target was ever charged; the draining site's
    # reservation was refunded by the requeue.
    assert server2.policy.used(QUSER, site, "slots") == 0.0
    # The dying attempt's kill report straggles in post-recovery: a
    # duplicate against the requeued row, never a second refund.
    assert server2._rpc_report_status(
        "m.a", 1, "cancelled", site, reason="evicted", checkpointed_fraction=0.5
    ) == "duplicate"
    assert server2.policy.used(QUSER, site, "slots") == 0.0
    # The recovered incarnation finishes the work normally.
    for s in st.catalog:
        server2.policy.grant(QUSER, s, "slots", 4.0)
    server2.tick()
    row = server2.warehouse.table("jobs").get("m.a")
    assert row["state"] == JobState.PLANNED.value
    server2._rpc_report_status("m.a", 2, "completed", row["site"],
                               completion_time_s=600.0)
    report = audit(st, server2)
    assert report.ok, report.format_text()


def test_drain_notice_after_completion_is_a_noop():
    st = quota_stack(migrate_on_drain=True)
    st.submit(one_job("f", runtime_s=30.0), user=QUSER)
    st.server.tick()
    site = st.server.warehouse.table("jobs").get("f.a")["site"]
    st.server._rpc_report_status("f.a", 1, "running", site)
    st.server._rpc_report_status("f.a", 1, "completed", site,
                                 completion_time_s=30.0)
    resubs = st.server.tally("resubmissions")
    st.server.drain_notice(site, deadline_s=st.env.now + 5.0)
    # Nothing in flight at the site: no eviction, no resubmission, and
    # the FINISHED job keeps holding its charge.
    assert st.server.tally("migrations") == 0
    assert st.server.tally("resubmissions") == resubs
    assert st.job_state("f.a") == JobState.FINISHED.value
    assert st.server.policy.used(QUSER, site, "slots") == 1.0
    report = audit(st, st.server)
    assert report.ok, report.format_text()


def test_drain_notice_for_a_foreign_site_is_ignored():
    st = quota_stack(migrate_on_drain=True)
    st.server.drain_notice("not-our-site", deadline_s=1.0)
    assert st.server.tally("migrations") == 0
