"""Report-retry behaviour while the server is unreachable.

A server fault window turns every tracker with a finished job into a
retrying reporter.  Before the event-driven control plane these
retried every ``poll_s`` (2 s) in lockstep — a ~1800-attempt storm per
client per hour of outage.  The capped jittered exponential backoff
bounds the storm, and the bus's re-registration signal ends it the
instant a recovered server appears.
"""

from repro.core import recover_server
from repro.workflow import Dag, Job, LogicalFile

from tests.integration.stack import FullStack


def lf(name, size=1.0):
    return LogicalFile(name, size)


def one_job_dag(dag_id="c", runtime=60.0):
    return Dag(dag_id, [Job(f"{dag_id}.a", inputs=(lf(f"{dag_id}.raw"),),
                            outputs=(lf(f"{dag_id}.out"),),
                            runtime_s=runtime)])


def _count_reports(st):
    """Wrap the client's report factory, recording attempt times."""
    times = []
    orig = st.client._report

    def counting(*args, **kwargs):
        times.append(st.env.now)
        return orig(*args, **kwargs)

    st.client._report = counting
    return times


def test_outage_retries_are_bounded_not_a_storm():
    st = FullStack(job_timeout_s=7200.0)
    times = _count_reports(st)
    st.submit(one_job_dag(runtime=60.0))

    def crash(env):
        yield env.timeout(30.0)  # before the ~90 s completion report
        st.server.shutdown()

    st.env.process(crash(st.env))
    st.run(until=30.0 + 3600.0)

    retries = [t for t in times if t >= 30.0]
    # One hour of outage at the legacy fixed 2 s retry period would be
    # ~1800 attempts; capped (60 s) jittered exponential backoff keeps
    # it around 3600/60 — bounded well under a tenth of the storm.
    assert 5 < len(retries) < 150, len(retries)
    # The early retries genuinely back off: gaps grow.
    gaps = [b - a for a, b in zip(retries, retries[1:])]
    assert gaps[2] > gaps[0]


def test_reconnect_signal_ends_the_backoff_wait():
    st = FullStack(job_timeout_s=7200.0)
    times = _count_reports(st)
    st.submit(one_job_dag(runtime=60.0))
    holder = {}

    def crash_then_recover(env):
        yield env.timeout(30.0)
        checkpoint = st.server.checkpoint()
        st.server.shutdown()
        yield env.timeout(570.0)  # recovery at t=600, mid-backoff
        holder["server"] = recover_server(
            env, st.bus, st.config, st.catalog,
            st.monitoring, st.rls, checkpoint,
        )
        holder["server"].policy.grant_unlimited(st.user.proxy)

    st.env.process(crash_then_recover(st.env))
    st.run(until=4 * 3600.0)

    # By t=600 the backoff delay is at its 60 s cap (30-90 s jittered);
    # the re-registration event must release the waiter immediately
    # instead of letting the report sit out the rest of its pause.
    after = [t for t in times if t >= 600.0]
    assert after and after[0] < 601.0, after[:3]
    assert st.client.finished_dag_count == 1
