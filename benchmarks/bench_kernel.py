"""Microbenchmarks of the simulation substrate itself.

Real timing benchmarks (many rounds) of the pieces everything else is
built on: event throughput, process switching, resource contention, the
network's link scheduler, the per-site batch queue, the replica index,
the planner's candidate pool, and a full Grid3 hour.  These guard against
performance regressions that would silently make the figure benches
unrunnable.
"""

import gc
import time
import tracemalloc

from repro.core import ServerConfig, SphinxServer
from repro.core.serialize import dag_to_payload
from repro.experiments import format_table
from repro.services import MonitoringService, ReplicaService, RpcBus
from repro.sim import Environment, Resource
from repro.sim.rng import RngStreams
from repro.simgrid import (
    Grid,
    LocalScheduler,
    NetworkModel,
    SiteJob,
    make_grid3,
)
from repro.simgrid.grid import SiteSpec, synthetic_sites
from repro.workflow import Dag, Job

from benchmarks.common import emit


def test_event_throughput(benchmark):
    """Schedule-and-run 10k bare timeouts."""

    def run():
        env = Environment()
        for i in range(10_000):
            env.timeout(float(i % 100))
        env.run()
        return env.event_count

    assert benchmark(run) == 10_000


class _Beat:
    """A heartbeat that does no work: the loop's own cost of the hook."""

    def tick(self, sim_now, events):
        pass


def _noop(_event):
    pass


def _event_loop_us(form: str, hook: str, n: int = 100_000):
    """Host microseconds per processed event of one ``Environment.run``.

    ``n`` timers at 1,000 distinct instants, each with one callback and
    every tenth cancelled (a tombstone the loop pops and skips), then one
    last timer at t = 1,000 — run to an empty heap (``form`` "none"),
    until t = 1,000 ("time") or until that last timer ("event"), bare or
    with ``hook`` ("tally", "heartbeat") set.  Every form processes the
    same 0.9 n + 1 events.  Returns (us / event, events processed).
    """
    env = Environment()
    timers = [env.timeout(float(i % 1_000)) for i in range(n)]
    for timer in timers:
        timer.add_callback(_noop)
    for timer in timers[::10]:
        timer.cancel()
    last = env.timeout(1_000.0)
    if hook == "tally":
        env.obs_tally = {}
    elif hook == "heartbeat":
        env.heartbeat = _Beat()
    until = {"none": None, "time": 1_000.0, "event": last}[form]
    t0 = time.perf_counter()
    env.run(until)
    elapsed = time.perf_counter() - t0
    return elapsed * 1e6 / env.event_count, env.event_count


#: ``_event_loop_us`` at the parent commit (dba6bca: three inlined loops
#: in ``run`` for bare runs, ``_run_instrumented`` once a hook is set),
#: same box and interpreter as the committed table, median of 5 runs
#: alternated with this tree's: (until form, hook) -> us per processed
#: event.
PARENT_EVENT_LOOP = {
    ("none", "bare"): 1.292,
    ("none", "tally"): 1.506,
    ("none", "heartbeat"): 1.384,
    ("time", "bare"): 1.312,
    ("time", "tally"): 1.481,
    ("time", "heartbeat"): 1.373,
    ("event", "bare"): 1.295,
    ("event", "tally"): 1.479,
    ("event", "heartbeat"): 1.374,
}


def test_event_loop(benchmark):
    """The kernel layer: one heap pop + dispatch, per until form and hook.

    ``run`` is one loop whatever ``until`` is and whichever
    observability hook is set (DESIGN.md §5d), so a row here is the
    per-event price of that hook, not of a second loop.
    """
    n = 100_000
    cases = [(form, hook) for form in ("none", "time", "event")
             for hook in ("bare", "tally", "heartbeat")]

    def run():
        out = {}
        for case in cases:
            results = [_event_loop_us(*case, n=n) for _ in range(3)]
            out[case] = min(results)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for (form, hook), (us, _events) in out.items():
        parent = PARENT_EVENT_LOOP.get((form, hook))
        rows.append([
            {"none": "run()", "time": "run(until=t)",
             "event": "run(until=event)"}[form],
            hook,
            f"{parent:.3f}" if parent is not None else "-",
            f"{us:.3f}",
        ])
    emit("kernel_loop", format_table(
        ["until", "hook", "parent (us / event)", "change (us / event)"],
        rows,
        title=f"Event loop: {n} timers with one callback each, 10 % "
              "cancelled, one run",
    ))
    for _us, events in out.values():
        assert events == n - n // 10 + 1


def test_process_switching(benchmark):
    """1k interleaved ticker processes, 10 switches each."""

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(10):
                yield env.timeout(1.0)

        for _ in range(1_000):
            env.process(ticker(env))
        env.run()
        return env.now

    assert benchmark(run) == 10.0


def test_resource_contention(benchmark):
    """5k jobs through a 10-slot resource."""

    def run():
        env = Environment()
        res = Resource(env, capacity=10)

        def worker(env, res):
            req = res.request()
            yield req
            yield env.timeout(1.0)
            res.release(req)

        for _ in range(5_000):
            env.process(worker(env, res))
        env.run()
        return env.now

    assert benchmark(run) == 500.0


def test_grid3_background_hour(benchmark):
    """One simulated hour of the full Grid3 with background load."""

    def run():
        env = Environment()
        grid = make_grid3(env, RngStreams(0))
        env.run(until=3600.0)
        return sum(s.running_jobs for s in grid)

    running = benchmark(run)
    assert running > 0


def _hot_uplink(n: int) -> Environment:
    """``n`` equal transfers, all in flight at once through one uplink.

    Starts are 1 ms apart, so every open and every close is a share
    change at an instant of its own (same-instant changes would settle
    to nothing but the last one).
    """
    env = Environment()
    net = NetworkModel(env, default_bandwidth_mbps=10.0, default_latency_s=0.0)

    def mover(i):
        yield env.timeout(i * 1e-3)
        yield from net.transfer_process(100.0, "hub", f"leaf{i}")

    for i in range(n):
        env.process(mover(i))
    env.run()
    assert net.active_transfers("hub") == 0
    return env


def test_network_hot_uplink(benchmark):
    """The network layer: cost of a share change on a congested uplink.

    The k-th open re-shares k flows and the k-th close the n-k left, so
    n transfers make n**2 share changes.  They must cost float work
    only: kernel events stay at 4 per transfer (its two start timers,
    its ``done`` event and the scheduler's one timer firing for it)
    however many flows cross the uplink.
    """
    sizes = (10, 100, 1_000)

    def run():
        out = {}
        for n in sizes:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                env = _hot_uplink(n)
                best = min(best, time.perf_counter() - t0)
            out[n] = (env.event_count, best)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [n, n * n, events, f"{wall * 1e3:.2f}", f"{wall * 1e6 / (n * n):.3f}"]
        for n, (events, wall) in out.items()
    ]
    emit("kernel_network", format_table(
        ["transfers", "share changes", "kernel events", "wall (ms)",
         "us / share change"],
        rows,
        title="Link scheduler: n equal transfers through one hot uplink",
    ))
    for n, (events, _wall) in out.items():
        assert events <= 4 * n


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def _batch_queue(n: int, n_cpus: int, cohort: int, n_scheds: int = 1,
                 traced: bool = False):
    """Submit ``n`` 60 s jobs at t=0, round-robin over ``n_scheds`` sites
    of ``n_cpus`` each, then drain them: local load in arrivals of
    ``cohort`` jobs through ``submit_local``, or — ``cohort`` 0 — one
    watched ``submit`` per job.

    Returns ``(env, submit seconds, drain seconds, GC-tracked objects per
    job while all are live, ... after all ended, traced bytes per job
    while all are live)``.  The bytes are what ``tracemalloc`` sees the
    submits allocate and keep, and are measured only when ``traced``
    (whose timings tracing inflates; None otherwise).
    """
    env = Environment()
    scheds = [LocalScheduler(env, n_cpus, lambda runtime_s: runtime_s)
              for _ in range(n_scheds)]
    runtimes = [60.0] * cohort
    ids = [f"j{i}" for i in range(n)] if not cohort else []
    idle = _tracked()
    if cohort:
        work = [(scheds[a % n_scheds].submit_local, a * cohort)
                for a in range(n // cohort)]
    else:
        work = [(scheds[i % n_scheds].submit, SiteJob(job_id, runtime_s=60.0))
                for i, job_id in enumerate(ids)]
    if traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    if cohort:
        for submit_local, first_id in work:
            submit_local(runtimes, "local", "bg.", first_id)
    else:
        for submit, job in work:
            submit(job)
    t1 = time.perf_counter()
    work = submit = job = submit_local = None  # the schedulers hold what is held
    held = None
    if traced:
        held = tracemalloc.get_traced_memory()[0] / n
        tracemalloc.stop()
    live = _tracked() - idle
    t2 = time.perf_counter()
    env.run(until=1e8)
    t3 = time.perf_counter()
    assert sum(sched.completed_count for sched in scheds) == n
    return env, t1 - t0, t3 - t2, live / n, (_tracked() - idle) / n, held


#: The same cases at the parent commit (a826e32: every cohort member its
#: own kernel-heap entry, a site's noise block a list), measured with this
#: file's ``_batch_queue`` on the parent's ``src/``, same box and
#: interpreter as the committed table: case -> (submit us / job, drain us
#: / job, tracked objects / job running, ... ended, traced bytes / job
#: running).
PARENT_BATCH_QUEUE = {
    "local, idle site, cohorts of 1": (2.66, 1.65, 2.00, 0.00, 296.12),
    "local, idle site, cohorts of 8": (0.74, 1.23, 1.13, 0.00, 156.14),
    "watched, idle site": (6.77, 5.44, 8.00, 1.00, 734.18),
    "local, 64 CPUs contended, cohorts of 8": (6.45, 5.00, 7.99, 0.00, 904.06),
    "local, 2,500 idle sites round-robin, cohorts of 1":
        (2.69, 1.54, 2.05, 0.00, 277.67),
    "local, 2,500 idle sites round-robin, cohorts of 8":
        (0.68, 1.29, 1.18, 0.00, 157.99),
}


def test_local_scheduler_submit_drain(benchmark):
    """The batch-queue layer: host cost of one job, submit and drain.

    A local job that finds a free CPU is one counted slot and one finish
    instant in its arrival's cohort (DESIGN.md §5l): one kernel event, no
    record.  The cohort has one kernel-heap entry; its other members'
    finishes are held in one array, 16 bytes each.  A watched job is
    callbacks on one awaited event and its own run timer; it adds its
    grant wake-up.  The round-robin cases are the shape ``plan-2500x600``
    has: no scheduler's tables are warm in the host's caches.
    """
    n = 50_000
    spare = 2 * n // 2_500  # CPUs per round-robin site: every arrival fits
    cases = {  # label: (CPUs, cohort, sites)
        "local, idle site, cohorts of 1": (n, 1, 1),
        "local, idle site, cohorts of 8": (n, 8, 1),
        "watched, idle site": (n, 0, 1),
        "local, 64 CPUs contended, cohorts of 8": (64, 8, 1),
        "local, 2,500 idle sites round-robin, cohorts of 1": (spare, 1, 2_500),
        "local, 2,500 idle sites round-robin, cohorts of 8": (spare, 8, 2_500),
    }

    def run():
        out = {}
        for label, args in cases.items():
            best = (float("inf"), float("inf"))
            for _ in range(3):
                env, submit_s, drain_s, *census, _ = _batch_queue(n, *args)
                best = min(best, (submit_s, drain_s), key=sum)
            held = _batch_queue(n, *args, traced=True)[-1]
            out[label] = (env.event_count, *best, *census, held)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for label, (events, submit_s, drain_s, *rest) in out.items():
        now = (submit_s * 1e6 / n, drain_s * 1e6 / n, *rest)
        rows.append([label, f"{events / n:.2f}"] + [
            f"{old:.2f} -> {round(new, 2) + 0.0:.2f}"  # + 0.0: no "-0.00"
            for old, new in zip(PARENT_BATCH_QUEUE[label], now)
        ])
    emit("kernel_local_scheduler", format_table(
        ["case", "kernel events / job", "submit (us / job)",
         "drain (us / job)", "tracked objects / job, running", "..., ended",
         "traced bytes / job, running"],
        rows,
        title=f"Batch queue: {n} jobs of 60 s through LocalScheduler "
              "(parent a826e32, one heap entry per cohort member -> "
              "this tree)",
    ))
    assert out["local, idle site, cohorts of 8"][0] <= n
    # one heap entry and one cohort per arrival, nothing once it ended
    assert out["local, idle site, cohorts of 1"][3] <= 2.01
    assert out["local, idle site, cohorts of 8"][3] <= 0.51
    assert out["local, 2,500 idle sites round-robin, cohorts of 8"][3] <= 0.56
    assert out["local, idle site, cohorts of 8"][4] == 0.0
    assert out["local, 2,500 idle sites round-robin, cohorts of 8"][4] == 0.0
    # a held member is 16 bytes; the arrival's entry and cohort are shared
    assert out["local, idle site, cohorts of 8"][5] <= 64.0


#: ``_grid_build_us`` at the parent commit (6f0c091, four numpy
#: ``SeedSequence`` derivations per site), same box and interpreter as
#: the committed table (median of three runs): sites -> us per site.
PARENT_GRID_BUILD_US = {25: 82.3, 250: 74.6, 2_500: 85.9}


def _grid_build_us(n_sites: int, reps: int = 5) -> float:
    """Host microseconds per site of ``make_grid3`` over
    ``synthetic_sites(n_sites)``, background loads started; best of
    ``reps``, each from a collected heap."""
    sites = synthetic_sites(n_sites)
    best = float("inf")
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        grid = make_grid3(Environment(), RngStreams(1), sites)
        best = min(best, time.perf_counter() - t0)
    assert len(grid) == n_sites
    return best * 1e6 / n_sites


def test_grid_build(benchmark):
    """The grid layer: what one site costs to build as the catalog grows.

    Every site's and background load's RNG streams are derived in one
    vectorised pass over the catalog (DESIGN.md §5m), so the per-site
    cost left is the objects themselves.
    """
    sizes = (25, 250, 2_500)
    out = benchmark.pedantic(
        lambda: {n: _grid_build_us(n) for n in sizes}, rounds=1, iterations=1)
    emit("kernel_grid_build", format_table(
        ["sites", "parent (us / site)", "change (us / site)"],
        [[n, f"{PARENT_GRID_BUILD_US[n]:.1f}", f"{us:.1f}"]
         for n, us in out.items()],
        title="Grid build: make_grid3(env, rng, synthetic_sites(n)), "
              "background started",
    ))
    # no per-site term may grow with the catalog
    assert out[2_500] <= 2.0 * out[25]


def _rls_lookup_us(n_sites: int, n_lfns: int = 200, rounds: int = 20) -> float:
    """Mean ``locations`` cost with 3 replicas per LFN among ``n_sites``."""
    sites = [f"s{i}" for i in range(n_sites)]
    rls = ReplicaService(sites)
    lfns = [f"lfn{i}" for i in range(n_lfns)]
    for i, lfn in enumerate(lfns):
        for k in range(3):
            rls.register_replica(lfn, sites[(i * 7 + k * 11) % n_sites], 10.0)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for lfn in lfns:
                rls.locations(lfn)
        best = min(best, time.perf_counter() - t0)
    assert all(len(rls.locations(lfn)) == 3 for lfn in lfns)
    return best * 1e6 / (rounds * n_lfns)


def test_rls_lookup_scaling(benchmark):
    """The replica index: a lookup costs O(replicas), not O(sites)."""
    sizes = (25, 250, 2_500)
    out = benchmark.pedantic(
        lambda: {n: _rls_lookup_us(n) for n in sizes}, rounds=1, iterations=1)
    emit("kernel_rls", format_table(
        ["attached sites", "replicas / LFN", "lookup (us)"],
        [[n, 3, f"{us:.3f}"] for n, us in out.items()],
        title="RLS: ReplicaService.locations against the live inverted index",
    ))
    assert out[2_500] <= 2.0 * out[25]


#: ``_plan_job_us`` at the parent commit (aad3ab7), fastest of six, on
#: the box and interpreter of the committed table (a shared 2-vCPU
#: Linux container, CPython 3.11; the 0d2c740 -> 4fa3463 table before
#: it came from a box about 1.7x faster):
#: (sites, quota-bound, draining, sampled) -> us per planned job.
PARENT_PLAN_US = {
    (25, False, False, True): 20.1,
    (25, False, True, True): 20.8,
    (25, True, False, True): 29.6,
    (25, True, True, True): 31.0,
    (250, False, False, True): 20.3,
    (250, False, True, True): 22.8,
    (250, True, False, True): 31.0,
    (250, True, True, True): 32.9,
    (2_500, False, False, True): 25.6,
    (2_500, False, True, True): 26.3,
    (2_500, True, False, True): 38.5,
    (2_500, True, True, True): 40.1,
    (2_500, False, False, False): 25.1,
}


def _planner_server(n_sites: int) -> SphinxServer:
    """A completion-time server over ``n_sites`` idle 8-CPU sites."""
    env = Environment()
    grid = Grid(env, RngStreams(0))
    for i in range(n_sites):
        grid.add_site(SiteSpec(f"s{i:04d}", n_cpus=8,
                               background_utilization=0.0,
                               service_noise_sigma=0.0))
    sites = grid.site_names
    return SphinxServer(
        env, RpcBus(env),
        ServerConfig(name="bench", algorithm="completion-time"),
        {s: 8 for s in sites},
        MonitoringService(env, grid), ReplicaService(sites),
    )


def _submit(server, user, dag_id, n, requirements=None):
    """One DAG of ``n`` independent jobs."""
    dag = Dag(dag_id, [
        Job(f"{dag_id}.j{i}", requirements=requirements or {})
        for i in range(n)
    ])
    server._rpc_submit_dag("c0", user, dag_to_payload(dag))


def _plan_job_us(n_sites: int, bound: bool, draining: bool,
                 sampled: bool = True, n_jobs: int = 300) -> float:
    """Host microseconds to plan one ready job in a warm server.

    ``n_sites`` idle sites, one user — quota-exempt, or bound by two
    ample quotas — and optionally every tenth site draining.  With
    ``sampled`` every site has completion history, so the
    completion-time algorithm takes its argmin; without, none has, and
    every plan is a bootstrap probe of an unsampled site (the path
    every plan of ``plan-2500x600`` takes).  One job is planned first
    so the measured pass starts from a built site table; the clock then
    covers one ``tick`` that plans ``n_jobs`` independent ready jobs.
    """
    server = _planner_server(n_sites)
    sites = server._catalog_sites
    user = "/VO=bench/CN=u"
    requirements = {}
    if bound:
        requirements = {"cpu_seconds": 60.0, "disk_mb": 10.0}
        for site in sites:
            for resource in requirements:
                server.policy.grant(user, site, resource, 1e9)
    else:
        server.policy.grant_unlimited(user)
    if sampled:
        for i, site in enumerate(sites):
            server.estimator.record(site, 100.0 + i % 7)
    if draining:
        for site in sites[::10]:
            server.drain_notice(site, 1e9)

    _submit(server, user, "warm", 1, requirements)
    server.tick()
    _submit(server, user, "timed", n_jobs, requirements)
    t0 = time.perf_counter()
    server.tick()
    elapsed = time.perf_counter() - t0
    planned = server.warehouse.table("jobs").count(where={"state": "planned"})
    assert planned == n_jobs + 1
    return elapsed * 1e6 / n_jobs


#: ``_declined_pass_us`` at the parent commit (aad3ab7), same box and
#: interpreter as the committed table: sites -> us per retry pass.
PARENT_DECLINED_US = {25: 221.2, 250: 223.5, 2_500: 223.3}
#: ``_declined_pass_us(2_500)`` before declined classes were skipped
#: (17a8368: every ready job re-asked, every ready set recomputed)
BEFORE_DECLINED_CLASSES_US = 17411.4


def _declined_pass_us(n_sites: int, n_jobs: int = 300,
                      passes: int = 5) -> float:
    """Host microseconds of one retry pass that plans nothing.

    Every one of ``n_sites`` unsampled sites has a probe in flight, so
    the completion-time hybrid declines each of the user's ``n_jobs``
    ready jobs.  The first pass after submission is not timed; the clock
    covers the fastest of ``passes`` identical retry passes.
    """
    server = _planner_server(n_sites)
    user = "/VO=bench/CN=u"
    server.policy.grant_unlimited(user)
    _submit(server, user, "probes", n_sites)
    server.tick()
    _submit(server, user, "timed", n_jobs)
    server.tick()
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        server.tick()
        best = min(best, time.perf_counter() - t0)
    planned = server.warehouse.table("jobs").count(where={"state": "planned"})
    assert planned == n_sites
    return best * 1e6


def test_plan_job_candidates(benchmark):
    """The planner layer: what one planned job costs as the catalog grows.

    The candidate pool is a maintained site table of numpy columns
    (DESIGN.md §5g): a plan rewrites the rows earlier plans dirtied,
    builds one feasibility mask, and the algorithm chooses with one
    masked argmin or one rotation over the columns.  The bootstrap row
    times the probe rotation over 2,500 unsampled sites.  The
    "declined" rows time a pass in which the algorithm declines every
    ready job: it is asked once, and the retrying dag keeps its ready
    set (DESIGN.md §5g).
    """
    sizes = (25, 250, 2_500)
    cases = [
        (n_sites, bound, draining, True)
        for n_sites in sizes
        for bound in (False, True)
        for draining in (False, True)
    ] + [(2_500, False, False, False)]

    def run():
        return {
            case: min(_plan_job_us(*case) for _ in range(3))
            for case in cases
        }, {n: _declined_pass_us(n) for n in sizes}

    out, declined = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for case, us in out.items():
        n_sites, bound, draining, sampled = case
        parent = PARENT_PLAN_US.get(case)
        rows.append([
            n_sites,
            "quota-bound" if bound else "quota-exempt",
            "10 %" if draining else "none",
            "every" if sampled else "none (bootstrap)",
            f"{parent:.1f}" if parent is not None else "-",
            f"{us:.1f}",
        ])
    declined_rows = [
        [n, f"{PARENT_DECLINED_US[n]:.0f}", f"{us:.0f}"]
        for n, us in declined.items()
    ]
    emit("kernel_planner", format_table(
        ["sites", "user", "draining", "sites sampled",
         "parent (us / job)", "change (us / job)"],
        rows,
        title="Planner: one warm tick planning 300 ready jobs "
              "(completion-time)",
    ) + "\n\n" + format_table(
        ["sites", "parent (us / pass)", "change (us / pass)"],
        declined_rows,
        title="Planner, declined: one retry pass over 300 ready jobs of "
              "one user behind in-flight probes (completion-time)",
    ))
    # Ten times the sites must cost well under ten times as much: the
    # per-site work left is vectorised over the columns.
    assert out[(2_500, True, False, True)] \
        <= 60.0 * out[(25, True, False, True)]
    # A declined class is asked once a pass, not once a job.
    assert declined[2_500] <= 0.1 * BEFORE_DECLINED_CLASSES_US
