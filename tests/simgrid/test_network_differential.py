"""Differential test: the link scheduler against its slow twin.

``NetworkModel.transfer_process`` (one flow table, one kernel timer) must
reproduce the historical epoch/``any_of`` generator kept in
``reference_network.py`` bit-for-bit: every transfer completes at the
same float instant, in both kernel modes.  Only the *order* in which
same-instant completions resume may differ (the scheduler's documented
tie-break is flow-start order), so transfers are compared by index.
"""

from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt
from repro.simgrid import NetworkModel

from tests.simgrid.reference_network import ReferenceNetworkModel

SITES = ["s0", "s1", "s2", "s3", "s4"]

# Small pools make duplicates (and so exact ties) likely; the float
# ranges beside them keep the rounding honest.
BANDWIDTHS = st.sampled_from([1.0, 2.5, 10.0, 100.0 / 3.0]) | st.floats(0.5, 100.0)
LATENCIES = st.sampled_from([0.0, 0.05, 0.2])
SIZES = st.sampled_from([0.0, 1e-10, 10.0, 10.0, 25.0, 70.0 / 3.0]) | st.floats(
    0.001, 300.0
)
STARTS = st.sampled_from([0.0, 0.0, 1.0, 2.5]) | st.floats(0.0, 20.0)
CRASH_AFTER = st.none() | st.sampled_from([0.0, 0.05, 1.0]) | st.floats(0.0, 40.0)


@dataclass(frozen=True)
class Transfer:
    start: float
    size_mb: float
    src: str
    dst: str
    #: interrupt the moving process this long after ``start`` (the
    #: client-crash drill throws into a process mid-transfer).
    crash_after: Optional[float]


@dataclass(frozen=True)
class Case:
    default_bw: float
    default_lat: float
    uplinks: dict
    pairs: list
    transfers: list


CASES = st.builds(
    Case,
    default_bw=BANDWIDTHS,
    default_lat=LATENCIES,
    uplinks=st.dictionaries(st.sampled_from(SITES), BANDWIDTHS, max_size=5),
    pairs=st.lists(
        st.tuples(
            st.sampled_from(SITES),
            st.sampled_from(SITES),
            st.none() | BANDWIDTHS,
            st.none() | LATENCIES,
        ),
        max_size=3,
    ),
    transfers=st.lists(
        st.builds(
            Transfer,
            start=STARTS,
            size_mb=SIZES,
            # three of five sites are hot, so uplinks are shared often
            src=st.sampled_from(SITES[:3] + SITES),
            dst=st.sampled_from(SITES[:3] + SITES),
            crash_after=CRASH_AFTER,
        ),
        min_size=1,
        max_size=14,
    ),
)


def simulate(model_cls, case: Case):
    """Run ``case`` on ``model_cls``; per transfer, how and when it ended."""
    env = Environment()
    net = model_cls(
        env,
        default_bandwidth_mbps=case.default_bw,
        default_latency_s=case.default_lat,
    )
    for site, bw in case.uplinks.items():
        net.set_uplink(site, bw)
    for src, dst, bw, lat in case.pairs:
        net.set_pair(src, dst, bandwidth_mbps=bw, latency_s=lat)
    outcome: dict[int, tuple] = {}

    def mover(i: int, t: Transfer):
        try:
            yield env.timeout(t.start)
            elapsed = yield from net.transfer_process(t.size_mb, t.src, t.dst)
        except Interrupt:
            outcome[i] = ("interrupted", env.now)
            return
        outcome[i] = ("done", env.now, elapsed)

    def crasher(proc, at: float):
        yield env.timeout(at)
        if proc.is_alive:
            proc.interrupt("client crash")

    for i, t in enumerate(case.transfers):
        proc = env.process(mover(i, t))
        if t.crash_after is not None:
            env.process(crasher(proc, t.start + t.crash_after))
    env.run()
    leftover = {site: net.active_transfers(site) for site in SITES}
    return outcome, leftover


@settings(max_examples=200, deadline=None)
@given(case=CASES)
def test_scheduler_matches_reference_bit_for_bit(case):
    want, want_left = simulate(ReferenceNetworkModel, case)
    got, got_left = simulate(NetworkModel, case)
    assert len(got) == len(case.transfers)
    assert got == want  # float ==, not approx: same instants, same elapsed
    assert got_left == want_left == dict.fromkeys(SITES, 0)


def test_equal_transfers_tie_and_complete_in_start_order():
    """The documented tie-break: same finish instant, flow-start order."""
    env = Environment()
    net = NetworkModel(env, default_bandwidth_mbps=10.0, default_latency_s=0.0)
    order = []

    def mover(name, src, dst):
        yield from net.transfer_process(30.0, src, dst)
        order.append((name, env.now))

    # every flow shares an uplink with one other: all finish together
    for name, src, dst in [("a", "p", "q"), ("b", "r", "q"), ("c", "p", "u")]:
        env.process(mover(name, src, dst))
    env.run()
    assert [n for n, _ in order] == ["a", "b", "c"]
    assert len({t for _, t in order}) == 1


def test_share_changes_cost_no_kernel_events():
    """N transfers through one uplink: events grow with N, not N**2."""
    counts = {}
    for n in (10, 100):
        env = Environment()
        net = NetworkModel(env, default_bandwidth_mbps=10.0, default_latency_s=0.0)

        def mover(i):
            yield env.timeout(float(i))  # staggered: every open is a share change
            yield from net.transfer_process(50.0 + i, "hub", f"leaf{i}")

        for i in range(n):
            env.process(mover(i))
        env.run()
        assert net.active_transfers("hub") == 0
        counts[n] = env.event_count
    assert counts[100] <= 12 * counts[10]
