"""The column algorithms against their list-scan twins.

Every registered algorithm chooses over the planner's site table as one
masked argmin or one rotation (``repro.core.algorithms.base``).  Here
each is held against its twin in ``tests/core/reference_algorithms.py``,
which loops over ``SiteView`` records, on random table states: ties,
columns with no data at all, empty masks, and probe pools of size 0, 1
and n.  After every call the choice and the algorithm's state (its
rotation cursors) must equal the twin's.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.algorithms import Candidates, make_algorithm
from repro.core.algorithms.registry import available_algorithms

from tests.core.reference_algorithms import TWINS, SiteView, columns_of

#: few distinct values, so ties are common
SECONDS = st.sampled_from([30.0, 90.0, 90.0, 150.0, 240.0, 600.0])


@st.composite
def site_views(draw, name):
    avg = draw(st.none() | SECONDS)
    return SiteView(
        name=name,
        n_cpus=draw(st.integers(1, 8)),
        planned_jobs=draw(st.integers(0, 2)),
        unfinished_jobs=draw(st.integers(0, 2)),
        monitored_queued=draw(st.none() | st.integers(0, 5)),
        monitored_running=draw(st.none() | st.integers(0, 5)),
        avg_completion_s=avg,
        # The planner's table ranks a sampled site by its prediction
        # and has none for an unsampled one.
        predicted_completion_s=None if avg is None else draw(SECONDS),
    )


@st.composite
def tables(draw):
    n = draw(st.integers(0, 6))
    return [draw(site_views(f"s{i}")) for i in range(n)]


@st.composite
def calls(draw, n):
    """One choice: which rows are feasible, and the DAG context."""
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ctx = draw(st.none() | st.fixed_dictionaries({
        "now": st.sampled_from([0.0, 100.0, 900.0]),
        "received_at": st.just(0.0),
        "remaining_levels": st.integers(1, 3),
    }))
    return mask, ctx


def _choose(algorithm, job_id, pool, ctx):
    if ctx is not None:
        return algorithm.choose_site_ctx(job_id, pool, ctx)
    return algorithm.choose_site(job_id, pool)


def _kwargs(name, deadline_s):
    return {"deadline_s": deadline_s} if name == "qos-deadline" else {}


ALL_PROBES = [SiteView(f"s{i}", 4) for i in range(3)]
ONE_PROBE = [SiteView("s0", 4), SiteView("s1", 4, avg_completion_s=90.0,
                                          predicted_completion_s=90.0)]
IN_FLIGHT = [SiteView(f"s{i}", 4, planned_jobs=1) for i in range(3)]


@given(
    name=st.sampled_from(available_algorithms()),
    deadline_s=st.sampled_from([50.0, 400.0, 2000.0]),
    views=tables(),
    data=st.data(),
)
@example(name="completion-time", deadline_s=400.0, views=ALL_PROBES,
         data=None)
@example(name="completion-time", deadline_s=400.0, views=ONE_PROBE,
         data=None)
@example(name="completion-time", deadline_s=400.0, views=IN_FLIGHT,
         data=None)
@example(name="qos-deadline", deadline_s=50.0, views=ONE_PROBE, data=None)
@settings(max_examples=400, deadline=None)
def test_column_choice_equals_list_scan(name, deadline_s, views, data):
    shipped = make_algorithm(name, **_kwargs(name, deadline_s))
    twin = TWINS[name](**_kwargs(name, deadline_s))
    cols = columns_of(views)
    n = len(views)
    if data is None:  # an @example: every row feasible, a few rounds
        rounds = [([True] * n, None)] * (n + 2)
    else:
        rounds = data.draw(st.lists(calls(n), min_size=1, max_size=6))
    for k, (mask, ctx) in enumerate(rounds):
        pool = Candidates(cols, np.array(mask, dtype=bool))
        candidates = [v for v, keep in zip(views, mask) if keep]
        got = _choose(shipped, f"j{k}", pool, ctx)
        want = _choose(twin, f"j{k}", candidates, ctx)
        assert got == want, (k, mask, ctx)
        assert vars(shipped) == vars(twin), (k, mask, ctx)


def test_examples_cover_the_probe_pool_sizes():
    """The @examples above reach completion-time's three bootstrap
    cases: every site a probe, one probe, no probe (all in flight)."""
    cases = {}
    for views in (ALL_PROBES, ONE_PROBE, IN_FLIGHT):
        algorithm = make_algorithm("completion-time")
        cols = columns_of(views)
        pool = Candidates(cols, np.ones(len(views), dtype=bool))
        probes = pool.mask & np.isnan(cols.avg) \
            & (cols.planned + cols.unfinished == 0)
        cases[int(probes.sum())] = algorithm.choose_site("j", pool)
    assert cases == {3: "s0", 1: "s0", 0: None}
