"""A job span records the score its algorithm chose by.

``candidate_scores`` maps every candidate site to the algorithm's own
score (lower is better): the load rate for num-cpus and queue-length,
the predicted completion time for completion-time, and for round-robin,
which has no score, the distance from its rotation cursor — so the
chosen site always scores lowest, and a trace says what each loser lost
on.
"""

import json
import math

import pytest

from repro.obs import Obs, ObsConfig
from repro.workflow import Dag, Job

from tests.core.test_server import Stack


def _traced(algorithm, n_jobs=3):
    obs = Obs(ObsConfig())
    stack = Stack(algorithm=algorithm, obs=obs)
    obs.bind(stack.env)
    stack.submit(Dag("d", [Job(f"d.{i}") for i in range(n_jobs)]))
    stack.server.tick()
    spans = [s for s in obs.tracer.spans if s.kind == "job"]
    assert len(spans) == n_jobs
    return stack, spans


def test_num_cpus_records_its_load_rates():
    _stack, spans = _traced("num-cpus")
    # Each plan raises the chosen site's planned count by one (4 CPUs).
    assert [s.attrs["candidate_scores"] for s in spans] == [
        {"s0": 0.0, "s1": 0.0, "s2": 0.0},
        {"s0": 0.25, "s1": 0.0, "s2": 0.0},
        {"s0": 0.25, "s1": 0.25, "s2": 0.0},
    ]
    assert [s.attrs["site"] for s in spans] == ["s0", "s1", "s2"]


def test_round_robin_records_its_rotation_index():
    _stack, spans = _traced("round-robin", n_jobs=4)
    for span in spans:
        scores = span.attrs["candidate_scores"]
        assert sorted(scores.values()) == [0, 1, 2]
        assert scores[span.attrs["site"]] == 0


def test_completion_time_records_predictions_and_none_while_unsampled():
    stack, _spans = _traced("completion-time", n_jobs=1)
    stack.server.estimator.record("s1", 120.0)
    stack.server._stale.add("s1")
    stack.submit(Dag("e", [Job("e.0")]))
    stack.server.tick()
    span = stack.server.obs.tracer.spans[-1]
    assert (span.kind, span.attrs["site"]) == ("job", "s2")  # a probe
    scores = span.attrs["candidate_scores"]
    assert scores["s0"] is None and scores["s2"] is None
    assert scores["s1"] == pytest.approx(120.0)
    json.dumps(scores, allow_nan=False)  # exportable as strict JSON
    assert not any(isinstance(v, float) and math.isnan(v)
                   for v in scores.values())
