"""``migrate_on_drain`` is the one eviction-tolerance switch.

``ext_eviction_scenario`` pits a ``resubmit`` server (switch pinned
off) against a ``migrate`` server (switch left to the plan).  Under the
``spot-eviction`` plan the migrate server's plans ask every job to
checkpoint (60 s interval, 1 CPU-second per write) and the resubmit
server's do not; with no plan neither server checkpoints.
"""

import pytest

from repro.chaos import make_plan
from repro.chaos.run import run_chaos
from repro.core import SphinxServer
from repro.experiments.figures import ext_eviction_scenario
from repro.experiments.runner import run_scenario

CHECKPOINT_KEYS = ("checkpoint_interval_s", "checkpoint_cost_s")


@pytest.fixture
def plans(monkeypatch):
    """server name -> the payloads of every ``plan`` message it sent."""
    sent: dict[str, list[dict]] = {}
    send = SphinxServer._send

    def spy(self, client_id, kind, payload):
        if kind == "plan":
            sent.setdefault(self.config.name, []).append(payload)
        send(self, client_id, kind, payload)

    monkeypatch.setattr(SphinxServer, "_send", spy)
    return sent


def scenario():
    return ext_eviction_scenario(n_sites=20, n_dags=2, seed=42,
                                 horizon_s=6 * 3600.0)


def test_the_eviction_plan_arms_checkpoints_on_the_migrate_server(plans):
    run_chaos(scenario(), make_plan("spot-eviction", 42))
    assert set(plans) == {"migrate", "resubmit"}
    for payload in plans["migrate"]:
        assert (payload["checkpoint_interval_s"],
                payload["checkpoint_cost_s"]) == (60.0, 1.0)
    for payload in plans["resubmit"]:
        assert not set(CHECKPOINT_KEYS) & set(payload)


def test_without_a_plan_neither_server_checkpoints(plans):
    run_scenario(scenario())
    assert set(plans) == {"migrate", "resubmit"}
    for payloads in plans.values():
        for payload in payloads:
            assert not set(CHECKPOINT_KEYS) & set(payload)
