"""Heartbeat and stall detector tests.

The heartbeat reads the *wall* clock, so its default output differs
between runs; every determinism test here injects a fake clock (and
fake RSS/GC probes) plus the ``every_events`` cadence, which is the
documented byte-identical mode.
"""

import json

import pytest

from repro.experiments.figures import fig2_scenario
from repro.experiments.runner import run_scenario
from repro.obs import Heartbeat, Obs, ObsConfig
from repro.obs.runtime import rss_mb


class FakeClock:
    """A wall clock that advances a fixed step per reading."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


def make_heartbeat(path=None, **kw):
    kw.setdefault("clock", FakeClock())
    kw.setdefault("rss_fn", lambda: 100.0)
    kw.setdefault("gc_fn", lambda: 7)
    kw.setdefault("stream", None)
    return Heartbeat(path=path, **kw)


# ----------------------------------------------------------------- heartbeat
def test_heartbeat_beats_on_event_cadence():
    hb = make_heartbeat(every_events=100)
    hb.tick(0.0, 0)          # arms the baseline, no record
    assert hb.seq == 0
    hb.tick(1.0, 50)         # below cadence
    hb.tick(2.0, 100)        # crosses it
    assert hb.seq == 1
    rec = hb.records[-1]
    assert (rec["events"], rec["sim_s"], rec["final"]) == (100, 2.0, False)
    assert rec["rss_mb"] == 100.0 and rec["gc_collections"] == 7


def test_heartbeat_jsonl_is_byte_identical_across_runs(tmp_path):
    scenario = fig2_scenario(2, 7, horizon_s=6 * 3600.0)

    def one(path):
        hb = Heartbeat(path=path, stream=None, every_events=2000,
                       clock=FakeClock(), rss_fn=lambda: 64.0,
                       gc_fn=lambda: 0)
        run_scenario(scenario, obs=Obs(ObsConfig(spans=True)),
                     heartbeat=hb)
        return path.read_bytes()

    a = one(tmp_path / "a.jsonl")
    b = one(tmp_path / "b.jsonl")
    assert a == b
    records = [json.loads(line) for line in a.splitlines()]
    assert len(records) > 2
    assert records[-1]["final"] is True
    assert records[-1]["jobs_completed"] > 0
    assert [r["seq"] for r in records] == list(range(1, len(records) + 1))


def test_heartbeat_reservoir_contents_identical_at_any_flush_cadence():
    # The flight-recorder passivity contract, metrics side: how often
    # the heartbeat fires (or whether it runs at all) cannot change
    # what any bounded histogram retained.
    scenario = fig2_scenario(2, 7, horizon_s=6 * 3600.0)

    def reservoirs(every):
        obs = Obs(ObsConfig(spans=False, histogram_max_samples=8))
        hb = (Heartbeat(stream=None, every_events=every,
                        clock=FakeClock()) if every else None)
        run_scenario(scenario, obs=obs, heartbeat=hb)
        return {
            (name, tuple(sorted(labels.items()))): list(inst.samples)
            for name, labels, kind, inst in obs.metrics
            if kind == "histogram"
        }

    baseline = reservoirs(None)
    assert any(samples for samples in baseline.values())
    assert reservoirs(500) == baseline
    assert reservoirs(5000) == baseline


def test_stall_detector_flags_frozen_sim_clock():
    hb = make_heartbeat(every_events=10)
    hb.tick(0.0, 0)
    hb.tick(5.0, 10)
    assert hb.records[-1]["stalled"] is False
    hb.tick(5.0, 20)  # events churn, sim time pinned
    rec = hb.records[-1]
    assert rec["stalled"] is True
    assert "sim-clock" in rec["stall_reason"]
    assert hb.stall_count == 1


def test_stall_detector_flags_throughput_collapse():
    clock = FakeClock(step=1.0)
    hb = make_heartbeat(every_events=1, clock=clock,
                        stall_fraction=0.25, trailing=3)
    events = 0
    hb.tick(0.0, events)
    for i in range(1, 5):  # steady: 1000 events per 2 fake seconds
        events += 1000
        hb.tick(float(i), events)
    assert not hb.records[-1]["stalled"]
    events += 10  # collapse: 10 events in the same wall step
    hb.tick(10.0, events)
    rec = hb.records[-1]
    assert rec["stalled"] is True
    assert "collapsed" in rec["stall_reason"]


def test_final_beat_never_counts_as_a_stall():
    hb = make_heartbeat(every_events=10)
    hb.tick(0.0, 0)
    hb.tick(1.0, 10)
    rec = hb.finalize(1.0, 15)  # sim clock frozen, but it's the close
    assert rec["final"] is True and rec["stalled"] is False
    assert hb.finalize(1.0, 15) is None  # idempotent
    assert hb.seq == 2


def test_heartbeat_eta_extrapolates_from_completions():
    hb = make_heartbeat(every_events=10)
    hb._total_jobs = 100
    hb._metrics = _FakeMetrics(planned=50, completed=25)
    hb.tick(0.0, 0)
    hb.tick(1.0, 10)
    rec = hb.records[-1]
    assert rec["jobs_planned"] == 50 and rec["jobs_completed"] == 25
    # 25/100 done in wall_s -> three more wall_s to go.
    assert rec["eta_s"] == pytest.approx(3 * rec["wall_s"])


class _FakeInst:
    def __init__(self, value):
        self.value = value


class _FakeMetrics:
    def __init__(self, planned, completed):
        self._by_name = {
            "server.jobs_planned": [({}, _FakeInst(planned))],
            "server.jobs_completed": [({}, _FakeInst(completed))],
        }

    def find(self, name):
        return self._by_name.get(name, [])


def test_heartbeat_cumulative_rate_matches_runner_throughput():
    # The final record's cumulative events/s is the run's event count
    # over the heartbeat's own clock window (loop entry -> finalize),
    # exactly.  A fake clock that steps 0.25 s per reading makes the
    # window a pure function of how often the kernel loop consulted it.
    reads = []

    def clock():
        reads.append(None)
        return 0.25 * len(reads)

    scenario = fig2_scenario(4, 7, horizon_s=12 * 3600.0)
    hb = Heartbeat(3600.0, stream=None, clock=clock)  # interval never fires:
    result = run_scenario(scenario, heartbeat=hb)     # start + final only
    final = hb.records[-1]
    assert final["final"] is True
    assert final["events"] == result.event_count
    assert final["wall_s"] == 0.25 * (len(reads) - 1)
    assert final["events_per_s"] == final["events"] / final["wall_s"]


def test_heartbeat_validates_knobs():
    with pytest.raises(ValueError):
        Heartbeat(-1.0)
    with pytest.raises(ValueError):
        Heartbeat(float("nan"))
    with pytest.raises(ValueError):
        Heartbeat(stall_fraction=1.5)


def test_rss_probe_returns_positive_mb_on_posix():
    assert rss_mb() > 0.0
