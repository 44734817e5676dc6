"""Smoke test of the benchmark itself, at toy size.

Outside tier-1's ``testpaths``; run it explicitly:

    python3 -m pytest benchmarks/perf/test_perf_smoke.py -q

Every workload goes through the same child-process path as the real
benchmark (untraced and traced) with <= 6 DAGs on <= 50 sites.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))


def _load(name: str):
    # by path: the directory is not a package, and ``trace`` would
    # otherwise resolve to the standard library's module
    spec = importlib.util.spec_from_file_location(f"perf_{name}",
                                                  HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
trace = _load("trace")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_toy_untraced_and_traced(workload):
    bare = run.measure(workload, seed=1, seconds=0, traced=False, toy=True)
    traced = run.measure(workload, seed=1, seconds=0, traced=True, toy=True)
    assert bare["problems"] == []
    assert traced["problems"] == []
    assert bare["repeats"] == {"bare": run.MIN_REPEATS}
    assert traced["repeats"] == {"bare": 1, "traced": 1, "obs": 1}
    # tracing and the obs facade are passive: same modelled grid
    assert traced["sim_digest"] == bare["sim_digest"]
    assert bare["failed"] == 0 and bare["attempted"] > 0
    assert set(bare["metrics"]) == set(run.END_TO_END)
    assert set(traced["metrics"]) == set(run.PER_LAYER)
    assert traced["metrics"]["sim.run.self_ms"]["value"] > 0
    assert traced["edges"]


def test_other_seed_is_other_input():
    a = run.spawn("scale-250x2400", 1, None, "bare", toy=True)
    b = run.spawn("scale-250x2400", 2, None, "bare", toy=True)
    assert a["sim_digest"] != b["sim_digest"]


def test_declared_names():
    names = run.WORKLOADS + list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(set(names)) == len(names)
    assert all(run.NAME_RE.fullmatch(n) for n in names)


def test_trace_restores_every_patched_attribute():
    from repro.core.server import SphinxServer
    from repro.core.warehouse import Warehouse

    before = {(cls, attr): vars(cls)[attr]
              for cls, _layer, attrs in trace._targets() for attr in attrs}
    before[(Warehouse, "__init__")] = Warehouse.__init__
    tick = SphinxServer.tick
    tracer = trace.Tracer()
    tracer.install()
    assert SphinxServer.tick is not tick
    tracer.uninstall()
    assert SphinxServer.tick is tick
    for (cls, attr), original in before.items():
        assert vars(cls)[attr] is original, (cls, attr)


def test_generator_proxy_books_time_per_resume():
    tracer = trace.Tracer()

    def gen():
        got = yield 1
        return got * 2

    proxy = tracer._spanned("layer.gen", gen)()
    assert next(proxy) == 1
    with pytest.raises(StopIteration) as stop:
        proxy.send(21)
    assert stop.value.value == 42
    calls, self_s, total_s = tracer.stats["layer.gen"]
    assert calls == 1  # one call, three spans (the call and two resumes)
    assert len(tracer.raw) == 3 and self_s == total_s > 0
