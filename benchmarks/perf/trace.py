"""Outside-in span tracer for the benchmark's traced run.

Nothing under ``src/`` knows about this file.  :func:`install` swaps the
public entry points of each layer (class attributes, for the traced
child only) for wrappers that keep an exclusive-time stack: per span
name ``calls``, ``self_ms`` (duration minus the part covered by child
spans) and ``total_ms``, a caller->callee edge table, and the first
``MAX_RAW_SPANS`` raw spans.  Generator-valued entry points come back
wrapped in a proxy that opens a span on every resume, so a process's
time is booked where it runs, not where it was created.  Entry points
called millions of times are count-only (no clock reads).

The wrappers add no kernel events and draw no randomness; the harness
asserts the traced run's ``sim_digest`` equals the untraced one.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from types import GeneratorType

MAX_RAW_SPANS = 20_000

SPAN, COUNT = "span", "count"


def _targets() -> list[tuple[type, str, dict[str, str]]]:
    """(class, layer, {attribute: SPAN | COUNT}) for every traced entry
    point.  Span and counter names are ``<layer>.<attribute>``."""
    from repro.core.algorithms.registry import (
        available_algorithms,
        make_algorithm,
    )
    from repro.core.client import SphinxClient
    from repro.core.dag_reducer import DagReducer
    from repro.core.feedback import ReliabilityTracker
    from repro.core.policies import PolicyEngine
    from repro.core.prediction import CompletionTimeEstimator
    from repro.core.server import SphinxServer
    from repro.core.tracker import JobTracker
    from repro.core.warehouse import Table, Warehouse
    from repro.federation.digest import DigestBoard
    from repro.federation.ledger import ShardQuotaLedger
    from repro.services.condorg import CondorG
    from repro.services.gridftp import GridFtpService
    from repro.services.monitoring import MonitoringService
    from repro.services.rls import ReplicaService
    from repro.services.rpc import RpcBus
    from repro.sim.engine import Environment
    from repro.simgrid.local_scheduler import LocalScheduler
    from repro.simgrid.network import NetworkModel
    from repro.simgrid.site import GridSite

    targets = [
        (Environment, "sim", {"run": SPAN, "process": COUNT, "timeout": COUNT}),
        (NetworkModel, "simgrid.network", {"transfer_process": SPAN}),
        (LocalScheduler, "simgrid.local_scheduler",
         {"submit": SPAN, "kill": COUNT}),
        (GridSite, "simgrid.site", {"submit": SPAN, "set_state": COUNT}),
        (ReplicaService, "services.rls",
         {"locations": SPAN, "bulk_locations": SPAN, "register_replica": SPAN}),
        (MonitoringService, "services.monitoring", {"snapshot": COUNT}),
        # ChaoticBus.call reaches the handler through super().call
        (RpcBus, "services.rpc", {"call": SPAN}),
        (GridFtpService, "services.gridftp",
         {"transfer": SPAN, "estimate_s": SPAN}),
        (CondorG, "services.condorg", {"submit": SPAN, "cancel": COUNT}),
        (SphinxServer, "core.server",
         {"tick": SPAN, "checkpoint": SPAN, "drain_notice": SPAN}),
        (PolicyEngine, "core.policies",
         {"feasible_sites": SPAN, "charge": COUNT, "refund": COUNT}),
        (Table, "core.warehouse",
         {"insert": SPAN, "update": SPAN, "select": SPAN, "count": SPAN,
          "get": COUNT}),
        (Warehouse, "core.warehouse", {"snapshot": SPAN}),
        (ReliabilityTracker, "core.feedback", {"reliable_sites": SPAN}),
        (CompletionTimeEstimator, "core.prediction",
         {"predicted_s": SPAN, "record": COUNT}),
        (JobTracker, "core.tracker", {"track": SPAN}),
        (SphinxClient, "core.client", {"submit_dag": SPAN}),
        (DagReducer, "core.dag_reducer", {"removable_jobs": SPAN}),
        (ShardQuotaLedger, "federation.ledger",
         {"grant_transfer": SPAN, "apply_credit": COUNT}),
        (DigestBoard, "federation.digest",
         {"apply": SPAN, "remote_load": COUNT}),
    ]
    for algo in available_algorithms():
        cls = type(make_algorithm(algo))
        # choose_site_ctx shares the span name: the planner calls one or
        # the other, and "one site choice" is what the layer counts.
        targets.append((cls, "core.algorithms", {
            attr: SPAN for attr in ("choose_site", "choose_site_ctx")
            if attr in vars(cls)
        }))
    return targets


class _GenProxy:
    """Drives a generator with a span around every resume."""

    __slots__ = ("_gen", "_tracer", "_name", "__name__")

    def __init__(self, tracer: "Tracer", name: str, gen: GeneratorType):
        self._gen = gen
        self._tracer = tracer
        self._name = name
        self.__name__ = gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        frame = self._tracer.enter(self._name)
        try:
            return self._gen.send(value)
        finally:
            self._tracer.exit(frame, 0)

    def throw(self, *exc):
        frame = self._tracer.enter(self._name)
        try:
            return self._gen.throw(*exc)
        finally:
            self._tracer.exit(frame, 0)

    def close(self):
        frame = self._tracer.enter(self._name)
        try:
            return self._gen.close()
        finally:
            self._tracer.exit(frame, 0)


class Tracer:
    """Exclusive-time span stack plus the patch/restore bookkeeping."""

    def __init__(self) -> None:
        #: span name -> [calls, self seconds, total seconds]
        self.stats: dict[str, list] = {}
        #: (caller span, callee span) -> [spans, total seconds]
        self.edges: dict[tuple[str, str], list] = {}
        #: count-only entry points
        self.counts: dict[str, int] = {}
        #: (id, name, start, end, parent id, root id), first MAX_RAW_SPANS
        self.raw: list[tuple] = []
        #: candidates scored over all choose_site calls
        self.candidates = 0
        #: every Warehouse built while installed (the runners keep their
        #: servers to themselves; rows_final needs the tables)
        self.warehouses: list = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[type, str, object]] = []

    # -- the span stack ------------------------------------------------------
    def enter(self, name: str) -> list:
        frame = [name, 0.0, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: list, calls: int) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child_s, span_id = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += calls
        stat[1] += duration - child_s
        stat[2] += duration
        parent_id = None
        root_id = span_id
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[3]
            root_id = stack[0][3]
            edge = self.edges.get((parent[0], name))
            if edge is None:
                edge = self.edges[(parent[0], name)] = [0, 0.0]
            edge[0] += 1
            edge[1] += duration
        if len(self.raw) < MAX_RAW_SPANS:
            self.raw.append((span_id, name, start, end, parent_id, root_id))

    # -- wrappers ------------------------------------------------------------
    def _spanned(self, name: str, fn):
        self.stats.setdefault(name, [0, 0.0, 0.0])
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                ret = fn(*args, **kwargs)
            finally:
                exit_(frame, 1)
            if type(ret) is GeneratorType:
                return _GenProxy(self, name, ret)
            return ret

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _choose_site(self, spanned):
        @functools.wraps(spanned)
        def wrapper(algo, job_id, candidates, *rest):
            self.candidates += len(candidates)
            return spanned(algo, job_id, candidates, *rest)

        return wrapper

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        for cls, layer, attrs in _targets():
            for attr, kind in attrs.items():
                original = vars(cls)[attr]
                name = f"{layer}.{attr}"
                if layer == "core.algorithms":
                    name = "core.algorithms.choose_site"
                    wrapper = self._spanned(name, original)
                    if attr == "choose_site":
                        wrapper = self._choose_site(wrapper)
                elif kind == SPAN:
                    wrapper = self._spanned(name, original)
                else:
                    wrapper = self._counted(name, original)
                setattr(cls, attr, wrapper)
                self._patched.append((cls, attr, original))
        from repro.core.warehouse import Warehouse

        init = Warehouse.__init__

        @functools.wraps(init)
        def remember(warehouse):
            self.warehouses.append(warehouse)
            init(warehouse)

        Warehouse.__init__ = remember
        self._patched.append((Warehouse, "__init__", init))

    def uninstall(self) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    # -- output --------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """``<span>.calls`` / ``<span>.self_ms`` and ``<counter>.calls``
        for every installed entry point (0 where it never ran)."""
        out: dict[str, float] = {}
        for name, (calls, self_s, _total_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_s * 1e3
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n
        chooses = self.stats["core.algorithms.choose_site"][0]
        out["core.algorithms.candidates_per_call"] = (
            self.candidates / chooses if chooses else 0.0
        )
        out["core.warehouse.rows_final"] = sum(
            len(w.table(t)) for w in self.warehouses for t in w.table_names
        )
        return out

    def edge_table(self) -> list[dict]:
        return [
            {"caller": caller, "callee": callee, "spans": n,
             "total_ms": total_s * 1e3}
            for (caller, callee), (n, total_s) in sorted(self.edges.items())
        ]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent_id, root_id in self.raw:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent_id, "root": root_id,
                }) + "\n")
