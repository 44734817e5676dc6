"""A fault-injecting RPC bus.

:class:`ChaoticBus` subclasses :class:`~repro.services.rpc.RpcBus` and
perturbs calls per the plan's :class:`~repro.chaos.plan.FaultRule` and
partition windows:

* **drop (request leg)** — the handler never runs; the caller faults
  after a round trip;
* **drop (reply leg)** — the handler runs (side effects land!) but the
  caller faults anyway — the nasty case duplicate guards exist for;
* **duplicate** — the handler runs twice (the second dispatch slightly
  later); the caller sees the first result;
* **delay** — extra wire latency before the dispatch;
* **partition** — calls to matching services fault for a window.

Injected faults carry the literal ``"unknown service"`` text because
that is the transient-fault contract clients retry on — a dropped or
partitioned call is indistinguishable from the service being away,
which is the point.

Determinism: each (service, method) pair draws from its own named
stream of ``RngStreams(plan.seed)``.  Call order per pair is fixed by
the simulation, so the same (plan, seed, scenario) yields the same
fault schedule — recorded in :attr:`ChaoticBus.fault_log` — on every
run.  A plan with no transport faults should use a plain ``RpcBus``
(the controller does); this class assumes it has work to do.
"""

from __future__ import annotations

from typing import Any

from repro.chaos.plan import ChaosPlan, FaultRule
from repro.services.rpc import LATENCY_S, RpcBus, RpcFault
from repro.sim.engine import Environment, Event
from repro.sim.rng import RngStreams

__all__ = ["ChaoticBus"]

#: a duplicated dispatch lands this much later (scaled 0.5-1.5x)
_DUP_DELAY_S = 1.0


def _discard(ev: Event) -> None:
    """Swallow a ghost dispatch's result (defusing faults)."""
    if not ev.ok:
        ev.defuse()


class ChaoticBus(RpcBus):
    """An :class:`RpcBus` with a deterministic gremlin on the wire."""

    def __init__(self, env: Environment, plan: ChaosPlan, obs=None):
        super().__init__(env, obs=obs)
        self.plan = plan
        self._rngs = RngStreams(plan.seed)
        rule = plan.rule
        self._rule: FaultRule | None = (
            rule if rule is not None and rule.active else None)
        #: injected faults [(time, service, method, kind)], in injection
        #: order — the deterministic fault schedule.
        self.fault_log: list[tuple[float, str, str, str]] = []
        #: fault kind -> count (report summary)
        self.injected: dict[str, int] = {}

    # -- bookkeeping ------------------------------------------------------
    def _note(self, service: str, method: str, kind: str) -> None:
        self.fault_log.append((self.env.now, service, method, kind))
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def _stream(self, service: str, method: str):
        return self._rngs.stream(f"chaos:{service}.{method}")

    # -- the perturbed call path -----------------------------------------
    def call(self, proxy: str, service: str, method: str, *args: Any,
             **kwargs: Any) -> Event:
        if self.plan.in_partition(service, self.env.now):
            self._note(service, method, "partition")
            return self._fault_after(service, "partitioned")
        rule = self._rule
        if rule is None or not rule.matches(service):
            return super().call(proxy, service, method, *args, **kwargs)
        rng = self._stream(service, method)
        u = float(rng.random())
        if u < rule.drop_p:
            if float(rng.random()) < 0.5:
                # Request leg lost: the handler never hears about it.
                self._note(service, method, "drop-request")
                return self._fault_after(service, "request dropped")
            # Reply leg lost: side effects happen, the ack does not.
            self._note(service, method, "drop-reply")
            inner = super().call(proxy, service, method, *args, **kwargs)
            return self._drop_reply(inner, service)
        u -= rule.drop_p
        if u < rule.dup_p:
            self._note(service, method, "duplicate")
            extra = _DUP_DELAY_S * (0.5 + float(rng.random()))
            self._ghost_later(extra, proxy, service, method, args, kwargs)
            return super().call(proxy, service, method, *args, **kwargs)
        u -= rule.dup_p
        if u < rule.delay_p and rule.max_extra_delay_s > 0.0:
            extra = rule.max_extra_delay_s * float(rng.random())
            self._note(service, method, "delay")
            return self._call_later(extra, proxy, service, method,
                                    args, kwargs)
        return super().call(proxy, service, method, *args, **kwargs)

    # -- fault mechanics --------------------------------------------------
    def _fault_after(self, service: str, why: str) -> Event:
        """A call that fails transiently after a normal round trip."""
        result = self.env.event()
        fault = RpcFault(f"unknown service {service!r} (chaos: {why})")

        def _finish(_ev):
            result.fail(fault)
            result.defuse()

        self.env.timeout(2.0 * LATENCY_S).add_callback(_finish)
        return result

    def _drop_reply(self, inner: Event, service: str) -> Event:
        """Dispatch normally, fault the caller when the reply would land."""
        outer = self.env.event()
        fault = RpcFault(
            f"unknown service {service!r} (chaos: reply dropped)"
        )

        def _swallow(ev):
            if not ev.ok:
                ev.defuse()
            outer.fail(fault)
            outer.defuse()

        inner.add_callback(_swallow)
        return outer

    def _ghost_later(self, extra: float, proxy, service, method,
                     args, kwargs) -> None:
        """Re-dispatch the same call after ``extra``; discard its result."""
        def _fire(_ev):
            ghost = RpcBus.call(self, proxy, service, method,
                                *args, **kwargs)
            ghost.add_callback(_discard)

        self.env.timeout(extra).add_callback(_fire)

    def _call_later(self, extra: float, proxy, service, method,
                    args, kwargs) -> Event:
        """The delayed call: dispatch after ``extra``, then chain."""
        outer = self.env.event()

        def _fire(_ev):
            inner = RpcBus.call(self, proxy, service, method,
                                *args, **kwargs)

            def _copy(ev):
                if ev.ok:
                    outer.succeed(ev.value)
                else:
                    ev.defuse()
                    outer.fail(ev.value)
                    outer.defuse()

            inner.add_callback(_copy)

        self.env.timeout(extra).add_callback(_fire)
        return outer
