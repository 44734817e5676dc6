"""GSI-enabled RPC transport — the Clarens / XML-RPC equivalent.

SPHINX components communicate exclusively through "GSI-enabled XML-RPC
services" (paper Fig. 1).  This module reproduces the properties of that
transport that matter to a scheduling study:

* **Serialization boundary** — payloads must be XML-RPC-representable
  (numbers, strings, booleans, None, lists, dicts with string keys).
  Passing live objects through is a bug this layer catches, exactly as
  a real wire format would.
* **Latency** — every call costs a round trip; the planner's decisions
  are made against slightly old client state, like on a real WAN.
* **Authentication** — callers present a GSI proxy subject; services
  may restrict methods to an ACL of proxies or whole VOs.

Services register named methods on a :class:`RpcBus`; callers invoke
them and receive an :class:`~repro.sim.engine.Event` with the result
(or a defusable :class:`RpcFault`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro import obs as obs_mod
from repro.sim.engine import Environment, Event

__all__ = ["RpcBus", "RpcFault"]


class RpcFault(RuntimeError):
    """A remote fault: unknown service/method, auth failure, or a
    handler exception (carried as ``cause``)."""

    def __init__(self, message: str, cause: Optional[BaseException] = None):
        super().__init__(message)
        self.cause = cause


_SCALARS = (str, int, float, bool, type(None))
_EXACT_SCALARS = frozenset(_SCALARS)  # O(1) exact-type test, no MRO walk


def _check_serializable(value: Any, path: str = "payload") -> None:
    """Reject values XML-RPC could not carry."""
    fault = _fault_in(value)
    if fault is not None:
        raise RpcFault(path + fault)


def _fault_in(value: Any) -> Optional[str]:
    """``"[i]['k']: reason"`` for the first unserializable part, else None.

    Hot (every RPC leg walks its payload): exact-type scalars cost no
    call, and the path is only spelled on the way back up from a fault.
    """
    exact = _EXACT_SCALARS
    if type(value) in exact or isinstance(value, _SCALARS):
        return None
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            if type(item) not in exact and (fault := _fault_in(item)):
                return f"[{i}]{fault}"
        return None
    if isinstance(value, dict):
        for k, v in value.items():
            if not isinstance(k, str):
                return f": dict key {k!r} is not a string"
            if type(v) not in exact and (fault := _fault_in(v)):
                return f"[{k!r}]{fault}"
        return None
    return f": {type(value).__name__} is not RPC-serializable"


class _Service:
    def __init__(self, name: str):
        self.name = name
        self.methods: dict[str, Callable[..., Any]] = {}
        self.allowed_proxies: Optional[set[str]] = None
        self.allowed_vos: Optional[set[str]] = None

    def authorize(self, proxy: str) -> bool:
        if self.allowed_proxies is None and self.allowed_vos is None:
            return True
        if self.allowed_proxies and proxy in self.allowed_proxies:
            return True
        if self.allowed_vos:
            # proxies look like /VO=<vo>/CN=<name>
            for vo in self.allowed_vos:
                if proxy.startswith(f"/VO={vo}/"):
                    return True
        return False


class RpcBus:
    """Registry + dispatcher for in-simulation RPC services."""

    def __init__(self, env: Environment, latency_s: float = 0.05,
                 obs=None):
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        self.env = env
        self.latency_s = latency_s
        self._services: dict[str, _Service] = {}
        #: service name -> events armed by :meth:`on_register`, fired
        #: (and cleared) the moment the service (re-)appears.
        self._register_waiters: dict[str, list[Event]] = {}
        #: total calls dispatched (for experiment accounting)
        self.call_count = 0
        #: observability (RPC round trips by method, fault counts);
        #: strictly passive — see :mod:`repro.obs`.
        self.obs = obs_mod.get(obs)
        self._m_calls = self.obs.metrics.counter("rpc.calls")
        self._m_faults = self.obs.metrics.counter("rpc.faults")

    # -- registration -----------------------------------------------------------
    def register(
        self,
        service: str,
        method: str,
        handler: Callable[..., Any],
        allowed_proxies: Optional[Iterable[str]] = None,
        allowed_vos: Optional[Iterable[str]] = None,
    ) -> None:
        """Expose ``handler`` as ``service.method``.

        ACLs are per-service: the last registration's ACL arguments, if
        given, replace the service's ACL.
        """
        svc = self._services.get(service)
        appeared = svc is None
        if svc is not None and method in svc.methods:
            # Checked before any mutation: a rejected registration must
            # leave the live owner's service entry untouched (two
            # servers spawned with the same ``ServerConfig.name`` would
            # otherwise half-mutate each other's registrations).
            raise ValueError(
                f"{service}.{method} already registered — one owner per "
                "service name; unregister_service() the live owner first "
                "or use a distinct name"
            )
        if svc is None:
            svc = self._services[service] = _Service(service)
        svc.methods[method] = handler
        if allowed_proxies is not None:
            svc.allowed_proxies = set(allowed_proxies)
        if allowed_vos is not None:
            svc.allowed_vos = set(allowed_vos)
        if appeared:
            for waiter in self._register_waiters.pop(service, ()):
                waiter.succeed(service)

    def on_register(self, service: str) -> Event:
        """An event firing the next time ``service`` is (re-)registered.

        The reconnect signal clients arm while a server is
        unreachable: a recovered server re-registering under the same
        name releases every waiter at the re-registration instant, so
        queued reports retry immediately instead of at the next backoff
        expiry.  Edge-triggered: registrations that happened *before*
        the call do not satisfy it.

        A caller that stops caring (its backoff timer won the race)
        should hand the event back via :meth:`discard_waiter`;
        otherwise abandoned waiters would accumulate for the lifetime
        of the bus.  Arming also prunes any already-settled stragglers
        as a backstop.
        """
        ev = self.env.event()
        waiters = self._register_waiters.setdefault(service, [])
        if waiters:
            waiters[:] = [w for w in waiters if not w.triggered]
        waiters.append(ev)
        return ev

    def discard_waiter(self, service: str, event: Event) -> bool:
        """Withdraw an unfired :meth:`on_register` waiter.

        Returns True if the event was armed and has been removed.  The
        cancel path for callers whose wait ended some other way (backoff
        expiry, shutdown): without it every abandoned waiter would sit
        in ``_register_waiters`` until the service next re-registers —
        forever, for a service that never comes back.
        """
        waiters = self._register_waiters.get(service)
        if not waiters:
            return False
        try:
            waiters.remove(event)
        except ValueError:
            return False
        if not waiters:
            del self._register_waiters[service]
        return True

    def unregister_service(self, service: str) -> bool:
        """Remove a whole service (a server shutting down).

        Subsequent calls fault with "unknown service", which clients
        treat as transient — a recovered server re-registers the name.
        """
        return self._services.pop(service, None) is not None

    def services(self) -> tuple[str, ...]:
        return tuple(sorted(self._services))

    def has_service(self, service: str) -> bool:
        return service in self._services

    # -- invocation ----------------------------------------------------------------
    def call(self, proxy: str, service: str, method: str, *args: Any,
             **kwargs: Any) -> Event:
        """Invoke ``service.method`` as ``proxy``.

        Returns an event that fires with the handler's return value
        after a round trip, or fails with :class:`RpcFault`.  The fault
        is pre-defused: a caller that ignores the result won't crash
        the simulation, matching fire-and-forget RPC semantics.

        The round trip is carried by a single kernel event: the handler
        runs and the result settles at ``now + 2 * latency_s`` in one
        step, so handler and reply are atomic — no fault can fall
        between them.
        """
        self.call_count += 1
        obs = self.obs
        if obs.enabled:
            self._m_calls.inc()
            obs.metrics.counter("rpc.calls_by_method", method=method).inc()
        result = self.env.event()

        def _dispatch(_ev):
            try:
                svc = self._services.get(service)
                if svc is None:
                    raise RpcFault(f"unknown service {service!r}")
                handler = svc.methods.get(method)
                if handler is None:
                    raise RpcFault(f"unknown method {service}.{method}")
                if not svc.authorize(proxy):
                    raise RpcFault(
                        f"proxy {proxy!r} not authorized for {service}"
                    )
                _check_serializable(list(args), "args")
                _check_serializable(dict(kwargs), "kwargs")
                value = handler(*args, **kwargs)
                _check_serializable(value, "result")
            except RpcFault as exc:
                fault = exc
            except Exception as exc:  # handler bug -> remote fault
                fault = RpcFault(f"{service}.{method} raised: {exc}", exc)
            else:
                result.succeed(value)
                return
            self._m_faults.inc()
            result.fail(fault)
            result.defuse()

        # Latency to the server and back, folded into one hop.
        self.env.timeout(2.0 * self.latency_s).add_callback(_dispatch)
        return result
