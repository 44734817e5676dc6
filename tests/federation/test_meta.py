"""Unit tests: meta-scheduler admission, routing, re-homing."""

import pytest

from repro.core.serialize import dag_to_payload
from repro.federation import MetaScheduler
from repro.federation.meta import _REHOME_AFTER_S
from repro.federation.shards import ShardMap
from repro.services.rpc import LATENCY_S, RpcBus, RpcFault

from tests.federation.fedstack import FedStack, one_job_dag


def make_meta(st):
    return MetaScheduler(st.env, st.bus, st.fed, st.services)


def submit(st, meta, dag, user="/VO=v/CN=u", client_id="c0"):
    return meta._rpc_submit_dag(client_id, user, dag_to_payload(dag), 10)


def home_of(st, user="/VO=v/CN=u"):
    return ShardMap(tuple(st.services)).home(user)


def assignments(meta):
    """dag_id -> shard label (current, post-rehome)."""
    return {d: e.shard for d, e in meta.entries.items()}


def test_duplicate_meta_service_raises():
    st = FedStack()
    make_meta(st)
    with pytest.raises(ValueError):
        make_meta(st)


def test_dag_forwarded_to_home_shard():
    st = FedStack(n_shards=3)
    meta = make_meta(st)
    for srv in st.servers.values():
        srv.policy.grant_unlimited("/VO=v/CN=u")
    assert submit(st, meta, one_job_dag("d0")) == "accepted"
    st.run(until=10.0)
    home = home_of(st)
    assert assignments(meta) == {"d0": home}
    assert meta.unacked() == ()
    assert "d0" in st.servers[home].warehouse.table("dags")
    for label, srv in st.servers.items():
        if label != home:
            assert "d0" not in srv.warehouse.table("dags")


def test_replayed_submission_is_an_ack_not_a_new_dag():
    st = FedStack()
    meta = make_meta(st)
    assert submit(st, meta, one_job_dag("d0")) == "accepted"
    assert submit(st, meta, one_job_dag("d0")) == "accepted"
    assert len(meta.entries) == 1


def test_outage_within_grace_waits_for_the_home_shard():
    st = FedStack(n_shards=2)
    meta = make_meta(st)
    home = home_of(st)
    st.servers[home].shutdown()
    submit(st, meta, one_job_dag("d0"))
    st.run(until=_REHOME_AFTER_S - 1.0)
    # Still parked on the dead home: no re-home before the grace.
    assert assignments(meta)["d0"] == home
    assert meta.unacked() == ("d0",)
    assert meta.rehomed_count == 0


def test_continuous_outage_past_grace_rehomes_unacked_dags():
    st = FedStack(n_shards=2)
    meta = make_meta(st)
    home = home_of(st)
    other = next(lbl for lbl in st.services if lbl != home)
    st.servers[home].shutdown()
    submit(st, meta, one_job_dag("d0"))
    st.run(until=_REHOME_AFTER_S + 100.0)
    assert assignments(meta)["d0"] == other
    assert meta.unacked() == ()
    assert meta.rehomed_count == 1
    assert "d0" in st.servers[other].warehouse.table("dags")


def test_digest_is_proof_of_life_for_the_outage_clock():
    st = FedStack(n_shards=2)
    meta = make_meta(st)
    home = home_of(st)
    st.servers[home].shutdown()
    submit(st, meta, one_job_dag("d0"))
    st.run(until=400.0)
    # A digest from the shard resets the continuous-outage clock even
    # though its submit_dag service is still down.
    meta._rpc_digest({"shard": home, "seq": 99, "issued_at": 400.0,
                      "sites": {}, "inflight_dags": 0})
    st.run(until=900.0)
    assert assignments(meta)["d0"] == home
    assert meta.rehomed_count == 0


# -- two-phase forward under transport faults -----------------------------

class FlakyBus(RpcBus):
    """An RpcBus that injects one scripted fault per (service, method).

    ``drop_reply`` entries run the handler but fault the caller (the
    nasty leg: side effects land, the ack does not); ``drop_request``
    entries fault without dispatching.  Each key fires once — the
    retry goes through clean, so tests stay deterministic.
    """

    def __init__(self, env):
        super().__init__(env)
        self.drop_reply = set()
        self.drop_request = set()
        self.ghost = set()

    def call(self, proxy, service, method, *args, **kwargs):
        key = (service, method)
        if key in self.drop_request:
            self.drop_request.discard(key)
            outer = self.env.event()
            fault = RpcFault(f"unknown service {service!r} (test)")

            def _fail(_ev):
                outer.fail(fault)
                outer.defuse()

            self.env.timeout(2.0 * LATENCY_S).add_callback(_fail)
            return outer
        if key in self.drop_reply:
            self.drop_reply.discard(key)
            inner = super().call(proxy, service, method, *args, **kwargs)
            outer = self.env.event()
            fault = RpcFault(f"unknown service {service!r} (test)")

            def _swallow(ev):
                if not ev.ok:
                    ev.defuse()
                outer.fail(fault)
                outer.defuse()

            inner.add_callback(_swallow)
            return outer
        if key in self.ghost:
            # Duplicate delivery: dispatch twice, caller sees the first.
            self.ghost.discard(key)

            def _fire(_ev):
                extra = RpcBus.call(self, proxy, service, method,
                                    *args, **kwargs)
                extra.add_callback(
                    lambda ev: ev.defuse() if not ev.ok else None)

            self.env.timeout(1.0).add_callback(_fire)
        return super().call(proxy, service, method, *args, **kwargs)


def placed_shards(st, dag_id):
    return [lbl for lbl, srv in st.servers.items()
            if dag_id in srv.warehouse.table("dags")]


def flaky_stack():
    st = FedStack(n_shards=2, bus_factory=FlakyBus)
    for srv in st.servers.values():
        srv.policy.grant_unlimited("/VO=v/CN=u")
    return st


def test_dropped_offer_reply_places_exactly_once():
    st = flaky_stack()
    meta = make_meta(st)
    home = home_of(st)
    st.bus.drop_reply.add((st.services[home], "offer_dag"))
    submit(st, meta, one_job_dag("d0"))
    st.run(until=60.0)
    assert meta.unacked() == ()
    assert placed_shards(st, "d0") == [home]


def test_dropped_confirm_reply_places_exactly_once():
    # The nasty leg: the confirm LANDS (the shard durably owns the
    # DAG) but the meta's ack dies.  The resent confirm must read as
    # idempotent, and the entry must never re-home.
    st = flaky_stack()
    meta = make_meta(st)
    home = home_of(st)
    st.bus.drop_reply.add((st.services[home], "confirm_dag"))
    submit(st, meta, one_job_dag("d0"))
    st.run(until=60.0)
    assert meta.unacked() == ()
    assert placed_shards(st, "d0") == [home]


def test_dropped_confirm_request_is_retried():
    st = flaky_stack()
    meta = make_meta(st)
    home = home_of(st)
    st.bus.drop_request.add((st.services[home], "confirm_dag"))
    submit(st, meta, one_job_dag("d0"))
    st.run(until=60.0)
    assert meta.unacked() == ()
    assert placed_shards(st, "d0") == [home]


def test_duplicated_forward_dispatches_place_exactly_once():
    st = flaky_stack()
    meta = make_meta(st)
    home = home_of(st)
    st.bus.ghost.add((st.services[home], "offer_dag"))
    st.bus.ghost.add((st.services[home], "confirm_dag"))
    submit(st, meta, one_job_dag("d0"))
    st.run(until=60.0)
    assert meta.unacked() == ()
    assert placed_shards(st, "d0") == [home]
    # The ghost confirm found the DAG already in the warehouse and the
    # ghost offer must not have parked a stale pending copy.
    assert st.servers[home]._pending_admissions == {}


def test_crash_wiping_pending_offer_replays_phase_one():
    # Confirm arriving at an incarnation that never saw the offer
    # (in-memory pendings die with a crash) answers "unknown"; the
    # meta must replay the offer on the same shard, not re-home.
    st = flaky_stack()
    home = home_of(st)
    server = st.servers[home]
    assert server._rpc_confirm_dag("never-offered") == "unknown"
    meta = make_meta(st)
    submit(st, meta, one_job_dag("d0"))
    st.run(until=10.0)
    assert meta.unacked() == ()
    assert placed_shards(st, "d0") == [home]
