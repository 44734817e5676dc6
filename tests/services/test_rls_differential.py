"""Property test: the live inverted RLS index against a naive scan.

``ReplicaLocationIndex.lookup`` answers from an ``lfn -> holders`` map the
attached LRCs keep current; the obviously-correct answer is a scan over
every LRC in attach order.  After any sequence of attach / register /
re-register — including LFNs registered *before* their catalog was
attached — both must agree exactly, order included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services import LocalReplicaCatalog, ReplicaService

SITES = [f"s{i}" for i in range(6)]
LFNS = [f"f{i}" for i in range(5)]

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("attach"), st.sampled_from(SITES)),
        st.tuples(st.just("register"), st.sampled_from(SITES),
                  st.sampled_from(LFNS), st.sampled_from([0.0, 1.0, 2.5, 40.0])),
    ),
    max_size=40,
)


def naive_lookup(attached, lfn):
    return tuple(lrc.site_name for lrc in attached if lfn in lrc.lfns)


def naive_size_of(attached, lfn):
    for lrc in attached:
        if lfn in lrc.lfns:
            return lrc.size_of(lfn)
    return None


@settings(max_examples=300, deadline=None)
@given(ops=OPS)
def test_index_matches_naive_scan_in_attach_order(ops):
    svc = ReplicaService([])
    catalogs = {name: LocalReplicaCatalog(name) for name in SITES}
    attached: list[LocalReplicaCatalog] = []
    for op in ops:
        lrc = catalogs[op[1]]
        if op[0] == "attach":
            if lrc not in attached:
                svc.index.attach(lrc)
                attached.append(lrc)
        else:
            lrc.register(op[2], op[3])  # possibly a size update, or pre-attach
        for lfn in LFNS:
            want = naive_lookup(attached, lfn)
            assert svc.locations(lfn) == want
            assert svc.exists(lfn) is bool(want)
            assert svc.size_of(lfn) == naive_size_of(attached, lfn)
        assert svc.bulk_locations(LFNS) == {
            lfn: naive_lookup(attached, lfn) for lfn in LFNS
        }
        assert svc.index.sites == tuple(l.site_name for l in attached)
    # the index keeps no empty holder lists behind
    assert all(svc.index._holders.values())
