"""The counts of ``callcounts.call_counts``, which the counted tests read."""

import gc
import sys

import pytest
from callcounts import call_counts

from smallrank.quarticrings import is_maximal_at_p, ring_from_pair


def test_call_counts_keys_generators_and_an_outer_profiler():
    # totally ramified at 11 and maximal there: the walk rejects all of its
    # 2p^2 + 2p + 3 = 267 candidates
    ring = ring_from_pair(((0, -1, 0, 0, 1, 0), (11, 0, 1, 0, 0, 0)))
    answer, counts = call_counts(is_maximal_at_p, ring, 11)
    assert answer == (True, None)
    # "<file stem>.<qualified name>" for Python functions, none for built-ins
    assert counts["quarticrings.is_maximal_at_p"] == counts["quarticrings.QuarticRing.disc"] == 1
    assert counts["quarticrings.QuarticRing.mul"] > 0 and counts["quarticrings.ring_from_pair"] == 0
    assert all(key.partition(".")[0] in ("errors", "exactlattice", "quarticrings") for key in counts)
    # a generator counts each resume, so one run to its end reads one more
    # than the candidates it yields
    assert counts["quarticrings._closed_mod_p"] == 267 and counts["quarticrings._radical_subspaces"] == 268
    sys.setprofile(lambda frame, event, arg: None)
    try:
        with pytest.raises(RuntimeError, match="cannot run under another profiler"):
            call_counts(is_maximal_at_p, ring, 11)
    finally:
        sys.setprofile(None)


def test_call_counts_runs_no_gc_callback():
    # a collection inside the counted call runs no gc callback, so the counts
    # name none, and the callback is back in place after the call
    phases = []

    def callback(phase, info):
        phases.append(phase)

    gc.callbacks.append(callback)
    try:
        _, counts = call_counts(gc.collect)
        assert counts["test_callcounts." + callback.__code__.co_qualname] == 0
        assert phases == [] and gc.callbacks[-1] is callback
        gc.collect()
        assert phases == ["start", "stop"]
    finally:
        gc.callbacks.remove(callback)


def test_call_counts_sets_off_no_collection_of_earlier_garbage():
    # 50 cycles made before the call, whose __del__ calls marker(): a call
    # that allocates enough containers to set off the automatic collector
    # would finalize them inside the counted call; the collector is off for
    # the call and back in its earlier state after it, on or off
    deleted = []

    def marker():
        deleted.append(1)

    class C:
        def __del__(self):
            marker()

    def allocate():
        out = []
        for _ in range(20000):
            out.append([])
        return len(out)

    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            for _ in range(50):
                c = C()
                c.self = c
            del c
            deleted.clear()
            n, counts = call_counts(allocate)
            assert n == 20000 and gc.isenabled() == enabled
            assert deleted == [] and set(counts) == {"test_callcounts." + allocate.__code__.co_qualname}
            for fn in (marker, C.__del__):
                assert counts["test_callcounts." + fn.__code__.co_qualname] == 0
            gc.collect()
            assert len(deleted) == 50
        finally:
            gc.enable()
