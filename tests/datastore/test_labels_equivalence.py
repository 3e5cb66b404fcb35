"""The segment-wise labeller against the frozen query-driven oracle.

:class:`tests.datastore.labels_oracle.OracleLabeler` queries each
collection and calls ``GroundTruth.label_for`` per record.  The
production :class:`~repro.datastore.labels.Labeler` must write the same
label on every record and return an equal :class:`LabelSummary` for
every collection, on every store layout the platform builds.
"""

import copy

import pytest

from repro.capture.sensors import LogRecord
from repro.core import CampusPlatform, PlatformConfig
from repro.datastore import DataStore, Labeler, TierPolicy
from repro.events import make_scenario
from repro.events.base import EventWindow, GroundTruth
from repro.netsim.packets import DictColumn
from repro.privacy import PrivacyLevel
from tests.datastore.labels_oracle import OracleLabeler

COLLECTIONS = ("packets", "flows", "logs")


def _labels(store):
    return {c: [s.label for seg in store.segments(c) for s in seg.records]
            for c in COLLECTIONS}


def assert_same_labels(store, ground_truth):
    want_summaries = OracleLabeler(store, ground_truth).label_all()
    want = _labels(store)
    for collection in COLLECTIONS:
        for segment in store.segments(collection):
            if isinstance(segment.records, list):
                for stored in segment.records:
                    stored.label = None

    def no_query(query):
        raise AssertionError("the labeller must not query the store")

    store.query = no_query
    try:
        got_summaries = Labeler(store, ground_truth).label_all()
    finally:
        del store.query
    assert _labels(store) == want
    assert got_summaries == want_summaries
    return got_summaries


@pytest.fixture(scope="module", params=[PrivacyLevel.NONE,
                                        PrivacyLevel.PREFIX_PRESERVING],
                ids=["none", "prefix"])
def day(request):
    platform = CampusPlatform(PlatformConfig(
        campus_profile="tiny", seed=4, privacy_level=request.param))
    try:
        result = platform.collect(make_scenario("ddos", 30.0), seed=4)
    finally:
        platform.close()
    packets = [s.record for seg in platform.store.segments("packets")
               for s in seg.records]
    assert len(packets) > 1000
    return platform.store, packets, result.ground_truth


def _fresh(packets):
    return [copy.copy(p) for p in packets]


def test_platform_store(day):
    store, _, ground_truth = day
    summaries = assert_same_labels(store, ground_truth)
    assert all(seg.columns() is not None
               for seg in store.segments("packets"))
    assert summaries["packets"].records_seen == store.count("packets")
    assert summaries["flows"].records_seen == store.count("flows")


def test_flat_store_small_segments_with_logs(day):
    _, packets, ground_truth = day
    store = DataStore(segment_capacity=997)
    store.ingest_packets(_fresh(packets))
    window = ground_truth.windows[0]
    actor = window.actors[0]
    store.ingest_logs([
        LogRecord(timestamp=window.start_time, source="firewall",
                  kind="conn-blocked", message="", attrs={"src_ip": actor}),
        LogRecord(timestamp=window.end_time + 1.0, source="firewall",
                  kind="conn-blocked", message="", attrs={"dst_ip": actor}),
        LogRecord(timestamp=window.start_time, source="srv0:sshd",
                  kind="auth-fail", message=""),
    ])
    summaries = assert_same_labels(store, ground_truth)
    assert summaries["packets"].records_labeled > 0
    assert summaries["logs"].records_labeled == 1


def test_sharded_store(day):
    _, packets, ground_truth = day
    store = DataStore(shards=4, segment_capacity=1500)
    for lo in range(0, len(packets), 800):
        store.ingest_packets(_fresh(packets[lo:lo + 800]))
    assert_same_labels(store, ground_truth)


def test_tiered_store_before_and_after_compaction(day, tmp_path):
    _, packets, ground_truth = day
    packets = packets[::4]          # cold reads are slow; keep the span
    store = DataStore(tiers=TierPolicy(warm_fanin=2, warm_max_segments=2),
                      spill_dir=tmp_path / "spill", segment_capacity=600)
    for lo in range(0, len(packets), 450):
        store.ingest_packets(_fresh(packets[lo:lo + 450]))
    hot, warm, _ = store.tier_segments()
    assert hot and warm
    # the platform labels here: drained, not yet compacted
    before = assert_same_labels(store, ground_truth)
    assert before["packets"].records_labeled > 0
    while store.compactor.run():
        pass
    store.flush_to_cold()
    _, _, cold = store.tier_segments()
    assert cold
    after = assert_same_labels(store, ground_truth)
    assert after["packets"] == before["packets"]


def test_non_canonical_address_falls_back_to_dict_column(day):
    _, packets, ground_truth = day
    odd = _fresh(packets[:500])
    odd[7].src_ip = "010.0.0.7"            # not a canonical dotted quad
    odd[9].dst_ip = "campus-gw"
    window = ground_truth.windows[0]
    odd[7].timestamp = odd[9].timestamp = window.start_time
    gt = GroundTruth()
    gt.add(EventWindow(kind="x", label="odd", start_time=window.start_time,
                       end_time=window.start_time,
                       actors=["010.0.0.7", "campus-gw"]))
    for w in ground_truth.windows:
        gt.add(w)
    store = DataStore()
    store.ingest_packets(odd + _fresh(packets[500:]))
    segment = store.segments("packets")[0]
    assert isinstance(segment.columns().src_ip, DictColumn)
    summary = assert_same_labels(store, gt)["packets"]
    assert summary.by_label["odd"] == 2


def test_overlapping_windows_first_registered_wins(day):
    _, packets, _ = day
    times = sorted(p.timestamp for p in packets)
    t0, t1, t2 = times[100], times[len(times) // 2], times[-100]
    sources = sorted({p.src_ip for p in packets})
    dests = sorted({p.dst_ip for p in packets})
    gt = GroundTruth()
    # bounds sit exactly on packet timestamps
    gt.add(EventWindow(kind="a", label="first", start_time=t0,
                       end_time=t1, actors=sources[::2]))
    gt.add(EventWindow(kind="b", label="second", start_time=t0,
                       end_time=t2, actors=sources, victims=dests[:3]))
    gt.add(EventWindow(kind="c", label="first", start_time=t1,
                       end_time=t1, victims=dests))
    gt.add(EventWindow(kind="d", label="benign", start_time=t2,
                       end_time=times[-1], actors=sources))
    gt.add(EventWindow(kind="e", label="never", start_time=t2, end_time=t0,
                       actors=sources))
    store = DataStore(segment_capacity=1024)
    store.ingest_packets(_fresh(packets))
    summary = assert_same_labels(store, gt)["packets"]
    assert summary.by_label["first"] and summary.by_label["second"]
    assert "never" not in summary.by_label
    assert summary.records_labeled == \
        summary.by_label["first"] + summary.by_label["second"]


def test_unsorted_segment(day):
    _, packets, ground_truth = day
    shuffled = _fresh(packets)
    shuffled.reverse()
    store = DataStore(segment_capacity=2000)
    store.ingest_packets(shuffled)
    assert not store.segments("packets")[0].columns().time_sorted
    assert_same_labels(store, ground_truth)


def test_no_windows_and_empty_store():
    store = DataStore()
    assert_same_labels(store, GroundTruth())
