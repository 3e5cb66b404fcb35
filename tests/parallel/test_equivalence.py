"""Sharded + parallel execution is bit-identical to serial execution.

The substrate's contract: for any shard count and worker count, ingest
order (record ids), query results (records *and* their order), and
featurized datasets are exactly what the serial, unsharded pipeline
produces.  Worker-process equivalence runs on fixed seeds (forking
inside hypothesis would be slow); the sharding logic itself is
property-tested across adversarial window boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.metadata import MetadataExtractor
from repro.datastore.query import Query
from repro.datastore.store import DataStore
from repro.learning.features import FeatureConfig, SourceWindowFeaturizer
from repro.netsim.packets import PacketColumns, PacketRecord
from repro.parallel import ParallelExecutor, shm_available

WINDOW_S = 5.0
IPS = ["10.0.0.1", "10.0.0.2", "9.9.0.7", "192.168.1.20", "10.0.0"]
PORTS = [53, 80, 443, 40_001]
# timestamps hugging window boundaries: exact multiples, one ulp each
# side, and plain interior points
BOUNDARY_TIMES = sorted(
    {t for k in range(0, 5) for t in (
        k * WINDOW_S,
        float(np.nextafter(k * WINDOW_S, -np.inf)),
        float(np.nextafter(k * WINDOW_S, np.inf)),
        k * WINDOW_S + 1.7,
    ) if t >= 0.0}
)


def packet_strategy():
    return st.builds(
        PacketRecord,
        timestamp=st.sampled_from(BOUNDARY_TIMES),
        src_ip=st.sampled_from(IPS),
        dst_ip=st.sampled_from(IPS),
        src_port=st.sampled_from(PORTS),
        dst_port=st.sampled_from(PORTS),
        protocol=st.sampled_from([6, 17]),
        size=st.integers(min_value=40, max_value=1500),
        payload_len=st.integers(min_value=0, max_value=1460),
        flags=st.just(0), ttl=st.just(60),
        payload=st.sampled_from([b"", b"\x16\x03\x03\x01www.example.edu"]),
        flow_id=st.integers(min_value=0, max_value=9),
        app=st.sampled_from(["web", "dns", ""]),
        label=st.sampled_from(["", "benign", "scan"]),
        direction=st.sampled_from(["in", "out"]),
    )


def _serial_store(packets):
    store = DataStore(metadata_extractor=MetadataExtractor(),
                      segment_capacity=64)
    store.ingest_packets(list(packets))
    return store

def _sharded_store(packets, n_shards, columnar, executor=None):
    store = DataStore(shards=n_shards,
                      metadata_extractor=MetadataExtractor(),
                      segment_capacity=64, window_s=WINDOW_S,
                      executor=executor)
    batch = PacketColumns.from_records(list(packets)) if columnar \
        else list(packets)
    store.ingest_packets(batch)
    return store


def _snapshot(store, query):
    return [(s.rid, s.record, s.tags) for s in store.query(query)]


QUERIES = [
    Query(collection="packets", order_by_time=True),
    Query(collection="packets", order_by_time=False),
    Query(collection="packets", time_range=(4.0, 11.0),
          order_by_time=True),
    Query(collection="packets", where={"dst_port": 53},
          order_by_time=True),
    Query(collection="packets", where={"src_ip": "10.0.0.1"},
          order_by_time=False),
    Query(collection="packets", order_by_time=True, limit=7),
    Query(collection="packets", tags={"proto": "udp"},
          order_by_time=True),
]


@settings(max_examples=15, deadline=None)
@given(packets=st.lists(packet_strategy(), min_size=1, max_size=150),
       n_shards=st.sampled_from([1, 2, 4, 8]),
       columnar=st.booleans())
def test_sharded_store_matches_serial(packets, n_shards, columnar):
    serial = _serial_store(packets)
    sharded = _sharded_store(packets, n_shards, columnar)
    assert sharded.count("packets") == serial.count("packets")
    for query in QUERIES:
        assert _snapshot(sharded, query) == _snapshot(serial, query)


@settings(max_examples=10, deadline=None)
@given(packets=st.lists(packet_strategy(), min_size=1, max_size=150),
       n_shards=st.sampled_from([1, 2, 4, 8]),
       columnar=st.booleans())
def test_sharded_featurize_matches_serial(packets, n_shards, columnar):
    featurizer = SourceWindowFeaturizer(
        FeatureConfig(window_s=WINDOW_S, min_packets=1))
    serial = featurizer.from_store(_serial_store(packets))
    sharded = featurizer.from_store(_sharded_store(packets, n_shards,
                                                   columnar))
    assert np.array_equal(serial.X, sharded.X)
    assert np.array_equal(serial.y, sharded.y)
    assert serial.keys == sharded.keys
    assert serial.class_names == sharded.class_names


@pytest.mark.skipif(not shm_available(), reason="needs shared memory")
def test_worker_processes_match_serial_end_to_end():
    """Real worker pool: query + featurize identical to serial, and the
    tasks demonstrably ran in workers."""
    rng = np.random.default_rng(7)
    packets = [PacketRecord(
        timestamp=float(rng.uniform(0.0, 30.0)),
        src_ip=IPS[int(rng.integers(len(IPS)))],
        dst_ip=IPS[int(rng.integers(len(IPS) - 1))],
        src_port=int(rng.integers(1024, 60_000)),
        dst_port=int(PORTS[int(rng.integers(len(PORTS)))]),
        protocol=int(rng.choice([6, 17])), size=int(rng.integers(40, 1500)),
        payload_len=0, flags=0, ttl=60, payload=b"", flow_id=int(i % 11),
        app="web", label="scan" if i % 17 == 0 else "",
        direction="in" if i % 2 else "out",
    ) for i in range(3000)]

    serial = _serial_store(packets)
    featurizer = SourceWindowFeaturizer(
        FeatureConfig(window_s=WINDOW_S, min_packets=1))
    serial_ds = featurizer.from_store(serial)

    with ParallelExecutor(workers=2) as ex:
        sharded = _sharded_store(packets, 4, columnar=True, executor=ex)
        for query in QUERIES:
            assert _snapshot(sharded, query) == _snapshot(serial, query)
        parallel_ds = featurizer.from_store(sharded, executor=ex)
        assert ex.tasks_in_workers > 0
        assert ex.summary()["pool_failures"] == 0

    assert np.array_equal(serial_ds.X, parallel_ds.X)
    assert np.array_equal(serial_ds.y, parallel_ds.y)
    assert serial_ds.keys == parallel_ds.keys


def test_workers_zero_falls_back_to_serial_paths():
    """The workers=0 configuration (CI's guaranteed path) produces the
    same answers with zero worker tasks."""
    packets = [PacketRecord(
        timestamp=i * 0.01, src_ip=IPS[i % 4], dst_ip=IPS[(i + 1) % 4],
        src_port=40_000 + i, dst_port=PORTS[i % len(PORTS)],
        protocol=6, size=100, payload_len=0, flags=0, ttl=60, payload=b"",
        flow_id=i % 5, app="web", label="", direction="in",
    ) for i in range(500)]
    serial = _serial_store(packets)
    ex = ParallelExecutor(workers=0)
    sharded = _sharded_store(packets, 4, columnar=True, executor=ex)
    for query in QUERIES:
        assert _snapshot(sharded, query) == _snapshot(serial, query)
    assert ex.tasks_in_workers == 0
