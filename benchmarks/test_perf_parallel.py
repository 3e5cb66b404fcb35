"""Parallel-substrate benchmarks: workers=1 vs workers=4.

Each operation (sharded ingest with metadata extraction, sharded
query, windowed featurization) is benchmarked at both worker counts so
``BENCH_substrate.json`` records the scaling honestly for the machine
that ran it.  The worker pool is created (and warmed) in a
module-scoped fixture — the benchmark measures the operation, not
process forking.

On a single-core runner the w4 numbers will not beat w1 (four workers
time-slicing one core adds shipping overhead and removes nothing);
the suite still gates both configurations against 3x regressions and,
more importantly, keeps the parallel paths exercised.
"""

import numpy as np
import pytest

from repro.capture.metadata import MetadataExtractor
from repro.datastore.query import Query
from repro.datastore.store import DataStore
from repro.learning.features import SourceWindowFeaturizer
from repro.netsim.packets import PacketColumns, PacketRecord
from repro.parallel import ParallelExecutor

N_SHARDS = 4
N_PACKETS = 20_000


def _noop(i):
    return i


def _packets(n):
    payload = b"\x16\x03\x03\x01www.example.edu"
    return [PacketRecord(
        timestamp=i * 0.002,
        src_ip=f"10.{(i // 977) % 4}.{i % 250}.{i % 199}",
        dst_ip=f"9.9.{i % 50}.7",
        src_port=40_000 + (i % 1000),
        dst_port=443 if i % 3 else 53,
        protocol=6 if i % 3 else 17,
        size=800 + (i % 600), payload_len=760, flags=0, ttl=60,
        payload=payload, flow_id=i, app="web", label="benign",
        direction="in" if i % 2 else "out",
    ) for i in range(n)]


@pytest.fixture(scope="module", params=[1, 4], ids=["w1", "w4"])
def executor(request):
    ex = ParallelExecutor(workers=request.param)
    # fork + import cost lands here, not in the benchmark rounds
    ex.map_tasks(_noop, [(i,) for i in range(request.param)])
    yield ex
    ex.shutdown()


@pytest.fixture(scope="module")
def columns():
    return PacketColumns.from_records(_packets(N_PACKETS))


@pytest.fixture(scope="module")
def store(executor, columns):
    st = DataStore(shards=N_SHARDS, executor=executor)
    st.ingest_packets(columns)
    return st


def test_perf_parallel_ingest(benchmark, executor, columns):
    def ingest():
        st = DataStore(shards=N_SHARDS,
                       metadata_extractor=MetadataExtractor(),
                       executor=executor)
        return st.ingest_packets(columns)

    count = benchmark(ingest)
    assert count == N_PACKETS


def test_perf_parallel_query(benchmark, store):
    query = Query(collection="packets", where={"dst_port": 53},
                  order_by_time=True)

    result = benchmark(lambda: store.query(query))
    assert len(result) == sum(1 for i in range(N_PACKETS) if i % 3 == 0)


def test_perf_parallel_featurize(benchmark, store, executor):
    featurizer = SourceWindowFeaturizer()

    dataset = benchmark(
        lambda: featurizer.from_store(store, executor=executor))
    assert len(dataset.X) > 0
