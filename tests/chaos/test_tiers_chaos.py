"""Chaos: kill the compactor at every injectable step; stall the queue.

The compaction protocol's contract is *crash-atomicity*: whatever step
the compactor dies at, the in-process store keeps answering with zero
data loss, a retry converges, and a reopen-from-disk sees a readable,
checksum-verified store.  These tests enumerate the injectable steps
with a ``skip``-addressed ``compact.crash`` fault — ``rate=1.0,
skip=k, limit=1`` crashes exactly the k-th opportunity — so every
crash window the implementation has is exercised by construction.
"""

import shutil

import pytest

from repro.chaos.faults import (
    CompactorCrashError, FaultKind, FaultPlan, FaultSpec,
)
from repro.datastore.query import Query
from repro.datastore.store import DataStore
from repro.datastore.tiers import StreamingIngestor, TierPolicy
from repro.netsim.packets import PacketRecord

#: forces all three op kinds: one warm merge (fan-in 4 over the six
#: sealed runs), spills past the warm cap, and a cold merge once two
#: cold segments exist.
POLICY = TierPolicy(warm_fanin=4, warm_max_segments=1, cold_fanin=2)
MEMTABLE = 8

#: every step the compactor can die at (checked exhaustive below).
EXPECTED_STEPS = {
    "warm-merge:plan", "warm-merge:apply",
    "spill:plan", "spill:write:columns", "spill:write:stats",
    "spill:write:manifest", "spill:swap", "spill:registry", "spill:apply",
    "cold-merge:plan", "cold-merge:write:columns",
    "cold-merge:write:stats", "cold-merge:write:manifest",
    "cold-merge:swap", "cold-merge:registry", "cold-merge:apply",
    "cold-merge:cleanup",
}


def _packet(ts, i):
    return PacketRecord(
        timestamp=ts, src_ip=f"10.0.{i % 3}.{i % 11}", dst_ip="10.1.0.1",
        src_port=1000 + i, dst_port=80 if i % 2 else 443, protocol=6,
        size=100 + i, payload_len=60, flags=2, ttl=64,
        payload=bytes([i % 251]) * (i % 4), flow_id=i % 5, app="web",
        label="benign", direction="in")


def _workload():
    return [[_packet(b * 1.0 + i * 0.01, b * 100 + i) for i in range(16)]
            for b in range(3)]


def _dump(store):
    return [(s.rid, s.record.timestamp, s.record.src_ip,
             s.record.src_port, s.record.dst_port, s.record.size,
             bytes(s.record.payload), dict(s.tags), s.label)
            for s in store.query(Query(collection="packets"))]


def _build(spill_dir, injector=None):
    store = DataStore(segment_capacity=MEMTABLE, tiers=POLICY,
                      spill_dir=spill_dir, fault_injector=injector)
    flat = DataStore()
    for batch in _workload():
        store.ingest_packets(batch)
        flat.ingest_packets(batch)
    store.seal_hot()
    return store, flat


def _crash_plan(skip):
    return FaultPlan(name=f"compact-crash-{skip}", seed=7, specs=(
        FaultSpec(kind=FaultKind.COMPACT_CRASH, rate=1.0, limit=1,
                  skip=skip),))


def _count_opportunities(tmp_path):
    """One clean run with the fault armed-but-never-firing counts how
    many injectable steps the workload's full compaction passes."""
    plan = FaultPlan(name="count", seed=7, specs=(
        FaultSpec(kind=FaultKind.COMPACT_CRASH, rate=0.0),))
    injector = plan.injector()
    store, flat = _build(tmp_path / "count", injector)
    store.compactor.run()
    assert _dump(store) == _dump(flat)
    return injector.summary()["compact.crash"]["opportunities"]


def test_compactor_crash_at_every_step_loses_nothing(tmp_path):
    total = _count_opportunities(tmp_path)
    assert total >= len(EXPECTED_STEPS)
    steps_hit = set()
    for k in range(total):
        injector = _crash_plan(k).injector()
        spill = tmp_path / f"crash-{k}"
        store, flat = _build(spill, injector)
        with pytest.raises(CompactorCrashError):
            store.compactor.run()
        (event,) = [e for e in injector.events
                    if e.kind == FaultKind.COMPACT_CRASH.value]
        steps_hit.add(event.detail["step"])

        # (a) the in-process store lost nothing, mid-crash
        assert _dump(store) == _dump(flat)

        # (b) a reopen right now (snapshot the dir: reopen clears
        # crash debris, and the live store may still reference it)
        snapshot = tmp_path / f"snap-{k}"
        shutil.copytree(spill, snapshot)
        reopened = DataStore(segment_capacity=MEMTABLE, tiers=POLICY,
                             spill_dir=snapshot)
        flat_by_rid = {row[0]: row for row in _dump(flat)}
        for row in _dump(reopened):
            assert row == flat_by_rid[row[0]]
        shutil.rmtree(snapshot)

        # (c) the retry converges — the fault is exhausted (limit=1)
        store.compactor.run()
        assert store.compactor.debt() == []
        assert _dump(store) == _dump(flat)

        # (d) flush everything down and reopen: checksums verify,
        # answers still bit-identical
        store.flush_to_cold()
        store.compactor.run()
        final = DataStore(segment_capacity=MEMTABLE, tiers=POLICY,
                          spill_dir=spill)
        assert _dump(final) == _dump(flat)
    # the sweep visited every injectable step the compactor defines
    assert steps_hit == EXPECTED_STEPS


def test_crash_during_flush_to_cold_is_retryable(tmp_path):
    """flush_to_cold drives the same spill protocol; crash it too."""
    injector = _crash_plan(1).injector()
    store, flat = _build(tmp_path / "flush", injector)
    with pytest.raises(CompactorCrashError):
        store.flush_to_cold()      # dies inside the first spill
    assert _dump(store) == _dump(flat)
    store.flush_to_cold()
    _, warm, cold = store.tier_segments()
    assert not warm and cold
    assert _dump(store) == _dump(flat)


def test_queue_stall_backpressure_is_accounted(tmp_path):
    """A stalled queue refuses the batch — and the capture engine's
    stats say so.  Backpressure is never silent."""
    from repro.capture.engine import CaptureEngine

    plan = FaultPlan(name="stall", seed=3, specs=(
        FaultSpec(kind=FaultKind.QUEUE_STALL, rate=1.0, limit=1),))
    injector = plan.injector()
    engine = CaptureEngine()
    store = DataStore(segment_capacity=MEMTABLE, tiers=POLICY,
                      fault_injector=injector)
    ingestor = StreamingIngestor(store, engine=engine,
                                 queue_records=10_000)
    batch = [_packet(i * 0.01, i) for i in range(20)]
    engine.ingest(batch)           # stall fires: refused + accounted
    engine.ingest(batch)           # limit exhausted: accepted
    assert engine.stats.packets_backpressure_dropped == 20
    assert engine.stats.bytes_backpressure_dropped == \
        sum(p.size for p in batch)
    assert ingestor.queue.rejected_batches == 1
    assert ingestor.queue.rejected_records == 20
    ingestor.drain()
    assert ingestor.ingested_records == 20
    # the loss shows up in the same stats surface capacity drops use
    assert engine.stats.packets_captured == 40
    assert engine.stats.packets_captured - len(_dump(store)) == \
        engine.stats.packets_backpressure_dropped
