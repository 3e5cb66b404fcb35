"""Capture engine: losslessness, capacity losses, stats."""

import pytest

from repro.capture.engine import CaptureEngine
from repro.netsim.packets import PacketRecord


def _packet(ts, size=1500):
    return PacketRecord(
        timestamp=ts, src_ip="9.9.9.9", dst_ip="10.0.0.1",
        src_port=53, dst_port=4444, protocol=17, size=size,
        payload_len=size - 28, flags=0, ttl=60, payload=b"",
        flow_id=1, app="dns", label="benign", direction="in",
    )


def test_default_engine_is_lossless():
    engine = CaptureEngine()
    packets = [_packet(i * 0.001) for i in range(1000)]
    captured = engine.ingest(packets)
    assert len(captured) == 1000
    assert engine.stats.loss_rate == 0.0
    assert engine.lossless


def test_capacity_enforced_per_bin():
    # 1 Mbps capacity, no buffer: 125 kB per 1s bin.
    engine = CaptureEngine(capacity_gbps=0.001, buffer_bytes=0)
    packets = [_packet(0.5, size=25_000) for _ in range(10)]   # 250 kB
    captured = engine.ingest(packets)
    assert len(captured) == 5
    assert engine.stats.packets_dropped == 5
    assert engine.stats.loss_rate == pytest.approx(0.5)


def test_buffer_absorbs_burst():
    engine = CaptureEngine(capacity_gbps=0.001, buffer_bytes=125_000)
    packets = [_packet(0.5, size=25_000) for _ in range(10)]
    captured = engine.ingest(packets)
    assert len(captured) == 10


def test_bins_are_independent():
    engine = CaptureEngine(capacity_gbps=0.001, buffer_bytes=0)
    first_bin = [_packet(0.2, size=125_000)]
    second_bin = [_packet(1.2, size=125_000)]
    assert len(engine.ingest(first_bin)) == 1
    assert len(engine.ingest(second_bin)) == 1


def test_subscribers_receive_captured_only():
    engine = CaptureEngine(capacity_gbps=0.001, buffer_bytes=0)
    received = []
    engine.subscribe(lambda batch: received.extend(batch))
    engine.ingest([_packet(0.5, size=125_000), _packet(0.5, size=125_000)])
    assert len(received) == 1


def test_empty_batch_noop():
    engine = CaptureEngine()
    assert engine.ingest([]) == []
    assert engine.stats.packets_offered == 0


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        CaptureEngine(capacity_gbps=0.0)


def test_byte_stats_accumulate():
    engine = CaptureEngine()
    engine.ingest([_packet(0.0, size=1000), _packet(0.1, size=500)])
    assert engine.stats.bytes_offered == 1500
    assert engine.stats.bytes_captured == 1500
    assert engine.stats.byte_loss_rate == 0.0


def test_byte_loss_rate_counts_backpressure():
    engine = CaptureEngine()
    batch = [_packet(0.0, size=1000), _packet(0.1, size=500),
             _packet(0.2, size=300)]
    engine.ingest(batch)
    engine.account_backpressure(batch[1:])     # queue refused 800 bytes
    assert engine.stats.bytes_dropped == 0
    assert engine.stats.byte_loss_rate == 800 / 1800
    assert engine.stats.loss_rate == 2 / 3
