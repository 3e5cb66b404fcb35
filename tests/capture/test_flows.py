"""Flow assembly from packets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.flows import FlowAssembler, FlowRecord
from repro.netsim.packets import PacketRecord, TcpFlags


def _pkt(ts, src, dst, sport, dport, size=1000, flags=0, proto=6,
         label="benign", flow_id=1):
    return PacketRecord(
        timestamp=ts, src_ip=src, dst_ip=dst, src_port=sport,
        dst_port=dport, protocol=proto, size=size, payload_len=size - 40,
        flags=flags, ttl=64, payload=b"", flow_id=flow_id, app="web",
        label=label, direction="out",
    )


def test_bidirectional_assembly():
    asm = FlowAssembler()
    asm.add_packets([_pkt(0.0, "10.0.0.1", "8.8.8.8", 1234, 443,
                          flags=int(TcpFlags.SYN))])
    asm.add_packets([_pkt(0.1, "8.8.8.8", "10.0.0.1", 443, 1234, size=4000)])
    asm.add_packets([_pkt(0.2, "10.0.0.1", "8.8.8.8", 1234, 443, size=200)])
    records = asm.flush()
    assert len(records) == 1
    r = records[0]
    assert r.src_ip == "10.0.0.1"           # initiator
    assert r.packets_fwd == 2 and r.packets_rev == 1
    assert r.bytes_fwd == 1200 and r.bytes_rev == 4000
    assert r.syn_count == 1
    assert r.duration == pytest.approx(0.2)


def test_distinct_five_tuples_distinct_flows():
    asm = FlowAssembler()
    asm.add_packets([_pkt(0.0, "10.0.0.1", "8.8.8.8", 1234, 443)])
    asm.add_packets([_pkt(0.0, "10.0.0.1", "8.8.8.8", 1235, 443)])
    assert len(asm.flush()) == 2


def test_idle_timeout_splits_flow():
    asm = FlowAssembler(idle_timeout_s=10.0)
    asm.add_packets([_pkt(0.0, "10.0.0.1", "8.8.8.8", 1234, 443)])
    asm.add_packets([_pkt(100.0, "10.0.0.1", "8.8.8.8", 1234, 443)])
    assert len(asm.flush()) == 2


def test_label_propagates_from_any_packet():
    asm = FlowAssembler()
    asm.add_packets([_pkt(0.0, "9.9.9.9", "10.0.0.1", 53, 4444)])
    asm.add_packets([_pkt(0.1, "9.9.9.9", "10.0.0.1", 53, 4444,
                          label="ddos-dns-amp")])
    assert asm.flush()[0].label == "ddos-dns-amp"


def test_service_and_byte_ratio():
    r = FlowRecord(src_ip="a", dst_ip="b", src_port=50000, dst_port=53,
                   protocol=17, first_seen=0, last_seen=1,
                   bytes_fwd=100, bytes_rev=4000)
    assert r.service == "dns"
    assert r.byte_ratio == pytest.approx(40.0)
    zero = FlowRecord(src_ip="a", dst_ip="b", src_port=1, dst_port=2,
                      protocol=6, first_seen=0, last_seen=0,
                      bytes_fwd=0, bytes_rev=500)
    assert zero.service == "other"
    assert zero.byte_ratio == 500.0


def test_records_nondestructive_vs_flush():
    asm = FlowAssembler()
    asm.add_packets([_pkt(0.0, "10.0.0.1", "8.8.8.8", 1234, 443)])
    assert len(asm.records()) == 1
    assert len(asm.records()) == 1        # still there
    assert len(asm.flush()) == 1
    assert asm.records() == asm.finished


def test_min_ttl_tracked():
    asm = FlowAssembler()
    p1 = _pkt(0.0, "10.0.0.1", "8.8.8.8", 1234, 443)
    p2 = _pkt(0.1, "10.0.0.1", "8.8.8.8", 1234, 443)
    p2.ttl = 40
    asm.add_packets([p1, p2])
    assert asm.flush()[0].min_ttl == 40


# -- equivalence with the per-packet assembler -------------------------------


class _PerPacketAssembler(FlowAssembler):
    """Oracle: the per-packet ``add_packet`` body the batch loop replaced,
    frozen verbatim (``FiveTuple`` keys, ``TcpFlags`` tests)."""

    def add_packet(self, packet: PacketRecord) -> None:
        key = packet.five_tuple().canonical()
        record = self._active.get(key)
        if record is not None and (
            packet.timestamp - record.last_seen > self.idle_timeout_s
        ):
            self.finished.append(record)
            record = None
        if record is None:
            record = FlowRecord(
                src_ip=packet.src_ip, dst_ip=packet.dst_ip,
                src_port=packet.src_port, dst_port=packet.dst_port,
                protocol=packet.protocol,
                first_seen=packet.timestamp, last_seen=packet.timestamp,
                label=packet.label, app_hint=packet.app,
            )
            self._active[key] = record
            self._initiator[key] = packet.src_ip

        forward = packet.src_ip == self._initiator[key]
        if forward:
            record.packets_fwd += 1
            record.bytes_fwd += packet.size
        else:
            record.packets_rev += 1
            record.bytes_rev += packet.size
        record.last_seen = max(record.last_seen, packet.timestamp)
        record.first_seen = min(record.first_seen, packet.timestamp)
        record.min_ttl = min(record.min_ttl, packet.ttl)
        if packet.flags & TcpFlags.SYN:
            record.syn_count += 1
        if packet.flags & TcpFlags.FIN:
            record.fin_count += 1
        if packet.flags & TcpFlags.RST:
            record.rst_count += 1
        if packet.label != "benign":
            record.label = packet.label
        if packet.flow_id not in record.flow_ids:
            record.flow_ids.append(packet.flow_id)

    def add_packets(self, packets):
        for packet in packets:
            self.add_packet(packet)


_IDLE_TIMEOUT_S = 5.0
_TUPLES = [
    ("10.0.0.1", "8.8.8.8", 1234, 443, 6),
    ("10.0.0.1", "8.8.8.8", 1235, 443, 6),
    ("10.0.0.2", "9.9.9.9", 5353, 53, 17),
    ("10.0.0.1", "10.0.0.1", 80, 80, 6),         # both ends equal
]


@st.composite
def _packet_streams(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    packets, ts = [], 0.0
    for _ in range(n):
        src, dst, sport, dport, proto = draw(st.sampled_from(_TUPLES))
        if draw(st.booleans()):                       # reverse direction
            src, dst, sport, dport = dst, src, dport, sport
        # gaps straddle the idle timeout, including exactly on it; a
        # negative gap is a packet that arrives out of timestamp order
        ts += draw(st.sampled_from([-0.5, 0.0, 0.5, _IDLE_TIMEOUT_S - 0.01,
                                    _IDLE_TIMEOUT_S, _IDLE_TIMEOUT_S + 0.01,
                                    3 * _IDLE_TIMEOUT_S]))
        bits = draw(st.integers(min_value=0, max_value=31))
        flags = TcpFlags(bits) if draw(st.booleans()) else bits
        packet = _pkt(ts, src, dst, sport, dport,
                      size=draw(st.integers(min_value=40, max_value=1500)),
                      flags=flags, proto=proto,
                      label=draw(st.sampled_from(
                          ["benign", "benign", "ddos-dns-amp", "scan"])),
                      flow_id=draw(st.integers(min_value=1, max_value=3)))
        packet.ttl = draw(st.integers(min_value=1, max_value=255))
        packets.append(packet)
    return packets


def _fields(records):
    return [vars(r) for r in records]


@settings(max_examples=150, deadline=None)
@given(packets=_packet_streams(), data=st.data())
def test_add_packets_matches_per_packet_oracle(packets, data):
    oracle = _PerPacketAssembler(idle_timeout_s=_IDLE_TIMEOUT_S)
    oracle.add_packets(packets)

    batch = FlowAssembler(idle_timeout_s=_IDLE_TIMEOUT_S)
    batch.add_packets(packets)
    assert _fields(batch.finished) == _fields(oracle.finished)
    assert _fields(batch.records()) == _fields(oracle.records())

    one_by_one = FlowAssembler(idle_timeout_s=_IDLE_TIMEOUT_S)
    for packet in packets:
        one_by_one.add_packets([packet])
    assert _fields(one_by_one.records()) == _fields(batch.records())

    # any split of the stream into consecutive batches gives the same
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=len(packets)), max_size=4)))
    split = FlowAssembler(idle_timeout_s=_IDLE_TIMEOUT_S)
    for lo, hi in zip([0] + cuts, cuts + [len(packets)]):
        split.add_packets(packets[lo:hi])
    assert _fields(split.flush()) == _fields(oracle.flush())
