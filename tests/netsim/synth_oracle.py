"""The per-packet synthesizer, frozen as the oracle for the production one.

:func:`repro.netsim.packets.synthesize_packets` builds each flow
direction's constants once and sorts the two runs with one stable
timestamp sort.  The functions below are the earlier per-packet
version, verbatim: flags from ``_flags_for`` per packet, a
``(timestamp, direction)`` sort and a DNS amplification payload that
encodes its query name on every call.  Tests require the two
synthesizers to agree field for field, in value, type and order.
"""

import math
import struct
from typing import List

from repro.netsim.packets import (
    MAX_SEGMENT,
    PacketRecord,
    Protocol,
    TcpFlags,
    _spread_times,
)
from repro.netsim.traffic.payloads import _digest, encode_dns_qname


def synthesize_packets(
    flow,
    payload_fn=None,
    max_packets: int = 10_000,
) -> List[PacketRecord]:
    """Expand a flow into forward and reverse packet records.

    Parameters
    ----------
    flow:
        A :class:`repro.netsim.flows.Flow` whose ``start_time`` and
        ``end_time`` are set (it must have finished, or been truncated).
    payload_fn:
        Optional callable ``(flow, index, direction) -> bytes`` giving
        the leading payload fragment of each packet.  Defaults to the
        flow's application payload synthesizer if present.
    max_packets:
        Safety cap per direction; very large flows are represented by
        proportionally larger packets so total bytes are preserved.
    """
    if flow.end_time is None:
        raise ValueError(f"flow {flow.flow_id} has not finished")
    records: List[PacketRecord] = []
    proto = Protocol(flow.protocol)
    header = proto.header_bytes()
    if payload_fn is None:
        payload_fn = getattr(flow, "payload_fn", None)

    for direction, total_bytes, key in (
        ("fwd", flow.fwd_bytes, flow.key),
        ("rev", flow.rev_bytes, flow.key.reversed()),
    ):
        if total_bytes <= 0:
            continue
        n_packets = max(1, math.ceil(total_bytes / MAX_SEGMENT))
        scale = 1
        if n_packets > max_packets:
            scale = math.ceil(n_packets / max_packets)
            n_packets = math.ceil(n_packets / scale)
        per_packet = total_bytes / n_packets
        times = _spread_times(flow.start_time, flow.end_time, n_packets)
        wire_dir = flow.wire_direction(direction)
        for i, ts in enumerate(times):
            payload_len = int(round(per_packet))
            if i == n_packets - 1:
                payload_len = int(total_bytes - int(round(per_packet)) * (n_packets - 1))
                payload_len = max(payload_len, 0)
            flags = _flags_for(proto, i, n_packets, direction)
            fragment = b""
            if payload_fn is not None:
                fragment = payload_fn(flow, i, direction)
            records.append(
                PacketRecord(
                    timestamp=ts,
                    src_ip=key.src_ip,
                    dst_ip=key.dst_ip,
                    src_port=key.src_port,
                    dst_port=key.dst_port,
                    protocol=int(proto),
                    size=payload_len + header,
                    payload_len=payload_len,
                    flags=int(flags),
                    ttl=flow.ttl,
                    payload=fragment[:64],
                    flow_id=flow.flow_id,
                    app=flow.app,
                    label=flow.label,
                    direction=wire_dir,
                )
            )
    records.sort(key=lambda r: (r.timestamp, r.direction))
    return records


def _flags_for(proto: Protocol, index: int, total: int, direction: str) -> TcpFlags:
    if proto is not Protocol.TCP:
        return TcpFlags.NONE
    if index == 0:
        return TcpFlags.SYN if direction == "fwd" else TcpFlags.SYN | TcpFlags.ACK
    if index == total - 1:
        return TcpFlags.FIN | TcpFlags.ACK
    return TcpFlags.ACK


def dns_amplification_payload(flow, index: int, direction: str) -> bytes:
    """ANY-query reflection: tiny spoofed query, huge response."""
    txid = (flow.flow_id + index) & 0xFFFF
    qname = encode_dns_qname("anydomain.example.com")
    if direction == "fwd":
        header = struct.pack(">HHHHHH", txid, 0x0100, 1, 0, 0, 0)
        return header + qname + struct.pack(">HH", 255, 1)  # QTYPE=ANY
    header = struct.pack(">HHHHHH", txid, 0x8180, 1, 28, 0, 12)
    return header + qname + _digest(flow.flow_id, index) * 2
