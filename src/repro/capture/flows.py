"""Packet-to-flow assembly (NetFlow-style records).

The data store keeps both raw packets and assembled flow records; most
feature extraction works at flow granularity.  Assembly is keyed on the
direction-insensitive canonical 5-tuple with an idle timeout, the same
semantics as a router's flow cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.netsim.packets import PacketRecord, TcpFlags

WELL_KNOWN_SERVICES = {
    22: "ssh", 23: "telnet", 25: "smtp", 53: "dns", 80: "http",
    110: "pop3", 123: "ntp", 143: "imap", 443: "https", 445: "smb",
    587: "smtp", 993: "imaps", 3306: "mysql", 3389: "rdp", 5432: "postgres",
    6379: "redis", 8080: "http-alt",
}

# Plain-int flag masks: ``int & TcpFlags.X`` dispatches to the enum's
# Python-level ``__rand__``, which dominated per-packet assembly cost.
_FIN = int(TcpFlags.FIN)
_SYN = int(TcpFlags.SYN)
_RST = int(TcpFlags.RST)


@dataclass
class FlowRecord:
    """Bidirectional flow summary assembled from packets."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    first_seen: float
    last_seen: float
    packets_fwd: int = 0
    packets_rev: int = 0
    bytes_fwd: int = 0
    bytes_rev: int = 0
    syn_count: int = 0
    fin_count: int = 0
    rst_count: int = 0
    min_ttl: int = 255
    label: str = "benign"
    app_hint: str = ""
    flow_ids: List[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(self.last_seen - self.first_seen, 0.0)

    @property
    def total_packets(self) -> int:
        return self.packets_fwd + self.packets_rev

    @property
    def total_bytes(self) -> int:
        return self.bytes_fwd + self.bytes_rev

    @property
    def service(self) -> str:
        """Best-effort service name from the lower well-known port."""
        for port in sorted((self.src_port, self.dst_port)):
            if port in WELL_KNOWN_SERVICES:
                return WELL_KNOWN_SERVICES[port]
        return "other"

    @property
    def byte_ratio(self) -> float:
        """Responder-to-initiator byte ratio (amplification signal)."""
        if self.bytes_fwd == 0:
            return float(self.bytes_rev)
        return self.bytes_rev / self.bytes_fwd


class FlowAssembler:
    """Builds :class:`FlowRecord` objects from a packet stream.

    The first packet observed for a canonical key defines the flow's
    forward direction (initiator = that packet's source).
    """

    def __init__(self, idle_timeout_s: float = 60.0):
        self.idle_timeout_s = float(idle_timeout_s)
        self._active: Dict[Tuple, FlowRecord] = {}
        self._initiator: Dict[Tuple, str] = {}
        self.finished: List[FlowRecord] = []

    def add_packets(self, packets: Iterable[PacketRecord]) -> None:
        """Fold a packet batch into the flow cache, in order.

        The canonical key is computed once per distinct raw 5-tuple in
        the batch, and flag bits are tested on plain ints.
        """
        active = self._active
        initiator = self._initiator
        idle_timeout_s = self.idle_timeout_s
        keys: Dict[Tuple, Tuple] = {}
        for packet in packets:
            src_ip = packet.src_ip
            src_port = packet.src_port
            dst_ip = packet.dst_ip
            dst_port = packet.dst_port
            protocol = packet.protocol
            raw = (src_ip, dst_ip, src_port, dst_port, protocol)
            key = keys.get(raw)
            if key is None:
                a = (src_ip, src_port)
                b = (dst_ip, dst_port)
                key = keys[raw] = (a, b, protocol) if a <= b \
                    else (b, a, protocol)
            timestamp = packet.timestamp
            record = active.get(key)
            if record is not None and (
                timestamp - record.last_seen > idle_timeout_s
            ):
                self.finished.append(record)
                record = None
            if record is None:
                record = FlowRecord(
                    src_ip=src_ip, dst_ip=dst_ip,
                    src_port=src_port, dst_port=dst_port,
                    protocol=protocol,
                    first_seen=timestamp, last_seen=timestamp,
                    label=packet.label, app_hint=packet.app,
                )
                active[key] = record
                initiator[key] = src_ip

            if src_ip == initiator[key]:
                record.packets_fwd += 1
                record.bytes_fwd += packet.size
            else:
                record.packets_rev += 1
                record.bytes_rev += packet.size
            # same results as max()/min(), without the builtin calls
            if timestamp > record.last_seen:
                record.last_seen = timestamp
            if timestamp < record.first_seen:
                record.first_seen = timestamp
            if packet.ttl < record.min_ttl:
                record.min_ttl = packet.ttl
            flags = int(packet.flags)
            if flags & _SYN:
                record.syn_count += 1
            if flags & _FIN:
                record.fin_count += 1
            if flags & _RST:
                record.rst_count += 1
            if packet.label != "benign":
                record.label = packet.label
            if packet.flow_id not in record.flow_ids:
                record.flow_ids.append(packet.flow_id)

    def flush(self) -> List[FlowRecord]:
        """Close all active flows; returns the complete record list."""
        self.finished.extend(self._active.values())
        self._active.clear()
        self._initiator.clear()
        return self.finished

    def records(self) -> List[FlowRecord]:
        """All finished plus in-progress records (non-destructive)."""
        return self.finished + list(self._active.values())
