"""Per-packet metadata extraction, kept as the oracle for the batch path.

``MetadataExtractor.extract_batch`` memoizes header and payload tags
across packets; this extractor derives every packet's tags from
scratch, with no cache, so tests can require the two to agree.
"""

from typing import Dict

from repro.capture.flows import WELL_KNOWN_SERVICES
from repro.capture.metadata import MetadataExtractor
from repro.netsim.packets import PacketRecord, Protocol


class OracleExtractor(MetadataExtractor):
    """``MetadataExtractor`` plus the uncached single-packet ``extract``."""

    def extract(self, packet: PacketRecord) -> Dict[str, str]:
        tags: Dict[str, str] = {
            "proto": Protocol(packet.protocol).name.lower()
            if packet.protocol in (1, 6, 17) else str(packet.protocol),
            "direction": packet.direction,
            "service": self._service(packet),
        }
        payload_tags = self._payload_tags(packet)
        tags.update(payload_tags)
        if self._topology is not None:
            internal_ip = (
                packet.dst_ip if packet.direction == "in" else packet.src_ip
            )
            node = self._topology.node_by_ip(internal_ip)
            if node is not None:
                dept = self._topology.department(node)
                if dept:
                    tags["department"] = dept
        return tags

    @staticmethod
    def _service(packet: PacketRecord) -> str:
        for port in sorted((packet.src_port, packet.dst_port)):
            if port in WELL_KNOWN_SERVICES:
                return WELL_KNOWN_SERVICES[port]
        return "other"

    def _payload_tags(self, packet: PacketRecord) -> Dict[str, str]:
        payload = packet.payload
        if not payload:
            return {}
        if packet.protocol == int(Protocol.UDP) and 53 in (
            packet.src_port, packet.dst_port
        ):
            return self._dns_tags(payload)
        return self._app_payload_tags(payload)
