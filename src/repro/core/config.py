"""Platform configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.privacy.policy import PrivacyLevel


@dataclass
class PlatformConfig:
    """Everything needed to stand up one campus platform instance.

    Attributes
    ----------
    campus_profile:
        Name from :data:`repro.netsim.campus.CAMPUS_PROFILES`.
    seed:
        Master seed for the campus, traffic, and events.
    privacy_level:
        Ingest-time privacy policy for the data store.
    capture_capacity_gbps:
        Capture appliance sustained rate; ``None`` = ideal lossless.
    window_s:
        Feature/sensing window used by featurizer and switch alike.
    segment_capacity:
        Data-store segment size (records).
    enable_sensors:
        Attach server-log / firewall / config sensors.
    store_shards:
        Data-store shard count (``DataStore(shards=...)``); >1
        partitions packets by time window x flow hash.
    workers:
        Worker processes for the parallel substrate; 0 = serial
        everywhere (the default, and the automatic fallback wherever
        process pools or shared memory are unavailable).
    obs_enabled:
        Build a :class:`repro.obs.Observability` and thread it through
        every layer (metrics + spans + flight recorder).  Off by
        default: the disabled path constructs nothing and instrumented
        code pays one ``is not None`` check.
    streaming:
        Put the packet collection on the tier ladder
        (``DataStore(tiers=TierPolicy(), spill_dir=...)``: hot
        memtable → sealed warm runs → cold mmap segments, per shard):
        capture batches flow through a bounded
        :class:`~repro.datastore.tiers.IngestQueue`, with queue-full
        refusals charged back into the capture engine's loss
        accounting instead of vanishing.
    streaming_queue_records:
        Ingest-queue capacity in records; a batch that would push the
        queue past this is refused whole (backpressure, accounted).
    streaming_memtable_records:
        Hot-tier memtable size (the store's ``segment_capacity`` when
        streaming); a full memtable seals into a sorted warm run.
    streaming_spill_dir:
        Directory for the cold tier's mmap segments and the crash-safe
        ``registry.json``; ``None`` keeps every tier in memory.
    """

    campus_profile: str = "small"
    seed: int = 0
    privacy_level: PrivacyLevel = PrivacyLevel.PREFIX_PRESERVING
    #: Crypto-PAn key for the ingest-time address anonymizer; ``None``
    #: keeps the historical shared default.  Federated deployments give
    #: every site its own key so no two enclaves share a pseudonym space.
    privacy_key: Optional[bytes] = None
    capture_capacity_gbps: Optional[float] = None
    capture_buffer_bytes: float = 256e6
    window_s: float = 5.0
    segment_capacity: int = 50_000
    enable_sensors: bool = True
    store_shards: int = 1
    workers: int = 0
    obs_enabled: bool = False
    #: also tap distribution<->core trunks so east-west traffic ("packets
    #: that stay inside the enterprise", §5) reaches the store
    monitor_internal: bool = False
    start_time: float = 8 * 3600.0
    streaming: bool = False
    streaming_queue_records: int = 65_536
    streaming_memtable_records: int = 8_192
    streaming_spill_dir: Optional[str] = None
